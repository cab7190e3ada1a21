#include "core/controller.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {
namespace {

size_t ResolveWindow(const ControllerOptions& options) {
  if (options.history_window > 0) return options.history_window;
  return GroupHistory::MinWindow(static_cast<size_t>(options.num_workers),
                                 static_cast<size_t>(options.group_size));
}

}  // namespace

Controller::Controller(const ControllerOptions& options)
    : options_(options),
      effective_group_size_(options.group_size),
      filter_(static_cast<size_t>(options.group_size), options.topology,
              options.group_cost_budget),
      history_(static_cast<size_t>(options.num_workers),
               ResolveWindow(options)),
      matrix_expectation_(static_cast<size_t>(options.num_workers)) {
  departed_.assign(static_cast<size_t>(options.num_workers), false);
  PR_CHECK_GE(options.num_workers, 2);
  PR_CHECK_GE(options.group_size, 2);
  PR_CHECK_LE(options.group_size, options.num_workers);
  hierarchical_ = options.hierarchy.enabled && !options.topology.flat() &&
                  options.topology.num_nodes() > 1;
  if (hierarchical_) {
    PR_CHECK_GE(options.hierarchy.cross_period, 1);
  }
}

void Controller::Restore(const ControllerRestoreState& state) {
  for (const std::vector<int>& group : state.history) {
    if (group.empty()) continue;
    history_.Record(group);
  }
  next_group_id_ = std::max(next_group_id_, state.next_group_id);
}

void Controller::AttachObservers(MetricsShard* metrics, TraceRecorder* trace,
                                 std::function<double()> now) {
  trace_ = trace;
  now_ = std::move(now);
  if (metrics != nullptr) {
    signals_counter_ = metrics->Get(metric::kControllerSignalsReceived);
    groups_counter_ = metrics->Get(metric::kControllerGroupsFormed);
    bridged_counter_ = metrics->Get(metric::kControllerBridgedGroups);
    frozen_counter_ = metrics->Get(metric::kControllerFrozenDetections);
    holds_counter_ = metrics->Get(metric::kControllerHolds);
    cross_node_counter_ = metrics->Get(metric::kTopoCrossNodeGroups);
    intra_node_counter_ = metrics->Get(metric::kTopoIntraNodeGroups);
    pending_high_water_ = metrics->Get(metric::kControllerPendingHighWater);
    decision_latency_ = metrics->Get(metric::kControllerDecisionLatency);
  }
}

bool Controller::IntraNodeGroupPossible() const {
  for (const std::vector<int>& node : options_.topology.nodes()) {
    int live = 0;
    for (int w : node) {
      if (w < options_.num_workers && !departed_[static_cast<size_t>(w)]) {
        ++live;
      }
    }
    if (live >= effective_group_size_) return true;
  }
  return false;
}

bool Controller::QueueSpansComponents() const {
  const SyncGraph graph = history_.BuildSyncGraph();
  const int first = graph.ComponentOf(pending_.front().worker);
  for (const ReadySignal& s : pending_) {
    if (graph.ComponentOf(s.worker) != first) return true;
  }
  return false;
}

bool Controller::AnotherComponentCanGroupAlone() const {
  const SyncGraph graph = history_.BuildSyncGraph();
  const int queued = graph.ComponentOf(pending_.front().worker);
  // Component ids are worker ids (union-find roots), so N slots suffice.
  std::vector<int> live(static_cast<size_t>(options_.num_workers), 0);
  for (int w = 0; w < options_.num_workers; ++w) {
    const int c = graph.ComponentOf(w);
    if (!departed_[static_cast<size_t>(w)] && c != queued &&
        ++live[static_cast<size_t>(c)] >= effective_group_size_) {
      return true;
    }
  }
  return false;
}

bool Controller::MergeAwaitsAnotherNode() const {
  const Topology& topo = options_.topology;
  const int node = topo.NodeOf(pending_.front().worker);
  for (const ReadySignal& s : pending_) {
    if (topo.NodeOf(s.worker) != node) return false;
  }
  for (int w = 0; w < options_.num_workers; ++w) {
    if (!departed_[static_cast<size_t>(w)] && topo.NodeOf(w) != node) {
      return true;
    }
  }
  return false;
}

void Controller::RecordHold() {
  if (holds_counter_ != nullptr) holds_counter_->Increment();
  if (trace_ != nullptr) {
    trace_->Record(TraceNow(), TraceEventKind::kGroupHeld, -1,
                   static_cast<int64_t>(pending_.size()));
  }
}

std::vector<GroupDecision> Controller::OnReadySignal(int worker,
                                                     int64_t iteration) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, options_.num_workers);
  PR_CHECK(!departed_[static_cast<size_t>(worker)])
      << "worker " << worker << " signaled after leaving";
  pending_.push_back(ReadySignal{worker, iteration});
  ++stats_.signals_received;
  if (signals_counter_ != nullptr) {
    signals_counter_->Increment();
    pending_high_water_->SetMax(static_cast<double>(pending_.size()));
  }
  if (trace_ != nullptr) {
    trace_->Record(TraceNow(), TraceEventKind::kSignalEnqueued, worker,
                   iteration);
  }
  if (decision_latency_ == nullptr) return TryFormGroups();
  // Decision latency: CPU cost of the full ingest -> filter -> weight
  // pipeline for this signal, on a real clock even under the simulator.
  const auto begin = std::chrono::steady_clock::now();
  std::vector<GroupDecision> formed = TryFormGroups();
  decision_latency_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count());
  return formed;
}

std::vector<GroupDecision> Controller::NotifyWorkerLeft(int worker) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, options_.num_workers);
  departed_[static_cast<size_t>(worker)] = true;
  // Departure can turn a held queue into a releasable one.
  return TryFormGroups();
}

std::vector<GroupDecision> Controller::NotifyWorkerRejoined(int worker) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, options_.num_workers);
  departed_[static_cast<size_t>(worker)] = false;
  return TryFormGroups();
}

std::vector<GroupDecision> Controller::SetEffectiveGroupSize(int p) {
  p = std::max(2, std::min(p, options_.group_size));
  if (p == effective_group_size_) return {};
  effective_group_size_ = p;
  filter_ = GroupFilter(static_cast<size_t>(p), options_.topology,
                        options_.group_cost_budget);
  // A smaller P can make the already-queued signals sufficient.
  return TryFormGroups();
}

std::vector<GroupDecision> Controller::TryFormGroups() {
  const size_t p = static_cast<size_t>(effective_group_size_);
  std::vector<GroupDecision> formed;
  while (pending_.size() >= p) {
    GroupSelection selection;
    if (options_.frozen_avoidance) {
      const bool frozen = history_.IsFrozen();
      if (frozen) {
        if (formed.empty()) {
          ++stats_.frozen_detections;
          if (frozen_counter_ != nullptr) frozen_counter_->Increment();
        }
        // A hierarchical controller never holds on frozen: its scheduled
        // cross-node merges bridge the intra-node cliques, so a frozen
        // window graph is the expected steady state rather than a hazard.
        if (!hierarchical_ && !QueueSpansComponents() &&
            AnotherComponentCanGroupAlone()) {
          // Hold: the queued workers cannot bridge the frozen components
          // yet, and another component could keep grouping by itself. One
          // of its workers will signal (or depart), re-triggering this
          // check. A smaller component needs no hold: each of its signals
          // must be grouped with an outside worker, i.e. bridged.
          RecordHold();
          break;
        }
      }
      GroupSelectMode mode = GroupSelectMode::kDefault;
      if (hierarchical_) {
        // Two-level schedule: node-complete intra-node groups every step
        // and a cross-node merge every cross_period-th group. The merges —
        // not reactive frozen detection — are the bridge between the
        // intra-node cliques; a frozen graph during a merge step makes the
        // filter bridge components cost-aware. When no node can ever
        // muster a full group (departures shrank every node below
        // group_size), intra-node selection would hold forever, so every
        // group becomes a merge.
        const bool merge_due =
            groups_since_cross_ + 1 >= options_.hierarchy.cross_period;
        mode = (merge_due || !IntraNodeGroupPossible())
                   ? GroupSelectMode::kCrossNode
                   : GroupSelectMode::kIntraNode;
        // Merge hold: reduce partners leave a reduce together and signal
        // together, so a merge drawn from a one-node queue would form
        // inside that node every time and leave the nodes group-frozen.
        // Hold while another node has a live worker that will signal (or
        // depart); with none left, the merge forms where it can.
        if (mode == GroupSelectMode::kCrossNode && MergeAwaitsAnotherNode()) {
          RecordHold();
          break;
        }
      }
      selection = filter_.Select(pending_, history_, mode);
      if (selection.queue_positions.empty()) {
        // Locality hold: some node can fill a group but none has yet. Every
        // live worker signals (or departs) eventually, and held signals
        // stay queued, so a capable node's complement must arrive.
        RecordHold();
        break;
      }
    } else {
      // FIFO with no connectivity repair (used by ablations).
      for (size_t i = 0; i < p; ++i) selection.queue_positions.push_back(i);
    }

    GroupDecision decision;
    decision.group_id = next_group_id_++;
    decision.bridged = selection.bridged;
    for (size_t pos : selection.queue_positions) {
      decision.members.push_back(pending_[pos].worker);
      decision.iterations.push_back(pending_[pos].iteration);
    }
    // Remove selected signals from the queue, highest position first so
    // earlier indices stay valid.
    for (auto it = selection.queue_positions.rbegin();
         it != selection.queue_positions.rend(); ++it) {
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(*it));
    }

    switch (options_.mode) {
      case PartialReduceMode::kConstant:
        decision.weights = ConstantWeights(p);
        break;
      case PartialReduceMode::kDynamic:
        decision.weights =
            DynamicWeights(decision.iterations, options_.dynamic);
        break;
    }
    decision.advanced_iteration = *std::max_element(
        decision.iterations.begin(), decision.iterations.end());

    history_.Record(decision.members);
    ++stats_.groups_formed;
    if (decision.bridged) ++stats_.bridged_groups;
    if (!options_.topology.flat()) {
      if (options_.topology.NodesSpanned(decision.members) > 1) {
        ++stats_.cross_node_groups;
        groups_since_cross_ = 0;
        if (cross_node_counter_ != nullptr) cross_node_counter_->Increment();
      } else {
        ++stats_.intra_node_groups;
        ++groups_since_cross_;
        if (intra_node_counter_ != nullptr) intra_node_counter_->Increment();
      }
    }
    if (groups_counter_ != nullptr) {
      groups_counter_->Increment();
      if (decision.bridged) bridged_counter_->Increment();
    }
    if (trace_ != nullptr) {
      trace_->Record(TraceNow(), TraceEventKind::kGroupFormed, -1,
                     static_cast<int64_t>(decision.group_id),
                     static_cast<int64_t>(decision.members.size()));
      if (decision.bridged) {
        trace_->Record(TraceNow(), TraceEventKind::kGroupBridged, -1,
                       static_cast<int64_t>(decision.group_id));
      }
    }
    if (options_.record_sync_matrices) {
      matrix_expectation_.Add(SyncMatrix::ForGroup(
          static_cast<size_t>(options_.num_workers), decision.members,
          decision.weights));
    }
    formed.push_back(std::move(decision));
  }
  return formed;
}

size_t Controller::PurgePending(int worker) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, options_.num_workers);
  const size_t before = pending_.size();
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const ReadySignal& s) {
                                  return s.worker == worker;
                                }),
                 pending_.end());
  return before - pending_.size();
}

std::vector<ReadySignal> Controller::DrainPending() {
  std::vector<ReadySignal> out(pending_.begin(), pending_.end());
  pending_.clear();
  return out;
}

SyncMatrix Controller::ExpectedSyncMatrix() const {
  PR_CHECK(options_.record_sync_matrices)
      << "enable record_sync_matrices to query E[W]";
  return matrix_expectation_.Mean();
}

}  // namespace pr
