#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/manifest.h"
#include "comm/collectives.h"
#include "common/check.h"
#include "core/controller.h"
#include "fault/failure_detector.h"
#include "fault/fault_plan.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "strategies/p_reduce_policy.h"

namespace pr {
namespace {

/// Increments `c` when the counter was registered (the fault.* family
/// exists only in fault-tolerant runs).
void Bump(Counter* c) {
  if (c != nullptr) c->Increment();
}

// Control-plane message kinds (collectives use their own range).
constexpr int kKindReady = 1;
constexpr int kKindLeave = 2;
constexpr int kKindGroupInfo = 3;
constexpr int kKindRelease = 4;
constexpr int kKindPause = 5;
constexpr int kKindRejoin = 6;
// Fault-tolerant protocol extensions.
constexpr int kKindHeartbeat = 7;   ///< off-cycle lease renewal
constexpr int kKindGroupDone = 8;   ///< member finished its group reduce
constexpr int kKindGroupStuck = 9;  ///< member stalled mid-reduce; escalate
constexpr int kKindAbort = 10;      ///< controller: give up on this group
// Controller-failover extensions: a worker that has gone long enough
// without a controller verdict re-announces its full protocol state
// (iteration counter, local-iteration count, group-id watermark, recently
// completed group ids); a restarted controller rebuilds its signal queue,
// history window, and id watermark from these.
constexpr int kKindReregister = 11;     ///< worker state snapshot
constexpr int kKindReregisterAck = 12;  ///< controller: snapshot recorded
// Coordinated checkpointing: a worker that wrote its shard for a cut
// reports {epoch, iteration, completed}; the controller assembles the
// manifest once every worker of the run has reported the epoch.
constexpr int kKindCkptReport = 13;

/// Controller-side half of the coordinated checkpoint (P-Reduce): workers
/// write their shards at local-iteration cuts and report them; once every
/// worker of the run has reported an epoch, the manifest — binding the
/// shards to the controller's group-history window and id watermark — is
/// written atomically. Reports lost to chaos (or a worker crash) leave that
/// epoch incomplete and unwritten; the previous manifest stays the restore
/// point.
class ServiceCkpt {
 public:
  ServiceCkpt(ServiceContext* ctx, const StrategyOptions& sopts)
      : ctx_(ctx), sopts_(sopts) {
    if (!ctx->run().ckpt.enabled() ||
        ctx->run().ckpt.every_iterations == 0) {
      return;
    }
    enabled_ = true;
    manifests_counter_ = ctx->metrics()->GetCounter("ckpt.manifests_written");
    save_hist_ = ctx->metrics()->GetHistogram("ckpt.save_seconds",
                                              CkptSaveSecondsBuckets());
  }

  void OnReport(const Envelope& env, const Controller& controller,
                uint64_t updates_done) {
    if (!enabled_ || env.ints.size() < 3) return;
    const int64_t epoch = env.ints[0];
    if (epoch <= last_written_) return;  // stale straggler
    Epoch& e = epochs_[epoch];
    e.reports[env.from] = {env.ints[1], static_cast<uint64_t>(env.ints[2])};
    if (e.reports.size() < static_cast<size_t>(ctx_->run().num_workers)) {
      return;
    }

    RunManifest m;
    m.engine = "threaded";
    m.strategy = StrategyKindName(sopts_.kind);
    m.num_workers = ctx_->run().num_workers;
    m.num_params = static_cast<uint64_t>(ctx_->num_params());
    m.seed = ctx_->run().seed;
    m.epoch = static_cast<uint64_t>(epoch);
    m.updates_done = updates_done;
    m.saved_at_seconds = ctx_->Now();
    StampManifest(controller, &m);
    for (const auto& [w, info] : e.reports) {
      ManifestWorker mw;
      mw.worker = w;
      mw.iteration = info.first;
      mw.completed = info.second;
      mw.shard_file = ShardFileName(static_cast<uint64_t>(epoch), w);
      m.workers.push_back(mw);
    }
    const double begin = ctx_->Now();
    const Status s = SaveManifest(ctx_->run().ckpt.dir, m);
    save_hist_->Observe(ctx_->Now() - begin);
    if (s.ok()) {
      manifests_counter_->Increment();
      ctx_->trace()->Record(ctx_->Now(), TraceEventKind::kCkptSaved, -1,
                            epoch, static_cast<int64_t>(updates_done));
    }
    last_written_ = epoch;
    epochs_.erase(epochs_.begin(), epochs_.upper_bound(epoch));
  }

 private:
  struct Epoch {
    /// worker -> {protocol iteration, completed local iterations}.
    std::map<int, std::pair<int64_t, uint64_t>> reports;
  };

  ServiceContext* ctx_;
  StrategyOptions sopts_;
  bool enabled_ = false;
  int64_t last_written_ = 0;
  std::map<int64_t, Epoch> epochs_;
  Counter* manifests_counter_ = nullptr;
  Histogram* save_hist_ = nullptr;
};

/// Partial reduce on real threads (Alg. 2): worker threads send ready
/// signals; the service thread runs the controller (signal queue -> group
/// filter -> weight generator -> group broadcaster) plus the termination
/// protocol, and elastic membership (Pause/Rejoin) rides the same channel.
///
/// There is one protocol, hardened for a lossy fabric: heartbeat leases with
/// controller-side eviction, at-least-once control messages with explicit
/// dedup, and group abort/retry on stalls (see DESIGN.md "Fault
/// tolerance"). Every one of those reactions fires on a receive timeout, so
/// a run whose fault plan is disabled simply has no deadlines: its waits
/// block, its leases never lapse, and its group reduces cannot abort.
class ThreadedPReduce : public ThreadedStrategy {
 public:
  explicit ThreadedPReduce(const StrategyOptions& options)
      : options_(options) {
    PR_CHECK(options.kind == StrategyKind::kPReduceConst ||
             options.kind == StrategyKind::kPReduceDynamic);
    PR_CHECK_GE(options.group_size, 2);
  }

  std::string Name() const override { return StrategyKindName(options_.kind); }
  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = group_reduces_;
    result->controller_stats = controller_stats_;
  }

 private:
  StrategyOptions options_;
  // Written by the service thread; read after every thread joined.
  uint64_t group_reduces_ = 0;
  ControllerStats controller_stats_;
};

void ThreadedPReduce::RunService(ServiceContext* ctx) {
  const int n = ctx->run().num_workers;
  const FaultPlan& plan = ctx->run().fault;
  PR_CHECK_LE(options_.group_size, n);
  Endpoint* ep = ctx->endpoint();
  TraceRecorder* trace = ctx->trace();
  // Without a fault plan every wait blocks and every lease is infinite.
  const bool ft = plan.enabled();
  const double tick = ft ? plan.recv_timeout_seconds : -1.0;

  const FaultMetrics fault =
      ft ? RegisterFaultMetrics(ctx->metrics()) : FaultMetrics{};
  ServiceCkpt ckpt(ctx, options_);
  // The degradation gates, shared across controller incarnations.
  const PReducePolicy policy(options_, ctx->scenario_metrics());
  const std::vector<ControllerFaultEvent> outages = SortedOutages(plan);
  size_t next_outage = 0;

  // State that survives a controller crash. A worker that deregistered
  // (Leave) is cluster-membership knowledge, not controller state: it will
  // never re-register, so forgetting it would deadlock the restarted
  // controller's termination count. Everything else — pending signals,
  // in-flight groups, history, per-worker leases — dies with the
  // incarnation and is rebuilt from re-registrations.
  std::vector<bool> left_global(static_cast<size_t>(n), false);
  uint64_t failovers = 0;

  // Per-worker control-plane state machine. The raw message stream is
  // at-least-once (drops trigger re-sends, dups come from the injector), so
  // every transition below is idempotent.
  enum class WState { kIdle, kQueued, kInGroup, kLeft, kEvicted };
  struct InFlightGroup {
    std::vector<int> members;
    std::vector<int64_t> iterations;  ///< each member's iteration at grouping
    std::vector<int64_t> info_ints;   ///< GroupInfo payload, kept for re-sends
    Buffer info_weights;              ///< shared across members and re-sends
    std::set<int> done;
    int stuck_reports = 0;
  };
  /// A worker's state snapshot from the recovery window after a restart.
  struct Rereg {
    int worker = -1;
    int64_t iteration = 0;
    uint64_t completed = 0;
    uint64_t last_group_id = 0;
    std::vector<uint64_t> done_groups;
  };
  enum class Exit { kAllLeft, kShutdown, kCrash };

  while (true) {
    // One controller incarnation: a fresh Controller plus fresh bookkeeping.
  Controller controller(
      ControllerOptionsFrom(options_, n, ctx->run().topology));
  controller.AttachObservers(ctx->metrics(), ctx->trace(),
                             [ctx] { return ctx->Now(); });
  if (failovers == 0 && ctx->resume() != nullptr) {
    RestoreController(*ctx->resume(), &controller);
  }

  std::vector<WState> wstate(static_cast<size_t>(n), WState::kIdle);
  std::vector<int64_t> queued_iter(static_cast<size_t>(n), -1);
  std::vector<uint64_t> wgroup(static_cast<size_t>(n), 0);
  std::vector<bool> paused(static_cast<size_t>(n), false);
  std::map<uint64_t, InFlightGroup> in_flight;
  FailureDetector detector(
      n, ft ? plan.lease_seconds : std::numeric_limits<double>::infinity(),
      plan.missed_threshold, ctx->Now());

  int remaining = 0;
  for (int w = 0; w < n; ++w) {
    if (left_global[static_cast<size_t>(w)]) {
      wstate[static_cast<size_t>(w)] = WState::kLeft;
      detector.Suspend(w);
    } else {
      ++remaining;
    }
  }
  int active = remaining;

    auto release_pending = [&] {
      for (const ReadySignal& s : controller.DrainPending()) {
        const size_t w = static_cast<size_t>(s.worker);
        if (wstate[w] == WState::kQueued) wstate[w] = WState::kIdle;
        (void)ep->Send(s.worker, 0, kKindRelease, {});
      }
    };

    auto send_group_info = [&](const InFlightGroup& f, int member) {
      (void)ep->Send(member, static_cast<uint64_t>(f.info_ints[0]),
                     kKindGroupInfo, f.info_ints, f.info_weights);
    };

    auto broadcast = [&](const std::vector<GroupDecision>& decisions) {
      for (const GroupDecision& decision : decisions) {
        ++group_reduces_;
        InFlightGroup f;
        f.members = decision.members;
        f.iterations = decision.iterations;
        f.info_ints.push_back(static_cast<int64_t>(decision.group_id));
        f.info_ints.push_back(decision.advanced_iteration);
        for (int m : decision.members) f.info_ints.push_back(m);
        f.info_weights = Buffer::FromVector(std::vector<float>(
            decision.weights.begin(), decision.weights.end()));
        for (int m : decision.members) {
          wstate[static_cast<size_t>(m)] = WState::kInGroup;
          wgroup[static_cast<size_t>(m)] = decision.group_id;
          send_group_info(f, m);
        }
        in_flight.emplace(decision.group_id, std::move(f));
      }
    };

    auto mark_done = [&](uint64_t g, int w) {
      if (wstate[static_cast<size_t>(w)] == WState::kInGroup &&
          wgroup[static_cast<size_t>(w)] == g) {
        wstate[static_cast<size_t>(w)] = WState::kIdle;
      }
      auto it = in_flight.find(g);
      if (it == in_flight.end()) return;
      it->second.done.insert(w);
      if (it->second.done.size() >= it->second.members.size()) {
        in_flight.erase(it);
      }
    };

    // `dead` >= 0 names an evicted member; the Abort carries it so survivors
    // can purge that peer's stashed chunks (transport.stash_purged).
    auto abort_group = [&](uint64_t g, int dead) {
      auto it = in_flight.find(g);
      if (it == in_flight.end()) return;
      InFlightGroup f = std::move(it->second);
      in_flight.erase(it);
      Bump(fault.aborted_groups);
      trace->Record(ctx->Now(), TraceEventKind::kGroupAborted, -1,
                    static_cast<int64_t>(g));
      for (int m : f.members) {
        if (f.done.count(m) != 0) continue;  // completed before the stall
        const size_t mw = static_cast<size_t>(m);
        if (wstate[mw] != WState::kInGroup || wgroup[mw] != g) continue;
        (void)ep->Send(m, g, kKindAbort,
                       {static_cast<int64_t>(g), static_cast<int64_t>(dead)});
        wstate[mw] = WState::kIdle;
      }
    };

    // After every membership change: retarget the effective P, and release
    // the queued waiters once a fresh signal would not be queued either.
    auto membership_changed = [&] {
      broadcast(policy.Retarget(active, &controller));
      if (policy.Verdict(active) != SignalVerdict::kQueue) release_pending();
    };

    auto evict = [&](int w) {
      Bump(fault.evictions);
      trace->Record(ctx->Now(), TraceEventKind::kWorkerEvicted, w);
      const size_t sw = static_cast<size_t>(w);
      const bool was_in_group = wstate[sw] == WState::kInGroup;
      const uint64_t g = wgroup[sw];
      wstate[sw] = WState::kEvicted;
      if (was_in_group) abort_group(g, w);
      --remaining;
      --active;
      broadcast(controller.EvictWorker(w));
      membership_changed();
    };

    auto unevict = [&](int w) {
      ++remaining;
      ++active;
      wstate[static_cast<size_t>(w)] = WState::kIdle;
      detector.Resume(w, ctx->Now());
      trace->Record(ctx->Now(), TraceEventKind::kChurnRejoin, w);
      broadcast(controller.NotifyWorkerRejoined(w));
      membership_changed();
    };
    membership_changed();

    if (failovers > 0) {
      // Recovery window: the restarted controller has no signal queue, no
      // in-flight groups, no history, and no leases. Survivors are parked
      // in their re-registration loops; collect their snapshots for a
      // bounded window before serving again.
      std::vector<Rereg> regs;  // first-arrival order
      bool closed_in_recovery = false;
      const double window_end = ctx->Now() + plan.reregister_window_seconds;
      while (ctx->Now() < window_end) {
        std::optional<Envelope> env = ep->RecvAnyFor(
            std::min(plan.recv_timeout_seconds, window_end - ctx->Now()));
        if (!env.has_value()) {
          if (ep->closed()) {
            closed_in_recovery = true;
            break;
          }
          continue;
        }
        const int w = env->from;
        if (w < 0 || w >= n || left_global[static_cast<size_t>(w)]) continue;
        switch (env->kind) {
          case kKindReregister: {
            Rereg r;
            r.worker = w;
            if (env->ints.size() >= 3) {
              r.iteration = env->ints[0];
              r.completed = static_cast<uint64_t>(env->ints[1]);
              r.last_group_id = static_cast<uint64_t>(env->ints[2]);
              for (size_t i = 3; i < env->ints.size(); ++i) {
                r.done_groups.push_back(static_cast<uint64_t>(env->ints[i]));
              }
            }
            bool known = false;
            for (Rereg& existing : regs) {
              if (existing.worker == w) {
                existing = r;  // re-sent snapshot supersedes the old one
                known = true;
              }
            }
            if (!known) regs.push_back(std::move(r));
            Bump(fault.reregistrations);
            trace->Record(ctx->Now(), TraceEventKind::kWorkerReregister, w,
                          env->ints.empty() ? 0 : env->ints[0]);
            (void)ep->Send(w, 0, kKindReregisterAck, {});
            break;
          }
          case kKindReady: {
            // A worker that never noticed the outage; its plain signal is a
            // state-poor implicit re-registration.
            bool known = false;
            for (const Rereg& existing : regs) {
              if (existing.worker == w) known = true;
            }
            if (!known) {
              Rereg r;
              r.worker = w;
              r.iteration = env->ints.empty() ? 0 : env->ints[0];
              regs.push_back(std::move(r));
            }
            break;
          }
          case kKindLeave:
            left_global[static_cast<size_t>(w)] = true;
            regs.erase(std::remove_if(regs.begin(), regs.end(),
                                      [&](const Rereg& r) {
                                        return r.worker == w;
                                      }),
                       regs.end());
            break;
          case kKindGroupDone:
            // A pre-crash group that finished during the outage: credit the
            // membership so the rebuilt history window sees its edges.
            if (!env->ints.empty()) {
              for (Rereg& existing : regs) {
                if (existing.worker == w) {
                  existing.done_groups.push_back(
                      static_cast<uint64_t>(env->ints[0]));
                }
              }
            }
            break;
          case kKindGroupStuck:
            // The group predates this incarnation and cannot be resolved;
            // force its members to roll back and re-signal.
            if (!env->ints.empty()) {
              (void)ep->Send(w, static_cast<uint64_t>(env->ints[0]),
                             kKindAbort, {env->ints[0]});
            }
            break;
          default:
            break;  // heartbeats etc. carry no recovery state
        }
      }
      if (closed_in_recovery) break;

      // Rebuild the controller's durable state from the snapshots: the
      // group-id watermark (so ascending-id dedup survives the failover)
      // and the history window, clustered from reported memberships.
      // Partial member sets only remove sync-graph edges, which makes
      // frozen detection more eager, never less.
      std::map<uint64_t, std::vector<int>> reported;
      uint64_t watermark = 0;
      for (const Rereg& r : regs) {
        watermark = std::max(watermark, r.last_group_id);
        for (uint64_t g : r.done_groups) {
          std::vector<int>& members = reported[g];
          if (std::find(members.begin(), members.end(), r.worker) ==
              members.end()) {
            members.push_back(r.worker);
          }
        }
      }
      controller.Restore(RestoreStateFromGroups(reported, watermark));

      remaining = 0;
      for (int w = 0; w < n; ++w) {
        if (left_global[static_cast<size_t>(w)]) {
          wstate[static_cast<size_t>(w)] = WState::kLeft;
          detector.Suspend(w);
        } else {
          ++remaining;
          detector.Beat(w, ctx->Now());
        }
      }
      active = remaining;
      if (remaining == 0) break;  // everyone finished during the outage

      // Refill the signal queue in arrival order. Workers that did not
      // re-register in time stay kIdle with a fresh lease: they are either
      // finishing a pre-crash reduce (their next Ready lands normally) or
      // dead (the detector evicts them at the horizon).
      for (const Rereg& r : regs) {
        const size_t sw = static_cast<size_t>(r.worker);
        if (wstate[sw] != WState::kIdle) continue;
        wstate[sw] = WState::kQueued;
        queued_iter[sw] = r.iteration;
        broadcast(controller.OnReadySignal(r.worker, r.iteration));
      }
      membership_changed();
    }

    Exit exit_reason = Exit::kAllLeft;
    while (remaining > 0) {
      if (next_outage < outages.size() &&
          group_reduces_ >= outages[next_outage].after_groups) {
        exit_reason = Exit::kCrash;
        break;
      }
      std::optional<Envelope> env = ep->RecvAnyFor(tick);
      const double now = ctx->Now();
      for (int w : detector.Expired(now)) evict(w);
      if (!env.has_value()) {
        if (ep->closed()) {
          exit_reason = Exit::kShutdown;
          break;
        }
        continue;
      }
      const int w = env->from;
      if (w < 0 || w >= n) continue;
      const size_t sw = static_cast<size_t>(w);
      // Any message renews the sender's lease (ready signals piggyback
      // their heartbeat; kKindHeartbeat exists for the otherwise-silent
      // stretches).
      detector.Beat(w, now);
      switch (env->kind) {
        case kKindHeartbeat:
          Bump(fault.heartbeats);
          trace->Record(now, TraceEventKind::kHeartbeat, w);
          break;

        case kKindReregister:
          // Under a healthy controller a re-registration is just a beefy
          // ready signal: acknowledge it (so the sender stops probing) and
          // let the Ready logic below dedup or queue it.
          Bump(fault.reregistrations);
          trace->Record(now, TraceEventKind::kWorkerReregister, w,
                        env->ints.empty() ? 0 : env->ints[0]);
          (void)ep->Send(w, 0, kKindReregisterAck, {});
          [[fallthrough]];

        case kKindReady: {
          const int64_t it = env->ints.empty() ? 0 : env->ints[0];
          if (wstate[sw] == WState::kLeft) break;  // delayed stale signal
          if (wstate[sw] == WState::kEvicted) unevict(w);  // implicit rejoin
          if (wstate[sw] == WState::kInGroup) {
            auto itf = in_flight.find(wgroup[sw]);
            if (itf == in_flight.end()) {
              wstate[sw] = WState::kIdle;  // defensive: group already resolved
            } else {
              int64_t grouped_iter = 0;
              for (size_t i = 0; i < itf->second.members.size(); ++i) {
                if (itf->second.members[i] == w) {
                  grouped_iter = itf->second.iterations[i];
                }
              }
              if (it == grouped_iter) {
                // Re-sent signal for the very iteration we grouped: its
                // GroupInfo was lost — retransmit.
                send_group_info(itf->second, w);
                break;
              }
              if (it < grouped_iter) break;  // stale duplicate from the past
              // The worker has moved past the group (its GroupDone was
              // dropped, or it abandoned the wait): implicit completion.
              mark_done(wgroup[sw], w);
            }
          }
          if (wstate[sw] == WState::kQueued) {
            if (it == queued_iter[sw]) break;  // duplicated ready
            // Superseded signal (the worker gave up a verdict wait and
            // advanced); the stale queue entry must not be grouped.
            controller.PurgePending(w);
            wstate[sw] = WState::kIdle;
          }
          const SignalVerdict verdict = policy.Verdict(active);
          if (verdict == SignalVerdict::kLocalStep) {
            // Liveness-floor degradation: answer with an immediate release
            // (local SGD) instead of enqueuing; membership recovery lifts
            // the gate.
            policy.CountLocalStep();
            (void)ep->Send(w, 0, kKindRelease, {});
            release_pending();
            break;
          }
          wstate[sw] = WState::kQueued;
          queued_iter[sw] = it;
          broadcast(controller.OnReadySignal(w, it));
          if (verdict == SignalVerdict::kRelease) release_pending();
          break;
        }

        case kKindLeave: {
          if (wstate[sw] == WState::kLeft) break;  // duplicate
          left_global[sw] = true;
          if (wstate[sw] == WState::kEvicted) {
            // The lease eviction already shrank the pool; just record that
            // the worker did in fact exit.
            wstate[sw] = WState::kLeft;
            break;
          }
          if (wstate[sw] == WState::kInGroup) mark_done(wgroup[sw], w);
          if (wstate[sw] == WState::kQueued) controller.PurgePending(w);
          wstate[sw] = WState::kLeft;
          detector.Suspend(w);
          --remaining;
          --active;
          broadcast(controller.NotifyWorkerLeft(w));
          membership_changed();
          break;
        }

        case kKindPause: {
          if (paused[sw] || wstate[sw] == WState::kLeft ||
              wstate[sw] == WState::kEvicted) {
            break;
          }
          paused[sw] = true;
          detector.Suspend(w);  // intentional silence, not a failure
          --active;
          trace->Record(now, TraceEventKind::kChurnLeave, w);
          broadcast(controller.NotifyWorkerLeft(w));
          membership_changed();
          break;
        }

        case kKindRejoin: {
          if (paused[sw]) {
            paused[sw] = false;
            ++active;
            detector.Resume(w, now);
            trace->Record(now, TraceEventKind::kChurnRejoin, w);
            broadcast(controller.NotifyWorkerRejoined(w));
            membership_changed();
          } else if (wstate[sw] == WState::kEvicted) {
            unevict(w);
          }
          // A rejoin from a worker that was never evicted (a hang shorter
          // than the eviction horizon) needs nothing: its lease just
          // renewed.
          break;
        }

        case kKindGroupDone: {
          if (!env->ints.empty()) {
            mark_done(static_cast<uint64_t>(env->ints[0]), w);
          }
          break;
        }

        case kKindGroupStuck: {
          if (env->ints.empty()) break;
          const uint64_t g = static_cast<uint64_t>(env->ints[0]);
          auto itf = in_flight.find(g);
          if (itf == in_flight.end()) {
            // Already aborted (the reporter's Abort was lost), long
            // resolved, or formed by a previous incarnation: tell just the
            // reporter to stand down.
            (void)ep->Send(w, g, kKindAbort, {static_cast<int64_t>(g)});
            break;
          }
          int dead_member = -1;
          for (int m : itf->second.members) {
            if (wstate[static_cast<size_t>(m)] == WState::kEvicted) {
              dead_member = m;
            }
          }
          if (dead_member >= 0 ||
              ++itf->second.stuck_reports >= plan.stuck_abort_reports) {
            // Either a member is dead, or the ring has stalled long enough
            // that a dropped chunk is the likely cause — retry the group.
            abort_group(g, dead_member);
          }
          break;
        }

        case kKindCkptReport:
          ckpt.OnReport(*env, controller, group_reduces_);
          break;

        default:
          break;  // unknown or stale kinds are dropped under chaos
      }
    }

    AccumulateControllerStats(controller.stats(), &controller_stats_);

    if (exit_reason != Exit::kCrash) break;

    const ControllerFaultEvent event = outages[next_outage];
    ++next_outage;
    trace->Record(ctx->Now(), TraceEventKind::kControllerCrash, -1,
                  static_cast<int64_t>(group_reduces_));
    FaultyTransport* faulty = ctx->faulty();
    PR_CHECK(faulty != nullptr)
        << "controller faults need the fault-injecting fabric";
    faulty->SeverNode(ep->id());
    if (!event.restart) {
      // Permanent loss: the controller's state dies with this thread.
      // Parked workers re-register into the void until their outage budget
      // runs out, then fall back to local-only progress; their trailing
      // Leaves are severed along with everything else.
      break;
    }
    const double down_until = ctx->Now() + event.down_seconds;
    while (ctx->Now() < down_until && !ep->closed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (ep->closed()) break;
    // A restarted process boots with an empty mailbox: everything that
    // arrived before the crash — stash included — predates the failover.
    while (ep->RecvAnyFor(0.0).has_value()) {
    }
    ep->PurgeStash([](const Envelope&) { return true; });
    faulty->RestoreNode(ep->id());
    ++failovers;
    Bump(fault.failovers);
    trace->Record(ctx->Now(), TraceEventKind::kControllerRestart, -1,
                  static_cast<int64_t>(failovers));
  }
}

void ThreadedPReduce::RunWorker(WorkerContext* ctx) {
  const ThreadedRunOptions& run = ctx->run();
  const FaultPlan& plan = run.fault;
  const NodeId controller = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  MutableSlice params = ctx->params();
  std::vector<float> grad;
  // Pre-reduce parameters, restored when a group reduce aborts. Only a
  // reduce with a deadline can abort, so fault-free runs never fill it.
  std::vector<float> backup;
  int64_t iteration = ctx->resume_iteration();
  uint64_t last_group_id = 0;  // workers dedup GroupInfo by ascending id
  // Without a fault plan every wait blocks: the heartbeats, Ready re-sends,
  // stuck reports and liveness valves below all run on timeout ticks, so
  // they never fire.
  const bool ft = plan.enabled();
  const double tick = ft ? plan.recv_timeout_seconds : -1.0;
  Counter* retries_counter =
      ft ? RegisterFaultMetrics(ctx->metrics()).retries : nullptr;
  const bool cf = plan.has_controller_faults();
  // How long a verdict wait may stay silent before the worker gives up and
  // proceeds locally. Under controller faults the budget covers a full
  // outage plus recovery; once the controller looks gone for good the
  // worker stops granting it that much and degrades to quick probes.
  const double full_wait =
      cf ? std::max(plan.max_verdict_wait_seconds,
                    plan.max_controller_outage_seconds)
         : plan.max_verdict_wait_seconds;
  bool controller_lost = false;
  // Recently completed group ids (bounded), reported on re-registration so
  // a restarted controller can rebuild its history window and id watermark.
  std::deque<uint64_t> done_groups;

  const WorkerFaultEvent* crash = nullptr;
  std::vector<const WorkerFaultEvent*> hangs;
  for (const WorkerFaultEvent& e : plan.worker_events) {
    if (e.worker != ctx->worker()) continue;
    if (e.kind == WorkerFaultEvent::Kind::kCrash && crash == nullptr) {
      crash = &e;
    } else if (e.kind == WorkerFaultEvent::Kind::kHang) {
      hangs.push_back(&e);
    }
  }
  // This worker's absence windows, in firing order. A trace can schedule
  // several (Poisson churn revisits workers), and an arrive event compiles
  // to a window at iteration 0 — served before the first local step.
  // Control sends are best-effort throughout: the protocol tolerates a lost
  // message, and a shut-down fabric shows up in closed().
  std::vector<ThreadedChurnEvent> churns;
  for (const ThreadedChurnEvent& c : run.churn) {
    if (c.worker == ctx->worker()) churns.push_back(c);
  }
  std::sort(churns.begin(), churns.end(),
            [](const ThreadedChurnEvent& a, const ThreadedChurnEvent& b) {
              return a.after_iterations < b.after_iterations;
            });
  size_t next_churn = 0;
  // Serves every window due at or before boundary `k` (windows behind a
  // resume's start point are skipped). Returns false on fabric shutdown.
  auto run_churn = [&](size_t k) -> bool {
    while (next_churn < churns.size() &&
           churns[next_churn].after_iterations <= k) {
      if (churns[next_churn].after_iterations == k) {
        (void)ep->Send(controller, 0, kKindPause, {});
        if (ep->closed()) return false;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            churns[next_churn].pause_seconds));
        (void)ep->Send(controller, 0, kKindRejoin, {});
      }
      ++next_churn;
    }
    return !ep->closed();
  };
  // Autoscaling pause: the policy thread flags this worker out; sit out on
  // the same elastic path a trace departure uses. The wait is bounded
  // (lease-like) so a policy stuck at its minimum can never deadlock the
  // run's termination. Returns false on fabric shutdown.
  ScaleDirector* scale = ctx->scale_director();
  const double scale_pause_budget =
      8.0 * ctx->strategy_options().scale_policy.interval_seconds;
  auto scale_pause = [&]() -> bool {
    if (scale == nullptr || !scale->ShouldPause(ctx->worker())) return true;
    (void)ep->Send(controller, 0, kKindPause, {});
    const double deadline = ctx->Now() + scale_pause_budget;
    while (scale->ShouldPause(ctx->worker()) && ctx->Now() < deadline) {
      if (ep->closed()) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    (void)ep->Send(controller, 0, kKindRejoin, {});
    return !ep->closed();
  };

  auto note_retry = [&] {
    Bump(retries_counter);
    ctx->trace()->Record(ctx->Now(), TraceEventKind::kWorkerRetry,
                         ctx->worker(), iteration);
  };

  auto send_reregister = [&](size_t completed) {
    std::vector<int64_t> ints;
    ints.reserve(3 + done_groups.size());
    ints.push_back(iteration);
    ints.push_back(static_cast<int64_t>(completed));
    ints.push_back(static_cast<int64_t>(last_group_id));
    for (uint64_t g : done_groups) ints.push_back(static_cast<int64_t>(g));
    (void)ep->Send(controller, 0, kKindReregister, std::move(ints));
  };

  // Checkpoint cut: shard written after iteration k's synchronization
  // resolved (reduce, release or local fallback), reported to the
  // controller, which writes the manifest once every worker reported the
  // epoch. The final iteration never cuts — the run is about to end anyway.
  auto maybe_checkpoint = [&](size_t k) {
    const CheckpointConfig& ckpt = run.ckpt;
    if (!ckpt.enabled() || ckpt.every_iterations == 0) return;
    int64_t epoch;
    if (ctx->forced_ckpt()) {
      // Sustained-partition gate: cut the upcoming epoch at every boundary
      // until the service lands a manifest.
      epoch = static_cast<int64_t>((k + ckpt.every_iterations - 1) /
                                   ckpt.every_iterations);
      if (epoch == 0) epoch = 1;
    } else {
      if (k % ckpt.every_iterations != 0) return;
      epoch = static_cast<int64_t>(k / ckpt.every_iterations);
    }
    if (ctx->SaveCkptShard(epoch).ok()) {
      (void)ep->Send(controller, 0, kKindCkptReport,
                     {epoch, iteration, static_cast<int64_t>(k)});
    }
  };

  if (!run_churn(ctx->start_iteration())) return;  // arrive-at-start windows
  if (ctx->start_iteration() >= run.iterations_per_worker) {
    // The manifest cut at this worker's full budget; nothing left to run.
    ctx->MarkFinished();
    (void)ep->Send(controller, 0, kKindLeave, {});
    return;
  }

  for (size_t k = ctx->start_iteration() + 1; k <= run.iterations_per_worker;
       ++k) {
    if (run.control != nullptr && run.control->cancel_requested()) {
      // Cooperative cancel: leave the pool exactly like a worker whose
      // budget ran out. The controller handles the Leave through its normal
      // membership path, so the remaining workers keep forming groups and
      // the run drains cleanly with partial progress.
      ctx->MarkFinished();
      (void)ep->Send(controller, 0, kKindLeave, {});
      return;
    }
    ctx->ComputeGradient(params.data(), &grad);
    ctx->sgd()->Step(grad.data(), params.data(), params.size());
    ++iteration;

    if (crash != nullptr && !crash->in_group &&
        k >= static_cast<size_t>(crash->after_iterations)) {
      // Boundary crash: vanish without a word; the controller's lease
      // eviction is the only cleanup path.
      return;
    }
    if (k == run.iterations_per_worker) {
      ctx->MarkFinished();
      (void)ep->Send(controller, 0, kKindLeave, {});
      return;
    }
    for (const WorkerFaultEvent* h : hangs) {
      if (k == static_cast<size_t>(h->after_iterations)) {
        // Go dark long enough to (usually) lose the lease, then announce
        // the comeback — the controller treats a rejoin from an evicted
        // worker as re-admission.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(h->hang_seconds));
        (void)ep->Send(controller, 0, kKindRejoin, {});
      }
    }
    // Elastic pause: leave the pool, nap, rejoin with the parameters we
    // last held. Trace-driven windows first, then the autoscaler's verdict.
    if (!run_churn(k) || !scale_pause()) return;  // shutdown

    (void)ep->Send(controller, 0, kKindReady, {iteration});

    // Verdict wait with lease upkeep, bounded re-sends, and a liveness
    // valve: if the controller stays silent past the deadline the worker
    // falls back to local computation and re-synchronizes next round. Ring
    // segments from other groups that land meanwhile are stashed and
    // replayed to the collective.
    // Under controller faults the plain Ready re-send escalates to a
    // re-registration probe with doubling backoff — the park loop a worker
    // sits in while the controller is down.
    const double wait_begin = ctx->Now();
    double idle_begin = wait_begin;
    int ticks = 0;
    bool proceed = false;
    double backoff = plan.reregister_backoff_seconds;
    double reregister_at = wait_begin + backoff;
    double give_up_at =
        wait_begin +
        (controller_lost ? plan.reregister_backoff_max_seconds : full_wait);
    while (!proceed) {
      std::optional<Envelope> env =
          ep->RecvFromFor(controller, tick);
      if (!env.has_value()) {
        if (ep->closed()) return;
        ++ticks;
        (void)ep->Send(controller, 0, kKindHeartbeat, {});
        if (cf) {
          if (ctx->Now() >= reregister_at) {
            note_retry();
            send_reregister(k);
            backoff =
                std::min(backoff * 2.0, plan.reregister_backoff_max_seconds);
            reregister_at = ctx->Now() + backoff;
          }
        } else if (plan.resend_ready_ticks > 0 &&
                   ticks % plan.resend_ready_ticks == 0) {
          note_retry();
          (void)ep->Send(controller, 0, kKindReady, {iteration});
        }
        if (ctx->Now() >= give_up_at) {
          ctx->RecordIdle(idle_begin, ctx->Now());
          if (cf) controller_lost = true;
          proceed = true;
        }
        continue;
      }
      if (controller_lost) {
        // Any controller traffic refutes the "gone for good" verdict:
        // grant the full silence budget again.
        controller_lost = false;
        give_up_at = ctx->Now() + full_wait;
      }
      switch (env->kind) {
        case kKindReregisterAck:
          // The (possibly restarted) controller recorded our snapshot; our
          // signal is queued on its side, so keep waiting for the verdict.
          give_up_at = ctx->Now() + full_wait;
          break;

        case kKindRelease:
          ctx->RecordIdle(idle_begin, ctx->Now());
          proceed = true;
          break;

        case kKindAbort: {
          if (env->ints.empty()) break;
          // Peer-death hygiene: an Abort naming an evicted worker means
          // every message of theirs still parked in the stash is garbage.
          if (env->ints.size() >= 2 && env->ints[1] >= 0) {
            ep->PurgeStashFrom(static_cast<NodeId>(env->ints[1]));
          }
          const uint64_t g = static_cast<uint64_t>(env->ints[0]);
          if (g > last_group_id) {
            // Abort for a group whose GroupInfo we never received: adopt
            // the id (so a late re-send is ignored) and drop any chunks
            // peers already sent us for it.
            last_group_id = g;
            ep->PurgeStash([&](const Envelope& e) { return e.tag == g; });
          }
          break;  // stale aborts for finished groups are ignored
        }

        case kKindGroupInfo: {
          const uint64_t group_id = static_cast<uint64_t>(env->ints[0]);
          if (group_id <= last_group_id) break;  // duplicate / re-sent
          last_group_id = group_id;
          const int64_t advanced = env->ints[1];
          std::vector<NodeId> members;
          for (size_t i = 2; i < env->ints.size(); ++i) {
            members.push_back(static_cast<NodeId>(env->ints[i]));
          }
          std::vector<double> weights(env->payload.begin(),
                                      env->payload.end());
          const size_t my_index = static_cast<size_t>(
              std::find(members.begin(), members.end(), ctx->worker()) -
              members.begin());
          if (my_index >= members.size() ||
              weights.size() != members.size()) {
            break;  // malformed under chaos: ignore rather than die
          }
          if (crash != nullptr && crash->in_group &&
              k >= static_cast<size_t>(crash->after_iterations)) {
            // Mid-group crash: the nastiest case — peers are already
            // blocked on our chunks. Die silently inside the group.
            return;
          }
          ctx->RecordIdle(idle_begin, ctx->Now());
          if (ft) backup = params.ToVector();
          const double comm_begin = ctx->Now();
          ctx->trace()->Record(comm_begin, TraceEventKind::kReduceStart,
                               ctx->worker(),
                               static_cast<int64_t>(group_id));
          // Under a fault plan the ring's segment waits carry a deadline.
          // Each timeout tick renews this worker's lease, takes a parked
          // Abort for the group, and periodically escalates a GroupStuck
          // report; the controller answers a hopeless stall (dead peer or
          // dropped segment) with an Abort, turning a would-be deadlock into
          // a group retry.
          RingDeadline deadline;
          int ring_ticks = 0;
          if (ft) {
            deadline.recv_timeout_seconds = plan.recv_timeout_seconds;
            deadline.on_tick = [&] {
              if (auto abort = ep->TryTakeStashed([&](const Envelope& e) {
                    return e.from == controller && e.kind == kKindAbort &&
                           !e.ints.empty() &&
                           e.ints[0] == static_cast<int64_t>(group_id);
                  })) {
                // The Abort names the evicted member (when there is one);
                // its parked segments can never be selected again.
                if (abort->ints.size() >= 2 && abort->ints[1] >= 0) {
                  ep->PurgeStashFrom(static_cast<NodeId>(abort->ints[1]));
                }
                return false;
              }
              (void)ep->Send(controller, 0, kKindHeartbeat, {});
              ++ring_ticks;
              if (plan.stuck_report_ticks > 0 &&
                  ring_ticks % plan.stuck_report_ticks == 0) {
                (void)ep->Send(controller, group_id, kKindGroupStuck,
                               {static_cast<int64_t>(group_id)});
              }
              // Liveness valve: abandon the reduce even without a verdict;
              // the stuck escalation will (or did) abort it.
              return ctx->Now() - comm_begin <= plan.max_reduce_stall_seconds;
            };
          }
          const Status reduced = GroupWeightedAllReduce(
              ep, members, weights, my_index, group_id, params.data(),
              params.size(), ctx->compressor(), deadline);
          if (!reduced.ok()) {
            // Shutdown, or a ring without a deadline failing: unwind.
            if (!ft || ep->closed()) return;
            // Abort: roll back the half-reduced vector, drop the
            // conversation's leftovers, and put our signal back in the
            // queue.
            params.CopyFrom(backup);
            ep->PurgeStash(
                [&](const Envelope& e) { return e.tag == group_id; });
            note_retry();
            (void)ep->Send(controller, 0, kKindReady, {iteration});
            idle_begin = ctx->Now();
            break;  // back to the verdict wait
          }
          ctx->RecordComm(comm_begin, ctx->Now());
          ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd,
                               ctx->worker(),
                               static_cast<int64_t>(group_id));
          // Duplicated segments of this conversation may still be parked.
          ep->PurgeStash(
              [&](const Envelope& e) { return e.tag == group_id; });
          (void)ep->Send(controller, 0, kKindGroupDone,
                         {static_cast<int64_t>(group_id)});
          if (cf && plan.reregister_report_groups > 0) {
            // Remember recent completions so a re-registration after a
            // controller crash can vouch for groups whose GroupDone died
            // with the old incarnation.
            if (done_groups.size() >=
                static_cast<size_t>(plan.reregister_report_groups)) {
              done_groups.pop_front();
            }
            done_groups.push_back(group_id);
          }
          if (options_.kind == StrategyKind::kPReduceDynamic) {
            iteration = advanced;
          }
          proceed = true;
          break;
        }

        default:
          break;  // unknown or stale control messages are ignored
      }
    }
    maybe_checkpoint(k);
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedPReduce(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedPReduce>(options);
}

}  // namespace pr
