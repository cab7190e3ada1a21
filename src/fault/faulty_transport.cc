#include "fault/faulty_transport.h"

#include <utility>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {

namespace {
// FaultAction values carried in the kFaultInjected trace payload.
constexpr int64_t kActionDrop = 1;
constexpr int64_t kActionDup = 2;
constexpr int64_t kActionDelay = 3;
}  // namespace

FaultyTransport::FaultyTransport(Transport* inner, FaultPlan plan)
    : inner_(inner),
      plan_(std::move(plan)),
      seq_(static_cast<size_t>(inner->num_nodes()) *
           static_cast<size_t>(inner->num_nodes())),
      severed_(static_cast<size_t>(inner->num_nodes())) {
  PR_CHECK(inner != nullptr);
}

void FaultyTransport::SeverNode(NodeId node) {
  PR_CHECK_GE(node, 0);
  PR_CHECK_LT(node, inner_->num_nodes());
  severed_[static_cast<size_t>(node)].store(true, std::memory_order_release);
}

void FaultyTransport::RestoreNode(NodeId node) {
  PR_CHECK_GE(node, 0);
  PR_CHECK_LT(node, inner_->num_nodes());
  severed_[static_cast<size_t>(node)].store(false,
                                            std::memory_order_release);
}

bool FaultyTransport::node_severed(NodeId node) const {
  return node >= 0 && node < inner_->num_nodes() &&
         severed_[static_cast<size_t>(node)].load(std::memory_order_acquire);
}

FaultyTransport::~FaultyTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_delivery_ = true;
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
}

void FaultyTransport::AttachObservers(MetricsShard* metrics,
                                      TraceRecorder* trace,
                                      std::function<double()> now) {
  trace_ = trace;
  now_ = std::move(now);
  if (metrics != nullptr) {
    drop_counter_ = metrics->Get(metric::kFaultInjectedDrops);
    dup_counter_ = metrics->Get(metric::kFaultInjectedDups);
    delay_counter_ = metrics->Get(metric::kFaultInjectedDelays);
    severed_counter_ = metrics->Get(metric::kFaultSeveredDrops);
  }
}

Status FaultyTransport::Send(NodeId to, Envelope env) {
  const bool from_severed = env.from >= 0 && env.from < inner_->num_nodes() &&
                            node_severed(env.from);
  if (node_severed(to) || from_severed) {
    // The severed host is off the network in both directions: a message
    // addressed to it vanishes, and a message *from* it never escapes its
    // partition. Either way the sender cannot tell (it would need an ack
    // protocol to notice).
    severed_drops_.fetch_add(1, std::memory_order_relaxed);
    if (severed_counter_ != nullptr) severed_counter_->Increment();
    return Status::OK();
  }
  const int n = inner_->num_nodes();
  const int from = env.from;
  const bool edge_valid = from >= 0 && from < n && to >= 0 && to < n;
  const EdgeFaultSpec& spec =
      edge_valid ? plan_.EdgeSpec(from, to) : plan_.default_edge;
  // Deterministic link latency applies to every message on a listed edge
  // (no roll) — slow inter-node links delay everything, not a sample.
  const double link_delay = edge_valid ? plan_.LinkDelay(from, to) : 0.0;
  if (!edge_valid || (!spec.active() && link_delay <= 0.0)) {
    return inner_->Send(to, std::move(env));
  }
  const uint64_t seq =
      seq_[static_cast<size_t>(from) * static_cast<size_t>(n) +
           static_cast<size_t>(to)]
          .fetch_add(1, std::memory_order_relaxed);

  if (plan_.RollDrop(from, to, seq)) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    if (drop_counter_ != nullptr) drop_counter_->Increment();
    if (trace_ != nullptr) {
      trace_->Record(now_ ? now_() : 0.0, TraceEventKind::kFaultInjected, from,
                     kActionDrop, to);
    }
    // The network ate it; the sender has no way to know.
    return Status::OK();
  }

  const bool duplicate = plan_.RollDup(from, to, seq);
  const bool delay = plan_.RollDelay(from, to, seq);

  if (duplicate) {
    dups_.fetch_add(1, std::memory_order_relaxed);
    if (dup_counter_ != nullptr) dup_counter_->Increment();
    if (trace_ != nullptr) {
      trace_->Record(now_ ? now_() : 0.0, TraceEventKind::kFaultInjected, from,
                     kActionDup, to);
    }
    // Best-effort: a dup lost to shutdown is indistinguishable from no dup.
    (void)inner_->Send(to, env);
  }

  // Probabilistic roll delay and deterministic link delay stack (a slow
  // link can also glitch); one injected-delay count per delayed message.
  double delay_s = link_delay;
  if (delay) delay_s += spec.delay_seconds;
  if (delay_s > 0.0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    if (delay_counter_ != nullptr) delay_counter_->Increment();
    if (trace_ != nullptr) {
      trace_->Record(now_ ? now_() : 0.0, TraceEventKind::kFaultInjected, from,
                     kActionDelay, to);
    }
    ScheduleDelayed(to, std::move(env), delay_s);
    return Status::OK();
  }
  return inner_->Send(to, std::move(env));
}

void FaultyTransport::ScheduleDelayed(NodeId to, Envelope env,
                                      double delay_seconds) {
  const auto due =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(delay_seconds));
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push(Delayed{due, to, std::move(env)});
    if (!delivery_thread_.joinable()) {
      delivery_thread_ = std::thread([this] { DeliveryLoop(); });
    }
  }
  cv_.notify_all();
}

void FaultyTransport::DeliveryLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (pending_.empty()) {
      if (stop_delivery_) return;
      cv_.wait(lock,
               [&] { return stop_delivery_ || !pending_.empty(); });
      continue;
    }
    const auto due = pending_.top().due;
    // Stop requests flush immediately: a delayed message is late, not lost.
    if (!stop_delivery_ && std::chrono::steady_clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    // priority_queue::top() is const-ref; the envelope payload may be large,
    // so cast away constness for the move — the element is popped right after.
    Delayed item = std::move(const_cast<Delayed&>(pending_.top()));
    pending_.pop();
    lock.unlock();
    if (node_severed(item.to)) {
      // The destination dropped off the network while the message was in
      // flight: it is lost, not merely late.
      severed_drops_.fetch_add(1, std::memory_order_relaxed);
      if (severed_counter_ != nullptr) severed_counter_->Increment();
    } else {
      (void)inner_->Send(item.to, std::move(item.env));
    }
    lock.lock();
  }
}

void FaultyTransport::Shutdown() {
  // Flush delayed messages into still-open mailboxes before closing them.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_delivery_ = true;
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  inner_->Shutdown();
}

}  // namespace pr
