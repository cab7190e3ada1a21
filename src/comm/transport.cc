#include "comm/transport.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {

InProcTransport::InProcTransport(int num_nodes) : num_nodes_(num_nodes) {
  PR_CHECK_GE(num_nodes, 1);
  mailboxes_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    mailboxes_.push_back(std::make_unique<BlockingQueue<Envelope>>());
  }
}

Status InProcTransport::Send(NodeId to, Envelope env) {
  if (to < 0 || to >= num_nodes_) {
    return Status::InvalidArgument("Send: node id out of range");
  }
  if (!mailboxes_[static_cast<size_t>(to)]->Push(std::move(env))) {
    return Status::FailedPrecondition("Send: transport is shut down");
  }
  return Status::OK();
}

std::optional<Envelope> InProcTransport::RecvFor(NodeId me,
                                                 double timeout_seconds,
                                                 double spin_seconds,
                                                 bool* parked) {
  PR_CHECK_GE(me, 0);
  PR_CHECK_LT(me, num_nodes_);
  return mailboxes_[static_cast<size_t>(me)]->PopFor(timeout_seconds,
                                                     spin_seconds, parked);
}

std::optional<Envelope> InProcTransport::TryRecv(NodeId me) {
  PR_CHECK_GE(me, 0);
  PR_CHECK_LT(me, num_nodes_);
  return mailboxes_[static_cast<size_t>(me)]->TryPop();
}

void InProcTransport::Shutdown() {
  closed_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) box->Close();
}

Endpoint::Endpoint(Transport* transport, NodeId me)
    : transport_(transport), me_(me) {
  PR_CHECK(transport != nullptr);
  PR_CHECK_GE(me, 0);
  PR_CHECK_LT(me, transport->num_nodes());
}

void Endpoint::AttachObservers(MetricsShard* metrics, Gauge* scoped_stash,
                               TraceRecorder* trace,
                               std::function<double()> now) {
  trace_ = trace;
  now_ = std::move(now);
  scoped_stash_gauge_ = scoped_stash;
  if (metrics != nullptr) {
    sent_counter_ = metrics->Get(metric::kTransportMessagesSent);
    received_counter_ = metrics->Get(metric::kTransportMessagesReceived);
    bytes_sent_counter_ = metrics->Get(metric::kTransportBytesSent);
    bytes_received_counter_ = metrics->Get(metric::kTransportBytesReceived);
    payload_copies_counter_ = metrics->Get(metric::kTransportPayloadCopies);
    stash_purged_counter_ = metrics->Get(metric::kTransportStashPurged);
    inter_node_bytes_counter_ = metrics->Get(metric::kTransportInterNodeBytes);
    recv_spun_counter_ = metrics->Get(metric::kTransportRecvSpun);
    recv_parked_counter_ = metrics->Get(metric::kTransportRecvParked);
    stash_gauge_ = metrics->Get(metric::kTransportStashHighWater);
    // Publish the current mark immediately: on a fresh endpoint this is a
    // no-op, while a re-attached endpoint that skipped ResetDiagnostics()
    // visibly charges its stale high-water to the new scope instead of
    // silently dropping it until the next stash growth.
    if (stash_high_water_ > 0) {
      const double hw = static_cast<double>(stash_high_water_);
      if (stash_gauge_ != nullptr) stash_gauge_->SetMax(hw);
      if (scoped_stash_gauge_ != nullptr) scoped_stash_gauge_->SetMax(hw);
    }
  }
}

void Endpoint::ResetDiagnostics() {
  stash_high_water_ = 0;
  sent_counter_ = nullptr;
  received_counter_ = nullptr;
  bytes_sent_counter_ = nullptr;
  bytes_received_counter_ = nullptr;
  payload_copies_counter_ = nullptr;
  stash_purged_counter_ = nullptr;
  inter_node_bytes_counter_ = nullptr;
  recv_spun_counter_ = nullptr;
  recv_parked_counter_ = nullptr;
  is_inter_node_ = nullptr;
  stash_gauge_ = nullptr;
  scoped_stash_gauge_ = nullptr;
  trace_ = nullptr;
  now_ = nullptr;
}

void Endpoint::NoteStashed() {
  if (stash_.size() <= stash_high_water_) return;
  stash_high_water_ = stash_.size();
  const double hw = static_cast<double>(stash_high_water_);
  if (stash_gauge_ != nullptr) stash_gauge_->SetMax(hw);
  if (scoped_stash_gauge_ != nullptr) scoped_stash_gauge_->SetMax(hw);
  if (trace_ != nullptr) {
    trace_->Record(now_ ? now_() : 0.0, TraceEventKind::kStashHighWater, me_,
                   static_cast<int64_t>(stash_high_water_));
  }
}

void Endpoint::NoteReceived(const Envelope& env) {
  if (received_counter_ != nullptr) received_counter_->Increment();
  if (bytes_received_counter_ != nullptr && !env.payload.empty()) {
    bytes_received_counter_->Increment(
        static_cast<double>(env.payload.size() * sizeof(float)));
  }
}

Status Endpoint::Send(NodeId to, uint64_t tag, int kind,
                      std::vector<int64_t> ints, Buffer payload) {
  return Send(to, tag, kind, std::move(ints), std::move(payload),
              /*encoding=*/0);
}

Status Endpoint::Send(NodeId to, uint64_t tag, int kind,
                      std::vector<int64_t> ints, Buffer payload,
                      uint8_t encoding) {
  const size_t payload_floats = payload.size();
  Envelope env;
  env.from = me_;
  env.tag = tag;
  env.kind = kind;
  env.ints = std::move(ints);
  env.payload = std::move(payload);
  env.encoding = encoding;
  Status status = transport_->Send(to, std::move(env));
  if (status.ok()) {
    if (sent_counter_ != nullptr) sent_counter_->Increment();
    if (bytes_sent_counter_ != nullptr && payload_floats > 0) {
      const double bytes =
          static_cast<double>(payload_floats * sizeof(float));
      bytes_sent_counter_->Increment(bytes);
      if (inter_node_bytes_counter_ != nullptr && is_inter_node_ &&
          is_inter_node_(to)) {
        inter_node_bytes_counter_->Increment(bytes);
      }
    }
  }
  return status;
}

void Endpoint::SetInterNodeClassifier(std::function<bool(NodeId)> is_inter) {
  is_inter_node_ = std::move(is_inter);
}

Status Endpoint::Send(NodeId to, uint64_t tag, int kind,
                      std::vector<int64_t> ints, std::vector<float> floats) {
  if (payload_copies_counter_ != nullptr && !floats.empty()) {
    payload_copies_counter_->Increment();
  }
  return Send(to, tag, kind, std::move(ints),
              Buffer::FromVector(std::move(floats)));
}

Buffer Endpoint::MakePayload(const float* data, size_t n) {
  if (payload_copies_counter_ != nullptr && n > 0) {
    payload_copies_counter_->Increment();
  }
  return Buffer::CopyOf(data, n);
}

std::optional<Envelope> Endpoint::RecvWhere(
    const std::function<bool(const Envelope&)>& match, double timeout_seconds,
    RecvWait wait) {
  using Clock = std::chrono::steady_clock;
  const auto after = [start = Clock::now()](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const bool due = wait == RecvWait::kDue;
  bool parked = false;
  const auto done = [&](std::optional<Envelope> env) {
    if (due) {
      Counter* counter = parked ? recv_parked_counter_ : recv_spun_counter_;
      if (counter != nullptr) counter->Increment();
    }
    if (env.has_value()) NoteReceived(*env);
    return env;
  };
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (match(*it)) {
      Envelope env = std::move(*it);
      stash_.erase(it);
      return done(std::move(env));
    }
  }
  const bool bounded = timeout_seconds >= 0.0;
  const Clock::time_point deadline = after(bounded ? timeout_seconds : 0.0);
  const Clock::time_point spin_end = after(due ? kDueSpinSeconds : 0.0);
  while (true) {
    const Clock::time_point now = Clock::now();
    const double left =
        bounded ? std::chrono::duration<double>(deadline - now).count() : -1.0;
    if (bounded && left <= 0.0) return done(std::nullopt);
    const double spin =
        std::max(0.0, std::chrono::duration<double>(spin_end - now).count());
    std::optional<Envelope> env =
        transport_->RecvFor(me_, left, spin, &parked);
    // A timed-out wait and a closed-and-drained mailbox both surface as
    // nullopt; only a closed fabric (no more messages will ever arrive) or
    // an unbounded wait ends here, a timeout goes round the deadline check.
    if (!env.has_value()) {
      if (!bounded || transport_->closed()) return done(std::nullopt);
      continue;
    }
    if (match(*env)) return done(std::move(env));
    stash_.push_back(std::move(*env));
    NoteStashed();
  }
}

std::optional<Envelope> Endpoint::RecvMatching(NodeId from, uint64_t tag,
                                               int kind) {
  return RecvWhere([&](const Envelope& env) {
    return env.from == from && env.tag == tag && env.kind == kind;
  });
}

std::optional<Envelope> Endpoint::RecvMatchingFor(NodeId from, uint64_t tag,
                                                  int kind,
                                                  double timeout_seconds) {
  return RecvWhere(
      [&](const Envelope& env) {
        return env.from == from && env.tag == tag && env.kind == kind;
      },
      timeout_seconds);
}

std::optional<Envelope> Endpoint::RecvFrom(NodeId from) {
  return RecvWhere([&](const Envelope& env) { return env.from == from; });
}

std::optional<Envelope> Endpoint::RecvFromFor(NodeId from,
                                              double timeout_seconds,
                                              RecvWait wait) {
  return RecvWhere([&](const Envelope& env) { return env.from == from; },
                   timeout_seconds, wait);
}

std::optional<Envelope> Endpoint::RecvAny() { return RecvAnyFor(-1.0); }

std::optional<Envelope> Endpoint::RecvAnyFor(double timeout_seconds) {
  if (!stash_.empty()) {
    Envelope env = std::move(stash_.front());
    stash_.pop_front();
    NoteReceived(env);
    return env;
  }
  std::optional<Envelope> env = transport_->RecvFor(me_, timeout_seconds);
  if (env.has_value()) NoteReceived(*env);
  return env;
}

std::optional<Envelope> Endpoint::RecvWhereFor(
    const std::function<bool(const Envelope&)>& match, double timeout_seconds,
    RecvWait wait) {
  return RecvWhere(match, timeout_seconds, wait);
}

std::optional<Envelope> Endpoint::TryTakeStashed(
    const std::function<bool(const Envelope&)>& match) {
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (match(*it)) {
      Envelope env = std::move(*it);
      stash_.erase(it);
      NoteReceived(env);
      return env;
    }
  }
  return std::nullopt;
}

size_t Endpoint::PurgeStash(const std::function<bool(const Envelope&)>& match) {
  const size_t before = stash_.size();
  stash_.erase(std::remove_if(stash_.begin(), stash_.end(),
                              [&](const Envelope& env) { return match(env); }),
               stash_.end());
  const size_t purged = before - stash_.size();
  if (purged > 0 && stash_purged_counter_ != nullptr) {
    stash_purged_counter_->Increment(static_cast<double>(purged));
  }
  return purged;
}

}  // namespace pr
