#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pr {

/// \brief A fault-injecting Transport decorator.
///
/// Wraps any inner fabric and applies a FaultPlan's per-edge message faults
/// on the send path: drops (silently swallowed — the sender still sees OK,
/// exactly like a lossy network), duplications (a second copy follows the
/// original), and delays (delivery deferred by a background thread). The
/// receive path is untouched, so Endpoint, collectives, and both engines run
/// unmodified over either fabric.
///
/// Decisions are deterministic functions of (plan seed, from, to, per-edge
/// sequence number); the only scheduling freedom faults add is *when* a
/// delayed message lands, never *which* messages are affected.
class FaultyTransport : public Transport {
 public:
  /// `inner` must outlive this object. The plan is copied.
  FaultyTransport(Transport* inner, FaultPlan plan);
  ~FaultyTransport() override;

  /// Publishes fault.injected_{drops,dups,delays} counters (eagerly
  /// registered so they appear in reports even when zero) and, when `trace`
  /// is non-null, kFaultInjected events stamped with `now()`.
  void AttachObservers(MetricsShard* metrics, TraceRecorder* trace,
                       std::function<double()> now);

  using Transport::RecvFor;

  int num_nodes() const override { return inner_->num_nodes(); }
  Status Send(NodeId to, Envelope env) override;
  std::optional<Envelope> RecvFor(NodeId me, double timeout_seconds,
                                  double spin_seconds, bool* parked) override {
    return inner_->RecvFor(me, timeout_seconds, spin_seconds, parked);
  }
  std::optional<Envelope> TryRecv(NodeId me) override {
    return inner_->TryRecv(me);
  }
  bool closed() const override { return inner_->closed(); }

  /// Flushes still-delayed messages (delivered immediately — a delayed
  /// message is late, not lost) and shuts the inner fabric down.
  void Shutdown() override;

  uint64_t injected_drops() const { return drops_.load(); }
  uint64_t injected_dups() const { return dups_.load(); }
  uint64_t injected_delays() const { return delays_.load(); }
  uint64_t severed_drops() const { return severed_drops_.load(); }

  /// Isolates `node` in both directions: every Send addressed to it or
  /// originating from it (including delayed deliveries coming due) is
  /// swallowed, exactly like a host that dropped off the network. The
  /// sender still sees OK. Used to take the controller endpoint down for a
  /// scheduled outage and to partition workers in scenario replays.
  void SeverNode(NodeId node);
  /// Reconnects a severed node. Messages swallowed in between stay lost —
  /// the failover protocol (re-registration) must tolerate that.
  void RestoreNode(NodeId node);
  bool node_severed(NodeId node) const;

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    NodeId to;
    Envelope env;
    bool operator>(const Delayed& other) const { return due > other.due; }
  };

  void DeliveryLoop();
  void ScheduleDelayed(NodeId to, Envelope env, double delay_seconds);

  Transport* inner_;
  FaultPlan plan_;
  // Per-(from, to) send sequence numbers; indexed from * num_nodes + to.
  std::vector<std::atomic<uint64_t>> seq_;
  // Severed (unreachable) nodes; one flag per node id.
  std::vector<std::atomic<bool>> severed_;

  std::atomic<uint64_t> severed_drops_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> dups_{0};
  std::atomic<uint64_t> delays_{0};
  Counter* severed_counter_ = nullptr;
  Counter* drop_counter_ = nullptr;
  Counter* dup_counter_ = nullptr;
  Counter* delay_counter_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  std::function<double()> now_;

  // Delayed-delivery machinery (thread started lazily on first delay).
  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      pending_;
  std::thread delivery_thread_;
  bool stop_delivery_ = false;
};

}  // namespace pr
