#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/enum_names.h"

namespace pr {

/// \brief Kinds of structured run events. The `a`/`b` payload fields are
/// kind-specific (documented per enumerator).
enum class TraceEventKind {
  kSignalEnqueued,   ///< worker sent a ready signal; a = iteration
  kGroupFormed,      ///< controller formed a group; a = group id, b = size
  kGroupBridged,     ///< frozen-avoidance repair group; a = group id
  kGroupHeld,        ///< formation held for a bridging signal; a = queue size
  kReduceStart,      ///< worker entered a group reduce; a = group id
  kReduceEnd,        ///< worker finished a group reduce; a = group id
  kStashHighWater,   ///< endpoint stash grew to a new max; a = new high water
  kPsPull,           ///< PS served a pull; a = model version
  kPsPush,           ///< PS received a push; a = staleness, b = 1 if dropped
  kChurnLeave,       ///< worker left the pool (elastic pause)
  kChurnRejoin,      ///< worker rejoined the pool
  kFaultInjected,    ///< transport injected a fault; a = FaultAction
  kHeartbeat,        ///< controller renewed a worker's lease off-cycle
  kWorkerEvicted,    ///< failure detector declared a worker dead
  kGroupAborted,     ///< controller aborted an in-flight group; a = group id
  kWorkerRetry,      ///< worker re-sent a ready signal after a stall
  kControllerCrash,  ///< controller endpoint went down; a = groups formed
  kControllerRestart,  ///< controller came back; a = failover count
  kWorkerReregister,   ///< worker re-registered with a restarted controller
  kCkptSaved,        ///< checkpoint manifest written; a = epoch, b = updates
};

/// Stable lower_snake names ("group_formed", ...), used in JSON output.
inline constexpr EnumName<TraceEventKind> kTraceEventKindNames[] = {
    {TraceEventKind::kSignalEnqueued, "signal_enqueued"},
    {TraceEventKind::kGroupFormed, "group_formed"},
    {TraceEventKind::kGroupBridged, "group_bridged"},
    {TraceEventKind::kGroupHeld, "group_held"},
    {TraceEventKind::kReduceStart, "reduce_start"},
    {TraceEventKind::kReduceEnd, "reduce_end"},
    {TraceEventKind::kStashHighWater, "stash_high_water"},
    {TraceEventKind::kPsPull, "ps_pull"},
    {TraceEventKind::kPsPush, "ps_push"},
    {TraceEventKind::kChurnLeave, "churn_leave"},
    {TraceEventKind::kChurnRejoin, "churn_rejoin"},
    {TraceEventKind::kFaultInjected, "fault_injected"},
    {TraceEventKind::kHeartbeat, "heartbeat"},
    {TraceEventKind::kWorkerEvicted, "worker_evicted"},
    {TraceEventKind::kGroupAborted, "group_aborted"},
    {TraceEventKind::kWorkerRetry, "worker_retry"},
    {TraceEventKind::kControllerCrash, "controller_crash"},
    {TraceEventKind::kControllerRestart, "controller_restart"},
    {TraceEventKind::kWorkerReregister, "worker_reregister"},
    {TraceEventKind::kCkptSaved, "ckpt_saved"},
};

inline const char* TraceEventKindName(TraceEventKind kind) {
  return NameOf(kTraceEventKindNames, kind);
}

/// \brief One timestamped run event. `time` is seconds on the recording
/// engine's clock: wall-clock since run start (threaded) or virtual time
/// (simulator). `worker` is the subject worker id, -1 for controller/server
/// global events.
struct TraceEvent {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::kSignalEnqueued;
  int worker = -1;
  int64_t a = 0;
  int64_t b = 0;
};

/// \brief The surviving tail of a recorded trace: the newest events in
/// record order, plus how many older events the ring buffer evicted.
struct TraceLog {
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

/// \brief Bounded, thread-safe recorder of structured run events.
///
/// Storage is a fixed-capacity ring buffer: once full, each new event
/// evicts the oldest (keeping the newest window and counting drops), so a
/// long run can leave tracing on without unbounded memory. Record takes a
/// mutex — events fire at synchronization granularity (signals, groups,
/// pushes), not per parameter, so contention is negligible.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 4096);

  /// Appends one event; drops the oldest when full. No-op if capacity is 0.
  void Record(double time, TraceEventKind kind, int worker = -1,
              int64_t a = 0, int64_t b = 0);

  /// Copies out the surviving events, oldest first.
  TraceLog Log() const;

  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;
  bool enabled() const { return capacity_ > 0; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;          ///< slot the next event lands in
  uint64_t recorded_ = 0;    ///< events ever recorded (kept + dropped)
};

}  // namespace pr
