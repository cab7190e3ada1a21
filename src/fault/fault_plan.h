#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace pr {

/// \brief Per-edge message fault probabilities.
///
/// Applied independently to every message on a (from, to) edge. A message is
/// first rolled for drop; survivors are rolled for duplication and delay
/// (both can apply to the same message). All probabilities in [0, 1].
struct EdgeFaultSpec {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  double delay_seconds = 0.0;  ///< latency added when the delay roll hits

  bool active() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
  }
};

/// \brief One scheduled per-worker lifecycle fault.
struct WorkerFaultEvent {
  enum class Kind {
    kCrash,     ///< worker stops participating forever
    kHang,      ///< worker goes silent for hang_seconds, then rejoins
    kSlowdown,  ///< compute cost multiplied for slowdown_iterations
  };

  int worker = -1;
  Kind kind = Kind::kCrash;
  /// The fault fires when the worker finishes this many iterations.
  int after_iterations = 0;
  /// Crash only: fire *inside* the next group reduce (after the worker has
  /// received its group assignment) instead of at the iteration boundary —
  /// the nastiest spot, since peers are already blocked on its chunks.
  bool in_group = false;
  double hang_seconds = 0.0;        ///< kHang
  double slowdown_factor = 1.0;     ///< kSlowdown: compute time multiplier
  int slowdown_iterations = 0;      ///< kSlowdown: 0 = rest of run
};

/// \brief One scheduled network partition: a worker's links are severed for
/// a window of time, then restored.
///
/// Unlike a crash the worker itself keeps computing; only its messages
/// vanish in both directions, exactly like an unplugged cable. The threaded
/// engine applies the window on the wall clock via
/// FaultyTransport::SeverNode/RestoreNode (the failure detector evicts the
/// silent worker and the rejoin path readmits it); the simulator applies the
/// same window on virtual time by taking the worker out of membership for
/// the duration. Scenario compilation emits these from kPartition events.
struct PartitionEvent {
  int worker = -1;
  double start_seconds = 0.0;     ///< run time at which links are severed
  double duration_seconds = 0.0;  ///< window length; links restore after
};

/// \brief One scheduled controller outage.
///
/// The controller crashes once `after_groups` groups have been formed
/// (both engines count formed groups identically, so the trigger is
/// engine-agnostic). Its endpoint is severed — messages to it vanish like
/// on a dead host — its entire in-memory state is discarded, and, when
/// `restart` is set, a fresh controller comes back `down_seconds` later
/// and rebuilds from worker re-registrations. Without `restart` the
/// outage is permanent: workers park, give up after
/// max_controller_outage_seconds, and finish their budgets locally.
struct ControllerFaultEvent {
  uint64_t after_groups = 1;
  double down_seconds = 0.2;
  bool restart = true;
};

/// \brief A deterministic, seed-driven schedule of faults for one run.
///
/// Message-level decisions are pure functions of (seed, from, to, per-edge
/// sequence number), so a plan replays identically regardless of thread
/// interleaving — the property the chaos suite's cross-seed determinism
/// check rests on. Worker events fire at iteration boundaries, which both
/// engines count identically.
struct FaultPlan {
  uint64_t seed = 0;
  EdgeFaultSpec default_edge;
  /// Overrides for specific (from, to) edges; edges not listed use
  /// default_edge.
  std::map<std::pair<int, int>, EdgeFaultSpec> edges;
  /// Deterministic per-edge latency matrix (sparse): every message on a
  /// listed (from, to) edge is delayed by this many seconds, no roll
  /// involved. The knob that models slow inter-node links — a topology-aware
  /// run lists its cross-node edges here and both engines stretch them
  /// identically (FaultyTransport holds real messages, the simulator adds
  /// virtual time).
  std::map<std::pair<int, int>, double> link_delay_seconds;
  std::vector<WorkerFaultEvent> worker_events;
  /// Scheduled controller outages, applied in order of `after_groups`.
  std::vector<ControllerFaultEvent> controller_events;
  /// Timed per-worker link severances, applied in order of `start_seconds`.
  std::vector<PartitionEvent> partition_events;

  // --- Failure-detection / retry knobs (threaded engine) ---
  /// A worker's lease lapses this long after its last message; it must beat
  /// faster than this (leases renew on *any* message, ready signals
  /// included). Must exceed the longest silent stretch of a healthy worker
  /// (compute time + injected delays).
  double lease_seconds = 0.25;
  /// Consecutive lapsed leases before the detector declares death. >1
  /// tolerates a single dropped heartbeat.
  int missed_threshold = 2;
  /// How long a worker waits on a peer/controller message before waking up
  /// to beat its heartbeat and re-check for aborts.
  double recv_timeout_seconds = 0.05;
  /// Timeout ticks between escalations to the controller while stuck in a
  /// group reduce.
  int stuck_report_ticks = 3;
  /// Ready re-sends while waiting on a verdict are spaced this many timeout
  /// ticks apart (controller deduplicates).
  int resend_ready_ticks = 4;
  /// Stuck reports for one group before the controller aborts it even when
  /// every member looks alive (a dropped data chunk stalls the ring with no
  /// one dead).
  int stuck_abort_reports = 2;
  /// Liveness valves: a worker gives up on a controller verdict / a stalled
  /// reduce after this long and falls back to local computation (verdict)
  /// or a self-abort + retry (reduce). Last-ditch only — controller-driven
  /// recovery is expected to fire much earlier.
  double max_verdict_wait_seconds = 2.0;
  double max_reduce_stall_seconds = 1.5;

  // --- Controller-failover knobs ---
  /// While the controller is unreachable a worker parks in a bounded
  /// backoff loop: it re-sends its registration (iteration counter, last
  /// group id, ready status) starting at `reregister_backoff_seconds`
  /// between attempts, doubling up to `reregister_backoff_max_seconds`.
  double reregister_backoff_seconds = 0.05;
  double reregister_backoff_max_seconds = 0.4;
  /// A restarted controller collects re-registrations for this long before
  /// rebuilding its pending queue / history and resuming group formation.
  /// Must exceed reregister_backoff_max_seconds so every parked worker
  /// lands at least one attempt inside the window.
  double reregister_window_seconds = 0.6;
  /// A parked worker abandons the controller for good after this long and
  /// falls back to local computation — the liveness valve that lets a run
  /// survive a permanent (no-restart) controller loss.
  double max_controller_outage_seconds = 5.0;
  /// How many recently completed group ids a worker reports when it
  /// re-registers (the restarted controller rebuilds its group-history
  /// window from these).
  int reregister_report_groups = 8;

  /// Arms the protocol's deadlines (leases, eviction, abort/retry) even
  /// with nothing scheduled above. Multi-process runs set this so *real*
  /// failures — a killed worker process, a torn connection — are survived:
  /// over sockets a dead peer is simply silent, and only a deadline reacts
  /// to silence.
  bool force_fault_tolerant = false;

  /// True when this plan can inject anything — message faults, worker or
  /// controller events, partitions — or force_fault_tolerant is set. It arms
  /// the P-Reduce protocol's deadlines (receive timeouts, leases, abort and
  /// retry) and registers the fault.* metrics in both engines; a false plan
  /// runs the same protocol with every wait blocking.
  bool enabled() const;

  /// Fault plans are only meaningful for a controller-mediated P-Reduce run;
  /// other strategies would need their own recovery protocol.
  bool has_message_faults() const;

  /// True when the plan schedules at least one controller outage (switches
  /// the runtime to the severable transport + re-registration protocol).
  bool has_controller_faults() const;

  /// True when the plan schedules at least one network partition (switches
  /// the threaded runtime to the severable transport).
  bool has_partitions() const;

  const EdgeFaultSpec& EdgeSpec(int from, int to) const;

  /// Deterministic latency of the (from, to) edge; 0 when unlisted.
  double LinkDelay(int from, int to) const;
  bool has_link_delays() const;

  /// Deterministic uniform [0,1) roll for message `seq` on edge
  /// (from, to) with salt `salt` distinguishing drop/dup/delay rolls.
  double Roll(int from, int to, uint64_t seq, uint64_t salt) const;

  /// Deterministic per-message decisions (pure in seed/from/to/seq). Both
  /// the FaultyTransport and the simulator's mirrored fault model go
  /// through these, so the two engines interpret a plan identically.
  bool RollDrop(int from, int to, uint64_t seq) const;
  bool RollDup(int from, int to, uint64_t seq) const;
  bool RollDelay(int from, int to, uint64_t seq) const;
};

/// SplitMix64-style mix: uncorrelated 64-bit output for consecutive inputs.
uint64_t FaultHash(uint64_t seed, uint64_t a, uint64_t b, uint64_t c);

/// \brief A canned chaos plan used by tests and benchmarks: one mid-group
/// crash on `crash_worker` plus uniform `drop_prob` message drops.
FaultPlan MakeChaosPlan(uint64_t seed, int crash_worker,
                        int crash_after_iterations, double drop_prob);

/// \brief Chaos-plan variant: a permanent controller crash after
/// `after_groups` formed groups (no restart — workers park, give up, and
/// finish locally), plus uniform `drop_prob` message drops.
FaultPlan MakeControllerCrashPlan(uint64_t seed, uint64_t after_groups,
                                  double drop_prob);

/// \brief Chaos-plan variant: controller crash after `after_groups` formed
/// groups followed by a restart `down_seconds` later, recovering via worker
/// re-registration, plus uniform `drop_prob` message drops.
FaultPlan MakeControllerRestartPlan(uint64_t seed, uint64_t after_groups,
                                    double down_seconds, double drop_prob);

}  // namespace pr
