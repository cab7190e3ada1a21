#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "scenario/scenario.h"
#include "strategies/p_reduce_service.h"

namespace pr {

/// Where a PReduceWorker stands in Alg. 2's loop.
enum class WorkerPhase {
  kComputing,  ///< the engine runs the next local step
  kPaused,     ///< sitting out an elastic pause
  kWaiting,    ///< Ready sent, waiting for a verdict
  kReducing,   ///< inside a group's ring
  kFinished,   ///< budget done (or cancelled), Leave sent
  kDead,       ///< an armed crash fired
};

/// \brief One step the worker core asks its engine to take.
struct WorkerAction {
  enum class Kind {
    kPhaseChange,  ///< the core moved from `from` to `to`
    kSend,         ///< control message to the service: `message`, `ints`
    kStartReduce,  ///< join `group`'s weighted ring
    kStopReduce,   ///< end the running ring now (an Abort or the valve)
    kRollback,     ///< restore the pre-reduce parameters
    kPurgeGroup,   ///< drop parked messages tagged `group_id`
    kPurgePeer,    ///< drop parked messages from `peer`
    kProceed,      ///< compute the next iteration
    kSleep,        ///< go dark for `seconds` (an armed hang)
    kDie,          ///< vanish without a word (an armed crash)
    kFinish,       ///< the budget is done
  };
  Kind kind = Kind::kProceed;
  WorkerPhase from = WorkerPhase::kComputing;  ///< kPhaseChange
  WorkerPhase to = WorkerPhase::kComputing;    ///< kPhaseChange
  int message = 0;            ///< kSend: a kKind*
  std::vector<int64_t> ints;  ///< kSend
  /// kStartReduce: the group as decoded from its GroupInfo.
  std::shared_ptr<const GroupDecision> group;
  uint64_t group_id = 0;  ///< kPurgeGroup
  int peer = -1;          ///< kPurgePeer
  double seconds = 0.0;   ///< kSleep
};
using WorkerActions = std::vector<WorkerAction>;

/// \brief The worker side of the P-Reduce protocol (Alg. 2) as one sans-IO
/// state machine that both engines and the schedule explorer drive.
///
/// Alg. 2's loop is compute, local step, ready signal, wait for a group,
/// weighted average. The engine owns the compute, the clock, the transport
/// and the ring; the core owns every protocol decision in between: the
/// iteration counter, GroupInfo dedup by ascending id, Abort id adoption,
/// the Ready re-send and re-registration backoff, the two liveness valves,
/// the completed-group window, DYN iteration adoption and the retry
/// accounting, and the churn windows: it sits out each as it falls due and
/// reports how long (pause_seconds), which the engine waits on its own
/// clock before it calls Resume. Time arrives as `now`. Every timed rule
/// fires on a WaitTick
/// or RingTick, which engines deliver only under an enabled fault plan, so a
/// fault-free run waits as long as it takes. A ring gets RingTicks only
/// while it stalls (a segment wait timed out), never while it makes
/// progress. Each input moves the core at most one phase, reported as one
/// kPhaseChange, so engines charge idle and comm time without tracking it.
class PReduceWorker {
 public:
  using Phase = WorkerPhase;

  struct Observers {
    MetricsShard* metrics = nullptr;  ///< fault.retries (enabled plans)
    TraceRecorder* trace = nullptr;   ///< kWorkerRetry
  };

  /// `iteration` and `completed` are the protocol iteration and the local
  /// iterations already done (non-zero on a resumed run); the worker leaves
  /// after `budget` local iterations. Of `windows`, sorted by
  /// `after_iterations` (CompileScenario's order), it keeps this worker's.
  PReduceWorker(int worker, const StrategyOptions& options,
                const FaultPlan& plan, Observers observers,
                int64_t iteration = 0, size_t completed = 0,
                size_t budget = std::numeric_limits<size_t>::max(),
                const std::vector<ChurnWindow>& windows = {});

  /// Before the first local step: leave when the budget is already spent,
  /// sit out a due window or a requested pause, or proceed.
  WorkerActions Start();
  /// The local step of the next iteration is done.
  WorkerActions Boundary(double now);
  /// Sit out at the next boundary instead of signaling, until the engine's
  /// Resume (the autoscaler's verdict, a simulated partition).
  void RequestPause();
  /// The pause is over: rejoin and carry on. Before the pause began it just
  /// cancels the request.
  WorkerActions Resume(double now);
  /// Cooperative cancel: leave like a worker whose budget ran out.
  WorkerActions Cancel();
  /// Decodes one service message (a kKind*, its ints and, for GroupInfo,
  /// the member weights) into the matching input; malformed messages are
  /// dropped.
  WorkerActions Receive(double now, int kind,
                        const std::vector<int64_t>& ints,
                        std::vector<double> weights = {});
  /// True when the engine's receive hands this message to the core now:
  /// anything during a verdict wait, only the running group's Abort inside
  /// a ring, nothing in any other phase.
  bool Deliverable(int kind, const std::vector<int64_t>& ints) const;
  /// A receive timeout during the verdict wait.
  WorkerActions WaitTick(double now);
  /// A receive timeout inside the ring.
  WorkerActions RingTick(double now);
  /// The ring ended: completed (`ok`) or abandoned.
  WorkerActions ReduceEnd(double now, bool ok);

  Phase phase() const { return phase_; }
  int64_t iteration() const { return iteration_; }
  /// Local iterations completed.
  size_t completed() const { return completed_; }
  /// The current pause's length: its due windows' summed pause_seconds.
  double pause_seconds() const { return pause_seconds_; }
  /// True once a verdict wait under controller faults gave up on the
  /// controller; later waits then only probe briefly.
  bool controller_lost() const { return controller_lost_; }
  /// The group being reduced (kReducing).
  const GroupDecision& group() const { return *group_; }

 private:
  /// Leaves at the budget, pauses on a due window or a request, else waits
  /// for this boundary's verdict (`signal`) or proceeds.
  void Continue(double now, bool signal, WorkerActions* out);
  /// Takes the windows due at completed() into pause_seconds_, skipping
  /// those a resumed start passed; true when any fell due.
  bool TakeDueWindows();
  void SetPhase(Phase phase, WorkerActions* out);
  void Leave(WorkerActions* out);
  void BeginWait(double now, WorkerActions* out);
  void Send(int kind, std::vector<int64_t> ints, WorkerActions* out) const;
  void Purge(uint64_t group_id, WorkerActions* out) const;
  void NoteRetry(double now);
  WorkerActions OnGroupInfo(double now, const std::vector<int64_t>& ints,
                            std::vector<double> weights);
  bool CrashArmed(bool in_group) const;

  const int worker_;
  const bool dynamic_;
  const FaultPlan plan_;
  const bool controller_faults_;
  /// How long a verdict wait may stay silent before the worker proceeds
  /// locally; under controller faults it covers a full outage.
  const double full_wait_;
  const size_t budget_;
  std::vector<ChurnWindow> windows_;  ///< this worker's, in firing order
  size_t next_window_ = 0;
  Counter* retries_ = nullptr;
  TraceRecorder* trace_ = nullptr;

  Phase phase_ = Phase::kComputing;
  int64_t iteration_;
  size_t completed_;
  bool pause_requested_ = false;
  double pause_seconds_ = 0.0;
  bool resume_signals_ = false;  ///< paused at a boundary, not at start
  uint64_t last_group_id_ = 0;
  std::shared_ptr<const GroupDecision> group_;
  // The verdict wait; its clocks survive an aborted reduce.
  int ticks_ = 0;
  double backoff_ = 0.0;
  double reregister_at_ = 0.0;
  double give_up_at_ = 0.0;
  bool controller_lost_ = false;
  // The ring.
  int ring_ticks_ = 0;
  double reduce_begin_ = 0.0;
  /// Recently completed group ids, reported on re-registration so a
  /// restarted controller can rebuild its history window.
  std::deque<uint64_t> done_groups_;
};

}  // namespace pr
