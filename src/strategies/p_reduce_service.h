#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ckpt/manifest.h"
#include "core/controller.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "strategies/strategy.h"

namespace pr {

// The P-Reduce control plane's message kinds (collectives use their own
// range). Payloads are the envelope's ints; GroupInfo also carries the
// member weights as its float payload.
constexpr int kKindReady = 1;           ///< worker: {iteration}
constexpr int kKindLeave = 2;           ///< worker: budget done, gone for good
constexpr int kKindGroupInfo = 3;       ///< service: {id, advanced, members...}
constexpr int kKindRelease = 4;         ///< service: {iteration} go on alone
constexpr int kKindPause = 5;           ///< worker: elastic pause begins
constexpr int kKindRejoin = 6;          ///< worker: back from a pause or hang
constexpr int kKindHeartbeat = 7;       ///< worker: off-cycle lease renewal
constexpr int kKindGroupDone = 8;       ///< worker: {group id} reduce finished
constexpr int kKindGroupStuck = 9;      ///< worker: {group id} stalled reduce
constexpr int kKindAbort = 10;          ///< service: {group id, dead or -1}
constexpr int kKindReregister = 11;     ///< worker: {iteration, done ids...}
constexpr int kKindReregisterAck = 12;  ///< service: snapshot recorded
constexpr int kKindCkptReport = 13;     ///< worker: {epoch, iteration, done}
constexpr int kKindWorkersReturned = 14;  ///< the last local body returned

/// A worker's protocol state, re-announced to a restarted controller.
struct ReregisterSnapshot {
  int worker = -1;
  int64_t iteration = 0;
  /// Recently completed group ids; the restarted controller rebuilds its
  /// history window from the memberships these vouch for.
  std::vector<uint64_t> done_groups;
};

/// \brief One message the service asks its engine to deliver.
struct ServiceAction {
  enum class Kind { kGroupInfo, kRelease, kAbort, kReregisterAck };
  Kind kind = Kind::kRelease;
  int worker = -1;        ///< the recipient
  uint64_t group_id = 0;  ///< kGroupInfo, kAbort
  int dead = -1;          ///< kAbort: the evicted member, or -1
  int64_t iteration = 0;  ///< kRelease: the signal it answers
  /// kGroupInfo: the group, shared by every member's action and re-sends.
  std::shared_ptr<const GroupDecision> group;
};
using ServiceActions = std::vector<ServiceAction>;

/// \brief A control message as the transport carries it: a kKind*, the
/// envelope tag, the ints and (GroupInfo only) the member weights.
struct ControlMessage {
  int kind = 0;
  uint64_t tag = 0;
  std::vector<int64_t> ints;
  std::vector<double> weights;
};
/// The wire form of a service action; PReduceWorker::Receive decodes it.
ControlMessage EncodeServiceAction(const ServiceAction& action);

/// \brief The controller side of the P-Reduce protocol (Alg. 2, Fig. 6) as
/// one sans-IO state machine that both engines drive.
///
/// Inputs are the workers' messages, the failure detector's verdicts and
/// the controller's own crash and recovery; outputs are the messages to
/// send. The service holds no clock, thread or transport: the threaded
/// engine pumps envelopes through Receive and sends the actions, the
/// simulator turns them into virtual-time events, and the schedule explorer
/// drives it directly. The `now` observer only stamps trace events.
///
/// The raw message stream is at-least-once (drops trigger re-sends, the
/// injector duplicates and reorders), so every input is idempotent. A
/// worker's membership (active, paused, evicted, left) is cluster knowledge
/// and survives a controller crash, and so does the group-id counter: ids
/// are fencing tokens, and a reused id would let a stale GroupInfo from the
/// dead incarnation pass the workers' ascending-id dedup. The queue,
/// in-flight groups and history die with the controller; the history is
/// rebuilt from re-registrations.
class PReduceService {
 public:
  struct Observers {
    MetricsShard* metrics = nullptr;
    TraceRecorder* trace = nullptr;
    std::function<double()> now;
  };

  /// A group the current controller incarnation has broadcast and not yet
  /// seen every member finish.
  struct InFlightGroup {
    std::shared_ptr<const GroupDecision> group;
    std::set<int> done;
    int stuck_reports = 0;
  };

  /// `resume` (optional) seeds the first controller with a manifest's
  /// history window and group-id counter.
  PReduceService(const StrategyOptions& options, int num_workers,
                 const Topology& topology, const FaultPlan& plan,
                 Observers observers, const RunManifest* resume = nullptr);

  /// Decodes one worker message (a kKind* and its ints) into the matching
  /// input below; malformed or unknown messages are dropped.
  ServiceActions Receive(int from, int kind, const std::vector<int64_t>& ints);

  ServiceActions Ready(int worker, int64_t iteration);
  ServiceActions Leave(int worker);
  ServiceActions Pause(int worker);
  ServiceActions Rejoin(int worker);
  void Heartbeat(int worker);
  void GroupDone(int worker, uint64_t group_id);
  ServiceActions GroupStuck(int worker, uint64_t group_id);
  ServiceActions Reregister(const ReregisterSnapshot& snapshot);
  /// The failure detector's verdict on an active worker.
  ServiceActions Evict(int worker);

  /// True when the plan's next controller outage is due after `groups`
  /// groups (formed or completed, as the engine counts them).
  bool CrashDue(uint64_t groups) const;
  /// The controller dies: its queue and in-flight groups are gone, and
  /// inputs are ignored until recovery (membership changes still count).
  /// Returns the outage that fired.
  ControllerFaultEvent Crash();
  /// A fresh controller starts collecting re-registrations.
  void BeginRecovery();
  /// Rebuilds the history window from the snapshots, re-applies
  /// membership, refills the queue in arrival order and resumes serving.
  ServiceActions EndRecovery();

  bool serving() const { return stage_ == Stage::kServing; }
  bool down() const { return stage_ == Stage::kDown; }
  /// Active: in the pool, neither paused, evicted nor gone.
  bool active(int worker) const;
  int active_count() const;
  /// Workers that have neither left nor been evicted; the run's service
  /// ends when this reaches zero.
  int remaining() const;
  uint64_t groups_formed() const { return groups_formed_; }
  /// The current controller incarnation.
  const Controller& controller() const { return *controller_; }
  /// Stats summed over every controller incarnation.
  ControllerStats stats() const;
  const std::map<uint64_t, InFlightGroup>& in_flight() const {
    return in_flight_;
  }
  /// Stamps the controller's history window and id counter into `manifest`.
  void StampManifest(RunManifest* manifest) const;

 private:
  enum class Stage { kServing, kDown, kRecovering };
  enum class Member { kActive, kPaused, kEvicted, kLeft };
  enum class Wait { kIdle, kQueued, kInGroup };
  struct Worker {
    Member member = Member::kActive;
    Wait wait = Wait::kIdle;
    uint64_t group = 0;
    /// Readies below this iteration are stale: the worker has signaled a
    /// later one, or a completed group or a Release consumed it. While the
    /// worker is queued this is the queued iteration.
    int64_t fresh_from = std::numeric_limits<int64_t>::min();
    /// The iteration the last Release answered; a Ready for it again means
    /// that Release was lost.
    int64_t released = std::numeric_limits<int64_t>::min();
  };
  enum class Verdict { kQueue, kRelease, kLocalStep };

  std::unique_ptr<Controller> NewController() const;
  void Trace(TraceEventKind kind, int worker, int64_t a = 0) const;
  void Broadcast(std::vector<GroupDecision> decisions, ServiceActions* out);
  void Enqueue(int worker, int64_t iteration, ServiceActions* out);
  /// Answers `worker`'s signal at `iteration` without a group; the
  /// iteration is consumed.
  void Release(int worker, int64_t iteration, ServiceActions* out);
  void ReleasePending(ServiceActions* out);
  void MarkDone(uint64_t group_id, int worker);
  void AbortGroup(uint64_t group_id, int dead, ServiceActions* out);
  /// Moves `worker` to `member`, telling a serving controller when the
  /// worker's liveness changed, then re-applies the degradation gates.
  void SetMember(int worker, Member member, ServiceActions* out);
  void MembershipChanged(ServiceActions* out);
  /// The graceful-degradation gates (strategy.scale_policy.*) as pure
  /// functions of the live-worker count: the effective P is
  /// clamp(active, min_p, P), and an arriving signal is queued, released
  /// (fewer than min_p live) or answered with local SGD steps (below the
  /// liveness floor).
  int TargetGroupSize(int active) const;
  Verdict GateVerdict(int active) const;

  ControllerOptions controller_options_;
  int stuck_abort_reports_ = 0;
  Observers observers_;
  // The fault.* and scenario.degrade.* handles; null when the run's gates
  // leave them closed.
  Counter* aborted_groups_ = nullptr;
  Counter* heartbeats_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* failovers_ = nullptr;
  Counter* reregistrations_ = nullptr;
  Counter* small_groups_ = nullptr;
  Counter* local_steps_ = nullptr;
  int min_p_ = 0;  ///< the smallest group worth forming
  int liveness_floor_ = 0;
  std::vector<ControllerFaultEvent> outages_;  ///< by after_groups
  size_t next_outage_ = 0;

  Stage stage_ = Stage::kServing;
  std::unique_ptr<Controller> controller_;
  ControllerStats retired_stats_;  ///< incarnations a restart replaced
  std::vector<Worker> workers_;
  std::map<uint64_t, InFlightGroup> in_flight_;
  std::vector<ReregisterSnapshot> reregistered_;  ///< first-arrival order
  uint64_t groups_formed_ = 0;
};

}  // namespace pr
