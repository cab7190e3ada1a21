// A schedule explorer over the P-Reduce protocol cores.
//
// N real PReduceWorker cores and one PReduceService talk through an
// in-flight network, in the wire form both engines use: worker messages
// reach the service through PReduceService::Receive, service messages are
// encoded with EncodeServiceAction and decoded by PReduceWorker::Receive. The
// explorer keeps only the environment: compute and pause timers (a core's
// churn windows last pause_seconds() ticks), the network, the threaded
// pump's lease detector, a controller crash with restart, and an abstract
// ring per group that completes once every member has joined and none has
// left. At every step a seeded RNG picks the next
// delivery (any message the recipient would take now, so delivery order is
// arbitrary), a drop, a duplicate, or a clock tick. After every step the
// explorer asserts the protocol invariants, and every schedule must let
// every worker finish.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sync_graph.h"
#include "core/sync_matrix.h"
#include "fault/failure_detector.h"
#include "strategies/p_reduce_service.h"
#include "strategies/p_reduce_worker.h"

namespace pr {
namespace {

/// The degradation gates a configuration turns on.
enum class Gates { kOff, kMinGroupSize, kLivenessFloor };

struct ExploreConfig {
  int n = 4;
  int p = 2;
  bool dynamic = false;
  bool crash = false;
  Gates gates = Gates::kOff;
};

std::string ConfigName(const ExploreConfig& c) {
  static const char* const kGates[] = {"", " min_group_size=2",
                                       " liveness_floor=N-1"};
  return "N=" + std::to_string(c.n) + " P=" + std::to_string(c.p) +
         (c.dynamic ? " DYN" : " CON") + (c.crash ? " crash" : "") +
         kGates[static_cast<int>(c.gates)];
}

// The schedule being explored, printed if a core aborts mid-schedule.
char g_current[128];
const std::string* g_log = nullptr;

void DumpScheduleOnAbort(int sig) {
  const char header[] = "\nexplorer: aborted in schedule ";
  (void)!write(2, header, sizeof(header) - 1);
  (void)!write(2, g_current, std::strlen(g_current));
  (void)!write(2, "\n", 1);
  if (g_log != nullptr) (void)!write(2, g_log->data(), g_log->size());
  (void)!write(2, "\n", 1);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

class Explorer {
 public:
  Explorer(const ExploreConfig& config, uint64_t seed)
      : config_(config), rng_(seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL) {
    // Every duration below is in ticks.
    plan_.seed = seed;
    plan_.force_fault_tolerant = true;
    plan_.resend_ready_ticks = 3;
    plan_.stuck_report_ticks = 2;
    plan_.stuck_abort_reports = 2;
    plan_.lease_seconds = 6.0;
    plan_.missed_threshold = 2;
    plan_.max_verdict_wait_seconds = 40.0;
    plan_.max_reduce_stall_seconds = 30.0;
    plan_.reregister_backoff_seconds = 3.0;
    plan_.reregister_backoff_max_seconds = 6.0;
    plan_.max_controller_outage_seconds = 40.0;
    if (config.crash) {
      ControllerFaultEvent outage;
      outage.after_groups = 1 + Below(4);
      plan_.controller_events.push_back(outage);
      down_ticks_ = 1 + static_cast<int>(Below(4));
      window_ticks_ = 4 + static_cast<int>(Below(5));
    }
    StrategyOptions options;
    options.kind = config.dynamic ? StrategyKind::kPReduceDynamic
                                  : StrategyKind::kPReduceConst;
    options.group_size = config.p;
    if (config.gates == Gates::kMinGroupSize) {
      options.scale_policy.min_group_size = 2;
    } else if (config.gates == Gates::kLivenessFloor) {
      options.scale_policy.liveness_floor = config.n - 1;
    }
    service_ = std::make_unique<PReduceService>(
        options, config.n, Topology(), plan_, PReduceService::Observers{});
    const size_t budget = 4 + Below(5);
    drops_left_ = static_cast<int>(Below(6));
    dups_left_ = static_cast<int>(Below(4));
    envs_.resize(static_cast<size_t>(config.n));
    cores_.reserve(static_cast<size_t>(config.n));
    for (int w = 0; w < config.n; ++w) {
      // Half the workers sit out one churn window, an arrive window (due
      // at Start) included.
      std::vector<ChurnWindow> windows;
      if (Below(2) == 0) {
        windows.push_back({w, static_cast<int>(Below(budget)),
                           1.0 + static_cast<double>(Below(3))});
      }
      envs_[static_cast<size_t>(w)].windows = windows.size();
      cores_.emplace_back(w, options, plan_, PReduceWorker::Observers{}, 0,
                          0, budget, windows);
    }
    StartLeases();
    log_.reserve(1 << 14);
    for (int w = 0; w < config.n; ++w) {
      Run(w, cores_[static_cast<size_t>(w)].Start());
    }
  }

  /// Runs the schedule to completion; false on a violated invariant or a
  /// deadlock, with the reason in failure().
  bool Run() {
    constexpr int kMaxSteps = 60000;
    for (int step = 0; step < kMaxSteps && failure_.empty(); ++step) {
      if (AllFinished()) {
        // Every window lies inside the budget, so each one paused its core.
        for (int w = 0; w < config_.n; ++w) {
          const Env& env = envs_[static_cast<size_t>(w)];
          if (env.pauses != env.windows) {
            Fail("worker " + std::to_string(w) + " paused " +
                 std::to_string(env.pauses) + " times for " +
                 std::to_string(env.windows) + " windows");
            return false;
          }
        }
        return true;
      }
      Step();
      if (failure_.empty()) CheckInvariants();
    }
    if (failure_.empty()) failure_ = "no progress (deadlock)";
    return false;
  }

  const std::string& log() const { return log_; }
  const std::string& failure() const { return failure_; }

 private:
  using Phase = PReduceWorker::Phase;
  /// The environment of one worker core.
  struct Env {
    int timer = 0;       ///< ticks left computing or paused
    size_t windows = 0;  ///< churn windows the core was built with
    size_t pauses = 0;   ///< pauses the core began
    uint64_t last_started = 0;  ///< the last group the core started
  };
  /// A message on the wire, in its encoded form.
  struct Message {
    bool to_service = true;
    int worker = -1;  ///< the sender or the recipient
    ControlMessage body;
  };
  /// The abstract ring of one group: it completes once every member has
  /// joined and none has left.
  struct Ring {
    size_t joined = 0;
    bool broken = false;
  };

  uint64_t Next() {
    uint64_t z = (rng_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  int ComputeTicks() { return 1 + static_cast<int>(Below(2)); }

  /// Appends one step record: a tag and up to two numbers.
  void Log(char tag, long long a = -1, long long b = -1) {
    char buf[48];
    const int len = std::snprintf(buf, sizeof(buf), "%c%lld,%lld ", tag, a, b);
    log_.append(buf, static_cast<size_t>(len));
  }

  bool AllFinished() const {
    for (const PReduceWorker& core : cores_) {
      if (core.phase() != Phase::kFinished) return false;
    }
    return true;
  }

  // --- The service side: what the threaded service pump does. ---

  void StartLeases() {
    detector_ = std::make_unique<FailureDetector>(
        config_.n, plan_.lease_seconds, plan_.missed_threshold, clock_);
    for (int w = 0; w < config_.n; ++w) Renew(w);
  }

  void Renew(int w) {
    if (!service_->active(w)) {
      detector_->Suspend(w);
    } else if (!detector_->alive(w)) {
      detector_->Resume(w, clock_);
    } else {
      detector_->Beat(w, clock_);
    }
  }

  void Emit(const ServiceActions& actions) {
    for (const ServiceAction& a : actions) {
      Log(static_cast<char>('a' + static_cast<int>(a.kind)), a.worker,
          static_cast<long long>(a.group_id));
      if (a.kind == ServiceAction::Kind::kGroupInfo &&
          groups_.count(a.group_id) == 0) {
        CheckNewGroup(*a.group);
      }
      if (a.kind == ServiceAction::Kind::kAbort) aborted_.insert(a.group_id);
      net_.push_back({false, a.worker, EncodeServiceAction(a)});
    }
  }

  void DeliverToService(const Message& m) {
    if (service_->down()) return;  // severed endpoint
    Emit(service_->Receive(m.worker, m.body.kind, m.body.ints));
    if (service_->serving()) Renew(m.worker);
  }

  // --- The worker side: the real cores and their environment. ---

  void Run(int w, const WorkerActions& actions) {
    PReduceWorker& core = cores_[static_cast<size_t>(w)];
    bool stop_reduce = false;
    for (const WorkerAction& a : actions) {
      switch (a.kind) {
        case WorkerAction::Kind::kSend: {
          Message m;
          m.worker = w;
          m.body.kind = a.message;
          m.body.ints = a.ints;
          net_.push_back(std::move(m));
          break;
        }
        case WorkerAction::Kind::kStartReduce:
          Join(w, a.group);
          break;
        case WorkerAction::Kind::kStopReduce:
          stop_reduce = true;
          break;
        case WorkerAction::Kind::kProceed:
          envs_[static_cast<size_t>(w)].timer = ComputeTicks();
          break;
        case WorkerAction::Kind::kPhaseChange:
          if (a.to == Phase::kPaused) {
            Env& env = envs_[static_cast<size_t>(w)];
            env.timer = static_cast<int>(core.pause_seconds());
            ++env.pauses;
          }
          break;
        case WorkerAction::Kind::kSleep:
        case WorkerAction::Kind::kDie:
          Fail("worker " + std::to_string(w) + " ran an unarmed fault");
          break;
        default:
          break;  // rollback and purges touch nothing here
      }
    }
    if (stop_reduce) {
      const uint64_t g = core.group().group_id;
      Log('S', w, static_cast<long long>(g));
      rings_[g].broken = true;
      Run(w, core.ReduceEnd(clock_, /*ok=*/false));
    }
  }

  void Join(int w, const std::shared_ptr<const GroupDecision>& group) {
    CheckStart(w, *group);
    Ring& ring = rings_[group->group_id];
    if (++ring.joined == group->members.size() && !ring.broken) {
      CompleteRing(group->group_id);
    }
  }

  void CompleteRing(uint64_t group_id) {
    rings_[group_id].broken = true;  // a ring completes once
    const GroupDecision& g = groups_.at(group_id);
    for (size_t i = 0; i < g.members.size(); ++i) {
      // (d) A completed group consumes each member's signalled iteration,
      // and so does a Release the worker took.
      const std::pair<int, int64_t> key{g.members[i], g.iterations[i]};
      if (released_.count(key) != 0) {
        Fail("worker " + std::to_string(g.members[i]) + " iteration " +
             std::to_string(g.iterations[i]) + " released and grouped in " +
             std::to_string(g.group_id));
      }
      auto [it, fresh] = consumed_.emplace(key, g.group_id);
      if (!fresh) {
        if (aborted_.count(it->second) == 0) {
          Fail("worker " + std::to_string(g.members[i]) + " iteration " +
               std::to_string(g.iterations[i]) + " consumed by groups " +
               std::to_string(it->second) + " and " +
               std::to_string(g.group_id));
        }
        it->second = g.group_id;
      }
    }
    for (int m : g.members) {
      Run(m, cores_[static_cast<size_t>(m)].ReduceEnd(clock_, /*ok=*/true));
    }
  }

  void TickWorker(int w) {
    PReduceWorker& core = cores_[static_cast<size_t>(w)];
    Env& env = envs_[static_cast<size_t>(w)];
    switch (core.phase()) {
      case Phase::kComputing:
        if (--env.timer > 0) break;
        Run(w, core.Boundary(clock_));
        break;
      case Phase::kPaused:
        if (--env.timer <= 0) Run(w, core.Resume(clock_));
        break;
      case Phase::kWaiting:
        Run(w, core.WaitTick(clock_));
        break;
      case Phase::kReducing:
        Run(w, core.RingTick(clock_));
        break;
      default:
        break;
    }
  }

  // --- The scheduler. ---

  bool Deliverable(const Message& m) const {
    return m.to_service || cores_[static_cast<size_t>(m.worker)].Deliverable(
                               m.body.kind, m.body.ints);
  }

  void Tick() {
    clock_ += 1.0;
    Log('T');
    for (int w = 0; w < config_.n; ++w) TickWorker(w);
    if (service_->down()) {
      if (--down_left_ <= 0) {
        // A restarted process boots with an empty mailbox.
        std::vector<Message> kept;
        for (Message& m : net_) {
          if (!m.to_service) kept.push_back(std::move(m));
        }
        net_.swap(kept);
        service_->BeginRecovery();
        window_left_ = window_ticks_;
        Log('R');
      }
    } else if (!service_->serving()) {
      if (--window_left_ <= 0) {
        Emit(service_->EndRecovery());
        StartLeases();
        Log('E');
      }
    } else {
      for (int w : detector_->Expired(clock_)) {
        Log('x', w);
        Emit(service_->Evict(w));
      }
    }
  }

  void Step() {
    std::vector<size_t> ready;
    for (size_t i = 0; i < net_.size(); ++i) {
      if (Deliverable(net_[i])) ready.push_back(i);
    }
    if (ready.empty() || Below(20) == 0) {
      Tick();
    } else {
      const size_t i = ready[Below(ready.size())];
      Message m = net_[i];
      const uint64_t r = Below(16);
      if (r == 0 && drops_left_ > 0) {
        --drops_left_;
        net_.erase(net_.begin() + static_cast<ptrdiff_t>(i));
        Log('X', static_cast<long long>(i));
        return;
      }
      if (r == 1 && dups_left_ > 0) {
        --dups_left_;  // deliver a copy, keep the original in flight
        Log('2');
      } else {
        net_.erase(net_.begin() + static_cast<ptrdiff_t>(i));
      }
      Log(m.to_service ? 's' : 'w', m.worker, m.body.kind);
      if (m.to_service) {
        DeliverToService(m);
      } else {
        PReduceWorker& core = cores_[static_cast<size_t>(m.worker)];
        const Phase before = core.phase();
        Run(m.worker, core.Receive(clock_, m.body.kind, m.body.ints,
                                   m.body.weights));
        if (m.body.kind == kKindRelease && before == Phase::kWaiting &&
            core.phase() != Phase::kWaiting) {
          released_.insert({m.worker, m.body.ints[0]});
        }
      }
    }
    if (service_->CrashDue(service_->groups_formed())) {
      service_->Crash();
      down_left_ = down_ticks_;
      Log('C');
    }
  }

  // --- Invariants. ---

  void Fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

  void CheckNewGroup(const GroupDecision& g) {
    groups_[g.group_id] = g;
    // (c) New group ids strictly increase, across failovers too.
    if (g.group_id <= last_group_id_) {
      Fail("group id " + std::to_string(g.group_id) + " after " +
           std::to_string(last_group_id_));
    }
    last_group_id_ = std::max(last_group_id_, g.group_id);
    // (b) W_k is row stochastic, and doubly stochastic under CON.
    const SyncMatrix w = SyncMatrix::ForGroup(
        static_cast<size_t>(config_.n), g.members, g.weights);
    if (w.RowStochasticError() >= 1e-9) Fail("W_k not row stochastic");
    if (!config_.dynamic && w.ColumnStochasticError() >= 1e-9) {
      Fail("CON W_k not doubly stochastic");
    }
  }

  /// (f) The groups a core starts have strictly increasing ids, and every
  /// member starts a group with the members, weights and advanced
  /// iteration the service decided.
  void CheckStart(int w, const GroupDecision& g) {
    Env& env = envs_[static_cast<size_t>(w)];
    if (g.group_id <= env.last_started) {
      Fail("worker " + std::to_string(w) + " started group " +
           std::to_string(g.group_id) + " after " +
           std::to_string(env.last_started));
    }
    env.last_started = g.group_id;
    const GroupDecision& decided = groups_.at(g.group_id);
    if (g.members != decided.members || g.weights != decided.weights ||
        g.advanced_iteration != decided.advanced_iteration) {
      Fail("worker " + std::to_string(w) + " started group " +
           std::to_string(g.group_id) + " unlike the service decided");
    }
  }

  void CheckInvariants() {
    // (a) No worker is an unfinished member of two in-flight groups.
    std::vector<int> open(static_cast<size_t>(config_.n), 0);
    for (const auto& [id, f] : service_->in_flight()) {
      for (int m : f.group->members) {
        if (f.done.count(m) == 0 && ++open[static_cast<size_t>(m)] > 1) {
          Fail("worker " + std::to_string(m) + " in two in-flight groups");
        }
      }
    }
    // (e) The controller's departed set is the service's membership view,
    // so no signal reaches it for a departed worker.
    if (service_->serving()) {
      for (int w = 0; w < config_.n; ++w) {
        if (service_->controller().departed(w) == service_->active(w)) {
          Fail("controller membership of worker " + std::to_string(w) +
               " out of sync");
        }
      }
      // (g) The controller holds a queue of P or more signals only while
      // the window is frozen, the queue lies in one component, and another
      // component has P live workers that could group by themselves.
      const Controller& c = service_->controller();
      const int p = c.effective_group_size();
      if (c.pending().size() >= static_cast<size_t>(p) && !HoldJustified(c)) {
        Fail("controller held " + std::to_string(c.pending().size()) +
             " signals with P=" + std::to_string(p) + " and no reason");
      }
    }
  }

  bool HoldJustified(const Controller& c) const {
    if (!c.history().IsFrozen()) return false;
    const SyncGraph graph = c.history().BuildSyncGraph();
    const int queued = graph.ComponentOf(c.pending().front().worker);
    for (const ReadySignal& s : c.pending()) {
      if (graph.ComponentOf(s.worker) != queued) return false;
    }
    std::map<int, int> live;
    for (int w = 0; w < config_.n; ++w) {
      const int comp = graph.ComponentOf(w);
      if (!c.departed(w) && comp != queued &&
          ++live[comp] >= c.effective_group_size()) {
        return true;
      }
    }
    return false;
  }

  ExploreConfig config_;
  uint64_t rng_;
  FaultPlan plan_;
  std::unique_ptr<PReduceService> service_;
  std::unique_ptr<FailureDetector> detector_;
  std::vector<PReduceWorker> cores_;
  std::vector<Env> envs_;
  std::vector<Message> net_;
  std::map<uint64_t, Ring> rings_;
  int drops_left_ = 0;
  int dups_left_ = 0;
  double clock_ = 0.0;
  int down_ticks_ = 0;
  int window_ticks_ = 0;
  int down_left_ = 0;
  int window_left_ = 0;
  uint64_t last_group_id_ = 0;
  /// Every group the service formed, by id.
  std::map<uint64_t, GroupDecision> groups_;
  std::set<uint64_t> aborted_;
  std::map<std::pair<int, int64_t>, uint64_t> consumed_;
  std::set<std::pair<int, int64_t>> released_;
  std::string log_;
  std::string failure_;
};

std::vector<ExploreConfig> Grid() {
  std::vector<ExploreConfig> grid;
  for (int n : {3, 4, 6, 8}) {
    for (int p : {2, 3, 4}) {
      if (p > n) continue;
      for (bool dynamic : {false, true}) {
        for (bool crash : {false, true}) {
          grid.push_back({n, p, dynamic, crash, Gates::kOff});
        }
        // The gates turn departures into smaller groups, Releases and
        // local-step verdicts.
        for (Gates gates : {Gates::kMinGroupSize, Gates::kLivenessFloor}) {
          grid.push_back({n, p, dynamic, false, gates});
        }
      }
    }
  }
  return grid;
}

TEST(PReduceExplorerTest, InvariantsHoldOnEverySchedule) {
  constexpr uint64_t kSeedsPerConfig = 230;  // 88 configs: 20,240 schedules
  std::signal(SIGABRT, DumpScheduleOnAbort);
  int failures = 0;
  for (const ExploreConfig& config : Grid()) {
    for (uint64_t seed = 1; seed <= kSeedsPerConfig; ++seed) {
      Explorer explorer(config, seed);
      std::snprintf(g_current, sizeof(g_current), "%s seed %llu",
                    ConfigName(config).c_str(),
                    static_cast<unsigned long long>(seed));
      g_log = &explorer.log();
      if (!explorer.Run() && ++failures <= 3) {
        ADD_FAILURE() << g_current << ": " << explorer.failure()
                      << "\nschedule: " << explorer.log();
      }
    }
  }
  g_log = nullptr;
  std::signal(SIGABRT, SIG_DFL);
  EXPECT_EQ(failures, 0);
}

TEST(PReduceExplorerTest, SameSeedGivesByteIdenticalLog) {
  for (const ExploreConfig& config :
       {ExploreConfig{6, 3, false, true, Gates::kOff},
        ExploreConfig{4, 2, true, false, Gates::kOff},
        ExploreConfig{4, 3, false, false, Gates::kLivenessFloor}}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      Explorer a(config, seed);
      Explorer b(config, seed);
      a.Run();
      b.Run();
      EXPECT_EQ(a.log(), b.log()) << ConfigName(config) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pr
