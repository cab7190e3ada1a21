// A schedule explorer over the P-Reduce service core.
//
// Scripted workers follow the threaded worker's protocol: Ready re-sends
// every few ticks, GroupInfo deduplicated by ascending id, GroupDone after
// the reduce, Ready again after an Abort, Pause/Rejoin windows, and Leave at
// the end of the budget. Their messages reach the service through
// PReduceService::Receive, the decoder the threaded pump uses, and a lease
// detector evicts silent workers the way the pump does. At every step a
// seeded RNG picks the next delivery (any in-flight message, so delivery
// order is arbitrary), a drop, a duplicate, or a clock tick; a controller
// crash with restart is optional. After every step the explorer asserts the
// protocol invariants, and every schedule must let every worker finish.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sync_matrix.h"
#include "fault/failure_detector.h"
#include "strategies/p_reduce_service.h"

namespace pr {
namespace {

struct ExploreConfig {
  int n = 4;
  int p = 2;
  bool dynamic = false;
  bool crash = false;
};

std::string ConfigName(const ExploreConfig& c) {
  return "N=" + std::to_string(c.n) + " P=" + std::to_string(c.p) +
         (c.dynamic ? " DYN" : " CON") + (c.crash ? " crash" : "");
}

// The schedule being explored, printed if the core aborts mid-schedule.
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
    plan_.seed = seed;
    plan_.force_fault_tolerant = true;
    plan_.resend_ready_ticks = 3;
    plan_.stuck_report_ticks = 2;
    plan_.stuck_abort_reports = 2;
    plan_.lease_seconds = 6.0;  // in ticks
    plan_.missed_threshold = 2;
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
    service_ = std::make_unique<PReduceService>(
        options, config.n, Topology(), plan_, ScenarioMetrics{},
        PReduceService::Observers{});
    budget_ = 4 + static_cast<int>(Below(5));
    drops_left_ = static_cast<int>(Below(6));
    dups_left_ = static_cast<int>(Below(4));
    workers_.resize(static_cast<size_t>(config.n));
    for (Worker& w : workers_) {
      w.timer = ComputeTicks();
      if (Below(2) == 0) {
        w.pause_at = 1 + static_cast<int>(Below(
                             static_cast<uint64_t>(budget_ - 1)));
        w.pause_ticks = 1 + static_cast<int>(Below(3));
      }
    }
    StartLeases();
    log_.reserve(1 << 14);
  }

  /// Runs the schedule to completion; false on a violated invariant or a
  /// deadlock, with the reason in failure().
  bool Run() {
    constexpr int kMaxSteps = 60000;
    for (int step = 0; step < kMaxSteps && failure_.empty(); ++step) {
      if (AllFinished()) return true;
      Step();
      if (failure_.empty()) CheckInvariants();
    }
    if (failure_.empty()) failure_ = "no progress (deadlock)";
    return false;
  }

  const std::string& log() const { return log_; }
  const std::string& failure() const { return failure_; }

 private:
  enum class Phase { kComputing, kPaused, kWaiting, kReducing, kFinished };
  struct Worker {
    Phase phase = Phase::kComputing;
    int timer = 0;  ///< ticks left computing or paused
    int ticks = 0;  ///< ticks spent in the current wait or reduce
    int k = 0;      ///< completed local iterations
    int64_t iteration = 0;
    uint64_t last_group_id = 0;
    uint64_t group = 0;  ///< the group being reduced
    std::deque<uint64_t> done_groups;
    int pause_at = -1;
    int pause_ticks = 0;
  };
  /// A message on the wire: worker -> service as a kind and ints (decoded
  /// by the service), service -> worker as the typed action.
  struct Message {
    bool to_service = true;
    int worker = -1;  ///< the sender or the recipient
    int kind = 0;
    std::vector<int64_t> ints;
    ServiceAction action;
  };
  /// The abstract ring of one group: it completes once every member has
  /// joined and none has rolled back.
  struct Ring {
    std::shared_ptr<const GroupDecision> group;
    std::set<int> joined;
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
    for (const Worker& w : workers_) {
      if (w.phase != Phase::kFinished) return false;
    }
    return true;
  }

  void Send(int worker, int kind, std::vector<int64_t> ints = {}) {
    Message m;
    m.worker = worker;
    m.kind = kind;
    m.ints = std::move(ints);
    net_.push_back(std::move(m));
  }

  void SendReady(int w) {
    const Worker& wk = workers_[static_cast<size_t>(w)];
    if (config_.crash) {
      // Under controller faults the re-send is a re-registration probe.
      std::vector<int64_t> ints = {wk.iteration};
      for (uint64_t g : wk.done_groups) {
        ints.push_back(static_cast<int64_t>(g));
      }
      Send(w, kKindReregister, std::move(ints));
    } else {
      Send(w, kKindReady, {wk.iteration});
    }
  }

  // --- The service side: what the threaded pump does. ---

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
      if (a.kind == ServiceAction::Kind::kGroupInfo && !a.resend) {
        CheckNewGroup(a);
      }
      if (a.kind == ServiceAction::Kind::kAbort) aborted_.insert(a.group_id);
      Message m;
      m.to_service = false;
      m.worker = a.worker;
      m.action = a;
      net_.push_back(std::move(m));
    }
  }

  void DeliverToService(const Message& m) {
    if (service_->down()) return;  // severed endpoint
    Emit(service_->Receive(m.worker, m.kind, m.ints));
    if (service_->serving()) Renew(m.worker);
  }

  // --- The scripted workers: what the threaded worker does. ---

  void Boundary(int w) {
    Worker& wk = workers_[static_cast<size_t>(w)];
    ++wk.k;
    ++wk.iteration;
    if (wk.k == budget_) {
      Send(w, kKindLeave);
      wk.phase = Phase::kFinished;
    } else if (wk.k == wk.pause_at) {
      Send(w, kKindPause);
      wk.phase = Phase::kPaused;
      wk.timer = wk.pause_ticks;
    } else {
      Send(w, kKindReady, {wk.iteration});
      wk.phase = Phase::kWaiting;
      wk.ticks = 0;
    }
  }

  void TickWorker(int w) {
    Worker& wk = workers_[static_cast<size_t>(w)];
    switch (wk.phase) {
      case Phase::kComputing:
        if (--wk.timer <= 0) Boundary(w);
        break;
      case Phase::kPaused:
        if (--wk.timer <= 0) {
          Send(w, kKindRejoin);
          Send(w, kKindReady, {wk.iteration});
          wk.phase = Phase::kWaiting;
          wk.ticks = 0;
        }
        break;
      case Phase::kWaiting:
        if (++wk.ticks % plan_.resend_ready_ticks == 0) SendReady(w);
        break;
      case Phase::kReducing:
        if (++wk.ticks % plan_.stuck_report_ticks == 0) {
          Send(w, kKindGroupStuck, {static_cast<int64_t>(wk.group)});
        }
        break;
      case Phase::kFinished:
        break;
    }
  }

  /// True when the worker's receive loop would take this message now.
  bool Deliverable(const Message& m) const {
    if (m.to_service) return true;
    const Worker& wk = workers_[static_cast<size_t>(m.worker)];
    switch (wk.phase) {
      case Phase::kWaiting:
      case Phase::kFinished:
        return true;
      case Phase::kReducing:
        // The ring's deadline tick only takes an Abort for its own group.
        return m.action.kind == ServiceAction::Kind::kAbort &&
               m.action.group_id == wk.group;
      default:
        return false;
    }
  }

  void DeliverToWorker(const ServiceAction& a) {
    Worker& wk = workers_[static_cast<size_t>(a.worker)];
    if (wk.phase == Phase::kFinished) return;
    if (wk.phase == Phase::kReducing) {
      // Abort for the group in progress: roll back and re-queue.
      rings_[wk.group].broken = true;
      wk.phase = Phase::kWaiting;
      Send(a.worker, kKindReady, {wk.iteration});
      return;
    }
    switch (a.kind) {
      case ServiceAction::Kind::kGroupInfo: {
        if (a.group_id <= wk.last_group_id) return;  // duplicate / re-sent
        wk.last_group_id = a.group_id;
        wk.phase = Phase::kReducing;
        wk.group = a.group_id;
        wk.ticks = 0;
        Ring& ring = rings_[a.group_id];
        if (ring.group != a.group) ring = Ring{a.group, {}, false};
        ring.joined.insert(a.worker);
        if (!ring.broken && ring.joined.size() == a.group->members.size()) {
          CompleteRing(ring);
        }
        break;
      }
      case ServiceAction::Kind::kRelease:
        wk.phase = Phase::kComputing;
        wk.timer = ComputeTicks();
        break;
      case ServiceAction::Kind::kAbort:
        // For a group whose GroupInfo never arrived: adopt the id so a late
        // re-send is ignored.
        wk.last_group_id = std::max(wk.last_group_id, a.group_id);
        break;
      case ServiceAction::Kind::kReregisterAck:
        break;
    }
  }

  void CompleteRing(Ring& ring) {
    const GroupDecision& g = *ring.group;
    ring.broken = true;  // a ring completes once
    for (size_t i = 0; i < g.members.size(); ++i) {
      const int m = g.members[i];
      // (d) A completed group consumes each member's signalled iteration.
      const std::pair<int, int64_t> key{m, g.iterations[i]};
      auto [it, fresh] = consumed_.emplace(key, g.group_id);
      if (!fresh) {
        if (aborted_.count(it->second) == 0) {
          Fail("worker " + std::to_string(m) + " iteration " +
               std::to_string(g.iterations[i]) + " consumed by groups " +
               std::to_string(it->second) + " and " +
               std::to_string(g.group_id));
        }
        it->second = g.group_id;
      }
      Worker& wk = workers_[static_cast<size_t>(m)];
      wk.done_groups.push_back(g.group_id);
      if (wk.done_groups.size() > 8) wk.done_groups.pop_front();
      Send(m, kKindGroupDone, {static_cast<int64_t>(g.group_id)});
      if (config_.dynamic) wk.iteration = g.advanced_iteration;
      wk.phase = Phase::kComputing;
      wk.timer = ComputeTicks();
    }
  }

  // --- The scheduler. ---

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
      Log(m.to_service ? 's' : 'w', m.worker,
          m.to_service ? m.kind : static_cast<int>(m.action.kind));
      if (m.to_service) {
        DeliverToService(m);
      } else {
        DeliverToWorker(m.action);
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

  void CheckNewGroup(const ServiceAction& a) {
    if (a.group == last_new_group_) return;  // the same group's next member
    last_new_group_ = a.group;
    const GroupDecision& g = *a.group;
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
    }
  }

  ExploreConfig config_;
  uint64_t rng_;
  FaultPlan plan_;
  std::unique_ptr<PReduceService> service_;
  std::unique_ptr<FailureDetector> detector_;
  std::vector<Worker> workers_;
  std::vector<Message> net_;
  std::map<uint64_t, Ring> rings_;
  int budget_ = 0;
  int drops_left_ = 0;
  int dups_left_ = 0;
  double clock_ = 0.0;
  int down_ticks_ = 0;
  int window_ticks_ = 0;
  int down_left_ = 0;
  int window_left_ = 0;
  std::shared_ptr<const GroupDecision> last_new_group_;
  uint64_t last_group_id_ = 0;
  std::set<uint64_t> aborted_;
  std::map<std::pair<int, int64_t>, uint64_t> consumed_;
  std::string log_;
  std::string failure_;
};

std::vector<ExploreConfig> Grid() {
  std::vector<ExploreConfig> grid;
  for (int n : {3, 4, 6, 8}) {
    for (int p : {2, 3, 4}) {
      if (p > n) continue;
      for (bool dynamic : {false, true}) {
        for (bool crash : {false, true}) grid.push_back({n, p, dynamic, crash});
      }
    }
  }
  return grid;
}

TEST(PReduceExplorerTest, InvariantsHoldOnEverySchedule) {
  constexpr uint64_t kSeedsPerConfig = 230;  // 44 configs: 10,120 schedules
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
       {ExploreConfig{6, 3, false, true}, ExploreConfig{4, 2, true, false}}) {
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
