// The central-server baselines' sans-IO core (PS-BSP, PS-ASP, PS-HETE,
// PS-BK, Eager-Reduce), checked two ways:
//  - a seeded schedule explorer drives ServerCore directly: workers pull,
//    push (the last push of a budget included), give up superseded models,
//    and announced rounds end, in random interleavings. The model has one
//    coordinate per worker and each gradient is a multiple of its worker's
//    unit vector, so every step's update shows exactly which gradients the
//    core applied and with what weight. After every step the explorer
//    asserts the invariants, and every schedule must let every worker
//    finish its budget;
//  - both engines, driving the same core, must report the same ps.* names
//    and trace events, and the simulator must train through the codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/sim_training.h"
#include "strategies/server_core.h"
#include "train/run.h"

namespace pr {
namespace {

struct ExploreConfig {
  StrategyKind kind = StrategyKind::kPsBsp;
  int n = 4;
  int backup = 0;  ///< BK: b
  int quorum = 0;  ///< ER: 0 selects the majority
};

std::string ConfigName(const ExploreConfig& c) {
  std::string name = StrategyKindName(c.kind) + " N=" + std::to_string(c.n);
  if (c.kind == StrategyKind::kPsBackup) {
    name += " b=" + std::to_string(c.backup);
  }
  if (c.kind == StrategyKind::kEagerReduce) {
    name += " quorum=" + std::to_string(c.quorum);
  }
  return name;
}

std::vector<ExploreConfig> Grid() {
  std::vector<ExploreConfig> grid;
  auto add = [&grid](const ExploreConfig& c) {
    for (const ExploreConfig& g : grid) {
      if (g.kind == c.kind && g.n == c.n && g.backup == c.backup &&
          g.quorum == c.quorum) {
        return;
      }
    }
    grid.push_back(c);
  };
  for (int n : {1, 2, 4, 7}) {
    for (StrategyKind kind : {StrategyKind::kPsBsp, StrategyKind::kPsAsp,
                              StrategyKind::kPsHete}) {
      add({kind, n, 0, 0});
    }
    for (int b : {0, n / 2, n - 1}) add({StrategyKind::kPsBackup, n, b, 0});
    // 0 selects the majority.
    for (int quorum : {0, 1, n}) {
      add({StrategyKind::kEagerReduce, n, 0, quorum});
    }
  }
  return grid;
}

class Explorer {
 public:
  Explorer(const ExploreConfig& config, uint64_t seed)
      : config_(config),
        n_(config.n),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 0x51ED27ULL),
        shard_(registry_.NewShard()),
        workers_(static_cast<size_t>(config.n)),
        shadow_(static_cast<size_t>(config.n), 0.0),
        deposits_(static_cast<size_t>(config.n), 0.0) {
    StrategyOptions options;
    options.kind = config.kind;
    options.backup_workers = config.backup;
    options.er_quorum = config.quorum;
    SgdOptions sgd;  // params -= lr_scale * grad
    sgd.learning_rate = 1.0;
    sgd.momentum = 0.0;
    sgd.weight_decay = 0.0;
    core_ = std::make_unique<ServerCore>(
        options, n_, std::vector<float>(static_cast<size_t>(n_), 0.0f), sgd,
        ServerCore::Observers{shard_, nullptr, nullptr});
    target_ = config.kind == StrategyKind::kPsBackup ? n_ - config.backup
              : config.kind == StrategyKind::kEagerReduce
                  ? (config.quorum > 0 ? config.quorum : n_ / 2 + 1)
                  : n_;
    // BSP is lockstep: every worker gets the same budget.
    const int shared = 1 + static_cast<int>(Below(6));
    for (Worker& w : workers_) {
      w.budget = config.kind == StrategyKind::kPsBsp
                     ? shared
                     : 1 + static_cast<int>(Below(6));
    }
    active_ = n_;
  }

  /// Runs the schedule to completion; false on a violated invariant or a
  /// deadlock, with the reason in failure().
  bool Run() {
    constexpr int kMaxSteps = 2000;
    for (int step = 0; step < kMaxSteps && failure_.empty(); ++step) {
      if (AllDone()) {
        if (core_->active() != 0) Fail("every worker done, core still active");
        return failure_.empty();
      }
      if (!Step()) Fail("no enabled event (deadlock)");
      if (failure_.empty()) CheckInvariants();
    }
    if (failure_.empty()) failure_ = "no progress (deadlock)";
    return false;
  }

  const std::string& log() const { return log_; }
  const std::string& failure() const { return failure_; }

 private:
  enum class State { kIdle, kWaiting, kHolding, kDone };
  struct Worker {
    State state = State::kIdle;
    int budget = 0;         ///< pushes left
    uint64_t version = 0;   ///< kHolding: the model version it holds
    int pushes = 0;
    bool in_round = false;  ///< a fresh contribution to the open round
  };
  enum class Event { kPull, kPush, kGiveUp, kEndRound };

  uint64_t Next() {
    uint64_t z = (rng_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

  void Log(char tag, long long a = -1, long long b = -1) {
    char buf[48];
    const int len = std::snprintf(buf, sizeof(buf), "%c%lld,%lld ", tag, a, b);
    log_.append(buf, static_cast<size_t>(len));
  }
  void Fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

  bool AllDone() const {
    for (const Worker& w : workers_) {
      if (w.state != State::kDone) return false;
    }
    return true;
  }
  bool Synchronous() const {
    return config_.kind != StrategyKind::kPsAsp &&
           config_.kind != StrategyKind::kPsHete;
  }
  int RoundCount() const {
    return static_cast<int>(std::count_if(
        workers_.begin(), workers_.end(),
        [](const Worker& w) { return w.in_round; }));
  }

  /// Picks one enabled event at random and feeds it to the core.
  bool Step() {
    struct Choice {
      Event event;
      int worker;
    };
    std::vector<Choice> enabled;
    for (int i = 0; i < n_; ++i) {
      const Worker& w = workers_[static_cast<size_t>(i)];
      if (w.state == State::kIdle) enabled.push_back({Event::kPull, i});
      if (w.state == State::kHolding) {
        // BSP and BK rounds end before the next push; ER's reduce runs
        // while pushes still deposit.
        if (!closing_ || config_.kind == StrategyKind::kEagerReduce) {
          enabled.push_back({Event::kPush, i});
        }
        if (core_->Superseded(w.version)) {
          enabled.push_back({Event::kGiveUp, i});
        }
      }
    }
    if (closing_) enabled.push_back({Event::kEndRound, -1});
    if (enabled.empty()) return false;
    const Choice c = enabled[Below(enabled.size())];
    switch (c.event) {
      case Event::kPull:
      case Event::kGiveUp:
        Pull(c.worker, c.event == Event::kGiveUp);
        break;
      case Event::kPush:
        Push(c.worker);
        break;
      case Event::kEndRound:
        EndRound();
        break;
    }
    return true;
  }

  void Pull(int i, bool give_up) {
    Log(give_up ? 'g' : 'p', i);
    Worker& w = workers_[static_cast<size_t>(i)];
    const bool parks = w.in_round;
    if (core_->InRound(i) != parks) Fail("InRound disagrees with the rounds");
    w.state = State::kWaiting;
    Deliver(core_->Pull(i));
    if (!parks && w.state != State::kHolding) {
      Fail("pull from worker " + std::to_string(i) + " outside a round parked");
    }
  }

  void Push(int i) {
    Worker& w = workers_[static_cast<size_t>(i)];
    const bool last = w.budget == 1;
    const uint64_t before = core_->version();
    const uint64_t staleness = before - w.version;
    const double m = 1.0 + w.pushes % 3;  // this push's gradient is m * e_i
    Log(last ? 'L' : 'P', i, static_cast<long long>(staleness));
    std::vector<float> grad(static_cast<size_t>(n_), 0.0f);
    grad[static_cast<size_t>(i)] = static_cast<float>(m);
    ++pushes_;
    ++w.pushes;
    --w.budget;
    if (last) --active_;
    w.state = last ? State::kDone : State::kIdle;

    const bool dropped =
        config_.kind == StrategyKind::kPsBackup && staleness > 0;
    if (config_.kind == StrategyKind::kPsBsp && staleness != 0) {
      Fail("BSP push with staleness " + std::to_string(staleness));
    }
    if (!Synchronous()) {
      double scale = 1.0 / n_;
      if (config_.kind == StrategyKind::kPsHete) {
        scale *= ExcessStalenessLrScale(staleness, static_cast<size_t>(n_));
      }
      shadow_[static_cast<size_t>(i)] -= scale * m;
    } else if (!dropped) {
      if (w.in_round) Fail("worker contributed twice to one round");
      w.in_round = true;
      deposits_[static_cast<size_t>(i)] = m;
      round_grads_.push_back({i, m});
    }
    const ServerActions actions = core_->Push(i, w.version, grad.data(), last,
                                              /*lr=*/1.0);
    const bool ready = std::any_of(
        actions.begin(), actions.end(), [](const ServerAction& a) {
          return a.kind == ServerAction::Kind::kRoundReady;
        });

    if (!Synchronous()) {
      if (core_->version() != before + 1) Fail("async push did not bump once");
    } else {
      if (core_->version() != before) Fail("a round applied before its end");
      // BSP rounds take all N; BK and ER targets are capped by the workers
      // still able to push.
      const int target =
          config_.kind == StrategyKind::kPsBsp ? n_ : CappedTarget();
      const bool due = !closing_ && RoundCount() >= target;
      if (ready != due) {
        Fail(std::string("round ") + (ready ? "announced below" : "missed at") +
             " its target");
      }
      closing_ = closing_ || ready;
    }
    Deliver(actions);
  }

  void EndRound() {
    Log('E');
    const uint64_t before = core_->version();
    closing_ = false;
    const ServerActions actions = core_->EndRound(/*lr=*/1.0);
    if (core_->version() != before + 1) Fail("round end did not bump once");
    CloseRound(before);
    Deliver(actions);
  }

  int CappedTarget() const { return std::min(target_, std::max(active_, 1)); }

  /// Shadows a synchronous round close that superseded `old_version`.
  void CloseRound(uint64_t old_version) {
    if (config_.kind != StrategyKind::kEagerReduce) {
      const int count = static_cast<int>(round_grads_.size());
      const int cap = config_.kind == StrategyKind::kPsBsp ? n_ : target_;
      if (count < 1 || count > cap) {
        Fail("round applied " + std::to_string(count) + " gradients");
      }
      for (const auto& [i, m] : round_grads_) {
        shadow_[static_cast<size_t>(i)] -= m / count;
      }
    } else {
      for (int i = 0; i < n_; ++i) {
        const size_t c = static_cast<size_t>(i);
        shadow_[c] -= deposits_[c] / n_;
      }
    }
    round_grads_.clear();
    for (Worker& w : workers_) {
      w.in_round = false;
      // A BK gradient is wasted once, by the close that supersedes it.
      if (config_.kind == StrategyKind::kPsBackup &&
          w.state == State::kHolding && w.version == old_version) {
        ++wasted_;
      }
    }
  }

  void Deliver(const ServerActions& actions) {
    for (const ServerAction& a : actions) {
      if (a.kind != ServerAction::Kind::kModel) continue;
      if (a.worker < 0 || a.worker >= n_) {
        Fail("reply to an unknown worker");
        continue;
      }
      Worker& w = workers_[static_cast<size_t>(a.worker)];
      if (w.state != State::kWaiting) {
        Fail("reply to worker " + std::to_string(a.worker) +
             ", which is not waiting");
      }
      if (a.version != core_->version()) Fail("reply carries an old version");
      w.state = State::kHolding;
      w.version = a.version;
    }
  }

  void CheckInvariants() {
    const uint64_t version = core_->version();
    if (version < last_version_) Fail("version went backwards");
    last_version_ = version;
    if (!Synchronous() && version != pushes_) {
      Fail("async versions != pushes");
    }
    for (int i = 0; i < n_; ++i) {
      const Worker& w = workers_[static_cast<size_t>(i)];
      // A pull waits only while its worker is in the open round.
      if (w.state == State::kWaiting && !w.in_round) {
        Fail("worker " + std::to_string(i) + " waits outside the open round");
      }
      const double got = core_->model()[static_cast<size_t>(i)];
      if (std::fabs(got - shadow_[static_cast<size_t>(i)]) > 1e-3) {
        Fail("coordinate " + std::to_string(i) + " is " + std::to_string(got) +
             ", expected " + std::to_string(shadow_[static_cast<size_t>(i)]));
      }
    }
    if (shard_->GetCounter("ps.wasted_gradients")->value() !=
        static_cast<double>(wasted_)) {
      Fail("ps.wasted_gradients != wasted gradients");
    }
    if (shard_->GetCounter("ps.versions")->value() !=
        static_cast<double>(version)) {
      Fail("ps.versions != version");
    }
    if (core_->active() != active_) Fail("active count differs");
  }

  ExploreConfig config_;
  int n_;
  uint64_t rng_;
  MetricsRegistry registry_;
  MetricsShard* shard_;
  std::unique_ptr<ServerCore> core_;
  std::vector<Worker> workers_;
  int target_ = 0;
  int active_ = 0;
  bool closing_ = false;  ///< ER: a round was announced, its reduce runs
  /// The expected model, one coordinate per worker.
  std::vector<double> shadow_;
  /// ER: each worker's last deposit (its unit-vector multiple).
  std::vector<double> deposits_;
  /// BSP/BK: the open round's fresh gradients, as (worker, multiple).
  std::vector<std::pair<int, double>> round_grads_;
  uint64_t pushes_ = 0;
  uint64_t wasted_ = 0;
  uint64_t last_version_ = 0;
  std::string log_;
  std::string failure_;
};

TEST(ServerCoreTest, InvariantsHoldOnEverySchedule) {
  constexpr uint64_t kSeedsPerConfig = 500;  // 32 configs: 16,000 schedules
  int failures = 0;
  for (const ExploreConfig& config : Grid()) {
    for (uint64_t seed = 1; seed <= kSeedsPerConfig; ++seed) {
      Explorer explorer(config, seed);
      if (!explorer.Run() && ++failures <= 3) {
        ADD_FAILURE() << ConfigName(config) << " seed " << seed << ": "
                      << explorer.failure()
                      << "\nschedule: " << explorer.log();
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(ServerCoreTest, SameSeedGivesIdenticalLog) {
  for (const ExploreConfig& config :
       {ExploreConfig{StrategyKind::kPsBackup, 7, 3, 0},
        ExploreConfig{StrategyKind::kEagerReduce, 4, 0, 0}}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      Explorer a(config, seed);
      Explorer b(config, seed);
      a.Run();
      b.Run();
      EXPECT_EQ(a.log(), b.log()) << ConfigName(config) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Both engines drive the same core.
// ---------------------------------------------------------------------------

RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.backup_workers = 1;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 12;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 1024;
  config.run.dataset.num_test = 512;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.dataset.separation = 3.0;
  config.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.002};
  config.run.trace_capacity = 1 << 16;
  config.run.seed = 5;
  return config;
}

size_t CountEvents(const TraceLog& trace, TraceEventKind kind) {
  return static_cast<size_t>(std::count_if(
      trace.events.begin(), trace.events.end(),
      [kind](const TraceEvent& e) { return e.kind == kind; }));
}

TEST(ServerEngineParityTest, PsMetricNamesAndTraceEventsMatchAcrossEngines) {
  for (StrategyKind kind : {StrategyKind::kPsBsp, StrategyKind::kPsAsp,
                            StrategyKind::kPsHete, StrategyKind::kPsBackup}) {
    const RunConfig config = SmallConfig(kind);
    for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
      const RunResult run = StartRun(config, engine);
      const std::string where =
          StrategyKindName(kind) + " on " + EngineKindName(engine);
      EXPECT_GT(run.metrics.counter("ps.versions"), 0.0) << where;
      EXPECT_EQ(run.trace.dropped, 0u);
      EXPECT_GT(CountEvents(run.trace, TraceEventKind::kPsPull), 0u) << where;
      EXPECT_GT(CountEvents(run.trace, TraceEventKind::kPsPush), 0u) << where;
    }
  }
}

TEST(ServerEngineParityTest, EagerReduceTracesOneReduceEndPerRound) {
  const RunConfig config = SmallConfig(StrategyKind::kEagerReduce);
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    const RunResult run = StartRun(config, engine);
    ASSERT_GT(run.updates, 0u) << EngineKindName(engine);
    EXPECT_EQ(run.trace.dropped, 0u);
    EXPECT_EQ(CountEvents(run.trace, TraceEventKind::kReduceEnd),
              run.updates)
        << EngineKindName(engine);
  }
}

/// One simulated run of `config`: its result and worker 0's final model.
struct SimRun {
  RunResult result;
  std::vector<float> params;
};
SimRun RunSim(const RunConfig& config) {
  SimTraining ctx(config);
  std::unique_ptr<Strategy> strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  ctx.EvaluateNow();
  return {ctx.BuildResult(StrategyKindName(config.strategy.kind)),
          ctx.params(0)};
}

TEST(ServerEngineParityTest, SimulatedPsTrainsThroughTheCodec) {
  // AD-PSGD's gossip ships models through the same codec.
  for (StrategyKind kind : {StrategyKind::kPsAsp, StrategyKind::kAdPsgd}) {
    SCOPED_TRACE(StrategyKindName(kind));
    RunConfig config = SmallConfig(kind);
    config.run.iterations_per_worker = 30;
    const RunConfig fp32 = config;
    RunConfig int8 = fp32;
    int8.strategy.compression = CompressionKind::kInt8;
    const SimRun plain = RunSim(fp32);
    const SimRun compressed = RunSim(int8);

    // The codec is in the path: the models differ and compress.* counts the
    // encodes (~3.9x for int8).
    EXPECT_NE(compressed.params, plain.params);
    const MetricsSnapshot& m = compressed.result.metrics;
    ASSERT_GT(m.counter("compress.bytes_in"), 0.0);
    EXPECT_GE(m.counter("compress.bytes_in") / m.counter("compress.bytes_out"),
              3.0);
    // The threaded CompressedStrategyTest bound: int8 still learns.
    const SimTraining fresh(fp32);
    const double initial =
        EvaluateLoss(fresh.model(), fresh.params(0).data(), fresh.test_set());
    ASSERT_FALSE(compressed.result.curve.empty());
    EXPECT_LT(compressed.result.curve.back().loss, initial);
  }
}

}  // namespace
}  // namespace pr
