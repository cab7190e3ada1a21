#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/manifest.h"
#include "ckpt/protocol.h"
#include "runtime/threaded_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

namespace fs = std::filesystem;

/// Scoped checkpoint directory under the system temp dir.
class CkptDir {
 public:
  explicit CkptDir(const std::string& tag)
      : dir_((fs::temp_directory_path() /
              ("pr_ckpt_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ~CkptDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

RunManifest SampleManifest(uint64_t epoch) {
  RunManifest m;
  m.engine = "threaded";
  m.strategy = "CON";
  m.num_workers = 3;
  m.num_params = 7;
  m.seed = 42;
  m.epoch = epoch;
  m.updates_done = 12 * epoch;
  m.next_group_id = 9;
  m.saved_at_seconds = 1.5;
  m.history = {{0, 1}, {1, 2, 0}};
  for (int w = 0; w < 3; ++w) {
    ManifestWorker mw;
    mw.worker = w;
    mw.iteration = 10 + w;
    mw.completed = 8 + static_cast<uint64_t>(w);
    mw.shard_file = ShardFileName(epoch, w);
    m.workers.push_back(mw);
  }
  return m;
}

TEST(ManifestTest, RoundTripsEveryField) {
  CkptDir dir("roundtrip");
  const RunManifest m = SampleManifest(3);
  ASSERT_TRUE(SaveManifest(dir.path(), m).ok());

  RunManifest loaded;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 3), &loaded).ok());
  EXPECT_EQ(loaded.engine, m.engine);
  EXPECT_EQ(loaded.strategy, m.strategy);
  EXPECT_EQ(loaded.num_workers, m.num_workers);
  EXPECT_EQ(loaded.num_params, m.num_params);
  EXPECT_EQ(loaded.seed, m.seed);
  EXPECT_EQ(loaded.epoch, m.epoch);
  EXPECT_EQ(loaded.updates_done, m.updates_done);
  EXPECT_EQ(loaded.next_group_id, m.next_group_id);
  EXPECT_DOUBLE_EQ(loaded.saved_at_seconds, m.saved_at_seconds);
  EXPECT_EQ(loaded.history, m.history);
  ASSERT_EQ(loaded.workers.size(), m.workers.size());
  for (size_t i = 0; i < m.workers.size(); ++i) {
    EXPECT_EQ(loaded.workers[i].worker, m.workers[i].worker);
    EXPECT_EQ(loaded.workers[i].iteration, m.workers[i].iteration);
    EXPECT_EQ(loaded.workers[i].completed, m.workers[i].completed);
    EXPECT_EQ(loaded.workers[i].shard_file, m.workers[i].shard_file);
  }
}

TEST(ManifestTest, TornManifestFallsBackToPreviousEpoch) {
  CkptDir dir("torn");
  ASSERT_TRUE(SaveManifest(dir.path(), SampleManifest(1)).ok());
  ASSERT_TRUE(SaveManifest(dir.path(), SampleManifest(2)).ok());

  // Tear epoch 2 the way a crash mid-write would (if rename were not
  // atomic): keep the first bytes, drop the tail with the checksum.
  const std::string torn = ManifestPath(dir.path(), 2);
  ASSERT_TRUE(fs::exists(torn));
  fs::resize_file(torn, fs::file_size(torn) / 2);

  RunManifest latest;
  std::string path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &path).ok());
  EXPECT_EQ(latest.epoch, 1u);
  EXPECT_EQ(path, ManifestPath(dir.path(), 1));
}

TEST(ManifestTest, FindLatestFailsOnEmptyDir) {
  CkptDir dir("empty");
  std::error_code ec;
  fs::create_directories(dir.path(), ec);
  RunManifest latest;
  EXPECT_FALSE(FindLatestManifest(dir.path(), &latest).ok());
}

TEST(ManifestTest, ShardRoundTripsParamsAndVelocity) {
  CkptDir dir("shard");
  std::error_code ec;
  fs::create_directories(dir.path(), ec);
  const std::vector<float> params = {1.0f, -2.5f, 3.25f};
  const std::vector<float> velocity = {0.5f, 0.0f, -7.0f};
  const std::string path = ShardPath(dir.path(), 4, 1);
  ASSERT_TRUE(SaveWorkerShard(path,
                              Slice(params.data(), params.size()),
                              Slice(velocity.data(), velocity.size()))
                  .ok());

  std::vector<float> p;
  std::vector<float> v;
  ASSERT_TRUE(LoadWorkerShard(path, 3, &p, &v).ok());
  EXPECT_EQ(p, params);
  EXPECT_EQ(v, velocity);
  // A shard read with the wrong parameter count must fail loudly rather
  // than split the floats at the wrong boundary.
  EXPECT_FALSE(LoadWorkerShard(path, 4, &p, &v).ok());
}

// ---------------------------------------------------------------------------
// Threaded engine: checkpoint + restore.
// ---------------------------------------------------------------------------

RunConfig SmallThreadedConfig(StrategyKind kind, const std::string& ckpt_dir) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 9;
  config.run.model.hidden = {8};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  config.run.ckpt.dir = ckpt_dir;
  config.run.ckpt.every_iterations = 3;
  return config;
}

TEST(CkptRestoreTest, AllReduceRestoreIsBitForBitIdentical) {
  CkptDir dir("ar_bitwise");
  const RunConfig config =
      SmallThreadedConfig(StrategyKind::kAllReduce, dir.path());
  ThreadedRunResult full = RunThreaded(config);
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 2.0);
  ASSERT_FALSE(full.final_params.empty());

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.epoch, 2u);  // cuts at k=3 and k=6; k=9 ends the run

  RunResult restored = ResumeRun(config, EngineKind::kThreaded, manifest_path);
  // The acceptance bar: a restored AR run must replay the exact remaining
  // iterations — same batches, same averaged gradients, same momentum — so
  // the final parameters match the never-interrupted run bit for bit.
  ASSERT_EQ(restored.final_params.size(), full.final_params.size());
  for (size_t i = 0; i < full.final_params.size(); ++i) {
    ASSERT_EQ(restored.final_params[i], full.final_params[i])
        << "parameter " << i << " diverged after restore";
  }
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
  EXPECT_EQ(full.metrics.counter("ckpt.restore_count"), 0.0);
}

TEST(CkptRestoreTest, PReduceRestoreFinishesTheBudget) {
  CkptDir dir("preduce_resume");
  RunConfig config =
      SmallThreadedConfig(StrategyKind::kPReduceConst, dir.path());
  config.run.worker_delay_seconds.assign(4, 0.001);
  ThreadedRunResult full = RunThreaded(config);
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.strategy, "CON");
  EXPECT_EQ(latest.engine, "threaded");

  RunResult restored = ResumeRun(config, EngineKind::kThreaded, manifest_path);
  // Metric continuity: iteration counters resume at the restored counts, so
  // a resumed run reports the same totals as an uninterrupted one.
  for (size_t iters : restored.worker_iterations) {
    EXPECT_EQ(iters, config.run.iterations_per_worker);
  }
  EXPECT_EQ(restored.metrics.counter("worker.0.iterations"),
            static_cast<double>(config.run.iterations_per_worker));
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
  EXPECT_GT(restored.updates, 0u);
}

TEST(CkptRestoreTest, RestoreRejectsMismatchedStrategy) {
  CkptDir dir("mismatch");
  const RunConfig config =
      SmallThreadedConfig(StrategyKind::kAllReduce, dir.path());
  (void)RunThreaded(config);
  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());

  RunConfig wrong = config;
  wrong.strategy.kind = StrategyKind::kPReduceConst;
  EXPECT_DEATH(ResumeRun(wrong, EngineKind::kThreaded, manifest_path),
               "strategy");
}

// ---------------------------------------------------------------------------
// Simulated engine: checkpoint + restore determinism.
// ---------------------------------------------------------------------------

RunConfig SmallSimConfig(StrategyKind kind, const std::string& dir) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 6;
  config.sim.max_updates = 40;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = 5;
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 10;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  return config;
}

TEST(CkptRestoreTest, SimRestoreIsDeterministic) {
  CkptDir dir("sim_det");
  const RunConfig config =
      SmallSimConfig(StrategyKind::kPReduceConst, dir.path());
  RunResult full = StartRun(config, EngineKind::kSim);
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);
  EXPECT_EQ(full.updates, 40u);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.engine, "sim");

  RunResult a = ResumeRun(config, EngineKind::kSim, manifest_path);
  RunResult b = ResumeRun(config, EngineKind::kSim, manifest_path);
  // The simulator is deterministic in (seed, restored state): two restores
  // of one manifest must replay identically, down to the virtual clock.
  EXPECT_EQ(a.updates, 40u);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.clock_seconds, b.clock_seconds);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.metrics.counter("controller.groups_formed"),
            b.metrics.counter("controller.groups_formed"));
  EXPECT_EQ(a.metrics.counter("ckpt.restore_count"), 1.0);
}

TEST(CkptRestoreTest, SimAllReduceCheckpoints) {
  CkptDir dir("sim_ar");
  const RunConfig config =
      SmallSimConfig(StrategyKind::kAllReduce, dir.path());
  RunResult full = StartRun(config, EngineKind::kSim);
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  RunResult restored = ResumeRun(config, EngineKind::kSim, manifest_path);
  EXPECT_EQ(restored.updates, 40u);
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
  // The barrier cut holds the whole run state: the restored run replays the
  // remaining rounds exactly, as the threaded AR restore does.
  ASSERT_FALSE(full.curve.empty());
  ASSERT_FALSE(restored.curve.empty());
  EXPECT_EQ(restored.curve.back().loss, full.curve.back().loss);
  EXPECT_EQ(restored.final_accuracy, full.final_accuracy);
}

// ---------------------------------------------------------------------------
// One definition of ckpt.save_seconds and kCkptSaved for both engines.
// ---------------------------------------------------------------------------

size_t FilesIn(const std::string& dir) {
  size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files;
  }
  return files;
}

TEST(CkptRestoreTest, SaveSecondsSamplesEveryFileWritten) {
  for (StrategyKind kind :
       {StrategyKind::kPReduceConst, StrategyKind::kAllReduce}) {
    for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
      const std::string where =
          StrategyKindName(kind) + "_" + EngineKindName(engine);
      SCOPED_TRACE(where);
      CkptDir dir("save_seconds_" + where);
      RunConfig config = SmallThreadedConfig(kind, dir.path());
      config.run.trace_capacity = 1 << 12;
      const RunResult run = StartRun(config, engine);
      const double manifests = run.metrics.counter("ckpt.manifests_written");
      ASSERT_GE(manifests, 1.0);

      // One sample per shard and per manifest on disk.
      const HistogramSnapshot* save = run.metrics.histogram("ckpt.save_seconds");
      ASSERT_NE(save, nullptr);
      EXPECT_EQ(save->total_count, FilesIn(dir.path()));

      // One kCkptSaved per manifest: worker -1, a = epoch, b = updates_done.
      size_t saved = 0;
      for (const TraceEvent& e : run.trace.events) {
        if (e.kind != TraceEventKind::kCkptSaved) continue;
        ++saved;
        EXPECT_EQ(e.worker, -1);
        RunManifest m;
        ASSERT_TRUE(LoadManifest(
                        ManifestPath(dir.path(), static_cast<uint64_t>(e.a)),
                        &m)
                        .ok());
        EXPECT_EQ(static_cast<uint64_t>(e.b), m.updates_done);
      }
      EXPECT_EQ(static_cast<double>(saved), manifests);
    }
  }
}

// ---------------------------------------------------------------------------
// The cut rule and the coordinator, driven directly.
// ---------------------------------------------------------------------------

TEST(CkptCoordinatorTest, CutEpochRule) {
  const CheckpointConfig every3{"dir", 3};
  EXPECT_EQ(CutEpoch(every3, 0, 9), 0u);
  EXPECT_EQ(CutEpoch(every3, 3, 9), 1u);
  EXPECT_EQ(CutEpoch(every3, 4, 9), 0u);
  EXPECT_EQ(CutEpoch(every3, 6, 9), 2u);
  EXPECT_EQ(CutEpoch(every3, 9, 9), 0u);  // the final iteration never cuts
  EXPECT_EQ(CutEpoch(every3, 9, SIZE_MAX), 3u);
  // The partition gate cuts the upcoming epoch at every boundary.
  EXPECT_EQ(CutEpoch(every3, 1, 9, /*forced=*/true), 1u);
  EXPECT_EQ(CutEpoch(every3, 4, 9, /*forced=*/true), 2u);
  EXPECT_EQ(CutEpoch(every3, 6, 9, /*forced=*/true), 2u);
  EXPECT_EQ(CutEpoch(CheckpointConfig{}, 3, 9), 0u);
  EXPECT_EQ(CutEpoch(CheckpointConfig{"dir", 0}, 3, 9), 0u);
}

RunIdentity ThreeWorkers() { return {EngineKind::kSim, "CON", 3, 7, 42}; }

/// Worker `worker`'s cut of `epoch` after `completed` local iterations.
ManifestWorker Cut(int worker, uint64_t epoch, uint64_t completed) {
  return {worker, static_cast<int64_t>(completed) + 10, completed,
          ShardFileName(epoch, worker)};
}

struct CoordinatorRig {
  explicit CoordinatorRig(const std::string& dir,
                          const RunManifest* resume = nullptr)
      : coordinator(dir, ThreeWorkers(), registry.NewShard(), &trace,
                    resume) {}

  bool Report(uint64_t epoch, const ManifestWorker& report) {
    return coordinator.Report(epoch, report, {5 * epoch, 0.5, nullptr});
  }
  size_t SavedEvents() {
    const TraceLog log = trace.Log();
    return static_cast<size_t>(std::count_if(
        log.events.begin(), log.events.end(), [](const TraceEvent& e) {
          return e.kind == TraceEventKind::kCkptSaved;
        }));
  }

  MetricsRegistry registry;
  TraceRecorder trace{64};
  CkptCoordinator coordinator;
};

TEST(CkptCoordinatorTest, FillsTheHeaderOnceEveryWorkerReported) {
  CkptDir dir("coord_header");
  CoordinatorRig rig(dir.path());
  const CutState state{12, 3.5, [](RunManifest* m) {
                         m->next_group_id = 9;
                         m->history = {{0, 2}};
                       }};
  EXPECT_FALSE(rig.coordinator.Report(1, Cut(2, 1, 3), state));
  EXPECT_FALSE(rig.coordinator.Report(1, Cut(0, 1, 3), state));
  EXPECT_TRUE(rig.coordinator.Report(1, Cut(1, 1, 3), state));

  RunManifest m;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 1), &m).ok());
  EXPECT_EQ(m.engine, "sim");
  EXPECT_EQ(m.strategy, "CON");
  EXPECT_EQ(m.num_workers, 3);
  EXPECT_EQ(m.num_params, 7u);
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.epoch, 1u);
  EXPECT_EQ(m.updates_done, 12u);
  EXPECT_EQ(m.saved_at_seconds, 3.5);
  EXPECT_EQ(m.next_group_id, 9u);
  EXPECT_EQ(m.history, (std::vector<std::vector<int>>{{0, 2}}));
  ASSERT_EQ(m.workers.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    const ManifestWorker& mw = m.workers[static_cast<size_t>(w)];
    EXPECT_EQ(mw.worker, w);
    EXPECT_EQ(mw.iteration, 13);
    EXPECT_EQ(mw.completed, 3u);
    EXPECT_EQ(mw.shard_file, ShardFileName(1, w));
  }

  const MetricsSnapshot metrics = rig.registry.Snapshot();
  EXPECT_EQ(metrics.counter("ckpt.manifests_written"), 1.0);
  EXPECT_EQ(metrics.counter("ckpt.restore_count"), 0.0);
  ASSERT_NE(metrics.histogram("ckpt.save_seconds"), nullptr);
  EXPECT_EQ(metrics.histogram("ckpt.save_seconds")->total_count, 1u);
  const TraceLog log = rig.trace.Log();
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].kind, TraceEventKind::kCkptSaved);
  EXPECT_EQ(log.events[0].time, 3.5);
  EXPECT_EQ(log.events[0].worker, -1);
  EXPECT_EQ(log.events[0].a, 1);
  EXPECT_EQ(log.events[0].b, 12);
}

TEST(CkptCoordinatorTest, OutOfOrderAndInterleavedEpochs) {
  CkptDir dir("coord_order");
  CoordinatorRig rig(dir.path());
  // Epoch 2 completes before epoch 1: its manifest lands, and epoch 1 can
  // no longer complete.
  EXPECT_FALSE(rig.Report(2, Cut(0, 2, 6)));
  EXPECT_FALSE(rig.Report(1, Cut(1, 1, 3)));
  EXPECT_FALSE(rig.Report(1, Cut(0, 1, 3)));
  EXPECT_FALSE(rig.Report(2, Cut(1, 2, 6)));
  EXPECT_TRUE(rig.Report(2, Cut(2, 2, 6)));
  EXPECT_FALSE(rig.Report(1, Cut(2, 1, 3)));
  EXPECT_FALSE(fs::exists(ManifestPath(dir.path(), 1)));
  EXPECT_TRUE(fs::exists(ManifestPath(dir.path(), 2)));

  // Two open epochs interleaved, completing in order: both land.
  EXPECT_FALSE(rig.Report(3, Cut(0, 3, 9)));
  EXPECT_FALSE(rig.Report(4, Cut(0, 4, 12)));
  EXPECT_FALSE(rig.Report(3, Cut(1, 3, 9)));
  EXPECT_FALSE(rig.Report(4, Cut(1, 4, 12)));
  EXPECT_TRUE(rig.Report(3, Cut(2, 3, 9)));
  EXPECT_TRUE(rig.Report(4, Cut(2, 4, 12)));
  EXPECT_TRUE(fs::exists(ManifestPath(dir.path(), 3)));
  RunManifest latest;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest).ok());
  EXPECT_EQ(latest.epoch, 4u);
  EXPECT_EQ(latest.updates_done, 20u);
  EXPECT_EQ(rig.registry.Snapshot().counter("ckpt.manifests_written"), 3.0);
  EXPECT_EQ(rig.SavedEvents(), 3u);
}

TEST(CkptCoordinatorTest, DuplicateReportsCountOnce) {
  CkptDir dir("coord_dup");
  CoordinatorRig rig(dir.path());
  EXPECT_FALSE(rig.Report(1, Cut(0, 1, 3)));
  EXPECT_FALSE(rig.Report(1, Cut(0, 1, 3)));
  EXPECT_FALSE(rig.Report(1, Cut(1, 1, 3)));
  EXPECT_FALSE(fs::exists(ManifestPath(dir.path(), 1)));
  // A repeated report replaces the earlier one: the forced gate rewrote
  // that worker's shard at a later iteration.
  EXPECT_FALSE(rig.Report(1, Cut(0, 1, 4)));
  EXPECT_TRUE(rig.Report(1, Cut(2, 1, 3)));
  RunManifest m;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 1), &m).ok());
  ASSERT_EQ(m.workers.size(), 3u);
  EXPECT_EQ(m.workers[0].completed, 4u);
  EXPECT_EQ(rig.registry.Snapshot().counter("ckpt.manifests_written"), 1.0);
}

TEST(CkptCoordinatorTest, StaleEpochAfterAWriteIsDropped) {
  CkptDir dir("coord_stale");
  CoordinatorRig rig(dir.path());
  for (int w = 0; w < 3; ++w) rig.Report(2, Cut(w, 2, 6));
  ASSERT_TRUE(fs::exists(ManifestPath(dir.path(), 2)));
  for (int w = 0; w < 3; ++w) {
    EXPECT_FALSE(rig.Report(2, Cut(w, 2, 6)));
    EXPECT_FALSE(rig.Report(1, Cut(w, 1, 3)));
  }
  EXPECT_FALSE(fs::exists(ManifestPath(dir.path(), 1)));
  EXPECT_EQ(rig.registry.Snapshot().counter("ckpt.manifests_written"), 1.0);

  // A resumed run's coordinator treats the restored epoch as written.
  RunManifest restored;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 2), &restored).ok());
  CkptDir next("coord_stale_resumed");
  CoordinatorRig resumed(next.path(), &restored);
  EXPECT_EQ(resumed.registry.Snapshot().counter("ckpt.restore_count"), 1.0);
  for (int w = 0; w < 3; ++w) EXPECT_FALSE(resumed.Report(2, Cut(w, 2, 6)));
  for (int w = 0; w < 2; ++w) EXPECT_FALSE(resumed.Report(3, Cut(w, 3, 9)));
  EXPECT_TRUE(resumed.Report(3, Cut(2, 3, 9)));
}

TEST(CkptCoordinatorTest, AMissingWorkerMeansNoManifest) {
  CkptDir dir("coord_missing");
  CoordinatorRig rig(dir.path());
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    EXPECT_FALSE(rig.Report(epoch, Cut(0, epoch, 3 * epoch)));
    EXPECT_FALSE(rig.Report(epoch, Cut(2, epoch, 3 * epoch)));
  }
  // Out-of-range workers never stand in for the missing one.
  EXPECT_FALSE(rig.Report(1, Cut(3, 1, 3)));
  EXPECT_FALSE(rig.Report(1, Cut(-1, 1, 3)));
  EXPECT_FALSE(fs::exists(dir.path()));
  const MetricsSnapshot metrics = rig.registry.Snapshot();
  EXPECT_EQ(metrics.counter("ckpt.manifests_written"), 0.0);
  EXPECT_EQ(metrics.histogram("ckpt.save_seconds")->total_count, 0u);
  EXPECT_EQ(rig.SavedEvents(), 0u);
}

TEST(CkptCoordinatorTest, ReportAllSharesWorkerZerosShard) {
  CkptDir dir("coord_all");
  CoordinatorRig rig(dir.path());
  EXPECT_TRUE(rig.coordinator.ReportAll(2, 6, {6, 1.0, nullptr}));
  RunManifest m;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 2), &m).ok());
  ASSERT_EQ(m.workers.size(), 3u);
  for (const ManifestWorker& mw : m.workers) {
    EXPECT_EQ(mw.iteration, 6);
    EXPECT_EQ(mw.completed, 6u);
    EXPECT_EQ(mw.shard_file, ShardFileName(2, 0));
  }
}

TEST(CkptCoordinatorTest, LoadResumeChecksTheRunIdentity) {
  CkptDir dir("load_resume");
  CoordinatorRig rig(dir.path());
  for (int w = 0; w < 3; ++w) {
    const std::vector<float> params(7, static_cast<float>(w));
    const std::vector<float> velocity(7, -static_cast<float>(w));
    ASSERT_TRUE(SaveWorkerShard(ShardPath(dir.path(), 1, w),
                                Slice(params.data(), params.size()),
                                Slice(velocity.data(), velocity.size()))
                    .ok());
    rig.Report(1, Cut(w, 1, 3));
  }
  const std::string path = ManifestPath(dir.path(), 1);
  ResumeState state;
  ASSERT_TRUE(LoadResume(path, ThreeWorkers(), &state).ok());
  EXPECT_EQ(state.manifest.epoch, 1u);
  ASSERT_EQ(state.workers.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    const WorkerResume& r = state.workers[static_cast<size_t>(w)];
    EXPECT_EQ(r.params, std::vector<float>(7, static_cast<float>(w)));
    EXPECT_EQ(r.velocity, std::vector<float>(7, -static_cast<float>(w)));
    EXPECT_EQ(r.iteration, 13);
    EXPECT_EQ(r.completed, 3u);
  }

  RunIdentity engine = ThreeWorkers();
  engine.engine = EngineKind::kThreaded;
  RunIdentity strategy = ThreeWorkers();
  strategy.strategy = "DYN";
  RunIdentity workers = ThreeWorkers();
  workers.num_workers = 4;
  RunIdentity params = ThreeWorkers();
  params.num_params = 8;
  RunIdentity seed = ThreeWorkers();
  seed.seed = 43;
  for (const RunIdentity& wrong : {engine, strategy, workers, params, seed}) {
    EXPECT_FALSE(LoadResume(path, wrong, &state).ok());
  }
  fs::remove(ShardPath(dir.path(), 1, 1));
  EXPECT_FALSE(LoadResume(path, ThreeWorkers(), &state).ok());
}

}  // namespace
}  // namespace pr
