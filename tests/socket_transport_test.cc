#include "comm/socket_transport.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "runtime/threaded_runtime.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

// Short rendezvous directory (sockaddr_un paths are ~100 bytes).
struct SockDir {
  SockDir() {
    char tmpl[] = "/tmp/prsockXXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~SockDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

Envelope MakeEnvelope(NodeId from, uint64_t tag, int kind,
                      std::vector<int64_t> ints, std::vector<float> payload) {
  Envelope env;
  env.from = from;
  env.tag = tag;
  env.kind = kind;
  env.ints = std::move(ints);
  env.payload = Buffer::FromVector(std::move(payload));
  return env;
}

void PairSendRecv(bool tcp) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  config.tcp = tcp;
  SocketTransport a(config, {0}, 2);
  SocketTransport b(config, {1}, 2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  // Remote delivery with a payload.
  ASSERT_TRUE(
      a.Send(1, MakeEnvelope(0, 7, 2, {3, 4}, {1.0f, 2.0f, 3.0f})).ok());
  std::optional<Envelope> got = b.RecvFor(1, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 0);
  EXPECT_EQ(got->tag, 7u);
  EXPECT_EQ(got->kind, 2);
  EXPECT_EQ(got->ints, (std::vector<int64_t>{3, 4}));
  ASSERT_EQ(got->payload.size(), 3u);
  EXPECT_EQ(got->payload.data()[2], 3.0f);
  EXPECT_GE(b.frames_received(), 1u);
  EXPECT_GE(a.dials(), 1u);

  // Local (same-process) delivery never touches a socket.
  const uint64_t dials_before = b.dials();
  ASSERT_TRUE(b.Send(1, MakeEnvelope(1, 8, 1, {}, {})).ok());
  got = b.RecvFor(1, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 8u);
  EXPECT_EQ(b.dials(), dials_before);

  a.Shutdown();
  b.Shutdown();
}

TEST(SocketTransportTest, UnixPairSendRecv) { PairSendRecv(/*tcp=*/false); }

TEST(SocketTransportTest, TcpPairSendRecv) { PairSendRecv(/*tcp=*/true); }

TEST(SocketTransportTest, SendToAbsentPeerDropsSilently) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  config.connect_window_seconds = 0.05;  // nobody is coming
  SocketTransport a(config, {0}, 2);
  ASSERT_TRUE(a.Start().ok());

  // A dead host is silent, not an error: the send succeeds and vanishes.
  EXPECT_TRUE(a.Send(1, MakeEnvelope(0, 1, 0, {}, {1.0f})).ok());
  EXPECT_EQ(a.send_drops(), 1u);
  // Subsequent sends are suppressed by the backoff window, still silent.
  EXPECT_TRUE(a.Send(1, MakeEnvelope(0, 2, 0, {}, {})).ok());
  EXPECT_EQ(a.send_drops(), 2u);
  a.Shutdown();
}

TEST(SocketTransportTest, ReconnectsAfterPeerRestart) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  config.redial_window_seconds = 0.05;

  SocketTransport a(config, {0}, 2);
  ASSERT_TRUE(a.Start().ok());
  auto b = std::make_unique<SocketTransport>(config, std::vector<NodeId>{1}, 2);
  ASSERT_TRUE(b->Start().ok());
  ASSERT_TRUE(a.Send(1, MakeEnvelope(0, 1, 0, {}, {})).ok());
  ASSERT_TRUE(b->RecvFor(1, 5.0).has_value());

  // Peer dies: its listener and established connection go away.
  b->Shutdown();
  b.reset();

  // The peer comes back (same address). The connection manager must redial
  // within its bounded backoff and deliver again; sends in the gap are
  // dropped silently.
  b = std::make_unique<SocketTransport>(config, std::vector<NodeId>{1}, 2);
  ASSERT_TRUE(b->Start().ok());
  bool delivered = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t tag = 100;
  while (!delivered && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(a.Send(1, MakeEnvelope(0, tag++, 0, {}, {})).ok());
    delivered = b->TryRecv(1).has_value();
    if (!delivered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(delivered) << "no frame arrived after the peer restarted";
  EXPECT_GE(a.reconnects(), 1u);
  a.Shutdown();
  b->Shutdown();
}

// ---------------------------------------------------------------------------
// Full runs over the socket fabric: the threaded runtime with every message
// crossing a real socket.
// ---------------------------------------------------------------------------

RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = 3;
  config.run.iterations_per_worker = 6;
  config.run.model.hidden = {8};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  return config;
}

ThreadedRunResult RunOverSockets(const RunConfig& config) {
  SockDir dir;
  SocketConfig socket_config;
  socket_config.dir = dir.path;
  SocketFabric fabric(socket_config, config.run.num_workers + 1);
  EXPECT_TRUE(fabric.Start().ok());
  std::unique_ptr<ThreadedStrategy> strategy =
      MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run);
  runtime.UseExternalFabric(&fabric);
  return runtime.Run(strategy.get());
}

template <typename Map>
std::set<std::string> Names(const Map& map) {
  std::set<std::string> names;
  for (const auto& [name, value] : map) names.insert(name);
  return names;
}

TEST(SocketFabricTest, ConMetricNamesMatchInProcExactly) {
  const RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  ThreadedRunResult socket_run = RunOverSockets(config);
  ThreadedRunResult inproc_run = RunThreaded(config);

  EXPECT_EQ(socket_run.strategy, "CON");
  EXPECT_GT(socket_run.group_reduces, 0u);
  // The engines must publish the *same* instrument set — not a subset:
  // anything socket-specific belongs in SocketTransport's own diagnostics,
  // not the metric namespace.
  EXPECT_EQ(Names(socket_run.metrics.counters),
            Names(inproc_run.metrics.counters));
  EXPECT_EQ(Names(socket_run.metrics.gauges),
            Names(inproc_run.metrics.gauges));
  EXPECT_EQ(Names(socket_run.metrics.histograms),
            Names(inproc_run.metrics.histograms));
  EXPECT_TRUE(socket_run.metrics.counters.count("transport.stash_purged"));
}

TEST(SocketFabricTest, AllReduceIsBitwiseIdenticalAndZeroCopy) {
  const RunConfig config = SmallConfig(StrategyKind::kAllReduce);
  ThreadedRunResult socket_run = RunOverSockets(config);
  ThreadedRunResult inproc_run = RunThreaded(config);

  // All-Reduce is deterministic (no timing-dependent grouping), so moving
  // the bytes through sockets must change nothing at all.
  ASSERT_EQ(socket_run.final_params.size(), inproc_run.final_params.size());
  ASSERT_FALSE(socket_run.final_params.empty());
  EXPECT_EQ(std::memcmp(socket_run.final_params.data(),
                        inproc_run.final_params.data(),
                        socket_run.final_params.size() * sizeof(float)),
            0);

  // And with the same number of payload materializations: the wire path
  // adds zero intermediate copies (writev on send, single-allocation recv).
  EXPECT_EQ(socket_run.metrics.counter("transport.payload_copies"),
            inproc_run.metrics.counter("transport.payload_copies"));
  EXPECT_EQ(Names(socket_run.metrics.counters),
            Names(inproc_run.metrics.counters));
}

TEST(SocketFabricTest, ChaosSuiteRunsUnchangedOverSockets) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.run.num_workers = 6;
  config.strategy.group_size = 3;
  config.run.iterations_per_worker = 8;
  config.run.worker_delay_seconds.assign(6, 0.001);
  config.run.fault = MakeChaosPlan(config.run.seed, /*crash_worker=*/4,
                                   /*crash_after_iterations=*/2,
                                   /*drop_prob=*/0.01);
  ThreadedRunResult result = RunOverSockets(config);

  // The FaultyTransport decorator injected its faults over the socket
  // fabric and the recovery protocol reacted — same events, same names.
  EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
  EXPECT_GE(result.metrics.counter("fault.aborted_groups"), 0.0);
  ASSERT_EQ(result.worker_iterations.size(), 6u);
  EXPECT_LT(result.worker_iterations[4], 8u) << "crashed worker kept going";
  for (size_t w = 0; w < 6; ++w) {
    if (w == 4) continue;
    EXPECT_EQ(result.worker_iterations[w], 8u)
        << "surviving worker " << w << " lost iterations";
  }
}

TEST(JitteredBackoffTest, DeterministicBoundedAndDesynchronized) {
  // Pure in its inputs: same (base, jitter, salt, attempt) -> same delay.
  EXPECT_EQ(JitteredBackoff(0.1, 0.5, 7, 3), JitteredBackoff(0.1, 0.5, 7, 3));
  // Degenerate knobs: no base means no sleep, no jitter means exact base.
  EXPECT_EQ(JitteredBackoff(0.0, 0.5, 1, 1), 0.0);
  EXPECT_EQ(JitteredBackoff(-1.0, 0.5, 1, 1), 0.0);
  EXPECT_EQ(JitteredBackoff(0.25, 0.0, 9, 2), 0.25);
  // Every draw stays inside base * [1 - j, 1 + j).
  for (uint64_t salt = 0; salt < 16; ++salt) {
    for (uint64_t attempt = 0; attempt < 16; ++attempt) {
      const double d = JitteredBackoff(0.2, 0.5, salt, attempt);
      EXPECT_GE(d, 0.2 * 0.5);
      EXPECT_LT(d, 0.2 * 1.5);
    }
  }
  // Distinct salts desynchronize identical schedules (the thundering-herd
  // fix): two peers redialing the same dead host must not sleep in lockstep.
  int distinct = 0;
  for (uint64_t salt = 1; salt <= 8; ++salt) {
    if (JitteredBackoff(0.2, 0.5, salt, 0) !=
        JitteredBackoff(0.2, 0.5, 0, 0)) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 7);
  // Successive attempts of one schedule also move.
  EXPECT_NE(JitteredBackoff(0.2, 0.5, 3, 0), JitteredBackoff(0.2, 0.5, 3, 1));
}

TEST(SocketFabricTest, ControllerFailoverRunsUnchangedOverSockets) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.run.num_workers = 4;
  config.strategy.group_size = 2;
  config.run.iterations_per_worker = 8;
  config.run.sgd.learning_rate = 0.001;
  config.run.worker_delay_seconds.assign(4, 0.001);
  config.run.fault = MakeControllerRestartPlan(
      config.run.seed, /*after_groups=*/2, /*down_seconds=*/0.3,
      /*drop_prob=*/0.0);
  config.run.fault.reregister_backoff_seconds = 0.02;
  ThreadedRunResult result = RunOverSockets(config);

  EXPECT_EQ(result.metrics.counter("controller.failovers"), 1.0);
  EXPECT_GE(result.metrics.counter("controller.reregistrations"), 1.0);
  for (size_t w = 0; w < result.worker_iterations.size(); ++w) {
    EXPECT_EQ(result.worker_iterations[w], 8u)
        << "worker " << w << " lost iterations to the failover";
  }
}

}  // namespace
}  // namespace pr
