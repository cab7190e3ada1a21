#include "comm/socket_transport.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/wire.h"
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
  SocketTransport a(config, 0, 2);
  SocketTransport b(config, 1, 2);
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
  SocketTransport a(config, 0, 2);
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

  SocketTransport a(config, 0, 2);
  ASSERT_TRUE(a.Start().ok());
  auto b = std::make_unique<SocketTransport>(config, 1, 2);
  ASSERT_TRUE(b->Start().ok());
  ASSERT_TRUE(a.Send(1, MakeEnvelope(0, 1, 0, {}, {})).ok());
  ASSERT_TRUE(b->RecvFor(1, 5.0).has_value());

  // Peer dies: its listener and established connection go away.
  b->Shutdown();
  b.reset();

  // The peer comes back (same address). The connection manager must redial
  // within its bounded backoff and deliver again; sends in the gap are
  // dropped silently.
  b = std::make_unique<SocketTransport>(config, 1, 2);
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

// A bare client of `node`'s listener: a peer's outbound stream without the
// connection manager, so a test can write any bytes it likes.
int DialRaw(const std::string& dir, NodeId node) {
  const std::string path = dir + "/node-" + std::to_string(node) + ".sock";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void WriteAll(int fd, const std::vector<uint8_t>& bytes, size_t n) {
  ASSERT_EQ(::write(fd, bytes.data(), n), static_cast<ssize_t>(n));
}

// Polls `done` for up to 5 s.
bool Eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SocketTransportTest, HalfFrameThenCloseCountsOneTornFrame) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  SocketTransport a(config, 0, 2);
  ASSERT_TRUE(a.Start().ok());
  const std::vector<uint8_t> frame =
      EncodeFrame(/*to=*/0, MakeEnvelope(1, 3, 2, {4}, {9.0f, 8.0f, 7.0f}));

  // A close at a frame boundary is a polite end of stream.
  int fd = DialRaw(dir.path, 0);
  ASSERT_GE(fd, 0);
  WriteAll(fd, frame, frame.size());
  ::close(fd);
  ASSERT_TRUE(a.RecvFor(0, 5.0).has_value());

  // The peer dies halfway through a frame.
  fd = DialRaw(dir.path, 0);
  ASSERT_GE(fd, 0);
  WriteAll(fd, frame, frame.size() / 2);
  ::close(fd);
  EXPECT_TRUE(Eventually([&] { return a.torn_frames() >= 1; }));
  // Give a wrongly counted clean close time to show up too.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(a.torn_frames(), 1u);
  EXPECT_EQ(a.frames_received(), 1u);
  EXPECT_FALSE(a.TryRecv(0).has_value());
  a.Shutdown();
}

TEST(SocketTransportTest, FrameForAnotherNodeIsDroppedAndCounted) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  SocketTransport a(config, 0, 3);
  ASSERT_TRUE(a.Start().ok());
  std::vector<uint8_t> stream =
      EncodeFrame(/*to=*/2, MakeEnvelope(1, /*tag=*/1, 0, {}, {1.0f}));
  const std::vector<uint8_t> mine =
      EncodeFrame(/*to=*/0, MakeEnvelope(1, /*tag=*/2, 0, {}, {2.0f}));
  stream.insert(stream.end(), mine.begin(), mine.end());
  const int fd = DialRaw(dir.path, 0);
  ASSERT_GE(fd, 0);
  WriteAll(fd, stream, stream.size());

  // Frames on one connection are handled in order, so the misrouted one
  // has been counted by the time the next one arrives.
  std::optional<Envelope> got = a.RecvFor(0, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 2u);
  EXPECT_EQ(a.misroutes(), 1u);
  EXPECT_EQ(a.frames_received(), 2u);
  EXPECT_FALSE(a.TryRecv(0).has_value());
  ::close(fd);
  a.Shutdown();
}

TEST(SocketTransportTest, LargeSendToIdleReceiverReturnsAndArrivesLater) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  SocketTransport a(config, 0, 2);
  SocketTransport b(config, 1, 2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  // 4 MiB is far more than a socket buffer holds: Send returns only
  // because b's poll loop drains while b's own thread receives nothing.
  std::vector<float> big(1u << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<float>(i);
  ASSERT_TRUE(a.Send(1, MakeEnvelope(0, 9, 1, {}, big)).ok());
  EXPECT_EQ(a.send_drops(), 0u);

  std::optional<Envelope> got = b.RecvFor(1, 5.0, kDueSpinSeconds, nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 9u);
  ASSERT_EQ(got->payload.size(), big.size());
  EXPECT_EQ(std::memcmp(got->payload.data(), big.data(),
                        big.size() * sizeof(float)),
            0);
  a.Shutdown();
  b.Shutdown();
}

TEST(SocketTransportTest, DueReceivesKeepEachConnectionInOrder) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  SocketTransport a(config, 0, 2);
  SocketTransport b(config, 1, 2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  // The sender races b's receiving thread, which drains its own
  // connection while it spins, against b's poll loop.
  constexpr uint64_t kFrames = 500;
  std::thread sender([&] {
    for (uint64_t tag = 0; tag < kFrames; ++tag) {
      ASSERT_TRUE(
          a.Send(1, MakeEnvelope(0, tag, 0, {}, std::vector<float>(tag % 64)))
              .ok());
    }
  });
  for (uint64_t tag = 0; tag < kFrames; ++tag) {
    std::optional<Envelope> got =
        b.RecvFor(1, 5.0, tag % 2 == 0 ? kDueSpinSeconds : 0.0, nullptr);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, tag);
    EXPECT_EQ(got->payload.size(), tag % 64);
  }
  sender.join();
  a.Shutdown();
  b.Shutdown();
}

double ProcessCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

TEST(SocketTransportTest, ListenerThatCannotAcceptIsNotPolledAgain) {
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  SocketTransport a(config, 0, 2);
  ASSERT_TRUE(a.Start().ok());

  // Leave the process one free fd number, which the client below takes.
  // The accept that follows fails with EMFILE and the connection stays
  // queued, so the listener stays readable until the limit is lifted.
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  const int fd = DialRaw(dir.path, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A poll loop that kept the listener in its poll set would spin here.
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_spent = ProcessCpuSeconds() - cpu_before;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_GE(fd, 0);
  EXPECT_LT(cpu_spent, 0.1);
  ::close(fd);
  a.Shutdown();
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

int CountThreads() {
  int n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(SocketFabricTest, EachNodeAddsOnlyItsPollLoopThread) {
  const int before = CountThreads();
  SockDir dir;
  SocketConfig config;
  config.dir = dir.path;
  constexpr int kNodes = 5;
  SocketFabric fabric(config, kNodes);
  ASSERT_TRUE(fabric.Start().ok());
  // Every node dials every other, so each listener accepts 4 connections.
  for (NodeId from = 0; from < kNodes; ++from) {
    for (NodeId to = 0; to < kNodes; ++to) {
      if (to != from) {
        ASSERT_TRUE(fabric.Send(to, MakeEnvelope(from, 1, 0, {}, {1.0f})).ok());
      }
    }
  }
  for (NodeId me = 0; me < kNodes; ++me) {
    for (int i = 0; i < kNodes - 1; ++i) {
      ASSERT_TRUE(fabric.RecvFor(me, 5.0).has_value());
    }
  }
  EXPECT_LE(CountThreads() - before, kNodes);
  fabric.Shutdown();
}

}  // namespace
}  // namespace pr
