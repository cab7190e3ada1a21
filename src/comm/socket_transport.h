#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.h"
#include "common/status.h"

namespace pr {

/// \brief Addressing and reconnect policy for the socket engine.
///
/// Rendezvous is directory-based: node `i` listens at `<dir>/node-<i>.sock`
/// (Unix-domain, the default) or binds an ephemeral TCP port advertised in
/// `<dir>/node-<i>.port`. Dialers retry inside `connect_window_seconds`, so
/// processes may start in any order (listen-then-connect with a retry
/// window). Unix-domain paths live under `dir`, which must be short enough
/// for sockaddr_un (~100 bytes).
struct SocketConfig {
  std::string dir;
  bool tcp = false;
  std::string host = "127.0.0.1";
  /// Dial budget for a peer that has never been reachable (rendezvous).
  double connect_window_seconds = 10.0;
  /// Dial budget for a peer that was connected and then lost. Kept short:
  /// a dead peer must look *silent*, not wedge senders, so the lease /
  /// FailureDetector machinery can do the evicting.
  double redial_window_seconds = 0.1;
  double backoff_initial_seconds = 0.002;
  double backoff_max_seconds = 0.25;
  /// Multiplicative jitter spread on every backoff sleep: each wait is drawn
  /// deterministically from [base*(1-j), base*(1+j)). Without it, a
  /// rack-wide departure has every survivor redialing the same dead peers on
  /// the same exponential schedule — a reconnect stampede that lands
  /// synchronized connect() bursts exactly when the rack returns. 0 disables.
  double backoff_jitter = 0.5;
};

/// \brief Deterministic jittered backoff: `base_seconds` spread to
/// [base*(1-j), base*(1+j)) by a splitmix64 hash of (salt, attempt).
///
/// Pure in its inputs — distinct (salt, attempt) pairs desynchronize
/// identical backoff schedules without any shared RNG state, and tests can
/// assert exact values. `jitter_fraction` is clamped to [0, 1).
double JitteredBackoff(double base_seconds, double jitter_fraction,
                       uint64_t salt, uint64_t attempt);

/// \brief A Transport over real sockets for the node(s) hosted in this
/// process.
///
/// Each local node owns a listener; an accept thread spawns one reader
/// thread per inbound connection, which decodes frames (comm/wire.h) and
/// routes them by the frame's `to` field into per-node inboxes — the same
/// BlockingQueue mailboxes InProcTransport uses, so Recv semantics are
/// identical. Connections are unidirectional: the connection manager dials
/// the destination's listener on first send and keeps the socket for reuse.
///
/// Failure model: a send to a peer that cannot be (re)dialed, or whose
/// connection breaks mid-write, is silently dropped after a bounded-backoff
/// redial (`send_drops()` counts them) — exactly how a dead host behaves.
/// Upper layers never see a transport error for a dead peer; its silence
/// trips heartbeat leases and the FailureDetector evicts it, producing the
/// same `fault.*` events the in-proc chaos harness produces via
/// FaultyTransport.
class SocketTransport : public Transport {
 public:
  /// `local_nodes` are the node ids hosted by this process; ids outside the
  /// list are remote and reached via `config.dir` rendezvous.
  SocketTransport(const SocketConfig& config, std::vector<NodeId> local_nodes,
                  int num_nodes);
  ~SocketTransport() override;

  /// Binds and starts listening for every local node. Call once before any
  /// Send/Recv; remote peers may start later (dials retry).
  Status Start();

  using Transport::RecvFor;

  int num_nodes() const override { return num_nodes_; }
  Status Send(NodeId to, Envelope env) override;
  std::optional<Envelope> RecvFor(NodeId me, double timeout_seconds,
                                  double spin_seconds, bool* parked) override;
  std::optional<Envelope> TryRecv(NodeId me) override;
  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }
  void Shutdown() override;

  bool is_local(NodeId id) const;

  /// Connection-manager diagnostics (plain counters, not MetricsShard
  /// entries: the metric-name set must stay identical across engines).
  uint64_t dials() const { return dials_.load(); }
  uint64_t reconnects() const { return reconnects_.load(); }
  uint64_t send_drops() const { return send_drops_.load(); }
  uint64_t torn_frames() const { return torn_frames_.load(); }
  uint64_t frames_received() const { return frames_received_.load(); }

 private:
  struct Peer {
    std::mutex mu;
    int fd = -1;
    bool ever_connected = false;
    double down_until = 0.0;   // steady-clock seconds; dials suppressed until
    double backoff = 0.0;
    uint64_t down_attempts = 0;  // jitter stream position for this peer
  };

  std::string AddressPath(NodeId id) const;
  Status BindListener(NodeId id, int* out_fd);
  /// Dials `to`'s listener, retrying with bounded backoff for up to
  /// `window_seconds`. Returns the connected fd or -1.
  int DialWithRetry(NodeId to, double window_seconds);
  /// Ensures peer->fd is connected (dialing if allowed). Caller holds
  /// peer->mu. Returns false when the peer is down and the send should drop.
  bool EnsureConnected(Peer* peer, NodeId to);
  void MarkPeerDown(Peer* peer, NodeId to);
  /// Salt for this transport's jitter stream toward `to`: distinct
  /// (dialer, target) pairs draw uncorrelated backoff sequences.
  uint64_t JitterSalt(NodeId to) const;
  void AcceptLoop(NodeId id, int listen_fd);
  void ReadLoop(int fd);
  void RegisterConnFd(int fd);

  SocketConfig config_;
  std::vector<NodeId> local_nodes_;
  int num_nodes_;
  // inboxes_[i] is non-null only for local nodes.
  std::vector<std::unique_ptr<BlockingQueue<Envelope>>> inboxes_;
  std::vector<int> listen_fds_;  // parallel to local_nodes_
  std::vector<std::unique_ptr<Peer>> peers_;  // per destination node
  std::vector<std::thread> accept_threads_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
  std::mutex shutdown_mu_;

  std::atomic<bool> started_{false};
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> dials_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> send_drops_{0};
  std::atomic<uint64_t> torn_frames_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> misroutes_{0};
};

/// \brief All N nodes of a socket world inside one process, behind a single
/// Transport.
///
/// Builds one SocketTransport per node over a shared rendezvous directory
/// and routes Send by `env.from` / Recv by `me` to the owning instance. This
/// is how the threaded runtime — and the chaos/failover suites via a
/// FaultyTransport wrapper — run unchanged over real sockets in-process;
/// multi-process runs use one SocketTransport per process instead (see
/// src/launch).
class SocketFabric : public Transport {
 public:
  SocketFabric(const SocketConfig& config, int num_nodes);

  Status Start();

  using Transport::RecvFor;

  int num_nodes() const override { return num_nodes_; }
  Status Send(NodeId to, Envelope env) override;
  std::optional<Envelope> RecvFor(NodeId me, double timeout_seconds,
                                  double spin_seconds, bool* parked) override;
  std::optional<Envelope> TryRecv(NodeId me) override;
  bool closed() const override;
  void Shutdown() override;

  SocketTransport* node(NodeId id);

 private:
  int num_nodes_;
  std::vector<std::unique_ptr<SocketTransport>> nodes_;
};

}  // namespace pr
