#include "comm/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/logging.h"

namespace pr {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

SocketTransport::SocketTransport(const SocketConfig& config, NodeId node,
                                 int num_nodes)
    : config_(config), node_(node), num_nodes_(num_nodes) {
  PR_CHECK_GE(node_, 0);
  PR_CHECK_LT(node_, num_nodes_);
  PR_CHECK(!config_.dir.empty());
  peers_.resize(static_cast<size_t>(num_nodes_));
  for (auto& p : peers_) p = std::make_unique<Peer>();
}

SocketTransport::~SocketTransport() { Shutdown(); }

std::string SocketTransport::AddressPath(NodeId id) const {
  return config_.dir + "/node-" + std::to_string(id) +
         (config_.tcp ? ".port" : ".sock");
}

Status SocketTransport::BindListener(int* out_fd) {
  const std::string path = AddressPath(node_);
  int fd = -1;
  if (!config_.tcp) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    PR_CHECK_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // stale socket from a previous incarnation
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return Status::Internal("bind " + path + ": " + strerror(errno));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::inet_addr(config_.host.c_str());
    addr.sin_port = 0;  // ephemeral; advertised via the port file
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return Status::Internal("bind: " + std::string(strerror(errno)));
    }
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    return Status::Internal("listen: " + std::string(strerror(errno)));
  }
  if (config_.tcp) {
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) <
        0) {
      ::close(fd);
      return Status::Internal("getsockname: " + std::string(strerror(errno)));
    }
    // Atomic advertise: dialers must never read a half-written port file.
    const std::string tmp = path + ".tmp";
    FILE* f = ::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      ::close(fd);
      return Status::Internal("open " + tmp + ": " + strerror(errno));
    }
    ::fprintf(f, "%d\n", static_cast<int>(ntohs(bound.sin_port)));
    ::fclose(f);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      ::close(fd);
      return Status::Internal("rename " + path + ": " + strerror(errno));
    }
  }
  *out_fd = fd;
  return Status::OK();
}

Status SocketTransport::Start() {
  PR_CHECK(!started_.load());
  // A peer dying mid-conversation must surface as a failed write, not a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  PR_RETURN_NOT_OK(BindListener(&listen_fd_));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::Internal("eventfd: " + std::string(strerror(errno)));
  }
  poll_thread_ = std::thread(&SocketTransport::PollLoop, this);
  started_.store(true);
  return Status::OK();
}

void SocketTransport::PollLoop() {
  std::vector<struct pollfd> watch;
  std::unique_lock<std::mutex> lock(progress_mu_);
  while (!closed_.load(std::memory_order_acquire)) {
    watch.assign({{wake_fd_, POLLIN, 0}});
    if (accepting_) watch.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& conn : conns_) watch.push_back({conn.fd, POLLIN, 0});
    // No poll set holds the retired fds any more: their numbers may now be
    // reused.
    for (int fd : retired_fds_) ::close(fd);
    retired_fds_.clear();
    lock.unlock();
    if (::poll(watch.data(), watch.size(), -1) < 0 && errno != EINTR) return;
    lock.lock();
    Progress(/*accept=*/accepting_);
  }
}

void SocketTransport::Progress(bool accept) {
  if (closed_.load(std::memory_order_acquire)) return;
  ready_.clear();
  for (const Conn& conn : conns_) ready_.push_back({conn.fd, POLLIN, 0});
  if (accept) ready_.push_back({listen_fd_, POLLIN, 0});
  if (ready_.empty() || ::poll(ready_.data(), ready_.size(), 0) <= 0) return;
  size_t kept = 0;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (ready_[i].revents != 0 && !Drain(&conns_[i])) {
      retired_fds_.push_back(conns_[i].fd);
    } else {
      if (kept != i) conns_[kept] = std::move(conns_[i]);
      ++kept;
    }
  }
  conns_.resize(kept);
  if (!accept || ready_.back().revents == 0) return;
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
    if (fd < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (fd < 0) {
      // Out of fds or the like: the listener stays readable, so polling it
      // again would spin. Stop accepting, as a node whose listener died.
      PR_LOG_WARNING << "node " << node_
                     << " stops accepting connections: accept4: "
                     << strerror(errno);
      accepting_ = false;
      return;
    }
    if (config_.tcp) SetNoDelay(fd);
    conns_.push_back({fd, FrameReader()});
  }
}

bool SocketTransport::Drain(Conn* conn) {
  while (true) {
    NodeId to = -1;
    Envelope env;
    bool complete = false;
    Status status = conn->reader.Read(conn->fd, &to, &env, &complete);
    if (!status.ok()) {
      // Clean close (Cancelled) is normal teardown. Anything else is a torn
      // frame or garbage. Either way the connection is done; the peer's
      // silence is what upper layers (leases) react to.
      if (status.code() != StatusCode::kCancelled &&
          !closed_.load(std::memory_order_acquire)) {
        torn_frames_.fetch_add(1);
      }
      return false;
    }
    if (!complete) return true;
    frames_received_.fetch_add(1);
    if (!is_local(to)) {
      misroutes_.fetch_add(1);
      continue;
    }
    inbox_.Push(std::move(env));
  }
}

double JitteredBackoff(double base_seconds, double jitter_fraction,
                       uint64_t salt, uint64_t attempt) {
  if (base_seconds <= 0.0) return 0.0;
  double j = jitter_fraction;
  if (j < 0.0) j = 0.0;
  if (j >= 1.0) j = 0.999;
  if (j == 0.0) return base_seconds;
  // splitmix64 finalizer over (salt, attempt): pure, no shared RNG state.
  uint64_t x = salt * 0x9e3779b97f4a7c15ULL + attempt + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return base_seconds * (1.0 - j + 2.0 * j * u);
}

uint64_t SocketTransport::JitterSalt(NodeId to) const {
  return (static_cast<uint64_t>(node_) << 32) ^
         static_cast<uint64_t>(static_cast<uint32_t>(to));
}

int SocketTransport::DialWithRetry(NodeId to, double window_seconds) {
  const std::string path = AddressPath(to);
  const double start = Now();
  const uint64_t salt = JitterSalt(to);
  uint64_t attempt = 0;
  double backoff = config_.backoff_initial_seconds;
  while (true) {
    if (closed_.load(std::memory_order_acquire)) return -1;
    int fd = -1;
    if (!config_.tcp) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        PR_CHECK_LT(path.size(), sizeof(addr.sun_path));
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          dials_.fetch_add(1);
          return fd;
        }
        ::close(fd);
      }
    } else {
      int port = -1;
      if (FILE* f = ::fopen(path.c_str(), "r")) {
        if (::fscanf(f, "%d", &port) != 1) port = -1;
        ::fclose(f);
      }
      if (port > 0) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0) {
          struct sockaddr_in addr;
          std::memset(&addr, 0, sizeof(addr));
          addr.sin_family = AF_INET;
          addr.sin_addr.s_addr = ::inet_addr(config_.host.c_str());
          addr.sin_port = htons(static_cast<uint16_t>(port));
          if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)) == 0) {
            SetNoDelay(fd);
            dials_.fetch_add(1);
            return fd;
          }
          ::close(fd);
        }
      }
    }
    const double left = window_seconds - (Now() - start);
    if (left <= 0.0) return -1;
    SleepFor(std::min(
        JitteredBackoff(backoff, config_.backoff_jitter, salt, attempt++),
        left));
    backoff = std::min(backoff * 2.0, config_.backoff_max_seconds);
  }
}

void SocketTransport::MarkPeerDown(Peer* peer, NodeId to) {
  peer->backoff = peer->backoff <= 0.0
                      ? config_.backoff_initial_seconds
                      : std::min(peer->backoff * 2.0,
                                 config_.backoff_max_seconds);
  peer->down_until =
      Now() + JitteredBackoff(peer->backoff, config_.backoff_jitter,
                              JitterSalt(to), ++peer->down_attempts);
}

bool SocketTransport::EnsureConnected(Peer* peer, NodeId to) {
  if (peer->fd >= 0) return true;
  if (closed_.load(std::memory_order_acquire)) return false;
  if (Now() < peer->down_until) return false;
  // Rendezvous gets the long window (processes start in any order); a peer
  // that was connected and then lost gets a single fast attempt — dead hosts
  // must look silent, and the per-peer backoff paces later retries.
  const double window =
      peer->ever_connected ? config_.redial_window_seconds
                           : config_.connect_window_seconds;
  const int fd = DialWithRetry(to, window);
  if (fd < 0) {
    MarkPeerDown(peer, to);
    return false;
  }
  if (peer->ever_connected) reconnects_.fetch_add(1);
  peer->ever_connected = true;
  peer->backoff = 0.0;
  peer->down_until = 0.0;
  peer->down_attempts = 0;
  peer->fd = fd;
  return true;
}

Status SocketTransport::Send(NodeId to, Envelope env) {
  if (to < 0 || to >= num_nodes_) {
    return Status::InvalidArgument("Send: node id out of range");
  }
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Send: transport is shut down");
  }
  if (is_local(to)) {
    if (inbox_.Push(std::move(env))) return Status::OK();
    return Status::FailedPrecondition("Send: transport is shut down");
  }
  Peer* peer = peers_[static_cast<size_t>(to)].get();
  std::lock_guard<std::mutex> lock(peer->mu);
  if (!EnsureConnected(peer, to)) {
    send_drops_.fetch_add(1);
    return Status::OK();  // dead host: drop silently, leases do the rest
  }
  Status status = WriteFrameFd(peer->fd, to, env);
  if (status.ok()) return Status::OK();
  // Broken mid-write. One immediate redial+rewrite handles the benign case
  // (peer restarted between our sends); failing that, drop and back off.
  ::close(peer->fd);
  peer->fd = -1;
  if (EnsureConnected(peer, to)) {
    status = WriteFrameFd(peer->fd, to, env);
    if (status.ok()) return Status::OK();
    ::close(peer->fd);
    peer->fd = -1;
  }
  MarkPeerDown(peer, to);
  send_drops_.fetch_add(1);
  return Status::OK();
}

std::optional<Envelope> SocketTransport::RecvFor(NodeId me,
                                                 double timeout_seconds,
                                                 double spin_seconds,
                                                 bool* parked) {
  PR_CHECK(is_local(me));
  // A due receive reads its own connections while it spins, unless the poll
  // loop (or another receiver) is draining them right now.
  const double start = Now();
  const double spin = timeout_seconds >= 0.0
                          ? std::min(spin_seconds, timeout_seconds)
                          : spin_seconds;
  while (spin > 0.0 && !inbox_.closed() && Now() - start < spin) {
    if (inbox_.unlocked_size() > 0) {
      if (std::optional<Envelope> env = inbox_.TryPop()) return env;
    }
    std::unique_lock<std::mutex> lock(progress_mu_, std::try_to_lock);
    if (lock.owns_lock()) {
      Progress(/*accept=*/false);
    } else {
      CpuRelax();
    }
  }
  if (timeout_seconds >= 0.0) {
    timeout_seconds = std::max(0.0, timeout_seconds - (Now() - start));
  }
  return inbox_.PopFor(timeout_seconds, 0.0, parked);
}

std::optional<Envelope> SocketTransport::TryRecv(NodeId me) {
  PR_CHECK(is_local(me));
  return inbox_.TryPop();
}

void SocketTransport::Shutdown() {
  {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) {
      // Another caller won the race; wait for its teardown to finish so the
      // destructor never returns with threads still running.
      std::lock_guard<std::mutex> lock(shutdown_mu_);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  inbox_.Close();
  if (poll_thread_.joinable()) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    poll_thread_.join();
  }
  {
    // A receiver mid-drain finishes before its fds close.
    std::lock_guard<std::mutex> progress_lock(progress_mu_);
    for (const Conn& conn : conns_) ::close(conn.fd);
    conns_.clear();
    for (int fd : retired_fds_) ::close(fd);
    retired_fds_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!config_.tcp) ::unlink(AddressPath(node_).c_str());
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  for (auto& peer : peers_) {
    std::lock_guard<std::mutex> peer_lock(peer->mu);
    if (peer->fd >= 0) {
      ::shutdown(peer->fd, SHUT_RDWR);
      ::close(peer->fd);
      peer->fd = -1;
    }
  }
}

SocketFabric::SocketFabric(const SocketConfig& config, int num_nodes)
    : num_nodes_(num_nodes) {
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (NodeId id = 0; id < num_nodes; ++id) {
    nodes_.push_back(std::make_unique<SocketTransport>(config, id, num_nodes));
  }
}

Status SocketFabric::Start() {
  for (auto& node : nodes_) {
    Status status = node->Start();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

SocketTransport* SocketFabric::node(NodeId id) {
  PR_CHECK_GE(id, 0);
  PR_CHECK_LT(id, num_nodes_);
  return nodes_[static_cast<size_t>(id)].get();
}

Status SocketFabric::Send(NodeId to, Envelope env) {
  const NodeId from = env.from;
  if (from < 0 || from >= num_nodes_) {
    return Status::InvalidArgument("Send: env.from out of range");
  }
  return nodes_[static_cast<size_t>(from)]->Send(to, std::move(env));
}

std::optional<Envelope> SocketFabric::RecvFor(NodeId me,
                                              double timeout_seconds,
                                              double spin_seconds,
                                              bool* parked) {
  PR_CHECK_GE(me, 0);
  PR_CHECK_LT(me, num_nodes_);
  return nodes_[static_cast<size_t>(me)]->RecvFor(me, timeout_seconds,
                                                  spin_seconds, parked);
}

std::optional<Envelope> SocketFabric::TryRecv(NodeId me) {
  PR_CHECK_GE(me, 0);
  PR_CHECK_LT(me, num_nodes_);
  return nodes_[static_cast<size_t>(me)]->TryRecv(me);
}

bool SocketFabric::closed() const { return nodes_[0]->closed(); }

void SocketFabric::Shutdown() {
  for (auto& node : nodes_) node->Shutdown();
}

}  // namespace pr
