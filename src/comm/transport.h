#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/blocking_queue.h"
#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pr {

/// Worker identifier within a communication world. The controller, when
/// present, occupies a dedicated id outside the worker range.
using NodeId = int;

/// \brief A typed, tagged message between nodes.
///
/// `tag` disambiguates concurrent conversations (e.g. two parallel partial
/// reduce groups, or the steps of a ring all-reduce); `kind` is a small
/// application-defined discriminator; `payload` carries tensor data as a
/// shared, immutable-while-shared Buffer handle and `ints` carries control
/// fields. Copying an Envelope (a broadcast fan-out, a FaultyTransport
/// duplication, a delay-queue entry) bumps the payload's refcount instead of
/// cloning the floats. This flat structure keeps the transport free of
/// knowledge about upper layers.
struct Envelope {
  NodeId from = -1;
  uint64_t tag = 0;
  int kind = 0;
  std::vector<int64_t> ints;
  Buffer payload;
  /// Payload-encoding tag (a CompressionKind value): 0 = raw fp32 floats,
  /// anything else marks `payload` as an encoded blob whose floats are raw
  /// 4-byte words of the named codec's format. Travels in the flags byte of
  /// the PRW1 v2 preamble; transports and decorators pass it through
  /// untouched.
  uint8_t encoding = 0;
};

/// \brief The message fabric seen by endpoints, collectives, and both
/// engines.
///
/// Extracted from the concrete in-process implementation so decorators (the
/// fault-injecting transport in src/fault) can wrap a fabric without the
/// upper layers noticing. Implementations must be thread-safe: any thread
/// may Send, each node's Recv side is typically one thread.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_nodes() const = 0;

  /// Delivers `env` (with from/tag/kind already set by the caller via the
  /// Endpoint wrapper) to node `to`. Returns FailedPrecondition after
  /// Shutdown().
  virtual Status Send(NodeId to, Envelope env) = 0;

  /// Timed receive of the next mailbox message for `me`: nullopt on timeout
  /// as well as after Shutdown() once drained; callers distinguish via
  /// closed(). A negative `timeout_seconds` means no deadline. The wait
  /// spins on the mailbox for up to `spin_seconds` (never past its deadline)
  /// before it parks, and sets `*parked`, when non-null, to true if it
  /// parked. Endpoint passes a spin only for a due reply (RecvWait::kDue).
  virtual std::optional<Envelope> RecvFor(NodeId me, double timeout_seconds,
                                          double spin_seconds,
                                          bool* parked) = 0;

  /// RecvFor that parks at once.
  std::optional<Envelope> RecvFor(NodeId me, double timeout_seconds) {
    return RecvFor(me, timeout_seconds, 0.0, nullptr);
  }

  /// Blocking receive; nullopt after Shutdown() once drained.
  std::optional<Envelope> Recv(NodeId me) { return RecvFor(me, -1.0); }

  /// Non-blocking receive.
  virtual std::optional<Envelope> TryRecv(NodeId me) = 0;

  /// True once Shutdown() has been called.
  virtual bool closed() const = 0;

  /// Closes every mailbox, waking all blocked receivers.
  virtual void Shutdown() = 0;
};

/// \brief An in-process, thread-safe message-passing fabric.
///
/// Stands in for the paper's Gloo/TCP transport: `num_nodes` endpoints with
/// unbounded FIFO mailboxes. Sends never block (unbounded queues), so
/// collective algorithms written in send-then-receive order cannot deadlock.
/// Messages between a given pair of nodes are delivered in send order.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(int num_nodes);

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

 private:
  int num_nodes_;
  std::vector<std::unique_ptr<BlockingQueue<Envelope>>> mailboxes_;
  std::atomic<bool> closed_{false};
};

/// How a selective receive waits once its message has not arrived yet.
enum class RecvWait : uint8_t {
  /// Park on the mailbox's condition variable at once.
  kPark,
  /// The protocol says the message is due (a ring segment from a group peer,
  /// a group verdict after Ready): spin on the mailbox for up to
  /// kDueSpinSeconds, then park.
  kDue,
};

/// The spin budget of one due receive. Sized from measured due waits
/// (DESIGN.md §5e, "How a receive waits"): most verdict waits end within
/// 2 ms, and a shorter budget lets one parked member's wake-up delay push
/// its ring neighbours' waits past the budget too.
inline constexpr double kDueSpinSeconds = 0.002;

/// \brief A node's view of the transport with out-of-order stashing.
///
/// Collectives need *selective* receive ("the step-3 chunk from my left
/// neighbour in group 17"), but mailboxes are plain FIFOs; Endpoint buffers
/// non-matching messages locally and replays them to later matching calls.
/// One Endpoint instance per node thread; not itself thread-safe.
class Endpoint {
 public:
  Endpoint(Transport* transport, NodeId me);

  NodeId id() const { return me_; }

  /// True once the underlying transport has shut down — how callers of the
  /// timed receives tell a timeout (peer silent, retry/escalate) from a
  /// closed fabric (run over, unwind).
  bool closed() const { return transport_->closed(); }

  /// Attaches observability sinks (all optional; pass null to skip).
  ///
  /// `metrics` receives the transport.* counters and the
  /// `transport.stash_high_water` gauge; `scoped_stash`, when non-null, is
  /// this endpoint's own high-water gauge (e.g. `worker.3.stash_high_water`).
  /// `trace` gets a kStashHighWater event stamped with `now()` each time the
  /// stash grows to a new maximum. Call before the endpoint's thread starts
  /// receiving.
  void AttachObservers(MetricsShard* metrics, Gauge* scoped_stash,
                       TraceRecorder* trace, std::function<double()> now);

  /// Detaches the observers and zeroes the per-endpoint stash diagnostics
  /// (high-water mark). A long-lived endpoint being handed from one run's
  /// metrics scope to the next (a pool worker picking up its next job) must
  /// call this between AttachObservers calls — otherwise the previous job's
  /// high-water is re-published into the new job's gauges at attach time and
  /// the new tenant is charged for the old tenant's backlog. Stashed
  /// *messages* are not touched; purge those separately, while the scope the
  /// purge should be charged to is still attached.
  void ResetDiagnostics();

  /// Installs the topology hook behind `transport.inter_node_bytes`:
  /// payload bytes sent to a peer `is_inter` classifies as off-node are
  /// counted separately from total bytes_sent. The transport layer stays
  /// topology-free — the runtime captures its Topology in the closure.
  /// Cleared by ResetDiagnostics.
  void SetInterNodeClassifier(std::function<bool(NodeId)> is_inter);

  /// Sends a message carrying a shared payload handle. This is the zero-copy
  /// path: the buffer's refcount is bumped, nothing is cloned, and
  /// `transport.payload_copies` does not move.
  Status Send(NodeId to, uint64_t tag, int kind, std::vector<int64_t> ints,
              Buffer payload);

  /// Send with an explicit payload-encoding tag (see Envelope::encoding):
  /// `payload` is an encoded blob, and `transport.bytes_sent` counts its
  /// encoded size — the actual bytes on the wire — not the element count it
  /// decodes to.
  Status Send(NodeId to, uint64_t tag, int kind, std::vector<int64_t> ints,
              Buffer payload, uint8_t encoding);

  /// Convenience overload adopting a float vector as the payload (a move,
  /// not a memcpy). Counted as one payload materialization: callers on this
  /// path built a fresh vector for the send, which is exactly the cost the
  /// `transport.payload_copies` counter makes visible.
  Status Send(NodeId to, uint64_t tag, int kind, std::vector<int64_t> ints,
              std::vector<float> floats);

  /// Payload-free control message.
  Status Send(NodeId to, uint64_t tag, int kind, std::vector<int64_t> ints) {
    return Send(to, tag, kind, std::move(ints), Buffer());
  }

  /// Copies `n` floats into a fresh Buffer and counts the materialization.
  /// The broadcast pattern is one MakePayload + P shared-handle Sends, so
  /// `transport.payload_copies` per broadcast is O(1) instead of O(P).
  Buffer MakePayload(const float* data, size_t n);

  /// Blocks until a message with matching (from, tag, kind) arrives,
  /// stashing anything else. Returns nullopt if the transport shuts down
  /// first.
  std::optional<Envelope> RecvMatching(NodeId from, uint64_t tag, int kind);

  /// Deadline variant of RecvMatching: additionally returns nullopt once
  /// `timeout_seconds` elapse with no matching message (non-matching
  /// arrivals are stashed as usual and do not reset the deadline). Callers
  /// tell timeout from shutdown via closed(). Like every *For receive, a
  /// negative `timeout_seconds` means no deadline: it blocks exactly like
  /// RecvMatching. This is the primitive under
  /// the data-plane retry/escalation loop: a worker stuck waiting on a dead
  /// group peer wakes up here and escalates to the controller instead of
  /// blocking forever.
  std::optional<Envelope> RecvMatchingFor(NodeId from, uint64_t tag, int kind,
                                          double timeout_seconds);

  /// Blocks until a message *from* `from` arrives (any tag/kind), stashing
  /// everything else. Lets a worker wait on the controller while data-plane
  /// chunks from concurrent collectives pile up safely in the stash.
  std::optional<Envelope> RecvFrom(NodeId from);

  /// Deadline variant of RecvFrom (same timeout semantics as
  /// RecvMatchingFor; negative = no deadline, blocks like RecvFrom).
  /// `wait` kDue spins before parking (see RecvWait).
  std::optional<Envelope> RecvFromFor(NodeId from, double timeout_seconds,
                                      RecvWait wait = RecvWait::kPark);

  /// Blocks for any message (stash first, then mailbox).
  std::optional<Envelope> RecvAny();

  /// Deadline variant of RecvAny (same timeout semantics as
  /// RecvMatchingFor; negative = no deadline, blocks like RecvAny).
  std::optional<Envelope> RecvAnyFor(double timeout_seconds);

  /// Fully general deadline receive: blocks until a message satisfying
  /// `match` arrives (stash first, parking non-matches), or the deadline
  /// passes (negative = no deadline, as for RecvMatchingFor). The segmented
  /// ring collectives use this to match on payload fields (step, chunk,
  /// segment), so a duplicated segment cannot be mistaken for the next
  /// one. `wait` kDue spins before parking (see RecvWait).
  std::optional<Envelope> RecvWhereFor(
      const std::function<bool(const Envelope&)>& match,
      double timeout_seconds, RecvWait wait = RecvWait::kPark);

  /// Removes and returns the oldest stashed message satisfying `match`
  /// without touching the mailbox. Lets a blocked conversation notice
  /// out-of-band control messages (e.g. a group abort) that were parked by
  /// an earlier selective receive.
  std::optional<Envelope> TryTakeStashed(
      const std::function<bool(const Envelope&)>& match);

  /// Drops every stashed message satisfying `match`; returns how many were
  /// dropped and counts them in `transport.stash_purged`. Recovery hygiene:
  /// after a group abort, the aborted conversation's chunks would otherwise
  /// rot in the stash forever.
  size_t PurgeStash(const std::function<bool(const Envelope&)>& match);

  /// Drops every stashed message sent by `peer`. Called on a peer-death
  /// notification (eviction broadcast, severed connection): a dead peer's
  /// parked chunks can never be selected again, so without this the deque
  /// grows until run end.
  size_t PurgeStashFrom(NodeId peer) {
    return PurgeStash(
        [peer](const Envelope& env) { return env.from == peer; });
  }

  /// Messages currently parked out-of-order. A persistently growing stash
  /// means some sender's messages are never selected — usually a protocol
  /// bug (wrong tag/kind, or a peer that exited mid-conversation).
  size_t stash_size() const { return stash_.size(); }

  /// Largest stash size ever observed on this endpoint.
  size_t stash_high_water() const { return stash_high_water_; }

 private:
  /// Blocks until a message satisfying `match` arrives, checking the stash
  /// in one pass first and parking every non-matching mailbox message.
  /// A negative `timeout_seconds` means no deadline. A kDue wait spins for
  /// kDueSpinSeconds in all, however many non-matching messages it stashes,
  /// and counts once in transport.recv_spun or transport.recv_parked.
  std::optional<Envelope> RecvWhere(
      const std::function<bool(const Envelope&)>& match,
      double timeout_seconds = -1.0, RecvWait wait = RecvWait::kPark);

  void NoteStashed();
  void NoteReceived(const Envelope& env);

  Transport* transport_;
  NodeId me_;
  // Deque: RecvAny pops the oldest parked message in O(1); selective
  // receives scan front-to-back, preserving per-sender FIFO order.
  std::deque<Envelope> stash_;
  size_t stash_high_water_ = 0;

  // Observability sinks (null unless AttachObservers was called).
  Counter* sent_counter_ = nullptr;
  Counter* received_counter_ = nullptr;
  Counter* bytes_sent_counter_ = nullptr;
  Counter* bytes_received_counter_ = nullptr;
  Counter* payload_copies_counter_ = nullptr;
  Counter* stash_purged_counter_ = nullptr;
  Counter* inter_node_bytes_counter_ = nullptr;
  Counter* recv_spun_counter_ = nullptr;
  Counter* recv_parked_counter_ = nullptr;
  std::function<bool(NodeId)> is_inter_node_;
  Gauge* stash_gauge_ = nullptr;
  Gauge* scoped_stash_gauge_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  std::function<double()> now_;
};

}  // namespace pr
