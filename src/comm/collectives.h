#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/transport.h"
#include "common/status.h"
#include "compress/codec.h"

namespace pr {

class Compressor;

/// Collective operations over an explicit member list of an InProcTransport.
/// Every member must call the same collective with the same `members`,
/// `weights` and `tag`; `tag` isolates concurrent collectives (two parallel
/// partial-reduce groups use distinct tags).
///
/// GroupWeightedAllReduce and GroupAverageAllReduce are the data plane
/// every threaded strategy calls, and EncodePayload/DecodePayload carry the
/// point-to-point strategies' models and gradients. LeaderWeightedAllReduce
/// and RingWeightedAllReduce are the reference schedules tests and benches
/// compare the segmented ring against.

/// \brief Weighted all-reduce via a leader: members send their vectors to
/// members[0], which computes sum_j weights[j] * x_j and broadcasts the
/// result. Simple O(P * n) reference implementation.
///
/// `data` is this member's vector (length must agree across members) and is
/// overwritten with the weighted sum. `my_index` is this member's position
/// in `members`.
Status LeaderWeightedAllReduce(Endpoint* ep,
                               const std::vector<NodeId>& members,
                               const std::vector<double>& weights,
                               size_t my_index, uint64_t tag,
                               std::vector<float>* data);

/// \brief Bandwidth-optimal ring all-reduce (reduce-scatter + all-gather,
/// Patarasuk & Yuan) computing the weighted sum sum_j weights[j] * x_j.
///
/// Each member pre-scales its vector by its own weight, then the ring runs a
/// plain sum. 2(P-1) steps, each moving ~n/P floats per member. This is the
/// unsegmented reference schedule: every hop materializes a fresh payload
/// copy of the outgoing chunk.
Status RingWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             const std::vector<double>& weights,
                             size_t my_index, uint64_t tag,
                             std::vector<float>* data);

/// \brief The segments one member sent in its latest segmented ring, kept
/// so that a NACK from its right neighbour is answered by resending the
/// same refcounted handle.
///
/// GroupWeightedAllReduce clears the store as a ring starts and keeps each
/// segment it sends. It releases a kept reduce-scatter segment once the
/// all-gather segment of the same chunk and index arrives, because that
/// segment's value includes the released one, so the right neighbour had
/// it. The all-gather sends stay until the next ring starts, so a member
/// that has left the ring can still answer a NACK for its last hop.
///
/// Holding a handle marks its block shared: the right neighbour's raw
/// reduce-scatter hop then accumulates into a counted copy
/// (transport.payload_copies) instead of the received block. A raw
/// reduce-scatter segment a member sends from its own vector is therefore
/// kept as that range instead (KeepRange), which stays unchanged until the
/// segment's release, and a resend copies it afresh.
class RingResender {
 public:
  /// `resends`, when non-null, counts every resent segment
  /// (fault.segment_resends).
  explicit RingResender(Counter* resends = nullptr) : resends_(resends) {}

  /// True for a segmented ring's NACK, whatever its ring.
  static bool IsNack(const Envelope& env);

  /// Resends the kept segment `nack` names, when `nack` comes from the kept
  /// ring's right neighbour and the segment is still kept. Anything else is
  /// dropped. Returns whether it resent.
  bool Answer(Endpoint* ep, const Envelope& nack);

  // The ring's side.
  void Begin(NodeId right, uint64_t tag, uint8_t encoding);
  void Keep(int kind, size_t step, size_t chunk, size_t j,
            const Buffer& payload);
  void KeepRange(int kind, size_t step, size_t chunk, size_t j,
                 const float* source, size_t len);
  void Release(int kind, size_t chunk, size_t j);
  void Clear() { sent_.clear(); }

 private:
  struct Sent {
    int kind;
    int64_t step, chunk, j;
    Buffer payload;
    const float* source;  // KeepRange: resend a copy of these `len` floats
    size_t len;
  };

  Counter* resends_;
  NodeId right_ = -1;
  uint64_t tag_ = 0;
  uint8_t encoding_ = 0;
  std::vector<Sent> sent_;
};

/// \brief Optional receive deadline for the segmented ring, and with it the
/// ring's loss recovery.
///
/// The default (negative timeout) is no deadline: every segment receive
/// blocks until the segment arrives or the transport shuts down, and the
/// ring keeps nothing. With a non-negative `recv_timeout_seconds`, a
/// segment wait that stays silent that long sends a NACK for the segment to
/// its left neighbour, calls `on_tick` and then keeps waiting; `on_tick`
/// returning false abandons the reduce with a kTimeout status, distinct
/// from the kCancelled a shutdown returns. Every segment wait also answers
/// its right neighbour's NACKs from `resender` (a ring-local store when
/// null), so a lost segment costs one tick and one hop, not the group. A
/// message `wakes_on` accepts ends the wait at once and goes to `on_wake`,
/// which abandons the reduce the same way when it returns false. The
/// fault-tolerant P-Reduce worker hangs its lease upkeep and stuck reports
/// on the tick and its group's Abort on the wake; the stuck report, and the
/// controller's Abort that answers it, are the backstop for a dead peer or a
/// segment lost again and again.
struct RingDeadline {
  double recv_timeout_seconds = -1.0;
  std::function<bool()> on_tick;
  std::function<bool(const Envelope&)> wakes_on;
  std::function<bool(const Envelope&)> on_wake;
  RingResender* resender = nullptr;
};

/// Segment granularity (in floats) for the pipelined ring: 32Ki floats =
/// 128 KiB per message, small enough to overlap transfer of segment k with
/// accumulation of segment k-1, large enough to amortize envelope overhead.
inline constexpr size_t kDefaultSegmentFloats = size_t{1} << 15;

/// \brief The group weighted all-reduce every strategy calls: one
/// segmented, pipelined ring computing sum_j weights[j] * x_j over raw or
/// encoded payloads.
///
/// Same schedule as RingWeightedAllReduce (pre-scale, reduce-scatter,
/// all-gather), but each chunk is split into `segment_floats`-sized
/// segments that flow through the ring independently: the send of segment
/// k overlaps the receive and accumulate of segment k-1. The codec changes
/// only what a hop does with a segment's payload:
///
/// - Raw (`compressor` null or disabled): an intermediate hop accumulates
///   its contribution into the received Buffer in place (it is uniquely
///   owned on arrival) and forwards the same handle, so a full all-reduce
///   performs one payload materialization per own-chunk segment instead of
///   one per hop. The reduced owned-chunk buffers are re-circulated as the
///   all-gather's first hop, making it zero-copy. Bitwise-identical to
///   RingWeightedAllReduce: the same additions happen in the same order per
///   element, and segmentation only splits the element ranges.
/// - Encoded (DESIGN.md §5i): every segment travels as `compressor`'s blob.
///   Reduce-scatter hops decode, accumulate and re-encode with error
///   feedback in one pass (Compressor::EncodeRangeSum), and the last one
///   decodes and adds straight into `data`; the all-gather owner encodes
///   once and publishes the decoded values (EncodeRangePublish), and later
///   hops decode into place and forward the same blob, so members end
///   bitwise identical. `compressor` is this member's private state, reused
///   across reduces so its residuals accumulate.
///
/// Each receive selects its segment by (left neighbour, tag, kind, step,
/// chunk, segment), so a duplicated or reordered delivery is parked or
/// ignored rather than consumed out of turn; `deadline` bounds the waits
/// and, when set, recovers a lost segment by NACK and resend.
/// A wrong-length segment returns InvalidArgument.
///
/// `data` may be null only when n == 0. Every chunk circulates at least one
/// (possibly empty) segment so the message schedule is uniform even when
/// n < P or n == 0.
Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor = nullptr,
                              const RingDeadline& deadline = {},
                              size_t segment_floats = kDefaultSegmentFloats);

/// \brief What GroupWeightedAllReduce moves when `p` members reduce `n`
/// floats under codec `kind`, summed over the members and walked from the
/// ring's own chunk and segment layout, in the units each member's Endpoint
/// and Compressor count. A group of fewer than two members moves nothing.
struct RingTraffic {
  /// transport.bytes_sent, and as much received: every segment crosses P-1
  /// edges per phase.
  double bytes = 0.0;
  /// transport.payload_copies: raw, one per non-empty segment.
  double payload_copies = 0.0;
  /// compress.bytes_in / bytes_out: P encodes per segment (0 when raw).
  double codec_bytes_in = 0.0;
  double codec_bytes_out = 0.0;
};
RingTraffic GroupAllReduceTraffic(
    size_t n, size_t p, CompressionKind kind,
    size_t segment_floats = kDefaultSegmentFloats);

/// Compatibility overload over a whole vector.
Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag,
                              std::vector<float>* data,
                              Compressor* compressor = nullptr);

/// \brief Uniform-average (weights = 1/P) dispatch, the All-Reduce
/// strategy's entry point.
Status GroupAverageAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             size_t my_index, uint64_t tag, float* data,
                             size_t n, Compressor* compressor = nullptr);

/// \brief Builds a point-to-point payload carrying `n` floats: an enabled
/// `compressor`'s error-feedback blob of positions 0..n, else one counted
/// raw copy (Endpoint::MakePayload). Send it with PayloadEncoding's tag.
Buffer EncodePayload(Endpoint* ep, Compressor* compressor, const float* data,
                     size_t n);

/// The wire encoding tag of EncodePayload's output: the codec's tag, or 0
/// for raw fp32.
uint8_t PayloadEncoding(Compressor* compressor);

/// \brief Decodes a received point-to-point payload into `out`: an encoded
/// blob through the codec its tag names, a raw payload by Buffer::Take (a
/// move when the handle was never shared). InvalidArgument unless it holds
/// `n` elements.
Status DecodePayload(Envelope* env, size_t n, std::vector<float>* out);

}  // namespace pr
