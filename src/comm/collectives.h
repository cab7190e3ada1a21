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

/// \brief Optional receive deadline for the segmented ring.
///
/// The default (negative timeout) is no deadline: every segment receive
/// blocks until the segment arrives or the transport shuts down. With a
/// non-negative `recv_timeout_seconds`, a segment wait that stays silent
/// that long calls `on_tick` and then keeps waiting; `on_tick` returning
/// false abandons the reduce with a kTimeout status, distinct from the
/// kCancelled a shutdown returns. The fault-tolerant P-Reduce worker hangs
/// its lease upkeep, stuck reports and abort checks on this tick.
struct RingDeadline {
  double recv_timeout_seconds = -1.0;
  std::function<bool()> on_tick;
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
/// ignored rather than consumed out of turn; `deadline` bounds the waits.
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
