#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/transport.h"
#include "common/status.h"

namespace pr {

class Compressor;

/// Collective operations over an explicit member list of an InProcTransport.
/// Every member must call the same collective with the same `members`,
/// `weights` and `tag`; `tag` isolates concurrent collectives (two parallel
/// partial-reduce groups use distinct tags).
///
/// GroupWeightedAllReduce and GroupAverageAllReduce are the data plane
/// every threaded strategy calls. LeaderWeightedAllReduce and
/// RingWeightedAllReduce are the reference schedules tests and benches
/// compare the segmented rings against.

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

/// \brief Optional receive deadline for the segmented rings.
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

/// \brief Segmented, pipelined ring weighted all-reduce with buffer
/// forwarding.
///
/// Same schedule as RingWeightedAllReduce (pre-scale, reduce-scatter,
/// all-gather) but each chunk is split into fixed-size segments that flow
/// through the ring independently: the send of segment k overlaps the
/// receive+accumulate of segment k-1. Payload handles are *forwarded*, not
/// re-materialized — an intermediate hop accumulates its contribution into
/// the received Buffer in place (it is uniquely owned on arrival) and sends
/// the same handle on, so a full all-reduce performs one payload
/// materialization per own-chunk segment instead of one per hop. The
/// reduced owned-chunk buffers from the last reduce-scatter hop are retained
/// and re-circulated as the all-gather's first hop, making it zero-copy.
///
/// Bitwise-identical to RingWeightedAllReduce for the same members/weights:
/// the same additions happen in the same order per element (float addition
/// is commutative), and segmentation only splits the element ranges.
///
/// Each receive selects its segment by (left neighbour, tag, kind, step,
/// chunk, segment), so a duplicated or reordered delivery is parked or
/// ignored rather than consumed out of turn; `deadline` bounds the waits.
/// A wrong-length segment returns InvalidArgument.
///
/// `data` may be null only when n == 0. Every chunk circulates at least one
/// (possibly empty) segment so the message schedule is uniform even when
/// n < P or n == 0.
Status SegmentedRingWeightedAllReduce(Endpoint* ep,
                                      const std::vector<NodeId>& members,
                                      const std::vector<double>& weights,
                                      size_t my_index, uint64_t tag,
                                      float* data, size_t n,
                                      size_t segment_floats =
                                          kDefaultSegmentFloats,
                                      const RingDeadline& deadline = {});

/// \brief Segmented ring all-reduce with per-hop payload compression
/// (DESIGN.md §5i). Same pipelined schedule as the uncompressed segmented
/// ring, but every hop's segment travels as `compressor`'s encoded blob:
/// reduce-scatter hops decode, accumulate their contribution, and re-encode
/// with error feedback; all-gather hops decode into place and forward the
/// *same* blob unchanged, so every member publishes bitwise-identical
/// values. Lossy by design — the per-worker error-feedback residual inside
/// `compressor` carries each encode's error into the worker's next encode
/// at the same element positions.
///
/// Segments are selected and `deadline` applies exactly as in the
/// uncompressed segmented ring.
///
/// `compressor` must be enabled and is this member's private state (one per
/// worker, reused across reduces so residuals accumulate).
Status SegmentedRingCompressedAllReduce(Endpoint* ep,
                                        const std::vector<NodeId>& members,
                                        const std::vector<double>& weights,
                                        size_t my_index, uint64_t tag,
                                        float* data, size_t n,
                                        Compressor* compressor,
                                        size_t segment_floats =
                                            kDefaultSegmentFloats,
                                        const RingDeadline& deadline = {});

/// \brief The single dispatch point strategies use for a group's weighted
/// reduce. With no compressor (or a disabled one) this is the segmented
/// pipelined ring, bitwise-identical to the unsegmented reference; an
/// enabled compressor selects the compressed ring, which reuses the same
/// segmented schedule with encoded payloads. `deadline` is forwarded to
/// either ring (default: none).
Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor = nullptr,
                              const RingDeadline& deadline = {});

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

}  // namespace pr
