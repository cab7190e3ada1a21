#include "comm/collectives.h"

#include <algorithm>

#include "common/check.h"
#include "compress/compressor.h"
#include "tensor/ops.h"

namespace pr {
namespace {

// Message kinds used by the collectives; upper layers use other values.
constexpr int kKindLeaderGather = 101;
constexpr int kKindLeaderResult = 102;
constexpr int kKindRsChunk = 103;
constexpr int kKindBroadcast = 104;
constexpr int kKindAgChunk = 105;
constexpr int kKindGather = 106;
constexpr int kKindBarrier = 107;
constexpr int kKindSegRsChunk = 108;
constexpr int kKindSegAgChunk = 109;

Status ValidateGroup(const std::vector<NodeId>& members, size_t my_index) {
  if (members.empty()) {
    return Status::InvalidArgument("collective: empty member list");
  }
  if (my_index >= members.size()) {
    return Status::InvalidArgument("collective: my_index out of range");
  }
  return Status::OK();
}

Status ValidateWeights(const std::vector<NodeId>& members,
                       const std::vector<double>& weights) {
  if (weights.size() != members.size()) {
    return Status::InvalidArgument(
        "collective: weights/members size mismatch");
  }
  return Status::OK();
}

/// Chunk boundaries for splitting `n` elements into `p` near-equal parts.
std::pair<size_t, size_t> ChunkBounds(size_t n, size_t p, size_t chunk) {
  const size_t base = n / p;
  const size_t rem = n % p;
  const size_t begin = chunk * base + std::min(chunk, rem);
  const size_t len = base + (chunk < rem ? 1 : 0);
  return {begin, begin + len};
}

/// Segments per chunk. An empty chunk still circulates one empty segment so
/// every (step, chunk) transfer has a uniform message schedule.
size_t NumSegments(size_t chunk_len, size_t segment_floats) {
  if (chunk_len == 0) return 1;
  return (chunk_len + segment_floats - 1) / segment_floats;
}

/// Bounds of segment `j` within chunk [chunk_begin, chunk_end).
std::pair<size_t, size_t> SegmentBounds(size_t chunk_begin, size_t chunk_end,
                                        size_t segment_floats, size_t j) {
  const size_t b = std::min(chunk_begin + j * segment_floats, chunk_end);
  const size_t e = std::min(b + segment_floats, chunk_end);
  return {b, e};
}

/// Receives segment (step, chunk, j) of a segmented-ring conversation from
/// `left`, selecting it by all six fields so duplicates and reorderings
/// cannot be consumed out of turn. Cancelled on shutdown; Timeout once the
/// deadline's tick callback gives up.
Status RecvSegment(Endpoint* ep, NodeId left, uint64_t tag, int kind,
                   size_t step, size_t chunk, size_t j,
                   const RingDeadline& deadline, Buffer* out) {
  const auto match = [&](const Envelope& e) {
    return e.from == left && e.tag == tag && e.kind == kind &&
           e.ints.size() == 3 && e.ints[0] == static_cast<int64_t>(step) &&
           e.ints[1] == static_cast<int64_t>(chunk) &&
           e.ints[2] == static_cast<int64_t>(j);
  };
  while (true) {
    std::optional<Envelope> env =
        ep->RecvWhereFor(match, deadline.recv_timeout_seconds);
    if (env.has_value()) {
      *out = std::move(env->payload);
      return Status::OK();
    }
    if (ep->closed() || deadline.recv_timeout_seconds < 0.0) {
      return Status::Cancelled("transport shut down during ring all-reduce");
    }
    if (deadline.on_tick && !deadline.on_tick()) {
      return Status::Timeout("ring all-reduce abandoned at its deadline");
    }
  }
}

}  // namespace

Status LeaderWeightedAllReduce(Endpoint* ep,
                               const std::vector<NodeId>& members,
                               const std::vector<double>& weights,
                               size_t my_index, uint64_t tag,
                               std::vector<float>* data) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();
  if (p == 1) {
    Scale(static_cast<float>(weights[0]), data->data(), data->size());
    return Status::OK();
  }
  const NodeId leader = members[0];
  if (my_index == 0) {
    std::vector<float> acc(data->size(), 0.0f);
    Axpy(static_cast<float>(weights[0]), data->data(), acc.data(),
         data->size());
    for (size_t j = 1; j < p; ++j) {
      std::optional<Envelope> env =
          ep->RecvMatching(members[j], tag, kKindLeaderGather);
      if (!env.has_value()) {
        return Status::Cancelled("transport shut down during all-reduce");
      }
      if (env->payload.size() != data->size()) {
        return Status::InvalidArgument(
            "all-reduce: member vector length mismatch");
      }
      Axpy(static_cast<float>(weights[j]), env->payload.data(), acc.data(),
           acc.size());
    }
    *data = std::move(acc);
    // One materialization, P-1 shared handles.
    Buffer result = ep->MakePayload(data->data(), data->size());
    for (size_t j = 1; j < p; ++j) {
      PR_RETURN_NOT_OK(
          ep->Send(members[j], tag, kKindLeaderResult, {}, result));
    }
    return Status::OK();
  }
  PR_RETURN_NOT_OK(ep->Send(leader, tag, kKindLeaderGather, {}, *data));
  std::optional<Envelope> env = ep->RecvMatching(leader, tag,
                                                 kKindLeaderResult);
  if (!env.has_value()) {
    return Status::Cancelled("transport shut down during all-reduce");
  }
  *data = env->payload.Take();
  return Status::OK();
}

Status RingReduceScatter(Endpoint* ep, const std::vector<NodeId>& members,
                         size_t my_index, uint64_t tag,
                         std::vector<float>* data, size_t* chunk_begin,
                         size_t* chunk_end) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  const size_t p = members.size();
  const size_t n = data->size();
  const size_t owned = (my_index + 1) % p;
  if (chunk_begin != nullptr && chunk_end != nullptr) {
    auto [ob, oe] = ChunkBounds(n, p, owned);
    *chunk_begin = ob;
    *chunk_end = oe;
  }
  if (p == 1) return Status::OK();

  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  float* buf = data->data();

  // After P-1 steps, chunk (my_index + 1) % p holds the full sum here.
  for (size_t step = 0; step < p - 1; ++step) {
    const size_t send_chunk = (my_index + p - step) % p;
    const size_t recv_chunk = (my_index + p - step - 1) % p;
    auto [sb, se] = ChunkBounds(n, p, send_chunk);
    PR_RETURN_NOT_OK(
        ep->Send(right, tag, kKindRsChunk,
                 {static_cast<int64_t>(step), static_cast<int64_t>(send_chunk)},
                 std::vector<float>(buf + sb, buf + se)));
    std::optional<Envelope> env = ep->RecvMatching(left, tag, kKindRsChunk);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during reduce-scatter");
    }
    PR_CHECK_EQ(env->ints[0], static_cast<int64_t>(step));
    PR_CHECK_EQ(env->ints[1], static_cast<int64_t>(recv_chunk));
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    PR_CHECK_EQ(env->payload.size(), re - rb);
    Axpy(1.0f, env->payload.data(), buf + rb, re - rb);
  }
  return Status::OK();
}

Status RingAllGather(Endpoint* ep, const std::vector<NodeId>& members,
                     size_t my_index, uint64_t tag,
                     std::vector<float>* data) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  const size_t p = members.size();
  const size_t n = data->size();
  if (p == 1) return Status::OK();

  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  float* buf = data->data();

  // Circulate the owned chunks: member i starts owning chunk (i + 1) % p.
  for (size_t step = 0; step < p - 1; ++step) {
    const size_t send_chunk = (my_index + 1 + p - step) % p;
    const size_t recv_chunk = (my_index + p - step) % p;
    auto [sb, se] = ChunkBounds(n, p, send_chunk);
    PR_RETURN_NOT_OK(ep->Send(
        right, tag, kKindAgChunk,
        {static_cast<int64_t>(step), static_cast<int64_t>(send_chunk)},
        std::vector<float>(buf + sb, buf + se)));
    std::optional<Envelope> env = ep->RecvMatching(left, tag, kKindAgChunk);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during all-gather");
    }
    PR_CHECK_EQ(env->ints[0], static_cast<int64_t>(step));
    PR_CHECK_EQ(env->ints[1], static_cast<int64_t>(recv_chunk));
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    PR_CHECK_EQ(env->payload.size(), re - rb);
    std::copy(env->payload.begin(), env->payload.end(), buf + rb);
  }
  return Status::OK();
}

Status RingWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             const std::vector<double>& weights,
                             size_t my_index, uint64_t tag,
                             std::vector<float>* data) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));

  // Pre-scale by our weight; reduce-scatter + all-gather then compute a
  // plain sum (Patarasuk & Yuan's bandwidth-optimal composition).
  Scale(static_cast<float>(weights[my_index]), data->data(), data->size());
  PR_RETURN_NOT_OK(RingReduceScatter(ep, members, my_index, tag, data,
                                     nullptr, nullptr));
  return RingAllGather(ep, members, my_index, tag, data);
}

Status SegmentedRingWeightedAllReduce(Endpoint* ep,
                                      const std::vector<NodeId>& members,
                                      const std::vector<double>& weights,
                                      size_t my_index, uint64_t tag,
                                      float* data, size_t n,
                                      size_t segment_floats,
                                      const RingDeadline& deadline) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr || n == 0);
  PR_CHECK_GE(segment_floats, size_t{1});
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();

  Scale(static_cast<float>(weights[my_index]), data, n);
  if (p == 1) return Status::OK();

  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  const size_t owned = (my_index + 1) % p;

  auto send_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      Buffer b) -> Status {
    return ep->Send(right, tag, kind,
                    {static_cast<int64_t>(step), static_cast<int64_t>(chunk),
                     static_cast<int64_t>(j)},
                    std::move(b));
  };
  // Under per-pair FIFO with no faults the selected segment is the head of
  // the mailbox, so selecting costs nothing over taking the next message.
  auto recv_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      size_t expect_len, Buffer* out) -> Status {
    PR_RETURN_NOT_OK(
        RecvSegment(ep, left, tag, kind, step, chunk, j, deadline, out));
    if (out->size() != expect_len) {
      return Status::InvalidArgument("segmented ring: segment length mismatch");
    }
    return Status::OK();
  };

  // Reduce-scatter, buffer-forwarding form. The only payload
  // materializations are the step-0 copies of this member's own chunk; every
  // later hop accumulates into the received buffer in place (it is uniquely
  // owned on arrival) and forwards the same handle.
  {
    auto [ob, oe] = ChunkBounds(n, p, my_index);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(send_seg(kKindSegRsChunk, 0, my_index, j,
                                ep->MakePayload(data + sb, se - sb)));
    }
  }
  std::vector<Buffer> retained;  // Reduced owned-chunk segments, for the AG.
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step - 1) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    if (final_hop) retained.resize(nseg);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer b;
      PR_RETURN_NOT_OK(
          recv_seg(kKindSegRsChunk, step, recv_chunk, j, se - sb, &b));
      if (se > sb) {
        // partial += mine: same per-element additions as the classic ring's
        // mine += partial (float addition commutes), so results are
        // bitwise-identical.
        Axpy(1.0f, data + sb, b.mutable_data(), se - sb);
      }
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            send_seg(kKindSegRsChunk, step + 1, recv_chunk, j, std::move(b)));
      } else {
        // recv_chunk == owned here: the segment is fully reduced. Publish it
        // into the caller's buffer and retain the handle so the all-gather's
        // first hop re-circulates it without copying.
        if (se > sb) std::copy(b.data(), b.data() + (se - sb), data + sb);
        retained[j] = std::move(b);
      }
    }
  }

  // All-gather: zero payload materializations — the first hop sends the
  // retained reduced buffers, later hops copy into place and forward.
  {
    auto [ob, oe] = ChunkBounds(n, p, owned);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    PR_CHECK_EQ(nseg, retained.size());
    for (size_t j = 0; j < nseg; ++j) {
      PR_RETURN_NOT_OK(
          send_seg(kKindSegAgChunk, 0, owned, j, std::move(retained[j])));
    }
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer got;
      PR_RETURN_NOT_OK(
          recv_seg(kKindSegAgChunk, step, recv_chunk, j, se - sb, &got));
      if (se > sb) std::copy(got.data(), got.data() + (se - sb), data + sb);
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            send_seg(kKindSegAgChunk, step + 1, recv_chunk, j, std::move(got)));
      }
    }
  }
  return Status::OK();
}

Status SegmentedRingCompressedAllReduce(Endpoint* ep,
                                        const std::vector<NodeId>& members,
                                        const std::vector<double>& weights,
                                        size_t my_index, uint64_t tag,
                                        float* data, size_t n,
                                        Compressor* compressor,
                                        size_t segment_floats,
                                        const RingDeadline& deadline) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(compressor != nullptr);
  PR_CHECK(compressor->enabled());
  PR_CHECK(data != nullptr || n == 0);
  PR_CHECK_GE(segment_floats, size_t{1});
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();

  Scale(static_cast<float>(weights[my_index]), data, n);
  if (p == 1) return Status::OK();

  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  const size_t owned = (my_index + 1) % p;
  const uint8_t enc = compressor->encoding_tag();

  auto send_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      Buffer blob) -> Status {
    return ep->Send(right, tag, kind,
                    {static_cast<int64_t>(step), static_cast<int64_t>(chunk),
                     static_cast<int64_t>(j)},
                    std::move(blob), enc);
  };
  // Unlike the raw ring, the payload length is *not* checked on receive:
  // blob sizes are codec-dependent (top-k blobs scale with k, not the
  // segment length). DecodeInto validates the decoded element count instead,
  // turning a mismatched blob into an error status rather than a crash.
  auto recv_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      Buffer* out) {
    return RecvSegment(ep, left, tag, kind, step, chunk, j, deadline, out);
  };

  std::vector<float> scratch;

  // Reduce-scatter. Step 0 encodes this member's own chunk; every later hop
  // decodes the incoming partial sum, folds in its own (pre-scaled)
  // contribution, and re-encodes. Each re-encode's loss is charged to this
  // member's error-feedback residual at those element positions and folded
  // into its next encode there.
  {
    auto [ob, oe] = ChunkBounds(n, p, my_index);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(
          send_seg(kKindSegRsChunk, 0, my_index, j,
                   compressor->EncodeRange(data + sb, sb, se - sb)));
    }
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step - 1) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer got;
      PR_RETURN_NOT_OK(recv_seg(kKindSegRsChunk, step, recv_chunk, j, &got));
      const size_t len = se - sb;
      scratch.resize(len);
      PR_RETURN_NOT_OK(compressor->DecodeInto(got, scratch.data(), len));
      if (len > 0) Axpy(1.0f, data + sb, scratch.data(), len);
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            send_seg(kKindSegRsChunk, step + 1, recv_chunk, j,
                     compressor->EncodeRange(scratch.data(), sb, len)));
      } else {
        // recv_chunk == owned: fully reduced. The owner's own contribution
        // was just added exactly (never re-encoded before the all-gather).
        if (len > 0) std::copy(scratch.data(), scratch.data() + len,
                               data + sb);
      }
    }
  }

  // All-gather. The chunk owner encodes once and *publishes the decoded
  // values locally* (EncodeRangePublish); every later hop decodes into place
  // and forwards the same blob unchanged — so all members publish bitwise
  // the same chunk values, exactly like the uncompressed ring.
  {
    auto [ob, oe] = ChunkBounds(n, p, owned);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(
          send_seg(kKindSegAgChunk, 0, owned, j,
                   compressor->EncodeRangePublish(data + sb, sb, se - sb)));
    }
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer got;
      PR_RETURN_NOT_OK(recv_seg(kKindSegAgChunk, step, recv_chunk, j, &got));
      PR_RETURN_NOT_OK(compressor->DecodeInto(got, data + sb, se - sb));
      if (!final_hop) {
        PR_RETURN_NOT_OK(send_seg(kKindSegAgChunk, step + 1, recv_chunk, j,
                                  std::move(got)));
      }
    }
  }
  return Status::OK();
}

Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor,
                              const RingDeadline& deadline) {
  if (compressor != nullptr && compressor->enabled()) {
    return SegmentedRingCompressedAllReduce(ep, members, weights, my_index,
                                            tag, data, n, compressor,
                                            kDefaultSegmentFloats, deadline);
  }
  return SegmentedRingWeightedAllReduce(ep, members, weights, my_index, tag,
                                        data, n, kDefaultSegmentFloats,
                                        deadline);
}

Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag,
                              std::vector<float>* data,
                              Compressor* compressor) {
  PR_CHECK(data != nullptr);
  return GroupWeightedAllReduce(ep, members, weights, my_index, tag,
                                data->data(), data->size(), compressor);
}

Status GroupAverageAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             size_t my_index, uint64_t tag, float* data,
                             size_t n, Compressor* compressor) {
  const std::vector<double> weights(members.size(),
                                    1.0 / static_cast<double>(members.size()));
  return GroupWeightedAllReduce(ep, members, weights, my_index, tag, data, n,
                                compressor);
}

Status Broadcast(Endpoint* ep, const std::vector<NodeId>& members,
                 size_t my_index, size_t root_index, uint64_t tag,
                 std::vector<float>* data) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  if (members.empty() || my_index >= members.size() ||
      root_index >= members.size()) {
    return Status::InvalidArgument("broadcast: bad member indices");
  }
  if (my_index == root_index) {
    // One materialization shared by every receiver: payload copies per
    // broadcast are O(1), not O(P).
    Buffer payload = ep->MakePayload(data->data(), data->size());
    for (size_t j = 0; j < members.size(); ++j) {
      if (j == root_index) continue;
      PR_RETURN_NOT_OK(
          ep->Send(members[j], tag, kKindBroadcast, {}, payload));
    }
    return Status::OK();
  }
  std::optional<Envelope> env =
      ep->RecvMatching(members[root_index], tag, kKindBroadcast);
  if (!env.has_value()) {
    return Status::Cancelled("transport shut down during broadcast");
  }
  *data = env->payload.Take();
  return Status::OK();
}

Status RingAverageAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                            size_t my_index, uint64_t tag,
                            std::vector<float>* data) {
  const std::vector<double> weights(members.size(),
                                    1.0 / static_cast<double>(members.size()));
  return RingWeightedAllReduce(ep, members, weights, my_index, tag, data);
}

Status Gather(Endpoint* ep, const std::vector<NodeId>& members,
              size_t my_index, size_t root_index, uint64_t tag,
              const std::vector<float>& data, std::vector<Buffer>* gathered) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(gathered != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  if (root_index >= members.size()) {
    return Status::InvalidArgument("gather: root_index out of range");
  }
  gathered->clear();
  if (my_index != root_index) {
    return ep->Send(members[root_index], tag, kKindGather, {},
                    ep->MakePayload(data.data(), data.size()));
  }
  gathered->resize(members.size());
  (*gathered)[root_index] = ep->MakePayload(data.data(), data.size());
  for (size_t j = 0; j < members.size(); ++j) {
    if (j == root_index) continue;
    std::optional<Envelope> env =
        ep->RecvMatching(members[j], tag, kKindGather);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during gather");
    }
    (*gathered)[j] = std::move(env->payload);
  }
  return Status::OK();
}

Status RingBarrier(Endpoint* ep, const std::vector<NodeId>& members,
                   size_t my_index, uint64_t tag) {
  PR_CHECK(ep != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  const size_t p = members.size();
  if (p == 1) return Status::OK();
  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  // Token circulation: a token originating at member 0 completes a full
  // circle only once every member has entered (round 0); a second circle
  // (round 1) releases everyone.
  auto pass = [&](int64_t round) -> Status {
    std::optional<Envelope> env = ep->RecvMatching(left, tag, kKindBarrier);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during barrier");
    }
    PR_CHECK_EQ(env->ints[0], round);
    return ep->Send(right, tag, kKindBarrier, {round}, Buffer());
  };
  for (int64_t round = 0; round < 2; ++round) {
    if (my_index == 0) {
      PR_RETURN_NOT_OK(ep->Send(right, tag, kKindBarrier, {round}, Buffer()));
      std::optional<Envelope> env =
          ep->RecvMatching(left, tag, kKindBarrier);
      if (!env.has_value()) {
        return Status::Cancelled("transport shut down during barrier");
      }
      PR_CHECK_EQ(env->ints[0], round);
    } else {
      PR_RETURN_NOT_OK(pass(round));
    }
  }
  return Status::OK();
}

}  // namespace pr
