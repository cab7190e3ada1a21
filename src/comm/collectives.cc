#include "comm/collectives.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "compress/compressor.h"
#include "tensor/ops.h"

namespace pr {
namespace {

// Message kinds used by the collectives; upper layers use other values.
constexpr int kKindLeaderGather = 101;
constexpr int kKindLeaderResult = 102;
constexpr int kKindRsChunk = 103;
constexpr int kKindAgChunk = 105;
constexpr int kKindSegRsChunk = 108;
constexpr int kKindSegAgChunk = 109;
constexpr int kKindSegNack = 110;  // {kind, step, chunk, segment}

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

/// Calls `fn(j, begin, end)` for every segment j of chunk `chunk` when `n`
/// elements are split into `p` chunks and each chunk into segments of
/// `segment_floats`, stopping at the first error. An empty chunk still
/// circulates one empty segment, so every (step, chunk) transfer has a
/// uniform message schedule. The ring and its traffic model both walk the
/// layout through this.
template <typename Fn>
Status ForEachSegment(size_t n, size_t p, size_t chunk, size_t segment_floats,
                      Fn&& fn) {
  auto [cb, ce] = ChunkBounds(n, p, chunk);
  const size_t nseg =
      cb == ce ? 1 : (ce - cb + segment_floats - 1) / segment_floats;
  for (size_t j = 0; j < nseg; ++j) {
    const size_t b = cb + j * segment_floats;
    PR_RETURN_NOT_OK(fn(j, b, std::min(b + segment_floats, ce)));
  }
  return Status::OK();
}

Status SegmentLengthMismatch() {
  return Status::InvalidArgument("segmented ring: segment length mismatch");
}

/// The one place a codec choice is normalized: null and a disabled (kNone)
/// compressor both mean raw fp32 payloads.
Compressor* ActiveCodec(Compressor* compressor) {
  return compressor != nullptr && compressor->enabled() ? compressor
                                                        : nullptr;
}

/// Receives segment (step, chunk, j) of a segmented-ring conversation from
/// `left`, selecting it by all six fields so duplicates and reorderings
/// cannot be consumed out of turn. The segment is due (the left peer sends
/// it as soon as it has its own), so the wait spins before it parks. With
/// a `resender` (a deadline is set), the wait answers every NACK that
/// arrives meanwhile and sends one for its own segment on each timeout
/// tick; NACKs never reset the tick's clock. Cancelled on shutdown; Timeout
/// once the deadline's tick or wake callback gives up.
Status RecvSegment(Endpoint* ep, NodeId left, uint64_t tag, int kind,
                   size_t step, size_t chunk, size_t j,
                   const RingDeadline& deadline, RingResender* resender,
                   Buffer* out) {
  const auto segment = [&](const Envelope& e) {
    return e.from == left && e.tag == tag && e.kind == kind &&
           e.ints.size() == 3 && e.ints[0] == static_cast<int64_t>(step) &&
           e.ints[1] == static_cast<int64_t>(chunk) &&
           e.ints[2] == static_cast<int64_t>(j);
  };
  const auto match = [&](const Envelope& e) {
    return segment(e) || (resender != nullptr && RingResender::IsNack(e)) ||
           (deadline.wakes_on && deadline.wakes_on(e));
  };
  using Clock = std::chrono::steady_clock;
  const double tick = deadline.recv_timeout_seconds;
  const auto next_tick = [tick] {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(tick));
  };
  Clock::time_point tick_at = next_tick();
  while (true) {
    const double wait =
        tick < 0.0 ? -1.0
                   : std::max(0.0, std::chrono::duration<double>(
                                       tick_at - Clock::now())
                                       .count());
    std::optional<Envelope> env = ep->RecvWhereFor(match, wait, RecvWait::kDue);
    if (env.has_value()) {
      if (segment(*env)) {
        *out = std::move(env->payload);
        return Status::OK();
      }
      if (resender != nullptr && RingResender::IsNack(*env)) {
        resender->Answer(ep, *env);
      } else if (!deadline.on_wake(*env)) {
        return Status::Timeout("ring all-reduce abandoned on a wake");
      }
      continue;
    }
    if (ep->closed() || tick < 0.0) {
      return Status::Cancelled("transport shut down during ring all-reduce");
    }
    if (resender != nullptr) {
      (void)ep->Send(left, tag, kKindSegNack,
                     {kind, static_cast<int64_t>(step),
                      static_cast<int64_t>(chunk), static_cast<int64_t>(j)});
    }
    if (deadline.on_tick && !deadline.on_tick()) {
      return Status::Timeout("ring all-reduce abandoned at its deadline");
    }
    tick_at = next_tick();
  }
}

/// One phase of RingWeightedAllReduce: P-1 steps, each passing a chunk to
/// the right neighbour. The reduce-scatter phase (`gather` false) adds each
/// received chunk in, leaving member i with the full sum of chunk
/// (i + 1) % P; the all-gather phase (`gather` true) circulates those owned
/// chunks and copies them into place.
Status RingPhase(Endpoint* ep, const std::vector<NodeId>& members,
                 size_t my_index, uint64_t tag, bool gather,
                 std::vector<float>* data) {
  const size_t p = members.size();
  const size_t n = data->size();
  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  const int kind = gather ? kKindAgChunk : kKindRsChunk;
  const size_t first = my_index + (gather ? 1 : 0);
  float* buf = data->data();
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t send_chunk = (first + p - step) % p;
    const size_t recv_chunk = (first + p - step - 1) % p;
    auto [sb, se] = ChunkBounds(n, p, send_chunk);
    PR_RETURN_NOT_OK(
        ep->Send(right, tag, kind,
                 {static_cast<int64_t>(step), static_cast<int64_t>(send_chunk)},
                 std::vector<float>(buf + sb, buf + se)));
    std::optional<Envelope> env = ep->RecvMatching(left, tag, kind);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during ring all-reduce");
    }
    PR_CHECK_EQ(env->ints[0], static_cast<int64_t>(step));
    PR_CHECK_EQ(env->ints[1], static_cast<int64_t>(recv_chunk));
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    PR_CHECK_EQ(env->payload.size(), re - rb);
    if (gather) {
      std::copy(env->payload.begin(), env->payload.end(), buf + rb);
    } else {
      Axpy(1.0f, env->payload.data(), buf + rb, re - rb);
    }
  }
  return Status::OK();
}

}  // namespace

bool RingResender::IsNack(const Envelope& env) {
  return env.kind == kKindSegNack && env.ints.size() == 4;
}

void RingResender::Begin(NodeId right, uint64_t tag, uint8_t encoding) {
  right_ = right;
  tag_ = tag;
  encoding_ = encoding;
  sent_.clear();
}

void RingResender::Keep(int kind, size_t step, size_t chunk, size_t j,
                        const Buffer& payload) {
  sent_.push_back({kind, static_cast<int64_t>(step),
                   static_cast<int64_t>(chunk), static_cast<int64_t>(j),
                   payload, nullptr, 0});
}

void RingResender::KeepRange(int kind, size_t step, size_t chunk, size_t j,
                             const float* source, size_t len) {
  sent_.push_back({kind, static_cast<int64_t>(step),
                   static_cast<int64_t>(chunk), static_cast<int64_t>(j),
                   Buffer(), source, len});
}

void RingResender::Release(int kind, size_t chunk, size_t j) {
  std::erase_if(sent_, [&](const Sent& s) {
    return s.kind == kind && s.chunk == static_cast<int64_t>(chunk) &&
           s.j == static_cast<int64_t>(j);
  });
}

bool RingResender::Answer(Endpoint* ep, const Envelope& nack) {
  if (!IsNack(nack) || nack.from != right_ || nack.tag != tag_) return false;
  for (const Sent& s : sent_) {
    if (s.kind == nack.ints[0] && s.step == nack.ints[1] &&
        s.chunk == nack.ints[2] && s.j == nack.ints[3]) {
      Buffer payload = s.source != nullptr ? ep->MakePayload(s.source, s.len)
                                           : s.payload;
      if (!ep->Send(right_, tag_, s.kind, {s.step, s.chunk, s.j},
                    std::move(payload), encoding_)
               .ok()) {
        return false;
      }
      if (resends_ != nullptr) resends_->Increment();
      return true;
    }
  }
  return false;
}

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
  PR_RETURN_NOT_OK(
      RingPhase(ep, members, my_index, tag, /*gather=*/false, data));
  return RingPhase(ep, members, my_index, tag, /*gather=*/true, data);
}

Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor,
                              const RingDeadline& deadline,
                              size_t segment_floats) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr || n == 0);
  PR_CHECK_GE(segment_floats, size_t{1});
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();
  Compressor* codec = ActiveCodec(compressor);  // null: raw fp32 hops

  Scale(static_cast<float>(weights[my_index]), data, n);
  if (p == 1) return Status::OK();

  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  const uint8_t enc = PayloadEncoding(codec);
  // Under a deadline every send is kept for a NACK (RingResender); without
  // one nothing is kept and no block is ever shared.
  RingResender local;
  RingResender* resender = nullptr;
  if (deadline.recv_timeout_seconds >= 0.0) {
    resender = deadline.resender != nullptr ? deadline.resender : &local;
    resender->Begin(right, tag, enc);
  }
  auto send_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      Buffer b) -> Status {
    if (resender != nullptr) {
      auto [cb, ce] = ChunkBounds(n, p, chunk);
      const size_t begin = cb + j * segment_floats;
      if (codec == nullptr && kind == kKindSegRsChunk && step == 0) {
        // A copy of `data` that no hop writes before the release.
        resender->KeepRange(kind, step, chunk, j, data + begin,
                            std::min(segment_floats, ce - begin));
      } else {
        resender->Keep(kind, step, chunk, j, b);
      }
    }
    return ep->Send(right, tag, kind,
                    {static_cast<int64_t>(step), static_cast<int64_t>(chunk),
                     static_cast<int64_t>(j)},
                    std::move(b), enc);
  };

  // One phase: send every segment of chunk `first` as `start` builds it,
  // then for each of the P-1 steps receive the segments of chunk
  // (first - step - 1) from the left, let `hop` fold each in, and forward
  // what `hop` leaves in the buffer unless this was the phase's last hop.
  // Under per-pair FIFO with no faults the selected segment is the head of
  // the mailbox, so selecting costs nothing over taking the next message.
  auto phase = [&](int kind, size_t first, auto&& start,
                   auto&& hop) -> Status {
    PR_RETURN_NOT_OK(ForEachSegment(
        n, p, first, segment_floats, [&](size_t j, size_t b, size_t e) {
          return send_seg(kind, 0, first, j, start(j, b, e));
        }));
    for (size_t step = 0; step + 1 < p; ++step) {
      const size_t chunk = (first + p - step - 1) % p;
      const bool last = step + 2 == p;
      PR_RETURN_NOT_OK(ForEachSegment(
          n, p, chunk, segment_floats,
          [&](size_t j, size_t b, size_t e) -> Status {
            Buffer got;
            PR_RETURN_NOT_OK(RecvSegment(ep, left, tag, kind, step, chunk, j,
                                         deadline, resender, &got));
            // This all-gather segment carries our reduce-scatter segment of
            // the same position, so the right neighbour has that one.
            if (resender != nullptr && kind == kKindSegAgChunk) {
              resender->Release(kKindSegRsChunk, chunk, j);
            }
            PR_RETURN_NOT_OK(hop(&got, b, e - b, last));
            if (last) return Status::OK();
            return send_seg(kind, step + 1, chunk, j, std::move(got));
          }));
    }
    return Status::OK();
  };

  // Reduce-scatter: afterwards this member holds the full sum of chunk
  // (my_index + 1) % P. Raw hops accumulate into the received buffer in
  // place (it is uniquely owned on arrival) and forward the same handle, so
  // the only payload materializations are the step-0 copies of this
  // member's own chunk; the final hop's reduced buffers are retained for
  // the all-gather. Encoded hops decode, accumulate and re-encode in one
  // pass (EncodeRangeSum), and the last one decodes and adds straight into
  // `data`; each re-encode's loss goes to this member's error-feedback
  // residual at those positions. partial + mine performs the classic ring's
  // per-element additions (float addition commutes), so raw results are
  // bitwise identical to RingWeightedAllReduce.
  std::vector<Buffer> retained;
  Status status = phase(
      kKindSegRsChunk, my_index,
      [&](size_t, size_t b, size_t e) {
        return codec != nullptr ? codec->EncodeRange(data + b, b, e - b)
                                : ep->MakePayload(data + b, e - b);
      },
      [&](Buffer* got, size_t b, size_t len, bool last) -> Status {
        if (codec == nullptr) {
          if (got->size() != len) return SegmentLengthMismatch();
          // A block its sender still holds (kept for a NACK, or duplicated
          // in flight) is immutable, and a last hop's block is kept for the
          // all-gather's NACKs when there is a resender: accumulate into a
          // counted copy. The kept block is then this member's own
          // allocation, and the sender's is freed now, not a ring later.
          if (got->ever_shared() || (last && resender != nullptr)) {
            *got = ep->MakePayload(got->data(), len);
          }
          if (len > 0) Axpy(1.0f, data + b, got->mutable_data(), len);
          if (last) {
            if (len > 0) std::copy(got->data(), got->data() + len, data + b);
            retained.push_back(std::move(*got));
          }
          return Status::OK();
        }
        if (last) return codec->DecodeAddInto(*got, data + b, len);
        return codec->EncodeRangeSum(data + b, *got, b, len, got);
      });

  // All-gather: the owner starts its chunk round. Raw, that re-circulates
  // the retained buffers (zero materializations); encoded, the owner
  // encodes once and publishes the decoded values locally. Every later hop
  // copies or decodes into place and forwards the same payload unchanged,
  // so all members publish bitwise the same values.
  if (status.ok()) {
    status = phase(
        kKindSegAgChunk, (my_index + 1) % p,
        [&](size_t j, size_t b, size_t e) {
          return codec != nullptr
                     ? codec->EncodeRangePublish(data + b, b, e - b)
                     : std::move(retained.at(j));
        },
        [&](Buffer* got, size_t b, size_t len, bool) -> Status {
          if (codec != nullptr) return codec->DecodeInto(*got, data + b, len);
          if (got->size() != len) return SegmentLengthMismatch();
          if (len > 0) std::copy(got->data(), got->data() + len, data + b);
          return Status::OK();
        });
  }
  // An abandoned ring's segments are nobody's to resend.
  if (!status.ok() && resender != nullptr) resender->Clear();
  return status;
}

RingTraffic GroupAllReduceTraffic(size_t n, size_t p, CompressionKind kind,
                                  size_t segment_floats) {
  PR_CHECK_GE(segment_floats, size_t{1});
  RingTraffic traffic;
  if (p < 2) return traffic;
  const bool raw = kind == CompressionKind::kNone;
  // One circulation of every segment of every chunk.
  double raw_bytes = 0.0;
  double wire_bytes = 0.0;
  for (size_t chunk = 0; chunk < p; ++chunk) {
    (void)ForEachSegment(n, p, chunk, segment_floats,
                         [&](size_t, size_t b, size_t e) {
                           raw_bytes += static_cast<double>((e - b) *
                                                            sizeof(float));
                           wire_bytes += static_cast<double>(
                               EncodedBlobBytes(kind, e - b));
                           // Raw: the step-0 copy of a non-empty segment.
                           if (raw && e > b) traffic.payload_copies += 1.0;
                           return Status::OK();
                         });
  }
  // Each segment crosses P-1 ring edges in each of the two phases.
  traffic.bytes = 2.0 * static_cast<double>(p - 1) * wire_bytes;
  if (!raw) {
    // Each segment is encoded P times: by the P-1 reduce-scatter senders
    // (the last hop keeps its sum) and once by its all-gather owner.
    traffic.codec_bytes_in = static_cast<double>(p) * raw_bytes;
    traffic.codec_bytes_out = static_cast<double>(p) * wire_bytes;
  }
  return traffic;
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

Buffer EncodePayload(Endpoint* ep, Compressor* compressor, const float* data,
                     size_t n) {
  Compressor* codec = ActiveCodec(compressor);
  return codec != nullptr ? codec->EncodeRange(data, 0, n)
                          : ep->MakePayload(data, n);
}

uint8_t PayloadEncoding(Compressor* compressor) {
  Compressor* codec = ActiveCodec(compressor);
  return codec != nullptr ? codec->encoding_tag() : 0;
}

Status DecodePayload(Envelope* env, size_t n, std::vector<float>* out) {
  PR_CHECK(env != nullptr);
  PR_CHECK(out != nullptr);
  if (env->encoding != 0) {
    PR_RETURN_NOT_OK(DecodeTaggedPayload(env->encoding, env->payload, out));
  } else {
    *out = env->payload.Take();
  }
  if (out->size() != n) {
    return Status::InvalidArgument("payload: element count mismatch");
  }
  return Status::OK();
}

}  // namespace pr
