#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "compress/codec.h"
#include "obs/metrics.h"

namespace pr {

/// \brief Per-worker lossy-compression state: a codec plus an error-feedback
/// residual accumulator (DESIGN.md §5i).
///
/// Lossy codecs drop information every encode; error feedback keeps the
/// dropped part alive by folding each position's accumulated quantization
/// error into the *next* value encoded at that position:
///
///     send_i     = value_i + residual_i
///     blob       = Encode(send)
///     residual_i = send_i - Decode(blob)_i
///
/// The codec does all three in one pass per chunk (Codec::EncodeFeedback),
/// computing Decode(blob)_i in registers rather than decoding the blob.
///
/// Over a run the error at every position telescopes instead of compounding,
/// which is what preserves the Theorem 1 convergence behaviour under
/// compressed P-Reduce. The residual is indexed by *global element position*
/// (the offset arguments below), so a segmented ring that encodes each
/// position once per reduce-scatter pass and once per all-gather pass keeps
/// a well-defined per-position error stream.
///
/// One instance per worker (and one for a central server), owned by its
/// context and used only from that context's thread — like the Endpoint, it
/// is not thread-safe.
class Compressor {
 public:
  /// kNone builds a disabled pass-through (enabled() == false); the
  /// collectives then take their uncompressed paths untouched.
  explicit Compressor(CompressionKind kind);

  CompressionKind kind() const { return kind_; }
  bool enabled() const { return codec_ != nullptr; }
  /// The wire payload-encoding tag this compressor's blobs carry.
  uint8_t encoding_tag() const { return static_cast<uint8_t>(kind_); }

  /// Wires the compress.bytes_in / compress.bytes_out counters and the
  /// compress.ratio gauge (bytes_in / bytes_out so far) into `metrics`.
  /// Optional; pass the owning context's shard.
  void AttachMetrics(MetricsShard* metrics);

  /// Encodes `range[0..len)`, whose global element positions are
  /// `offset..offset+len`, with error feedback: the positions' residuals are
  /// added before encoding and updated to the new encode error after.
  /// `range` is not modified. Requires enabled().
  Buffer EncodeRange(const float* range, size_t offset, size_t len);

  /// EncodeRange, additionally overwriting `range` with the decoded (lossy)
  /// values of the returned blob. The segmented ring's all-gather uses this
  /// so the chunk owner publishes bitwise the same values every other member
  /// decodes — replicas stay bitwise identical under compression.
  Buffer EncodeRangePublish(float* range, size_t offset, size_t len);

  /// A reduce-scatter hop in one pass: EncodeRange of Decode(in) + mine,
  /// without materializing the sum. InvalidArgument, leaving the residual
  /// untouched, when `in` is not a len-element blob of this kind.
  Status EncodeRangeSum(const float* mine, const Buffer& in, size_t offset,
                        size_t len, Buffer* out);

  /// Decodes a blob produced by any compressor of the same kind.
  Status Decode(const Buffer& blob, std::vector<float>* out) const;

  /// Decodes directly into `out[0..len)`; InvalidArgument when the blob's
  /// element count differs from `len`.
  Status DecodeInto(const Buffer& blob, float* out, size_t len) const;

  /// DecodeInto that adds: acc_i = Decode(blob)_i + acc_i.
  Status DecodeAddInto(const Buffer& blob, float* acc, size_t len) const;

  /// Exact blob bytes for an `n`-element encode.
  size_t EncodedBytes(size_t n) const;

  /// Sum of |residual| over all touched positions (tests / diagnostics).
  double ResidualL1() const;

  /// The residual by global position, up to the largest range end seen.
  const std::vector<float>& residual() const { return residual_; }

 private:
  void EnsureResidual(size_t end);
  Status EncodeImpl(const float* range, const Buffer* in, size_t offset,
                    size_t len, float* publish, Buffer* out);

  CompressionKind kind_;
  std::unique_ptr<Codec> codec_;  // null when kind_ == kNone
  std::vector<float> residual_;  // grown lazily to the largest offset seen
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Gauge* ratio_ = nullptr;
  double total_in_ = 0.0;
  double total_out_ = 0.0;
};

}  // namespace pr
