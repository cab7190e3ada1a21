#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/enum_names.h"
#include "common/status.h"

namespace pr {

/// \brief Payload compression schemes for the collective data plane
/// (DESIGN.md §5i).
///
/// The enum values double as the wire payload-encoding tag (the flags byte
/// of the PRW1 v2 preamble), so they are stable protocol constants: 0 must
/// stay "raw fp32" forever, and new codecs append.
enum class CompressionKind : uint8_t {
  kNone = 0,  ///< raw fp32 floats (the uncompressed payload path)
  kFp16 = 1,  ///< IEEE-754 half precision, software converted
  kInt8 = 2,  ///< linear 8-bit quantization, per-chunk min/scale
  kTopK = 3,  ///< deterministic top-k magnitude sparsification
};

/// Number of distinct encoding tags (for validation of wire bytes).
inline constexpr uint8_t kNumCompressionKinds = 4;

/// True when `tag` names a known encoding (a corrupt frame check).
inline bool IsValidEncodingTag(uint8_t tag) {
  return tag < kNumCompressionKinds;
}

/// Config, report and `prlaunch --compression` tokens.
inline constexpr EnumName<CompressionKind> kCompressionKindNames[] = {
    {CompressionKind::kNone, "none"},
    {CompressionKind::kFp16, "fp16"},
    {CompressionKind::kInt8, "int8"},
    {CompressionKind::kTopK, "topk"},
};

inline std::string CompressionKindName(CompressionKind kind) {
  return NameOf(kCompressionKindNames, kind);
}

/// False on an unknown name.
inline bool ParseCompressionKind(const std::string& token,
                                 CompressionKind* out) {
  return ParseEnum(kCompressionKindNames, token, out);
}

/// Elements per int8 quantization chunk: each chunk carries its own
/// min/scale pair, so a single outlier only degrades 1 KiB of neighbours.
inline constexpr size_t kInt8ChunkElems = 1024;

/// Top-k keeps 1 in kTopKDivisor elements (at least one when n > 0).
inline constexpr size_t kTopKDivisor = 8;

/// \brief One compression scheme: float range -> self-describing blob and
/// back.
///
/// Blobs are float-backed Buffers (the transport's only payload type); the
/// codec treats the floats as a raw 4-byte word array via memcpy, so
/// `blob.size() * 4` is exactly the bytes that cross the wire. Word 0 is
/// always the element count `n`, making every blob self-describing: a
/// decoder needs only the blob and the encoding tag.
///
/// Codecs are stateless and deterministic: the same input always yields the
/// same blob on every platform (ties in top-k selection break toward the
/// lower index; int8 rounding is round-half-up via truncation).
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CompressionKind kind() const = 0;

  /// Error-feedback encode of `n` floats (DESIGN.md §5i) in one pass per
  /// chunk. At each position i, with deq_i the value Decode(*blob) returns:
  ///
  ///     send_i     = x_i + residual_i                   (in == null)
  ///     send_i     = (Decode(*in)_i + x_i) + residual_i (a ring hop's sum)
  ///     residual_i = send_i - deq_i
  ///     publish_i  = deq_i                              (publish != null)
  ///
  /// `publish` may alias `x`. InvalidArgument, leaving `residual` untouched,
  /// when `in` is not a well-formed n-element blob of this codec. `x` may be
  /// null only when n == 0.
  virtual Status EncodeFeedback(const float* x, const Buffer* in,
                                float* residual, size_t n, float* publish,
                                Buffer* blob) const = 0;

  /// Decodes `blob` straight into `out[0..n)`: out_i = deq_i, or
  /// out_i = deq_i + out_i with `accumulate`. InvalidArgument, leaving `out`
  /// untouched, on a malformed blob or one that does not hold n elements.
  virtual Status DecodeInto(const Buffer& blob, float* out, size_t n,
                            bool accumulate) const = 0;

  /// Exact blob size in bytes for an `n`-element encode — the analytical
  /// form of such a blob's size() * 4, used by the simulator's traffic
  /// model and the bench's bytes-on-wire accounting.
  virtual size_t EncodedBytes(size_t n) const = 0;

  /// Decodes a blob into `out` (resized to the encoded element count).
  /// InvalidArgument on a malformed blob (truncated, inconsistent counts).
  Status Decode(const Buffer& blob, std::vector<float>* out) const;
};

/// Factory. `kind` must not be kNone (raw payloads bypass codecs entirely).
std::unique_ptr<Codec> MakeCodec(CompressionKind kind);

/// Blob (or raw payload) bytes for an `n`-element vector under `kind`;
/// kNone counts the raw fp32 bytes. Shared by the sim traffic model and the
/// bench report so both agree with the threaded engine's byte counters.
size_t EncodedBlobBytes(CompressionKind kind, size_t n);

/// Decodes a payload stamped with wire encoding `tag`: raw fp32 payloads
/// (tag 0) copy through, everything else routes to the matching codec.
Status DecodeTaggedPayload(uint8_t tag, const Buffer& payload,
                           std::vector<float>* out);

}  // namespace pr
