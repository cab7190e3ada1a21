#include "compress/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/check.h"

namespace pr {
namespace {

// ---------------------------------------------------------------------------
// Word-level blob access. Blobs are float-backed Buffers treated as raw
// 4-byte words; integer words go through memcpy so no float operation ever
// touches (and possibly quietens) the packed integer bits.
// ---------------------------------------------------------------------------

// fp16 and int8 store halves and bytes straight into the word array, in
// the order the words' little-endian layout gives them.
static_assert(std::endian::native == std::endian::little,
              "codec blobs pack halves and bytes in word order");

uint32_t LoadWord(const float* words, size_t i) {
  uint32_t w;
  std::memcpy(&w, words + i, sizeof(w));
  return w;
}

void StoreWord(float* words, size_t i, uint32_t w) {
  std::memcpy(words + i, &w, sizeof(w));
}

/// OK when `blob` is `codec`'s encoding of exactly `n` elements: its count
/// word is n and its size is EncodedBytes(n).
Status CheckCount(const Codec& codec, const Buffer& blob, size_t n) {
  if (blob.empty() || LoadWord(blob.data(), 0) != n) {
    return Status::InvalidArgument("codec blob: element count mismatch");
  }
  if (blob.size() * sizeof(float) != codec.EncodedBytes(n)) {
    return Status::InvalidArgument("codec blob: size/count mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Software IEEE-754 half conversion (portable: no F16C/NEON intrinsics, so
// encodes are bitwise identical across every host this repo builds on).
// ---------------------------------------------------------------------------

uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const uint32_t exp = (x >> 23) & 0xffu;
  uint32_t mant = x & 0x7fffffu;
  if (exp == 0xffu) {  // inf / nan (keep nan-ness in the top mantissa bit)
    return sign | 0x7c00u | (mant != 0 ? 0x200u : 0u);
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return sign | 0x7c00u;  // overflow -> inf
  if (e <= 0) {
    if (e < -10) return sign;  // underflow -> signed zero
    mant |= 0x800000u;         // make the implicit bit explicit
    const uint32_t shift = static_cast<uint32_t>(14 - e);
    uint16_t h = static_cast<uint16_t>(mant >> shift);
    if ((mant >> (shift - 1)) & 1u) ++h;  // round half away from zero
    return sign | h;
  }
  uint16_t h = static_cast<uint16_t>((e << 10) | (mant >> 13));
  // Round half away from zero; a carry ripples into the exponent, which is
  // exactly the correct rounding (1.11..1 * 2^e -> 2^(e+1)).
  if (mant & 0x1000u) ++h;
  return sign | h;
}

float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;
    } else {  // subnormal half: renormalize into a normal float
      int e = -1;
      do {
        mant <<= 1;
        ++e;
      } while ((mant & 0x400u) == 0);
      mant &= 0x3ffu;
      x = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

// ---------------------------------------------------------------------------
// fp16 codec: word 0 = n, then ceil(n/2) words each packing two halves
// (element 2j in the low 16 bits, 2j+1 in the high).
// ---------------------------------------------------------------------------

class Fp16Codec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kFp16; }

  Status EncodeFeedback(const float* x, const Buffer* in, float* residual,
                        size_t n, float* publish,
                        Buffer* blob) const override {
    PR_CHECK(x != nullptr || n == 0);
    if (in != nullptr) PR_RETURN_NOT_OK(CheckCount(*this, *in, n));
    std::vector<float> words(EncodedBytes(n) / sizeof(float));
    StoreWord(words.data(), 0, static_cast<uint32_t>(n));
    const float* in_words = in != nullptr ? in->data() : nullptr;
    // Half i is bytes 2i..2i+1 after the count word (element 2j in the low
    // half of its word on this little-endian layout).
    unsigned char* halves = reinterpret_cast<unsigned char*>(words.data() + 1);
    for (size_t i = 0; i < n; ++i) {
      float v = x[i];
      if (in_words != nullptr) {
        v = HalfToFloat(static_cast<uint16_t>(LoadWord(in_words, 1 + i / 2) >>
                                              (16 * (i % 2)))) +
            v;
      }
      const float send = v + residual[i];
      const uint16_t h = FloatToHalf(send);
      const float deq = HalfToFloat(h);
      residual[i] = send - deq;
      if (publish != nullptr) publish[i] = deq;
      std::memcpy(halves + 2 * i, &h, sizeof(h));
    }
    *blob = Buffer::FromVector(std::move(words));
    return Status::OK();
  }

  Status DecodeInto(const Buffer& blob, float* out, size_t n,
                    bool accumulate) const override {
    PR_RETURN_NOT_OK(CheckCount(*this, blob, n));
    const float* words = blob.data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t packed = LoadWord(words, 1 + i / 2);
      const float deq =
          HalfToFloat(static_cast<uint16_t>(packed >> (16 * (i % 2))));
      out[i] = accumulate ? deq + out[i] : deq;
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    return 4 * (1 + (n + 1) / 2);
  }
};

// ---------------------------------------------------------------------------
// int8 codec: word 0 = n, then per kInt8ChunkElems-element chunk a float
// min word, a float scale word, and ceil(len/4) words of packed quantized
// bytes (element 4j + b in byte b of its word, zeros past the chunk's end).
// q = round_half_up((x - min) / scale) clamped to [0, 255]; the decoded
// value is min + scale * q.
//
// The kernels run four floats per GCC vector, a width every target this
// repo builds for has (SSE2 on baseline x86-64). pr_compress builds with
// -ffp-contract=off, and each lane runs the scalar tail's operations in its
// order (a vector divide is exact per lane), so an element's level and
// decoded value do not depend on whether a vector or the tail handled it.
// Each chunk takes two sweeps: the first forms send_i into the residual's
// slot and finds the min and max; the second quantizes, packs, and writes
// send_i - deq_i and deq_i from registers.
// ---------------------------------------------------------------------------

typedef float Vec4 __attribute__((vector_size(16)));
typedef int32_t Int4 __attribute__((vector_size(16)));
typedef uint8_t Raw16 __attribute__((vector_size(16)));
typedef uint16_t Half8 __attribute__((vector_size(16)));
typedef uint32_t Word4 __attribute__((vector_size(16)));

constexpr size_t kLanes = sizeof(Vec4) / sizeof(float);

// Quantized bytes q[0..4) widened to integer lanes: two interleaves with
// zero (punpcklbw + punpcklwd on SSE2).
Int4 LoadLevels(const uint8_t* q) {
  uint32_t bits;
  std::memcpy(&bits, q, sizeof(bits));
  const Raw16 b = reinterpret_cast<Raw16>(Word4{bits, 0, 0, 0});
  const Raw16 zero = {};
  const Half8 h = reinterpret_cast<Half8>(__builtin_shufflevector(
      b, zero, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23));
  const Half8 zh = {};
  return reinterpret_cast<Int4>(
      __builtin_shufflevector(h, zh, 0, 8, 1, 9, 2, 10, 3, 11));
}

// Integer lanes, each in 0..255, stored as four bytes: the low byte of each.
void StoreLevels(Int4 qi, uint8_t* q) {
  const Raw16 raw = reinterpret_cast<Raw16>(qi);
  const auto b = __builtin_shufflevector(raw, raw, 0, 4, 8, 12);
  std::memcpy(q, &b, sizeof(b));
}

/// One chunk of an int8 blob: its min, its scale and its quantized bytes.
struct Int8Chunk {
  float lo = 0.0f;
  float scale = 0.0f;
  const uint8_t* q = nullptr;

  float Deq(size_t i) const { return lo + scale * static_cast<float>(q[i]); }

  // Elements i..i+4, decoded.
  Vec4 DeqLanes(size_t i) const {
    return lo + scale * __builtin_convertvector(LoadLevels(q + i), Vec4);
  }
};

Int8Chunk ChunkAt(const float* words, size_t w) {
  return {words[w], words[w + 1],
          reinterpret_cast<const uint8_t*>(words + w + 2)};
}

// Encodes one chunk of `len` elements into `out` (min, scale, bytes), with
// send_i = x_i + res_i, or (Decode(in)_i + x_i) + res_i when kSum.
template <bool kSum>
void Int8EncodeChunk(const float* x, const Int8Chunk& in, float* res,
                     size_t len, float* publish, float* out) {
  const auto send = [&](size_t i) {
    float v = x[i];
    if constexpr (kSum) v = in.Deq(i) + v;
    return v + res[i];
  };

  // Sweep 1. Every lane starts at send_0, as a sequential min/max does, so
  // a NaN there is kept by every lane and NaNs elsewhere are skipped alike.
  // (Lanes merge in lane order, so were both -0 and +0 among the sends, a
  // zero min's sign would follow the lanes; a compressor's sends are never
  // -0, as its residuals start at +0 and only -0 - +0 gives -0.)
  const float first = send(0);
  Vec4 vlo = {first, first, first, first};
  Vec4 vhi = vlo;
  size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    Vec4 s, r;
    std::memcpy(&s, x + i, sizeof(s));
    if constexpr (kSum) s = in.DeqLanes(i) + s;
    std::memcpy(&r, res + i, sizeof(r));
    s = s + r;
    std::memcpy(res + i, &s, sizeof(s));
    vlo = s < vlo ? s : vlo;
    vhi = vhi < s ? s : vhi;
  }
  float lo = vlo[0];
  float hi = vhi[0];
  for (size_t j = 1; j < kLanes; ++j) {
    lo = std::min(lo, vlo[j]);
    hi = std::max(hi, vhi[j]);
  }
  for (; i < len; ++i) {
    res[i] = send(i);
    lo = std::min(lo, res[i]);
    hi = std::max(hi, res[i]);
  }

  // Sweep 2. v > 0 also maps a NaN to level 0.
  const float scale = (hi - lo) / 255.0f;
  out[0] = lo;
  out[1] = scale;
  uint8_t* q = reinterpret_cast<uint8_t*>(out + 2);
  const bool quantize = scale > 0.0f;
  const Int4 top = Int4{} + 255;
  for (i = 0; i + kLanes <= len; i += kLanes) {
    Vec4 s;
    std::memcpy(&s, res + i, sizeof(s));
    Int4 qi = {};
    if (quantize) {
      const Vec4 v = (s - lo) / scale + 0.5f;
      qi = __builtin_convertvector(v, Int4);
      qi = v > 0.0f ? qi : Int4{};
      qi = qi < top ? qi : top;
    }
    const Vec4 deq = lo + scale * __builtin_convertvector(qi, Vec4);
    const Vec4 r = s - deq;
    std::memcpy(res + i, &r, sizeof(r));
    if (publish != nullptr) std::memcpy(publish + i, &deq, sizeof(deq));
    StoreLevels(qi, q + i);
  }
  for (; i < len; ++i) {
    uint32_t qs = 0;
    if (quantize) {
      const float v = (res[i] - lo) / scale + 0.5f;
      qs = v > 0.0f ? std::min<uint32_t>(255u, static_cast<uint32_t>(v)) : 0u;
    }
    const float deq = lo + scale * static_cast<float>(qs);
    res[i] = res[i] - deq;
    if (publish != nullptr) publish[i] = deq;
    q[i] = static_cast<uint8_t>(qs);
  }
}

class Int8Codec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kInt8; }

  Status EncodeFeedback(const float* x, const Buffer* in, float* residual,
                        size_t n, float* publish,
                        Buffer* blob) const override {
    PR_CHECK(x != nullptr || n == 0);
    if (in != nullptr) PR_RETURN_NOT_OK(CheckCount(*this, *in, n));
    std::vector<float> words(EncodedBytes(n) / sizeof(float));
    StoreWord(words.data(), 0, static_cast<uint32_t>(n));
    for (size_t begin = 0, w = 1; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      float* pub = publish != nullptr ? publish + begin : nullptr;
      if (in != nullptr) {
        Int8EncodeChunk<true>(x + begin, ChunkAt(in->data(), w),
                              residual + begin, len, pub, words.data() + w);
      } else {
        Int8EncodeChunk<false>(x + begin, Int8Chunk{}, residual + begin, len,
                               pub, words.data() + w);
      }
      w += 2 + (len + 3) / 4;
    }
    *blob = Buffer::FromVector(std::move(words));
    return Status::OK();
  }

  Status DecodeInto(const Buffer& blob, float* out, size_t n,
                    bool accumulate) const override {
    PR_RETURN_NOT_OK(CheckCount(*this, blob, n));
    for (size_t begin = 0, w = 1; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      const Int8Chunk c = ChunkAt(blob.data(), w);
      float* o = out + begin;
      size_t i = 0;
      for (; i + kLanes <= len; i += kLanes) {
        Vec4 deq = c.DeqLanes(i);
        if (accumulate) {
          Vec4 prev;
          std::memcpy(&prev, o + i, sizeof(prev));
          deq = deq + prev;
        }
        std::memcpy(o + i, &deq, sizeof(deq));
      }
      for (; i < len; ++i) o[i] = accumulate ? c.Deq(i) + o[i] : c.Deq(i);
      w += 2 + (len + 3) / 4;
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    const size_t rest = n % kInt8ChunkElems;
    size_t words = 1 + (n / kInt8ChunkElems) * (2 + kInt8ChunkElems / 4);
    if (rest > 0) words += 2 + (rest + 3) / 4;
    return 4 * words;
  }
};

// ---------------------------------------------------------------------------
// top-k codec: word 0 = n, word 1 = k, then k uint32 index words (strictly
// ascending) and k float value words. Selection is deterministic: largest
// |value| first, ties broken toward the lower index. Selection needs the
// whole range, so the range is the chunk.
// ---------------------------------------------------------------------------

size_t TopKCount(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(1, n / kTopKDivisor);
}

class TopKCodec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kTopK; }

  Status EncodeFeedback(const float* x, const Buffer* in, float* residual,
                        size_t n, float* publish,
                        Buffer* blob) const override {
    PR_CHECK(x != nullptr || n == 0);
    if (in != nullptr) PR_RETURN_NOT_OK(CheckBlob(*in, n));
    // send_i into the residual's slot; a position `in` skips decodes to 0.
    if (in == nullptr) {
      for (size_t i = 0; i < n; ++i) residual[i] = x[i] + residual[i];
    } else {
      Walk(
          *in, n,
          [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
              residual[i] = (0.0f + x[i]) + residual[i];
            }
          },
          [&](size_t i, float d) { residual[i] = (d + x[i]) + residual[i]; });
    }
    const float* send = residual;

    const size_t k = TopKCount(n);
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    auto by_magnitude = [send](uint32_t a, uint32_t b) {
      const float ma = std::abs(send[a]);
      const float mb = std::abs(send[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    if (k < n) {
      std::nth_element(order.begin(), order.begin() + static_cast<long>(k),
                       order.end(), by_magnitude);
    }
    order.resize(k);
    std::sort(order.begin(), order.end());  // ascending index for locality

    // The positions left out decode to 0, so their residual stays send_i.
    std::vector<float> words(2 + 2 * k);
    StoreWord(words.data(), 0, static_cast<uint32_t>(n));
    StoreWord(words.data(), 1, static_cast<uint32_t>(k));
    if (publish != nullptr) std::fill(publish, publish + n, 0.0f);
    for (size_t j = 0; j < k; ++j) {
      const uint32_t idx = order[j];
      StoreWord(words.data(), 2 + j, idx);
      words[2 + k + j] = send[idx];
      if (publish != nullptr) publish[idx] = send[idx];
      residual[idx] = send[idx] - send[idx];
    }
    *blob = Buffer::FromVector(std::move(words));
    return Status::OK();
  }

  Status DecodeInto(const Buffer& blob, float* out, size_t n,
                    bool accumulate) const override {
    PR_RETURN_NOT_OK(CheckBlob(blob, n));
    if (!accumulate) {
      std::fill(out, out + n, 0.0f);
      Walk(blob, n, [](size_t, size_t) {}, [&](size_t i, float d) {
        out[i] = d;
      });
      return Status::OK();
    }
    Walk(
        blob, n,
        [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) out[i] = 0.0f + out[i];
        },
        [&](size_t i, float d) { out[i] = d + out[i]; });
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    return 4 * (2 + 2 * TopKCount(n));
  }

 private:
  // Calls gap(b, e) for each run [b, e) of positions a checked blob leaves
  // out and hit(i, value) for each position it keeps, in ascending order.
  template <typename Gap, typename Hit>
  static void Walk(const Buffer& blob, size_t n, Gap&& gap, Hit&& hit) {
    const size_t k = TopKCount(n);
    size_t next = 0;
    for (size_t j = 0; j < k; ++j) {
      const size_t idx = LoadWord(blob.data(), 2 + j);
      gap(next, idx);
      hit(idx, blob[2 + k + j]);
      next = idx + 1;
    }
    gap(next, n);
  }

  // CheckCount, plus k = TopKCount(n) and strictly ascending indices < n.
  Status CheckBlob(const Buffer& blob, size_t n) const {
    PR_RETURN_NOT_OK(CheckCount(*this, blob, n));
    const size_t k = TopKCount(n);
    if (LoadWord(blob.data(), 1) != k) {
      return Status::InvalidArgument("topk blob: size/count mismatch");
    }
    for (size_t j = 0; j < k; ++j) {
      const uint32_t idx = LoadWord(blob.data(), 2 + j);
      if (idx >= n || (j > 0 && idx <= LoadWord(blob.data(), 1 + j))) {
        return Status::InvalidArgument("topk blob: index out of order");
      }
    }
    return Status::OK();
  }
};

const Codec* CodecFor(CompressionKind kind) {
  static const Fp16Codec fp16;
  static const Int8Codec int8;
  static const TopKCodec topk;
  switch (kind) {
    case CompressionKind::kFp16:
      return &fp16;
    case CompressionKind::kInt8:
      return &int8;
    case CompressionKind::kTopK:
      return &topk;
    case CompressionKind::kNone:
      break;
  }
  return nullptr;
}

}  // namespace

Status Codec::Decode(const Buffer& blob, std::vector<float>* out) const {
  PR_CHECK(out != nullptr);
  if (blob.empty()) return Status::InvalidArgument("codec blob: empty");
  const size_t n = LoadWord(blob.data(), 0);
  PR_RETURN_NOT_OK(CheckCount(*this, blob, n));
  out->resize(n);
  return DecodeInto(blob, out->data(), n, /*accumulate=*/false);
}

std::unique_ptr<Codec> MakeCodec(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kFp16:
      return std::make_unique<Fp16Codec>();
    case CompressionKind::kInt8:
      return std::make_unique<Int8Codec>();
    case CompressionKind::kTopK:
      return std::make_unique<TopKCodec>();
    case CompressionKind::kNone:
      break;
  }
  PR_CHECK(false) << "MakeCodec: kNone has no codec";
  return nullptr;
}

size_t EncodedBlobBytes(CompressionKind kind, size_t n) {
  if (kind == CompressionKind::kNone) return n * sizeof(float);
  return CodecFor(kind)->EncodedBytes(n);
}

Status DecodeTaggedPayload(uint8_t tag, const Buffer& payload,
                           std::vector<float>* out) {
  PR_CHECK(out != nullptr);
  if (!IsValidEncodingTag(tag)) {
    return Status::InvalidArgument("unknown payload encoding tag");
  }
  const CompressionKind kind = static_cast<CompressionKind>(tag);
  if (kind == CompressionKind::kNone) {
    *out = payload.ToVector();
    return Status::OK();
  }
  return CodecFor(kind)->Decode(payload, out);
}

}  // namespace pr
