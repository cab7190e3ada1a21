#include "compress/codec.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"

namespace pr {
namespace {

// ---------------------------------------------------------------------------
// Word-level blob access. Blobs are float-backed Buffers treated as raw
// 4-byte words; all access goes through memcpy so no float operation ever
// touches (and possibly quietens) the packed integer bits.
// ---------------------------------------------------------------------------

void PutWord(std::vector<float>* words, uint32_t w) {
  float f;
  std::memcpy(&f, &w, sizeof(f));
  words->push_back(f);
}

void PutFloatWord(std::vector<float>* words, float v) { words->push_back(v); }

uint32_t GetWord(const Buffer& blob, size_t i) {
  uint32_t w;
  std::memcpy(&w, blob.data() + i, sizeof(w));
  return w;
}

float GetFloatWord(const Buffer& blob, size_t i) { return blob[i]; }

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

  Buffer Encode(const float* x, size_t n) const override {
    PR_CHECK(x != nullptr || n == 0);
    std::vector<float> words;
    words.reserve(1 + (n + 1) / 2);
    PutWord(&words, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; i += 2) {
      uint32_t packed = FloatToHalf(x[i]);
      if (i + 1 < n) {
        packed |= static_cast<uint32_t>(FloatToHalf(x[i + 1])) << 16;
      }
      PutWord(&words, packed);
    }
    return Buffer::FromVector(std::move(words));
  }

  Status Decode(const Buffer& blob, std::vector<float>* out) const override {
    PR_CHECK(out != nullptr);
    if (blob.empty()) return Status::InvalidArgument("fp16 blob: empty");
    const size_t n = GetWord(blob, 0);
    if (blob.size() != 1 + (n + 1) / 2) {
      return Status::InvalidArgument("fp16 blob: size/count mismatch");
    }
    out->resize(n);
    for (size_t i = 0; i < n; i += 2) {
      const uint32_t packed = GetWord(blob, 1 + i / 2);
      (*out)[i] = HalfToFloat(static_cast<uint16_t>(packed & 0xffffu));
      if (i + 1 < n) {
        (*out)[i + 1] = HalfToFloat(static_cast<uint16_t>(packed >> 16));
      }
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
// bytes. q = round_half_up((x - min) / scale) clamped to [0, 255].
// ---------------------------------------------------------------------------

class Int8Codec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kInt8; }

  Buffer Encode(const float* x, size_t n) const override {
    PR_CHECK(x != nullptr || n == 0);
    std::vector<float> words;
    words.reserve(EncodedBytes(n) / 4);
    PutWord(&words, static_cast<uint32_t>(n));
    for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      const float* chunk = x + begin;
      float lo = chunk[0], hi = chunk[0];
      for (size_t i = 1; i < len; ++i) {
        lo = std::min(lo, chunk[i]);
        hi = std::max(hi, chunk[i]);
      }
      const float scale = (hi - lo) / 255.0f;
      PutFloatWord(&words, lo);
      PutFloatWord(&words, scale);
      for (size_t i = 0; i < len; i += 4) {
        uint32_t packed = 0;
        for (size_t j = 0; j < 4 && i + j < len; ++j) {
          uint32_t q = 0;
          if (scale > 0.0f) {
            const float v = (chunk[i + j] - lo) / scale + 0.5f;
            q = v <= 0.0f ? 0u
                          : std::min<uint32_t>(255u,
                                               static_cast<uint32_t>(v));
          }
          packed |= q << (8 * j);
        }
        PutWord(&words, packed);
      }
    }
    return Buffer::FromVector(std::move(words));
  }

  Status Decode(const Buffer& blob, std::vector<float>* out) const override {
    PR_CHECK(out != nullptr);
    if (blob.empty()) return Status::InvalidArgument("int8 blob: empty");
    const size_t n = GetWord(blob, 0);
    if (blob.size() * 4 != EncodedBytes(n)) {
      return Status::InvalidArgument("int8 blob: size/count mismatch");
    }
    out->resize(n);
    size_t w = 1;
    for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      const float lo = GetFloatWord(blob, w++);
      const float scale = GetFloatWord(blob, w++);
      for (size_t i = 0; i < len; i += 4) {
        const uint32_t packed = GetWord(blob, w++);
        for (size_t j = 0; j < 4 && i + j < len; ++j) {
          const uint32_t q = (packed >> (8 * j)) & 0xffu;
          (*out)[begin + i + j] = lo + scale * static_cast<float>(q);
        }
      }
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    size_t words = 1;
    for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      words += 2 + (len + 3) / 4;
    }
    return 4 * words;
  }
};

// ---------------------------------------------------------------------------
// top-k codec: word 0 = n, word 1 = k, then k uint32 index words (strictly
// ascending) and k float value words. Selection is deterministic: largest
// |value| first, ties broken toward the lower index.
// ---------------------------------------------------------------------------

size_t TopKCount(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(1, n / kTopKDivisor);
}

class TopKCodec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kTopK; }

  Buffer Encode(const float* x, size_t n) const override {
    PR_CHECK(x != nullptr || n == 0);
    const size_t k = TopKCount(n);
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    auto by_magnitude = [x](uint32_t a, uint32_t b) {
      const float ma = std::abs(x[a]);
      const float mb = std::abs(x[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    if (k < n) {
      std::nth_element(order.begin(), order.begin() + static_cast<long>(k),
                       order.end(), by_magnitude);
    }
    order.resize(k);
    std::sort(order.begin(), order.end());  // ascending index for locality

    std::vector<float> words;
    words.reserve(2 + 2 * k);
    PutWord(&words, static_cast<uint32_t>(n));
    PutWord(&words, static_cast<uint32_t>(k));
    for (uint32_t idx : order) PutWord(&words, idx);
    for (uint32_t idx : order) PutFloatWord(&words, x[idx]);
    return Buffer::FromVector(std::move(words));
  }

  Status Decode(const Buffer& blob, std::vector<float>* out) const override {
    PR_CHECK(out != nullptr);
    if (blob.size() < 2) return Status::InvalidArgument("topk blob: empty");
    const size_t n = GetWord(blob, 0);
    const size_t k = GetWord(blob, 1);
    if (k > n || k != TopKCount(n) || blob.size() != 2 + 2 * k) {
      return Status::InvalidArgument("topk blob: size/count mismatch");
    }
    out->assign(n, 0.0f);
    for (size_t i = 0; i < k; ++i) {
      const uint32_t idx = GetWord(blob, 2 + i);
      if (idx >= n) return Status::InvalidArgument("topk blob: index oob");
      (*out)[idx] = GetFloatWord(blob, 2 + k + i);
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    return 4 * (2 + 2 * TopKCount(n));
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
