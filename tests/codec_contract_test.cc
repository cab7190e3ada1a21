// Bitwise contract of the codecs and of the compressed ring. The reference
// below is the codec layer written the straightforward way: a scalar encode
// per codec, and an error-feedback step in four passes (add the residual,
// encode, decode the blob, subtract). The compressor and the ring must
// produce the same blob, residual and published bytes, so any reordered
// operation, fused multiply-add, skipped term or changed rounding shows up
// as a failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "compress/compressor.h"
#include "tensor/ops.h"

namespace pr {
namespace {

// ---------------------------------------------------------------------------
// Reference codecs.
// ---------------------------------------------------------------------------

namespace ref {

void PutWord(std::vector<float>* words, uint32_t w) {
  float f;
  std::memcpy(&f, &w, sizeof(f));
  words->push_back(f);
}

uint32_t GetWord(const Buffer& blob, size_t i) {
  uint32_t w;
  std::memcpy(&w, blob.data() + i, sizeof(w));
  return w;
}

uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const uint32_t exp = (x >> 23) & 0xffu;
  uint32_t mant = x & 0x7fffffu;
  if (exp == 0xffu) return sign | 0x7c00u | (mant != 0 ? 0x200u : 0u);
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return sign | 0x7c00u;
  if (e <= 0) {
    if (e < -10) return sign;
    mant |= 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - e);
    uint16_t h = static_cast<uint16_t>(mant >> shift);
    if ((mant >> (shift - 1)) & 1u) ++h;
    return sign | h;
  }
  uint16_t h = static_cast<uint16_t>((e << 10) | (mant >> 13));
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
    } else {
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

Buffer EncodeFp16(const float* x, size_t n) {
  std::vector<float> words;
  PutWord(&words, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; i += 2) {
    uint32_t packed = FloatToHalf(x[i]);
    if (i + 1 < n) packed |= static_cast<uint32_t>(FloatToHalf(x[i + 1])) << 16;
    PutWord(&words, packed);
  }
  return Buffer::FromVector(std::move(words));
}

std::vector<float> DecodeFp16(const Buffer& blob) {
  const size_t n = GetWord(blob, 0);
  std::vector<float> out(n);
  for (size_t i = 0; i < n; i += 2) {
    const uint32_t packed = GetWord(blob, 1 + i / 2);
    out[i] = HalfToFloat(static_cast<uint16_t>(packed & 0xffffu));
    if (i + 1 < n) out[i + 1] = HalfToFloat(static_cast<uint16_t>(packed >> 16));
  }
  return out;
}

Buffer EncodeInt8(const float* x, size_t n) {
  std::vector<float> words;
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
    words.push_back(lo);
    words.push_back(scale);
    for (size_t i = 0; i < len; i += 4) {
      uint32_t packed = 0;
      for (size_t j = 0; j < 4 && i + j < len; ++j) {
        uint32_t q = 0;
        if (scale > 0.0f) {
          const float v = (chunk[i + j] - lo) / scale + 0.5f;
          q = v <= 0.0f ? 0u
                        : std::min<uint32_t>(255u, static_cast<uint32_t>(v));
        }
        packed |= q << (8 * j);
      }
      PutWord(&words, packed);
    }
  }
  return Buffer::FromVector(std::move(words));
}

std::vector<float> DecodeInt8(const Buffer& blob) {
  const size_t n = GetWord(blob, 0);
  std::vector<float> out(n);
  size_t w = 1;
  for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
    const size_t len = std::min(kInt8ChunkElems, n - begin);
    const float lo = blob[w++];
    const float scale = blob[w++];
    for (size_t i = 0; i < len; i += 4) {
      const uint32_t packed = GetWord(blob, w++);
      for (size_t j = 0; j < 4 && i + j < len; ++j) {
        const uint32_t q = (packed >> (8 * j)) & 0xffu;
        out[begin + i + j] = lo + scale * static_cast<float>(q);
      }
    }
  }
  return out;
}

size_t TopKCount(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(1, n / kTopKDivisor);
}

Buffer EncodeTopK(const float* x, size_t n) {
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
  std::sort(order.begin(), order.end());
  std::vector<float> words;
  PutWord(&words, static_cast<uint32_t>(n));
  PutWord(&words, static_cast<uint32_t>(k));
  for (uint32_t idx : order) PutWord(&words, idx);
  for (uint32_t idx : order) words.push_back(x[idx]);
  return Buffer::FromVector(std::move(words));
}

std::vector<float> DecodeTopK(const Buffer& blob) {
  const size_t n = GetWord(blob, 0);
  const size_t k = GetWord(blob, 1);
  std::vector<float> out(n, 0.0f);
  for (size_t i = 0; i < k; ++i) out[GetWord(blob, 2 + i)] = blob[2 + k + i];
  return out;
}

Buffer Encode(CompressionKind kind, const float* x, size_t n) {
  switch (kind) {
    case CompressionKind::kFp16:
      return EncodeFp16(x, n);
    case CompressionKind::kInt8:
      return EncodeInt8(x, n);
    default:
      return EncodeTopK(x, n);
  }
}

std::vector<float> Decode(CompressionKind kind, const Buffer& blob) {
  switch (kind) {
    case CompressionKind::kFp16:
      return DecodeFp16(blob);
    case CompressionKind::kInt8:
      return DecodeInt8(blob);
    default:
      return DecodeTopK(blob);
  }
}

/// The error-feedback step in four passes over the range.
class Compressor {
 public:
  explicit Compressor(CompressionKind kind) : kind_(kind) {}

  Buffer EncodeRange(const float* range, size_t offset, size_t len,
                     float* publish) {
    if (residual_.size() < offset + len) residual_.resize(offset + len, 0.0f);
    std::vector<float> send(len);
    float* res = residual_.data() + offset;
    for (size_t i = 0; i < len; ++i) send[i] = range[i] + res[i];
    Buffer blob = Encode(kind_, send.data(), len);
    const std::vector<float> decoded = Decode(kind_, blob);
    for (size_t i = 0; i < len; ++i) res[i] = send[i] - decoded[i];
    if (publish != nullptr) std::copy(decoded.begin(), decoded.end(), publish);
    return blob;
  }

  const std::vector<float>& residual() const { return residual_; }

 private:
  CompressionKind kind_;
  std::vector<float> residual_;
};

}  // namespace ref

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

constexpr CompressionKind kCodecs[] = {
    CompressionKind::kFp16, CompressionKind::kInt8, CompressionKind::kTopK};

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// Position of the first differing float, or -1.
long FirstDiff(const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!SameBits(a[i], b[i])) return static_cast<long>(i);
  }
  return -1;
}

void ExpectSameBlob(const Buffer& want, const Buffer& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  const long i = FirstDiff(want.data(), got.data(), want.size());
  EXPECT_EQ(i, -1) << what << ": word " << i << " differs";
}

void ExpectSameFloats(const std::vector<float>& want, const float* got,
                      const char* what) {
  const long i = FirstDiff(want.data(), got, want.size());
  EXPECT_EQ(i, -1) << what << ": element " << i << " is "
                   << (i < 0 ? 0.0f : got[i]) << ", reference "
                   << (i < 0 ? 0.0f : want[static_cast<size_t>(i)]);
}

// `residual` zero-extended to n: a position never encoded has residual 0.
std::vector<float> ResidualOf(const std::vector<float>& residual, size_t n) {
  std::vector<float> out(n, 0.0f);
  std::copy(residual.begin(), residual.begin() + std::min(n, residual.size()),
            out.begin());
  return out;
}

/// The data shapes the contract runs over.
enum class Shape { kNormal, kConstantChunks, kHugeMagnitudes, kSubnormals };

std::vector<float> MakeData(Shape shape, size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    const float z = static_cast<float>(rng->Normal());
    switch (shape) {
      case Shape::kNormal:
        v[i] = z;
        break;
      case Shape::kConstantChunks: {
        // One value per int8 chunk, so every chunk has scale 0 on its
        // first encode.
        const float values[] = {0.0f, 1.5f, -2.25f};
        v[i] = values[(i / kInt8ChunkElems) % 3];
        break;
      }
      case Shape::kHugeMagnitudes:
        v[i] = rng->Uniform() < 0.5 ? z : (z < 0.0f ? -1e30f : 1e30f);
        break;
      case Shape::kSubnormals:
        v[i] = z * 1e-40f;
        break;
    }
  }
  return v;
}

constexpr Shape kShapes[] = {Shape::kNormal, Shape::kConstantChunks,
                             Shape::kHugeMagnitudes, Shape::kSubnormals};

constexpr size_t kLengths[] = {0,    1,    3,    4,     5,    1023,
                               1024, 1025, 9733, 32768, 42501};

// ---------------------------------------------------------------------------
// CodecContractTest: one compressor step against the four-pass reference.
// ---------------------------------------------------------------------------

// Runs `rounds` error-feedback rounds through `comp` and the reference on
// the same data, alternating EncodeRange and EncodeRangePublish, and checks
// blob, residual and published values bitwise after each.
void ExpectStepsMatchReference(CompressionKind kind, Shape shape, size_t n,
                               size_t offset) {
  SCOPED_TRACE(::testing::Message()
               << CompressionKindName(kind) << " shape="
               << static_cast<int>(shape) << " n=" << n
               << " offset=" << offset);
  Compressor comp(kind);
  ref::Compressor want(kind);
  Rng rng(1000 + 10 * n + static_cast<uint64_t>(shape));
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::vector<float> x = MakeData(shape, n, &rng);
    std::vector<float> want_pub = x;
    std::vector<float> got_pub = x;
    const bool publish = round % 2 == 1;
    const Buffer want_blob = want.EncodeRange(
        x.data(), offset, n, publish ? want_pub.data() : nullptr);
    const Buffer got_blob =
        publish ? comp.EncodeRangePublish(got_pub.data(), offset, n)
                : comp.EncodeRange(x.data(), offset, n);
    ExpectSameBlob(want_blob, got_blob, "blob");
    ExpectSameFloats(ResidualOf(want.residual(), offset + n),
                     ResidualOf(comp.residual(), offset + n).data(),
                     "residual");
    ExpectSameFloats(want_pub, got_pub.data(), "publish");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CodecContractTest, StepsMatchFourPassReferenceBitwise) {
  for (CompressionKind kind : kCodecs) {
    for (Shape shape : kShapes) {
      for (size_t n : kLengths) {
        ExpectStepsMatchReference(kind, shape, n, /*offset=*/0);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(CodecContractTest, StepsAtAnOffsetMatchReferenceBitwise) {
  for (CompressionKind kind : kCodecs) {
    for (size_t n : {size_t{5}, size_t{1025}, size_t{9733}}) {
      ExpectStepsMatchReference(kind, Shape::kNormal, n, /*offset=*/37);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// What the receiving side of the ring relies on: decoding a blob yields
// exactly the values its encoder subtracted from its residual and published.
TEST(CodecContractTest, DecodeReturnsThePublishedValuesBitwise) {
  for (CompressionKind kind : kCodecs) {
    for (Shape shape : kShapes) {
      for (size_t n : kLengths) {
        SCOPED_TRACE(::testing::Message()
                     << CompressionKindName(kind)
                     << " shape=" << static_cast<int>(shape) << " n=" << n);
        Compressor comp(kind);
        Rng rng(77 + n);
        for (int round = 0; round < 3; ++round) {
          std::vector<float> published = MakeData(shape, n, &rng);
          const Buffer blob = comp.EncodeRangePublish(published.data(), 0, n);
          std::vector<float> decoded;
          ASSERT_TRUE(comp.Decode(blob, &decoded).ok());
          ASSERT_EQ(decoded.size(), n);
          ExpectSameFloats(published, decoded.data(), "Decode");
          std::vector<float> into(n, -1.0f);
          ASSERT_TRUE(comp.DecodeInto(blob, into.data(), n).ok());
          ExpectSameFloats(published, into.data(), "DecodeInto");
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FusedHopRingTest: the reduce-scatter hops, alone and inside the compressed
// segmented ring, against a reference that runs each as decode -> Axpy ->
// encode.
// ---------------------------------------------------------------------------

// A hop that re-encodes (EncodeRangeSum) and a last hop (DecodeAddInto),
// each fed a blob another member's compressor encoded, over the contract's
// shapes and lengths.
TEST(FusedHopRingTest, HopStepsMatchDecodeAxpyEncodeBitwise) {
  for (CompressionKind kind : kCodecs) {
    for (Shape shape : kShapes) {
      for (size_t n : kLengths) {
        const size_t offset = n % 2 == 0 ? 0 : 37;
        SCOPED_TRACE(::testing::Message()
                     << CompressionKindName(kind) << " shape="
                     << static_cast<int>(shape) << " n=" << n);
        ref::Compressor left(kind);
        Compressor comp(kind);
        ref::Compressor want(kind);
        Rng rng(3000 + 10 * n + static_cast<uint64_t>(shape));
        for (int round = 0; round < 3; ++round) {
          SCOPED_TRACE(::testing::Message() << "round " << round);
          const std::vector<float> sent = MakeData(shape, n, &rng);
          const std::vector<float> mine = MakeData(shape, n, &rng);
          const Buffer in = left.EncodeRange(sent.data(), offset, n, nullptr);

          std::vector<float> sum = ref::Decode(kind, in);
          Axpy(1.0f, mine.data(), sum.data(), n);
          const Buffer want_blob =
              want.EncodeRange(sum.data(), offset, n, nullptr);
          Buffer got_blob;
          ASSERT_TRUE(
              comp.EncodeRangeSum(mine.data(), in, offset, n, &got_blob).ok());
          ExpectSameBlob(want_blob, got_blob, "EncodeRangeSum blob");
          ExpectSameFloats(ResidualOf(want.residual(), offset + n),
                           ResidualOf(comp.residual(), offset + n).data(),
                           "EncodeRangeSum residual");

          std::vector<float> acc = mine;
          ASSERT_TRUE(comp.DecodeAddInto(in, acc.data(), n).ok());
          ExpectSameFloats(sum, acc.data(), "DecodeAddInto");
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

std::pair<size_t, size_t> ChunkBounds(size_t n, size_t p, size_t chunk) {
  const size_t base = n / p;
  const size_t rem = n % p;
  const size_t begin = chunk * base + std::min(chunk, rem);
  return {begin, begin + base + (chunk < rem ? 1 : 0)};
}

// The segments [b, e) of `chunk`; an empty chunk circulates one empty one.
std::vector<std::pair<size_t, size_t>> Segments(size_t n, size_t p,
                                                size_t chunk, size_t seg) {
  const auto [cb, ce] = ChunkBounds(n, p, chunk);
  std::vector<std::pair<size_t, size_t>> out;
  if (cb == ce) return {{cb, cb}};
  for (size_t b = cb; b < ce; b += seg) out.push_back({b, std::min(b + seg, ce)});
  return out;
}

// One weighted all-reduce over `data` (one vector per member), in the order
// the ring performs it, with `comps` as the members' compressors.
void ReferenceReduce(CompressionKind kind, const std::vector<double>& weights,
                     size_t seg, std::vector<ref::Compressor>* comps,
                     std::vector<std::vector<float>>* data) {
  const size_t p = data->size();
  const size_t n = (*data)[0].size();
  for (size_t m = 0; m < p; ++m) {
    Scale(static_cast<float>(weights[m]), (*data)[m].data(), n);
  }
  if (p == 1) return;
  for (size_t c = 0; c < p; ++c) {
    for (const auto& [b, e] : Segments(n, p, c, seg)) {
      const size_t len = e - b;
      Buffer blob = (*comps)[c].EncodeRange((*data)[c].data() + b, b, len,
                                            nullptr);
      for (size_t t = 1; t < p; ++t) {
        const size_t m = (c + t) % p;
        std::vector<float> sum = ref::Decode(kind, blob);
        Axpy(1.0f, (*data)[m].data() + b, sum.data(), len);
        if (t + 1 == p) {
          std::copy(sum.begin(), sum.end(), (*data)[m].begin() + b);
        } else {
          blob = (*comps)[m].EncodeRange(sum.data(), b, len, nullptr);
        }
      }
      const size_t owner = (c + p - 1) % p;
      float* owned = (*data)[owner].data() + b;
      blob = (*comps)[owner].EncodeRange(owned, b, len, owned);
      const std::vector<float> published = ref::Decode(kind, blob);
      for (size_t t = 1; t < p; ++t) {
        const size_t m = (owner + t) % p;
        std::copy(published.begin(), published.end(), (*data)[m].begin() + b);
      }
    }
  }
}

TEST(FusedHopRingTest, MembersAndResidualsMatchDecodeAxpyEncodeBitwise) {
  constexpr size_t kSegment = 1500;  // not a multiple of kInt8ChunkElems
  for (CompressionKind kind : kCodecs) {
    for (Shape shape : kShapes) {
      for (size_t p : {size_t{2}, size_t{3}, size_t{5}}) {
        for (size_t n : {size_t{4}, size_t{9733}}) {
          SCOPED_TRACE(::testing::Message()
                       << CompressionKindName(kind) << " shape="
                       << static_cast<int>(shape) << " p=" << p << " n=" << n);
          std::vector<NodeId> members;
          std::vector<double> weights;
          for (size_t i = 0; i < p; ++i) {
            members.push_back(static_cast<NodeId>(i));
            weights.push_back(static_cast<double>(i + 1) /
                              static_cast<double>(p * (p + 1) / 2));
          }
          std::vector<std::unique_ptr<Compressor>> comps;
          std::vector<ref::Compressor> want_comps;
          for (size_t i = 0; i < p; ++i) {
            comps.push_back(std::make_unique<Compressor>(kind));
            want_comps.emplace_back(kind);
          }
          Rng rng(31 * p + n);
          for (int round = 0; round < 3; ++round) {
            SCOPED_TRACE(::testing::Message() << "round " << round);
            std::vector<std::vector<float>> got(p);
            for (auto& v : got) v = MakeData(shape, n, &rng);
            std::vector<std::vector<float>> want = got;
            ReferenceReduce(kind, weights, kSegment, &want_comps, &want);

            InProcTransport transport(static_cast<int>(p));
            std::vector<std::thread> threads;
            std::vector<Status> status(p);
            for (size_t i = 0; i < p; ++i) {
              threads.emplace_back([&, i] {
                Endpoint ep(&transport, members[i]);
                status[i] = GroupWeightedAllReduce(
                    &ep, members, weights, i, /*tag=*/round + 1, got[i].data(),
                    n, comps[i].get(), {}, kSegment);
              });
            }
            for (auto& t : threads) t.join();
            for (size_t i = 0; i < p; ++i) {
              ASSERT_TRUE(status[i].ok()) << status[i].ToString();
              SCOPED_TRACE(::testing::Message() << "member " << i);
              ExpectSameFloats(want[i], got[i].data(), "output");
              ExpectSameFloats(ResidualOf(want_comps[i].residual(), n),
                               ResidualOf(comps[i]->residual(), n).data(),
                               "residual");
            }
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pr
