#include "comm/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "comm/transport.h"
#include "compress/codec.h"

namespace pr {
namespace {

Envelope MakeEnvelope(NodeId from, uint64_t tag, int kind,
                      std::vector<int64_t> ints, std::vector<float> payload) {
  Envelope env;
  env.from = from;
  env.tag = tag;
  env.kind = kind;
  env.ints = std::move(ints);
  env.payload = Buffer::FromVector(std::move(payload));
  return env;
}

// Bit-level payload comparison: float equality would lie about NaNs and
// signed zeros, and the wire format promises bit identity.
void ExpectBitIdentical(const Envelope& a, const Envelope& b) {
  ASSERT_EQ(a.payload.size(), b.payload.size());
  if (a.payload.size() > 0) {
    EXPECT_EQ(std::memcmp(a.payload.data(), b.payload.data(),
                          a.payload.size() * sizeof(float)),
              0);
  }
}

// Reads one frame with `reader`. The pipes below are blocking, so each
// Read returns a whole frame or the stream's end.
Status ReadOne(FrameReader* reader, int fd, NodeId* to, Envelope* env) {
  bool complete = false;
  Status status;
  while (status.ok() && !complete) {
    status = reader->Read(fd, to, env, &complete);
  }
  return status;
}

TEST(WireTest, RoundTripBitIdentity) {
  std::vector<float> payload = {1.5f,
                                -0.0f,
                                std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::denorm_min(),
                                3.1415926f};
  Envelope env = MakeEnvelope(/*from=*/3, /*tag=*/0xdeadbeefcafeull,
                              /*kind=*/7, {42, -1, 1ll << 60}, payload);
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/9, env);

  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed),
            WireDecode::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(to, 9);
  EXPECT_EQ(decoded.from, 3);
  EXPECT_EQ(decoded.tag, 0xdeadbeefcafeull);
  EXPECT_EQ(decoded.kind, 7);
  EXPECT_EQ(decoded.ints, (std::vector<int64_t>{42, -1, 1ll << 60}));
  ExpectBitIdentical(env, decoded);
}

TEST(WireTest, ZeroLengthPayloadAndNoInts) {
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/0, /*kind=*/0, {}, {});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);
  EXPECT_EQ(frame.size(), kWirePreambleBytes + kWireHeaderFixedBytes);

  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed),
            WireDecode::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(to, 1);
  EXPECT_TRUE(decoded.ints.empty());
  EXPECT_EQ(decoded.payload.size(), 0u);
}

TEST(WireTest, LargeFrameRoundTrips) {
  // Max ints plus a payload big enough to exercise multi-element iovec
  // writes; the 1 GiB payload cap itself is checked without allocating it.
  std::vector<int64_t> ints(kWireMaxInts);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<int64_t>(i);
  std::vector<float> payload(1 << 16);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<float>(i) * 0.25f;
  }
  Envelope env = MakeEnvelope(/*from=*/1, /*tag=*/1, /*kind=*/2, ints,
                              payload);
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/0, env);

  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed),
            WireDecode::kOk);
  EXPECT_EQ(decoded.ints.size(), static_cast<size_t>(kWireMaxInts));
  EXPECT_EQ(decoded.ints.back(), static_cast<int64_t>(kWireMaxInts) - 1);
  ExpectBitIdentical(env, decoded);
}

TEST(WireTest, EveryTruncationAsksForMore) {
  Envelope env = MakeEnvelope(/*from=*/2, /*tag=*/5, /*kind=*/1, {9, 9},
                              {1.0f, 2.0f, 3.0f});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/4, env);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    NodeId to = -1;
    Envelope decoded;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(frame.data(), cut, &to, &decoded, &consumed),
              WireDecode::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(WireTest, BadMagicIsCorruptEvenWhenShort) {
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/0, /*kind=*/0, {}, {});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);
  frame[0] ^= 0xff;
  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  // A wrong first byte is detectable without the rest of the preamble: the
  // reader must not wait for more bytes that will never resynchronize it.
  EXPECT_EQ(DecodeFrame(frame.data(), 4, &to, &decoded, &consumed, &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "bad magic");
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed,
                        &error),
            WireDecode::kCorrupt);
}

TEST(WireTest, BadVersionIsCorrupt) {
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/0, /*kind=*/0, {}, {});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);
  frame[4] = kWireVersion + 1;
  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed,
                        &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "bad version");
}

TEST(WireTest, OversizeLengthsAreCorruptNotAllocated) {
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/0, /*kind=*/0, {}, {});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);

  // payload_floats (preamble bytes 12..15) claiming more than the cap must
  // be rejected from the preamble alone — before any allocation.
  std::vector<uint8_t> oversize = frame;
  const uint32_t huge = kWireMaxPayloadFloats + 1;
  std::memcpy(oversize.data() + 12, &huge, sizeof(huge));
  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(oversize.data(), oversize.size(), &to, &decoded,
                        &consumed, &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "payload oversize");

  // header_bytes inconsistent with num_ints is equally fatal.
  std::vector<uint8_t> skewed = EncodeFrame(1, MakeEnvelope(0, 0, 0, {7}, {}));
  uint32_t num_ints = 9;  // header says one int, field claims nine
  std::memcpy(skewed.data() + kWirePreambleBytes + 20, &num_ints,
              sizeof(num_ints));
  EXPECT_EQ(DecodeFrame(skewed.data(), skewed.size(), &to, &decoded,
                        &consumed, &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "num_ints inconsistent with header_bytes");

  // Misaligned header_bytes (not 24 + 8k).
  std::vector<uint8_t> misaligned = frame;
  const uint32_t odd_header = kWireHeaderFixedBytes + 3;
  std::memcpy(misaligned.data() + 8, &odd_header, sizeof(odd_header));
  EXPECT_EQ(DecodeFrame(misaligned.data(), misaligned.size(), &to, &decoded,
                        &consumed, &error),
            WireDecode::kCorrupt);
}

TEST(WireTest, EncodingTagRoundTripsThroughFrame) {
  Envelope env = MakeEnvelope(/*from=*/2, /*tag=*/9, /*kind=*/108, {0, 1, 2},
                              {1.0f, 2.0f, 3.0f});
  env.encoding = static_cast<uint8_t>(CompressionKind::kInt8);
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/5, env);
  // The preamble carries the tag in the flags byte of a v2 frame.
  EXPECT_EQ(frame[4], kWireVersion);
  EXPECT_EQ(frame[5], static_cast<uint8_t>(CompressionKind::kInt8));

  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed),
            WireDecode::kOk);
  EXPECT_EQ(decoded.encoding, static_cast<uint8_t>(CompressionKind::kInt8));
  ExpectBitIdentical(env, decoded);

  // Truncations of a tagged frame still ask for more, never misdecode.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_EQ(DecodeFrame(frame.data(), cut, &to, &decoded, &consumed),
              WireDecode::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(WireTest, V1FrameStillDecodesAsRawFp32) {
  // Backward compatibility: a v1 writer knows nothing of encoding tags; its
  // zero flags byte must decode as an untagged raw-fp32 payload.
  Envelope env = MakeEnvelope(/*from=*/1, /*tag=*/4, /*kind=*/2, {8},
                              {0.25f, -0.25f});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/0, env);
  frame[4] = 1;  // rewrite the version byte: pretend an old peer sent this

  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed,
                        &error),
            WireDecode::kOk)
      << error;
  EXPECT_EQ(decoded.encoding, 0);
  ExpectBitIdentical(env, decoded);
}

TEST(WireTest, V1FrameWithNonzeroFlagsIsCorrupt) {
  // v1 reserved the flags byte as zero; anything else is stream corruption,
  // not a forward-compatible extension.
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/0, /*kind=*/0, {}, {});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);
  frame[4] = 1;
  frame[5] = 1;
  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed,
                        &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "bad flags");
}

TEST(WireTest, UnknownEncodingTagIsCorrupt) {
  // A v2 frame whose flags byte names no codec must be rejected before the
  // payload is handed to a decoder that would misread it.
  Envelope env = MakeEnvelope(/*from=*/0, /*tag=*/1, /*kind=*/3, {}, {1.0f});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/1, env);
  frame[5] = kNumCompressionKinds;
  NodeId to = -1;
  Envelope decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &to, &decoded, &consumed,
                        &error),
            WireDecode::kCorrupt);
  EXPECT_EQ(error, "bad payload encoding");
}

TEST(WireTest, EncodingTagSurvivesFdRoundTrip) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Envelope env = MakeEnvelope(/*from=*/7, /*tag=*/21, /*kind=*/109, {3},
                              {4.0f, 5.0f});
  env.encoding = static_cast<uint8_t>(CompressionKind::kTopK);
  ASSERT_TRUE(WriteFrameFd(fds[1], /*to=*/2, env).ok());
  ::close(fds[1]);

  NodeId to = -1;
  Envelope decoded;
  FrameReader reader;
  ASSERT_TRUE(ReadOne(&reader, fds[0], &to, &decoded).ok());
  EXPECT_EQ(decoded.encoding, static_cast<uint8_t>(CompressionKind::kTopK));
  ExpectBitIdentical(env, decoded);
  ::close(fds[0]);
}

TEST(WireTest, CorruptEncodingTagOnFdStreamIsInvalidArgument) {
  Envelope env = MakeEnvelope(/*from=*/1, /*tag=*/2, /*kind=*/3, {}, {1.0f});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/0, env);
  frame[5] = 0xff;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(fds[1]);
  NodeId to = -1;
  Envelope decoded;
  FrameReader reader;
  Status corrupt = ReadOne(&reader, fds[0], &to, &decoded);
  EXPECT_EQ(corrupt.code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
}

TEST(WireTest, FdRoundTripAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Envelope first = MakeEnvelope(/*from=*/5, /*tag=*/11, /*kind=*/3, {1, 2},
                                {0.5f, -0.5f});
  Envelope second = MakeEnvelope(/*from=*/6, /*tag=*/12, /*kind=*/4, {}, {});
  ASSERT_TRUE(WriteFrameFd(fds[1], /*to=*/0, first).ok());
  ASSERT_TRUE(WriteFrameFd(fds[1], /*to=*/0, second).ok());
  ::close(fds[1]);

  NodeId to = -1;
  Envelope decoded;
  FrameReader reader;
  ASSERT_TRUE(ReadOne(&reader, fds[0], &to, &decoded).ok());
  EXPECT_EQ(decoded.from, 5);
  ExpectBitIdentical(first, decoded);
  ASSERT_TRUE(ReadOne(&reader, fds[0], &to, &decoded).ok());
  EXPECT_EQ(decoded.from, 6);

  // Writer closed at a frame boundary: a polite end of stream.
  Status eof = ReadOne(&reader, fds[0], &to, &decoded);
  EXPECT_EQ(eof.code(), StatusCode::kCancelled);
  ::close(fds[0]);
}

TEST(WireTest, TornFrameIsUnavailable) {
  Envelope env = MakeEnvelope(/*from=*/1, /*tag=*/3, /*kind=*/2, {4},
                              {9.0f, 8.0f, 7.0f});
  std::vector<uint8_t> frame = EncodeFrame(/*to=*/0, env);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // The peer dies halfway through a frame.
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size() - 5),
            static_cast<ssize_t>(frame.size() - 5));
  ::close(fds[1]);

  NodeId to = -1;
  Envelope decoded;
  FrameReader reader;
  Status torn = ReadOne(&reader, fds[0], &to, &decoded);
  EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
  ::close(fds[0]);
}

TEST(WireTest, CorruptStreamIsInvalidArgument) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char garbage[] = "this is not a PRW1 frame at all.........";
  ASSERT_EQ(::write(fds[0 + 1], garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  ::close(fds[1]);
  NodeId to = -1;
  Envelope decoded;
  FrameReader reader;
  Status corrupt = ReadOne(&reader, fds[0], &to, &decoded);
  EXPECT_EQ(corrupt.code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
}

TEST(WireTest, FramesSplitAtEveryByteReadIdentically) {
  // Two back-to-back frames arrive in two writes, split at every byte
  // boundary: the reader must stop wherever the bytes run out and resume
  // exactly there.
  const Envelope first = MakeEnvelope(/*from=*/5, /*tag=*/11, /*kind=*/3,
                                      {1, -2}, {0.5f, -0.0f, 7.0f});
  Envelope second = MakeEnvelope(/*from=*/6, /*tag=*/12, /*kind=*/4, {},
                                 {1.0f, 2.0f});
  second.encoding = static_cast<uint8_t>(CompressionKind::kInt8);
  std::vector<uint8_t> stream = EncodeFrame(/*to=*/0, first);
  const std::vector<uint8_t> tail = EncodeFrame(/*to=*/2, second);
  stream.insert(stream.end(), tail.begin(), tail.end());
  const std::pair<NodeId, const Envelope*> want[] = {{0, &first},
                                                     {2, &second}};

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  for (size_t split = 0; split <= stream.size(); ++split) {
    SCOPED_TRACE("split at byte " + std::to_string(split));
    FrameReader reader;
    std::vector<std::pair<NodeId, Envelope>> got;
    const auto drain = [&] {
      while (true) {
        NodeId to = -1;
        Envelope env;
        bool complete = false;
        const Status status = reader.Read(fds[0], &to, &env, &complete);
        ASSERT_TRUE(status.ok()) << status.ToString();
        if (!complete) return;
        got.emplace_back(to, std::move(env));
      }
    };
    ASSERT_EQ(::write(fds[1], stream.data(), split),
              static_cast<ssize_t>(split));
    drain();
    ASSERT_EQ(::write(fds[1], stream.data() + split, stream.size() - split),
              static_cast<ssize_t>(stream.size() - split));
    drain();
    ASSERT_EQ(got.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      const Envelope& sent = *want[i].second;
      const Envelope& read = got[i].second;
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_EQ(read.from, sent.from);
      EXPECT_EQ(read.tag, sent.tag);
      EXPECT_EQ(read.kind, sent.kind);
      EXPECT_EQ(read.ints, sent.ints);
      EXPECT_EQ(read.encoding, sent.encoding);
      ExpectBitIdentical(sent, read);
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace pr
