#include "comm/wire.h"

#include <errno.h>
#include <string.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"
#include "compress/codec.h"

// The encoders below memcpy scalar values directly; the format is defined as
// little-endian, which every platform this repo targets is.
static_assert(std::endian::native == std::endian::little,
              "wire format assumes a little-endian host");

namespace pr {

namespace {

template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
T Get(const uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

bool Fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Version bytes the readers accept (see kWireVersion in wire.h).
bool IsReadableVersion(uint8_t version) {
  return version >= kWireMinVersion && version <= kWireVersion;
}

/// Validates the preamble and returns the section sizes plus the payload
/// encoding tag. `false` means corrupt (outputs untouched); a too-short
/// `size` is signalled separately.
bool CheckPreamble(const uint8_t* data, uint32_t* header_bytes,
                   uint32_t* payload_floats, uint8_t* encoding,
                   std::string* error) {
  if (Get<uint32_t>(data) != kWireMagic) return Fail(error, "bad magic");
  if (!IsReadableVersion(data[4])) return Fail(error, "bad version");
  // v1 reserved the flags byte as zero; v2 made it the encoding tag. Either
  // way an unknown value means a torn or corrupt stream, not a raw payload.
  if (data[4] == 1) {
    if (data[5] != 0) return Fail(error, "bad flags");
  } else if (!IsValidEncodingTag(data[5])) {
    return Fail(error, "bad payload encoding");
  }
  *encoding = data[5];
  const uint32_t hb = Get<uint32_t>(data + 8);
  const uint32_t pf = Get<uint32_t>(data + 12);
  if (hb < kWireHeaderFixedBytes ||
      hb > kWireHeaderFixedBytes + 8ull * kWireMaxInts) {
    return Fail(error, "header_bytes out of range");
  }
  if ((hb - kWireHeaderFixedBytes) % 8 != 0) {
    return Fail(error, "header_bytes misaligned");
  }
  if (pf > kWireMaxPayloadFloats) return Fail(error, "payload oversize");
  *header_bytes = hb;
  *payload_floats = pf;
  return true;
}

/// Parses the header section `h` (`header_bytes` long, already sized by
/// CheckPreamble) into `to` and every Envelope field but the payload.
/// `false` means corrupt.
bool ParseHeader(const uint8_t* h, uint32_t header_bytes, uint8_t encoding,
                 NodeId* to, Envelope* env, std::string* error) {
  const uint32_t num_ints = Get<uint32_t>(h + 20);
  if (kWireHeaderFixedBytes + 8ull * num_ints != header_bytes) {
    return Fail(error, "num_ints inconsistent with header_bytes");
  }
  *to = static_cast<NodeId>(Get<int32_t>(h));
  env->from = static_cast<NodeId>(Get<int32_t>(h + 4));
  env->tag = Get<uint64_t>(h + 8);
  env->kind = static_cast<int>(Get<int32_t>(h + 16));
  env->encoding = encoding;
  env->ints.resize(num_ints);
  for (uint32_t i = 0; i < num_ints; ++i) {
    env->ints[i] = Get<int64_t>(h + kWireHeaderFixedBytes + 8ull * i);
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeFrameHeader(NodeId to, const Envelope& env) {
  PR_CHECK_LE(env.ints.size(), static_cast<size_t>(kWireMaxInts));
  PR_CHECK_LE(env.payload.size(), static_cast<size_t>(kWireMaxPayloadFloats));
  const uint32_t header_bytes = static_cast<uint32_t>(
      kWireHeaderFixedBytes + 8 * env.ints.size());
  std::vector<uint8_t> out;
  out.reserve(kWirePreambleBytes + header_bytes);
  PR_CHECK(IsValidEncodingTag(env.encoding));
  Put<uint32_t>(&out, kWireMagic);
  Put<uint8_t>(&out, kWireVersion);
  Put<uint8_t>(&out, env.encoding);  // flags byte = payload encoding tag
  Put<uint16_t>(&out, 0);            // reserved
  Put<uint32_t>(&out, header_bytes);
  Put<uint32_t>(&out, static_cast<uint32_t>(env.payload.size()));
  Put<int32_t>(&out, static_cast<int32_t>(to));
  Put<int32_t>(&out, static_cast<int32_t>(env.from));
  Put<uint64_t>(&out, env.tag);
  Put<int32_t>(&out, static_cast<int32_t>(env.kind));
  Put<uint32_t>(&out, static_cast<uint32_t>(env.ints.size()));
  for (int64_t v : env.ints) Put<int64_t>(&out, v);
  return out;
}

std::vector<uint8_t> EncodeFrame(NodeId to, const Envelope& env) {
  std::vector<uint8_t> out = EncodeFrameHeader(to, env);
  if (!env.payload.empty()) {
    const size_t at = out.size();
    out.resize(at + env.payload.size() * sizeof(float));
    std::memcpy(out.data() + at, env.payload.data(),
                env.payload.size() * sizeof(float));
  }
  return out;
}

WireDecode DecodeFrame(const uint8_t* data, size_t size, NodeId* to,
                       Envelope* env, size_t* consumed, std::string* error) {
  if (size < kWirePreambleBytes) {
    // Magic/version mismatches are detectable from the first bytes even in a
    // short prefix — reject early instead of waiting for more garbage.
    if (size >= 4 && Get<uint32_t>(data) != kWireMagic) {
      Fail(error, "bad magic");
      return WireDecode::kCorrupt;
    }
    if (size >= 5 && !IsReadableVersion(data[4])) {
      Fail(error, "bad version");
      return WireDecode::kCorrupt;
    }
    return WireDecode::kNeedMore;
  }
  uint32_t header_bytes = 0;
  uint32_t payload_floats = 0;
  uint8_t encoding = 0;
  if (!CheckPreamble(data, &header_bytes, &payload_floats, &encoding, error)) {
    return WireDecode::kCorrupt;
  }
  const size_t total = kWirePreambleBytes + header_bytes +
                       static_cast<size_t>(payload_floats) * sizeof(float);
  if (size < total) return WireDecode::kNeedMore;

  if (!ParseHeader(data + kWirePreambleBytes, header_bytes, encoding, to, env,
                   error)) {
    return WireDecode::kCorrupt;
  }
  if (payload_floats > 0) {
    std::vector<float> payload(payload_floats);
    std::memcpy(payload.data(), data + kWirePreambleBytes + header_bytes,
                static_cast<size_t>(payload_floats) * sizeof(float));
    env->payload = Buffer::FromVector(std::move(payload));
  } else {
    env->payload = Buffer();
  }
  *consumed = total;
  return WireDecode::kOk;
}

Status WriteFrameFd(int fd, NodeId to, const Envelope& env) {
  const std::vector<uint8_t> header = EncodeFrameHeader(to, env);
  struct iovec iov[2];
  iov[0].iov_base = const_cast<uint8_t*>(header.data());
  iov[0].iov_len = header.size();
  // Aliases the shared Buffer block directly — the payload floats are never
  // copied on the send path; writev gathers them from their home allocation.
  iov[1].iov_base = const_cast<float*>(env.payload.data());
  iov[1].iov_len = env.payload.size() * sizeof(float);
  int iovcnt = env.payload.empty() ? 1 : 2;
  struct iovec* cur = iov;
  while (iovcnt > 0) {
    const ssize_t n = ::writev(fd, cur, iovcnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("writev: ") + strerror(errno));
    }
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= cur->iov_len) {
      left -= cur->iov_len;
      ++cur;
      --iovcnt;
    }
    if (iovcnt > 0) {
      cur->iov_base = static_cast<uint8_t*>(cur->iov_base) + left;
      cur->iov_len -= left;
    }
  }
  return Status::OK();
}

void FrameReader::Reset() {
  head_.resize(kWirePreambleBytes + kWireHeaderFixedBytes);
  head_got_ = 0;
  sized_ = false;
  payload_ = std::vector<float>();
  payload_got_ = 0;
}

Status FrameReader::Read(int fd, NodeId* to, Envelope* env, bool* complete) {
  *complete = false;
  while (true) {
    const size_t payload_bytes = payload_.size() * sizeof(float);
    struct iovec iov[2];
    int iovcnt = 0;
    if (head_got_ < head_.size()) {
      iov[iovcnt].iov_base = head_.data() + head_got_;
      iov[iovcnt++].iov_len = head_.size() - head_got_;
    }
    if (payload_got_ < payload_bytes) {
      iov[iovcnt].iov_base =
          reinterpret_cast<uint8_t*>(payload_.data()) + payload_got_;
      iov[iovcnt++].iov_len = payload_bytes - payload_got_;
    }
    if (iovcnt == 0) {
      // sized_ holds here: an unsized head always has bytes left to read.
      std::string why;
      if (!ParseHeader(head_.data() + kWirePreambleBytes,
                       static_cast<uint32_t>(head_.size() - kWirePreambleBytes),
                       encoding_, to, env, &why)) {
        return Status::InvalidArgument("corrupt frame: " + why);
      }
      env->payload = payload_.empty() ? Buffer()
                                      : Buffer::FromVector(std::move(payload_));
      Reset();
      *complete = true;
      return Status::OK();
    }
    const ssize_t n = ::readv(fd, iov, iovcnt);
    const bool mid_frame = head_got_ > 0;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    }
    if (n <= 0) {
      if (!mid_frame) return Status::Cancelled("connection closed");
      return Status::Unavailable(
          head_got_ < kWirePreambleBytes ? "torn frame: eof in preamble"
          : head_got_ < head_.size()     ? "torn frame: eof in header"
                                         : "torn frame: eof in payload");
    }
    const size_t head_part =
        std::min(static_cast<size_t>(n), head_.size() - head_got_);
    head_got_ += head_part;
    payload_got_ += static_cast<size_t>(n) - head_part;
    if (!sized_ && head_got_ >= kWirePreambleBytes) {
      uint32_t header_bytes = 0;
      uint32_t payload_floats = 0;
      std::string why;
      if (!CheckPreamble(head_.data(), &header_bytes, &payload_floats,
                         &encoding_, &why)) {
        return Status::InvalidArgument("corrupt frame: " + why);
      }
      head_.resize(kWirePreambleBytes + header_bytes);
      // The vector that will back the Buffer is the read destination, so
      // the floats land in their final home directly.
      payload_.resize(payload_floats);
      sized_ = true;
    }
  }
}

}  // namespace pr
