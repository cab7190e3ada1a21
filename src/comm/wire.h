#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "common/status.h"

namespace pr {

/// Framed wire protocol for Envelopes (DESIGN.md §5g).
///
/// Every frame is preamble + header + payload, all little-endian:
///
///   preamble (16 bytes):
///     u32 magic          "PRW1"
///     u8  version        kWireVersion
///     u8  flags          payload-encoding tag (v2; a CompressionKind value:
///                        0 = raw fp32, 1 = fp16, 2 = int8, 3 = top-k).
///                        v1 frames carry 0 here and decode as raw fp32, so
///                        old streams stay readable.
///     u16 reserved       0
///     u32 header_bytes   size of the header section
///     u32 payload_floats number of 4-byte payload words following the
///                        header (encoded blobs count their words, so this
///                        is always the exact wire size)
///   header (header_bytes):
///     i32 to             destination node (frames self-describe routing,
///                        so connections need no hello handshake)
///     i32 from           sender node
///     u64 tag
///     i32 kind
///     u32 num_ints
///     i64 ints[num_ints]
///   payload (payload_floats * 4 bytes): raw IEEE-754 floats
///
/// The fixed preamble makes torn frames detectable: a reader that sees a
/// wrong magic/version, an inconsistent header_bytes, or an oversize length
/// treats the stream as corrupt and drops the connection; EOF mid-frame is a
/// torn frame (the peer died mid-write), distinct from a clean close at a
/// frame boundary.

inline constexpr uint32_t kWireMagic = 0x31575250u;  // "PRW1" little-endian
/// v2 repurposed the reserved flags byte as the payload-encoding tag.
/// Writers emit v2; readers accept v1 (whose flags byte must be 0, decoding
/// as raw fp32) and v2 (whose flags byte must be a known encoding tag).
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint8_t kWireMinVersion = 1;
inline constexpr size_t kWirePreambleBytes = 16;
inline constexpr size_t kWireHeaderFixedBytes = 24;
/// Caps reject absurd lengths before any allocation happens, so a corrupt
/// or hostile length field cannot OOM the receiver.
inline constexpr uint32_t kWireMaxInts = 1u << 16;
inline constexpr uint32_t kWireMaxPayloadFloats = 1u << 28;  // 1 GiB

/// Serialized preamble + header for a frame addressed to `to`. The payload
/// is deliberately not included: the send path writev()s this header block
/// and the Buffer's floats as two iovecs, so the payload is never copied.
std::vector<uint8_t> EncodeFrameHeader(NodeId to, const Envelope& env);

/// Whole frame including the payload bytes (tests/diagnostics; the copy is
/// the point of not using this on the hot path).
std::vector<uint8_t> EncodeFrame(NodeId to, const Envelope& env);

enum class WireDecode {
  kOk,        ///< one frame decoded, `consumed` bytes used
  kNeedMore,  ///< prefix of a valid frame; feed more bytes
  kCorrupt,   ///< bad magic/version or inconsistent/oversize lengths
};

/// Decodes one frame from `data`. On kOk fills to/env/consumed; on kCorrupt
/// `error` (optional) says what failed. Never reads past `size`.
WireDecode DecodeFrame(const uint8_t* data, size_t size, NodeId* to,
                       Envelope* env, size_t* consumed,
                       std::string* error = nullptr);

/// Writes one frame to `fd` with scatter/gather writev: one iovec for the
/// encoded header block, one aliasing the Buffer's floats. Retries partial
/// writes; no payload copy on this path.
Status WriteFrameFd(int fd, NodeId to, const Envelope& env);

/// \brief Incremental reader of one connection's frame stream.
///
/// Read() takes only what the fd has, so on a non-blocking fd it never
/// waits, and it keeps a partly read frame across calls. The preamble and
/// header land in a small buffer reused from frame to frame; once the
/// preamble names the payload size, the payload is read straight into the
/// allocation that becomes env->payload (no intermediate buffer). Frames
/// are validated exactly as DecodeFrame validates them.
class FrameReader {
 public:
  /// Reads from `fd` until one frame is complete or the fd has no more
  /// bytes. Sets `*complete` and fills `to`/`env` when a frame was read; OK
  /// with `*complete` false means the fd would block, so call again once it
  /// is readable. The stream endings:
  ///   Cancelled       clean EOF at a frame boundary (peer closed politely)
  ///   Unavailable     EOF or error mid-frame (torn frame: peer died)
  ///   InvalidArgument corrupt preamble/header (protocol violation)
  Status Read(int fd, NodeId* to, Envelope* env, bool* complete);

 private:
  void Reset();

  // Preamble + header. Before the preamble is checked only the smallest
  // possible head is asked for, so a read never runs into the payload.
  std::vector<uint8_t> head_ =
      std::vector<uint8_t>(kWirePreambleBytes + kWireHeaderFixedBytes);
  size_t head_got_ = 0;
  bool sized_ = false;  // preamble checked; head_ and payload_ sized
  uint8_t encoding_ = 0;
  std::vector<float> payload_;
  size_t payload_got_ = 0;  // bytes
};

}  // namespace pr
