#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace pr {

/// \brief Binary checkpoint format for flat parameter vectors.
///
/// Layout: 8-byte magic "PRCKPT01", uint64 parameter count, raw float32
/// payload, uint64 FNV-1a checksum of the payload. Load validates magic,
/// size and checksum and fails with a Status rather than returning
/// corrupted weights. Writes are crash-safe (WriteFileAtomically).

/// Writes `params` to `path`, overwriting. Returns an IO error Status on
/// failure (the previous file at `path`, if any, is left intact).
Status SaveCheckpoint(const std::string& path,
                      const std::vector<float>& params);

/// Span form: checkpoints any contiguous float range — e.g. a ParamStore
/// arena replica — without copying it into a vector first.
Status SaveCheckpoint(const std::string& path, Slice params);

/// Crash-safe file write shared by every checkpoint file: `pieces` are
/// written back to back under `path + ".tmp"`, which is renamed into place
/// only after a complete write, so a crash mid-write leaves at worst a
/// stale tmp file, never a torn `path`. `what` names the file in errors.
Status WriteFileAtomically(const std::string& path,
                           const std::vector<std::string_view>& pieces,
                           const std::string& what);

/// The bytes of one trivially-copyable value, for WriteFileAtomically.
template <typename T>
std::string_view AsBytes(const T* value) {
  return {reinterpret_cast<const char*>(value), sizeof(T)};
}

/// Multi-span form: the spans are written back to back as one logical
/// vector (count = sum of span sizes, one checksum over the concatenation),
/// so disjoint ranges — a replica and its optimizer velocity — land in one
/// checkpoint without being materialized contiguously. LoadCheckpoint reads
/// the result as a single flat vector.
Status SaveCheckpointSpans(const std::string& path,
                           const std::vector<Slice>& spans);

/// Reads a checkpoint into `params` (resized). Validates magic, length and
/// checksum.
Status LoadCheckpoint(const std::string& path, std::vector<float>* params);

/// FNV-1a over raw bytes; exposed for tests. `state` chains incremental
/// hashing across spans (pass the previous return value).
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t state = 0xcbf29ce484222325ull);

}  // namespace pr
