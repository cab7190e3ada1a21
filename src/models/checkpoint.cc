#include "models/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace pr {
namespace {

constexpr char kMagic[8] = {'P', 'R', 'C', 'K', 'P', 'T', '0', '1'};

}  // namespace

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t state) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t hash = state;
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Status WriteFileAtomically(const std::string& path,
                           const std::vector<std::string_view>& pieces,
                           const std::string& what) {
  // rename(2) within one directory is atomic on POSIX, so readers only ever
  // see the old complete file or the new complete file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable("cannot open " + what + " for writing: " +
                                 tmp);
    }
    for (std::string_view piece : pieces) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::Unavailable("short write to " + what + ": " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot rename " + what + " into place: " +
                               path);
  }
  return Status::OK();
}

Status SaveCheckpointSpans(const std::string& path,
                           const std::vector<Slice>& spans) {
  uint64_t count = 0;
  uint64_t checksum = 0xcbf29ce484222325ull;
  for (const Slice& s : spans) {
    count += s.size();
    checksum = Fnv1a(s.data(), s.size() * sizeof(float), checksum);
  }
  std::vector<std::string_view> pieces = {{kMagic, sizeof(kMagic)},
                                          AsBytes(&count)};
  for (const Slice& s : spans) {
    pieces.emplace_back(reinterpret_cast<const char*>(s.data()),
                        s.size() * sizeof(float));
  }
  pieces.push_back(AsBytes(&checksum));
  return WriteFileAtomically(path, pieces, "checkpoint");
}

Status SaveCheckpoint(const std::string& path, Slice params) {
  return SaveCheckpointSpans(path, {params});
}

Status SaveCheckpoint(const std::string& path,
                      const std::vector<float>& params) {
  return SaveCheckpointSpans(path, {Slice(params.data(), params.size())});
}

Status LoadCheckpoint(const std::string& path, std::vector<float>* params) {
  if (params == nullptr) {
    return Status::InvalidArgument("LoadCheckpoint: null output");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("checkpoint not found: " + path);
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad checkpoint magic: " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) {
    return Status::InvalidArgument("truncated checkpoint header: " + path);
  }
  params->resize(count);
  const size_t bytes = static_cast<size_t>(count) * sizeof(float);
  in.read(reinterpret_cast<char*>(params->data()),
          static_cast<std::streamsize>(bytes));
  uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in) {
    return Status::InvalidArgument("truncated checkpoint payload: " + path);
  }
  if (checksum != Fnv1a(params->data(), bytes)) {
    return Status::InvalidArgument("checkpoint checksum mismatch: " + path);
  }
  return Status::OK();
}

}  // namespace pr
