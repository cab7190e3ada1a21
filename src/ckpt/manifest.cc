#include "ckpt/manifest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "models/checkpoint.h"

namespace pr {
namespace {

constexpr char kMagic[8] = {'P', 'R', 'M', 'A', 'N', 'I', 'F', '1'};
constexpr uint32_t kVersion = 1;

/// Little-endian-native append-only writer; the manifest is host-format
/// like the PRCKPT01 shards (both engines run in one process family).
class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  void IntVec(const std::vector<int>& v) {
    U64(v.size());
    for (int x : v) {
      const int64_t wide = x;
      Raw(&wide, sizeof(wide));
    }
  }
  const std::string& str() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint64_t n = 0;
    if (!U64(&n) || n > size_ - pos_) return false;
    s->assign(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }
  bool IntVec(std::vector<int>* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > (size_ - pos_) / sizeof(int64_t)) return false;
    v->resize(static_cast<size_t>(n));
    for (size_t i = 0; i < n; ++i) {
      int64_t wide = 0;
      if (!Raw(&wide, sizeof(wide))) return false;
      (*v)[i] = static_cast<int>(wide);
    }
    return true;
  }
  bool done() const { return pos_ == size_; }

 private:
  bool Raw(void* p, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  return ec ? Status::Unavailable("cannot create checkpoint dir: " + dir)
            : Status::OK();
}

}  // namespace

std::string ManifestPath(const std::string& dir, uint64_t epoch) {
  return dir + "/manifest-" + std::to_string(epoch) + ".prm";
}

std::string ShardFileName(uint64_t epoch, int worker) {
  return "shard-e" + std::to_string(epoch) + "-w" + std::to_string(worker) +
         ".prc";
}

std::string ShardPath(const std::string& dir, uint64_t epoch, int worker) {
  return dir + "/" + ShardFileName(epoch, worker);
}

Status SaveManifest(const std::string& dir, const RunManifest& manifest) {
  PR_RETURN_NOT_OK(EnsureDir(dir));

  ByteWriter w;
  w.U32(kVersion);
  w.Str(manifest.engine);
  w.Str(manifest.strategy);
  w.I64(manifest.num_workers);
  w.U64(manifest.num_params);
  w.U64(manifest.seed);
  w.U64(manifest.epoch);
  w.U64(manifest.updates_done);
  w.U64(manifest.next_group_id);
  w.F64(manifest.saved_at_seconds);
  w.U64(manifest.history.size());
  for (const std::vector<int>& group : manifest.history) w.IntVec(group);
  w.U64(manifest.workers.size());
  for (const ManifestWorker& mw : manifest.workers) {
    w.I64(mw.worker);
    w.I64(mw.iteration);
    w.U64(mw.completed);
    w.Str(mw.shard_file);
  }

  const uint64_t checksum = Fnv1a(w.str().data(), w.str().size());
  return WriteFileAtomically(ManifestPath(dir, manifest.epoch),
                             {{kMagic, sizeof(kMagic)}, w.str(),
                              AsBytes(&checksum)},
                             "manifest");
}

Status LoadManifest(const std::string& path, RunManifest* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("LoadManifest: null output");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("manifest not found: " + path);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < sizeof(kMagic) + sizeof(uint64_t) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad manifest magic: " + path);
  }
  const size_t body = blob.size() - sizeof(kMagic) - sizeof(uint64_t);
  uint64_t checksum = 0;
  std::memcpy(&checksum, blob.data() + sizeof(kMagic) + body,
              sizeof(checksum));
  if (checksum != Fnv1a(blob.data() + sizeof(kMagic), body)) {
    return Status::InvalidArgument("manifest checksum mismatch: " + path);
  }

  ByteReader r(blob.data() + sizeof(kMagic), body);
  RunManifest m;
  int64_t num_workers = 0;
  uint64_t history_size = 0;
  uint64_t worker_count = 0;
  bool ok = r.U32(&m.version) && r.Str(&m.engine) && r.Str(&m.strategy) &&
            r.I64(&num_workers) && r.U64(&m.num_params) && r.U64(&m.seed) &&
            r.U64(&m.epoch) && r.U64(&m.updates_done) &&
            r.U64(&m.next_group_id) && r.F64(&m.saved_at_seconds) &&
            r.U64(&history_size);
  if (ok && m.version != kVersion) {
    return Status::InvalidArgument("unsupported manifest version: " + path);
  }
  m.num_workers = static_cast<int>(num_workers);
  for (uint64_t i = 0; ok && i < history_size; ++i) {
    std::vector<int> group;
    ok = r.IntVec(&group);
    if (ok) m.history.push_back(std::move(group));
  }
  ok = ok && r.U64(&worker_count);
  for (uint64_t i = 0; ok && i < worker_count; ++i) {
    ManifestWorker mw;
    int64_t worker = -1;
    ok = r.I64(&worker) && r.I64(&mw.iteration) && r.U64(&mw.completed) &&
         r.Str(&mw.shard_file);
    mw.worker = static_cast<int>(worker);
    if (ok) m.workers.push_back(std::move(mw));
  }
  if (!ok || !r.done()) {
    return Status::InvalidArgument("truncated manifest: " + path);
  }
  *out = std::move(m);
  return Status::OK();
}

Status FindLatestManifest(const std::string& dir, RunManifest* out,
                          std::string* path_out) {
  if (out == nullptr) {
    return Status::InvalidArgument("FindLatestManifest: null output");
  }
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return Status::NotFound("cannot scan checkpoint dir: " + dir);

  std::vector<std::pair<uint64_t, std::string>> candidates;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest-", 0) != 0) continue;
    const size_t dot = name.rfind(".prm");
    if (dot == std::string::npos || dot + 4 != name.size()) continue;
    const std::string digits = name.substr(9, dot - 9);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    candidates.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [epoch, path] : candidates) {
    (void)epoch;
    if (LoadManifest(path, out).ok()) {
      if (path_out != nullptr) *path_out = path;
      return Status::OK();
    }
  }
  return Status::NotFound("no valid manifest under " + dir);
}

Status SaveWorkerShard(const std::string& path, Slice params,
                       Slice velocity) {
  // Shards are written before their manifest, so the shard writer is the
  // first to touch a fresh checkpoint directory.
  PR_RETURN_NOT_OK(
      EnsureDir(std::filesystem::path(path).parent_path().string()));
  return SaveCheckpointSpans(path, {params, velocity});
}

Status LoadWorkerShard(const std::string& path, size_t num_params,
                       std::vector<float>* params,
                       std::vector<float>* velocity) {
  if (params == nullptr || velocity == nullptr) {
    return Status::InvalidArgument("LoadWorkerShard: null output");
  }
  std::vector<float> flat;
  Status s = LoadCheckpoint(path, &flat);
  if (!s.ok()) return s;
  if (flat.size() != 2 * num_params) {
    return Status::InvalidArgument(
        "shard size mismatch (expected 2x" + std::to_string(num_params) +
        " floats): " + path);
  }
  params->assign(flat.begin(),
                 flat.begin() + static_cast<ptrdiff_t>(num_params));
  velocity->assign(flat.begin() + static_cast<ptrdiff_t>(num_params),
                   flat.end());
  return Status::OK();
}

}  // namespace pr
