#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"

namespace pr {

/// \brief An immutable-while-shared, reference-counted float payload.
///
/// The data plane's unit of ownership: an Envelope carries one of these
/// instead of owning a std::vector<float>, so a broadcast to P receivers, a
/// FaultyTransport duplication, or a delay queue entry is a refcount bump on
/// one allocation rather than a deep copy per hop.
///
/// Ownership rules (see DESIGN.md "Zero-copy data plane"):
///  - Copying a Buffer shares the underlying block (cheap, thread-safe
///    refcount) and permanently marks the block as having been shared.
///  - Readers use data()/size(); the block never mutates under a reader,
///    because every mutation path goes through mutable_data(), which clones
///    the block first when it was ever shared (copy-on-write).
///  - Take() moves the block out when it was never shared and copies
///    otherwise, so receivers that want a private vector pay at most one
///    copy and often none. A move-only chain (Send -> queue -> Recv ->
///    Take) never copies.
///
/// Mutation and Take() gate on an ever-shared flag rather than on
/// use_count(): a use_count() of 1 read while another holder's copy of the
/// same block is still in flight on a different thread is a data race (the
/// relaxed refcount load does not synchronize with the other thread's
/// reads), whereas ever-shared blocks are immutable forever, so concurrent
/// holders only ever race read-vs-read.
///
/// The refcount is thread-safe; a single Buffer *instance* is not — hand
/// each thread its own handle (which Envelope passing does naturally).
class Buffer {
 public:
  /// An empty payload (size() == 0, data() == nullptr).
  Buffer() = default;

  /// Copies share the block and mark it ever-shared; moves transfer the
  /// handle without touching the flag.
  Buffer(const Buffer& other) : block_(other.block_) { MarkShared(); }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      block_ = other.block_;
      MarkShared();
    }
    return *this;
  }
  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;

  /// Adopts `v` without copying.
  static Buffer FromVector(std::vector<float> v);

  /// Copies `n` floats from `data` into a fresh block. `data` may be null
  /// only when n == 0.
  static Buffer CopyOf(const float* data, size_t n);

  /// A fresh zero-filled block of `n` floats.
  static Buffer Zeros(size_t n);

  size_t size() const { return block_ ? block_->data.size() : 0; }
  bool empty() const { return size() == 0; }
  const float* data() const { return block_ ? block_->data.data() : nullptr; }
  const float* begin() const { return data(); }
  const float* end() const { return data() + size(); }
  float operator[](size_t i) const {
    PR_CHECK_LT(i, size());
    return block_->data[i];
  }

  /// Mutable access with copy-on-write: when the block was ever shared,
  /// this handle first clones it, so other holders never observe the
  /// mutation. Returns null for an empty buffer.
  float* mutable_data();

  /// Moves the payload out: steals the block when it was never shared,
  /// copies otherwise. Leaves this buffer empty either way.
  std::vector<float> Take();

  /// Always-copy conversion (diagnostics, tests).
  std::vector<float> ToVector() const {
    return block_ ? block_->data : std::vector<float>();
  }

  /// True when a second handle to the block was ever made, so that
  /// mutable_data() clones it first.
  bool ever_shared() const {
    return block_ && block_->ever_shared.load(std::memory_order_relaxed);
  }

  /// True when at least one other Buffer shares the block. Approximate
  /// under concurrent release, exact in single-threaded tests.
  bool shared() const { return block_.use_count() > 1; }
  long use_count() const { return block_.use_count(); }

 private:
  struct Block {
    explicit Block(std::vector<float> v) : data(std::move(v)) {}
    Block(const float* p, size_t n) : data(p, p + n) {}
    Block(size_t n, float fill) : data(n, fill) {}

    std::vector<float> data;
    // Sticky: set the moment a second handle to this block is created and
    // never cleared, making the block immutable from then on. Relaxed is
    // enough — a handle only reaches another thread through a synchronized
    // channel (a transport queue), which orders the store before any load
    // the other holder performs.
    std::atomic<bool> ever_shared{false};
  };

  explicit Buffer(std::shared_ptr<Block> block) : block_(std::move(block)) {}

  void MarkShared() {
    if (block_) block_->ever_shared.store(true, std::memory_order_relaxed);
  }

  std::shared_ptr<Block> block_;
};

/// \brief A read-only view over contiguous floats. Does not own; the
/// underlying storage (arena, Buffer, vector) must outlive the view.
class Slice {
 public:
  Slice() = default;
  Slice(const float* data, size_t size) : data_(data), size_(size) {}

  const float* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }
  float operator[](size_t i) const {
    PR_CHECK_LT(i, size_);
    return data_[i];
  }

  Slice subspan(size_t offset, size_t count) const {
    PR_CHECK_LE(offset + count, size_);
    return Slice(data_ + offset, count);
  }

  std::vector<float> ToVector() const {
    return std::vector<float>(data_, data_ + size_);
  }

 private:
  const float* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief A writable view over contiguous floats (an arena region, e.g. one
/// worker's replica in the ParamStore). Does not own the storage.
class MutableSlice {
 public:
  MutableSlice() = default;
  MutableSlice(float* data, size_t size) : data_(data), size_(size) {}

  float* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  float* begin() const { return data_; }
  float* end() const { return data_ + size_; }
  float& operator[](size_t i) const {
    PR_CHECK_LT(i, size_);
    return data_[i];
  }

  operator Slice() const { return Slice(data_, size_); }

  MutableSlice subspan(size_t offset, size_t count) const {
    PR_CHECK_LE(offset + count, size_);
    return MutableSlice(data_ + offset, count);
  }

  /// Overwrites the viewed region; `n` must equal size().
  void CopyFrom(const float* src, size_t n) const;
  void CopyFrom(const Buffer& src) const { CopyFrom(src.data(), src.size()); }
  void CopyFrom(const std::vector<float>& src) const {
    CopyFrom(src.data(), src.size());
  }

  std::vector<float> ToVector() const {
    return std::vector<float>(data_, data_ + size_);
  }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace pr
