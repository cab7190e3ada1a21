#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace pr {

/// One spin-wait iteration: the CPU's pause/yield hint, which frees the
/// core's pipeline for a sibling hyperthread; a plain thread yield elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// \brief Unbounded multi-producer multi-consumer blocking FIFO queue.
///
/// Backs worker mailboxes and the controller's signal queue in the threaded
/// runtime. `Close()` wakes all blocked consumers; subsequent `Pop()` calls
/// drain remaining items, then return nullopt.
///
/// A timed pop may spin before it parks: it polls the item count (an atomic
/// mirror of `items_.size()`, written under the lock) with CpuRelax until an
/// item or Close() shows up or the spin budget passes, and only then waits on
/// the condition variable. A consumer that gets its item mid-spin skips the
/// futex wake-up and the run-queue delay that follows it.
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueues an item. Returns false when the queue is closed (item dropped).
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      count_ = items_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() { return PopFor(-1.0); }

  /// Blocks up to `timeout_seconds` for an item (a negative timeout means no
  /// deadline). Returns nullopt on timeout or when the queue is closed and
  /// drained; callers that must tell the two apart check closed().
  ///
  /// With `spin_seconds` > 0 the wait first spins for up to that long, never
  /// past its own deadline, and parks only if nothing arrived. `*parked`,
  /// when non-null, is set to true if the wait parked on the condition
  /// variable, and left alone otherwise.
  std::optional<T> PopFor(double timeout_seconds, double spin_seconds = 0.0,
                          bool* parked = nullptr) {
    using Clock = std::chrono::steady_clock;
    const auto since = [start = Clock::now()](double seconds) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    };
    const bool bounded = timeout_seconds >= 0.0;
    const Clock::time_point deadline =
        bounded ? since(timeout_seconds) : Clock::time_point::max();
    if (spin_seconds > 0.0) {
      const Clock::time_point spin_end =
          std::min(since(spin_seconds), deadline);
      while (count_ == 0 && !closed_ && Clock::now() < spin_end) CpuRelax();
    }
    const auto ready = [&] { return !items_.empty() || closed_; };
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready() && Clock::now() < deadline) {
      if (parked != nullptr) *parked = true;
      if (bounded) {
        cv_.wait_until(lock, deadline, ready);
      } else {
        cv_.wait(lock, ready);
      }
    }
    return PopLocked();
  }

  /// Non-blocking pop; nullopt when empty.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return PopLocked();
  }

  /// Marks the queue closed and wakes all waiters.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const { return closed_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  /// Caller holds mutex_.
  std::optional<T> PopLocked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    count_ = items_.size();
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  // Written only under mutex_; read without it by spinning pops and closed().
  std::atomic<size_t> count_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace pr
