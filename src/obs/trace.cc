#include "obs/trace.h"

namespace pr {

TraceRecorder::TraceRecorder(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void TraceRecorder::Record(double time, TraceEventKind kind, int worker,
                           int64_t a, int64_t b) {
  if (capacity_ == 0) return;
  TraceEvent event{time, kind, worker, a, b};
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

TraceLog TraceRecorder::Log() const {
  TraceLog log;
  std::lock_guard<std::mutex> lock(mu_);
  log.events.reserve(ring_.size());
  if (ring_.size() < capacity_ || capacity_ == 0) {
    log.events = ring_;
  } else {
    // Full ring: next_ is the oldest slot.
    log.events.insert(log.events.end(), ring_.begin() +
                      static_cast<ptrdiff_t>(next_), ring_.end());
    log.events.insert(log.events.end(), ring_.begin(),
                      ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  log.dropped = recorded_ - ring_.size();
  return log;
}

uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

}  // namespace pr
