// Bounded multi-producer ring queue with blocking backpressure.
//
// The channel between the dist coordinator's per-node reader threads and
// its EventMerger. A fixed-capacity ring buffer guarded by one mutex and
// two condition variables:
//
//   * Push on a full queue BLOCKS — backpressure propagates upstream, so a
//     slow consumer throttles its producers instead of growing unbounded
//     buffers.
//   * Pop on an empty queue blocks until an item or Close().
//   * Close() wakes everyone: further pushes fail, pops drain the items
//     already queued and then return nullopt. Shutdown therefore loses
//     nothing that was accepted.
//
// FIFO overall, hence FIFO per producer — the ordering the merger relies
// on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace spire::serve {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` must be >= 1.
  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full; false iff the queue was closed (item discarded).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == ring_.size() && !closed_) {
      obs::ScopedSpan span("serve", "queue_wait");
      not_full_.wait(lock, [&] { return count_ < ring_.size() || closed_; });
    }
    if (closed_) return false;
    ring_[(head_ + count_) % ring_.size()] = std::move(item);
    ++count_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; nullopt iff closed and fully drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0 && !closed_) {
      obs::ScopedSpan span("serve", "queue_wait");
      not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    }
    if (count_ == 0) return std::nullopt;
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Idempotent. Wakes all blocked producers and consumers.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace spire::serve
