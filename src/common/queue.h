#ifndef CHARIOTS_COMMON_QUEUE_H_
#define CHARIOTS_COMMON_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace chariots {

/// Bounded multi-producer multi-consumer blocking queue. The backbone of
/// every pipeline stage: bounded capacity gives backpressure, Close() gives
/// clean shutdown (producers stop, consumers drain then observe end).
///
/// Condvar hygiene: every method signals AFTER releasing `mu_`, so woken
/// threads never immediately block on a still-held mutex (hurry-up-and-wait).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns false if
  /// the queue was closed, in which case the item was not enqueued.
  bool Push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
      NoteSizeLocked();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false if full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      NoteSizeLocked();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push that leaves `*item` intact on failure (the
  /// by-value overload above consumes the item even when it returns false),
  /// so producers can retry or redirect the same item.
  bool TryPush(T* item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(*item));
      NoteSizeLocked();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  /// Returns nullopt only at end-of-stream.
  std::optional<T> Pop() {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
      NoteSizeLocked();
    }
    not_full_.notify_one();
    return item;
  }

  /// Pop with timeout; nullopt on timeout or end-of-stream. Use
  /// `closed()` to distinguish.
  std::optional<T> PopFor(std::chrono::nanoseconds timeout) {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait_for(lock, timeout,
                          [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
      NoteSizeLocked();
    }
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::optional<T> item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
      NoteSizeLocked();
    }
    not_full_.notify_one();
    return item;
  }

  /// Blocks until at least one item is available (or end-of-stream), then
  /// drains up to `max_items` queued items into `*out` under one lock
  /// acquisition. Returns the number of items appended; 0 only at
  /// end-of-stream.
  size_t PopAll(std::vector<T>* out,
                size_t max_items = std::numeric_limits<size_t>::max()) {
    size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return 0;
      popped = std::min(items_.size(), max_items);
      out->reserve(out->size() + popped);
      for (size_t i = 0; i < popped; ++i) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
      NoteSizeLocked();
    }
    if (popped == 1) {
      not_full_.notify_one();
    } else {
      not_full_.notify_all();
    }
    return popped;
  }

  /// Non-blocking PopAll: drains everything queued right now into `*out`
  /// under one lock acquisition without waiting. Returns the number of items
  /// appended (0 when empty — check closed() to distinguish end-of-stream).
  /// This is the drain primitive for executor tasks, which must never block.
  size_t TryPopAll(std::vector<T>* out,
                   size_t max_items = std::numeric_limits<size_t>::max()) {
    size_t popped = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return 0;
      popped = std::min(items_.size(), max_items);
      out->reserve(out->size() + popped);
      for (size_t i = 0; i < popped; ++i) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
      NoteSizeLocked();
    }
    if (popped == 1) {
      not_full_.notify_one();
    } else {
      not_full_.notify_all();
    }
    return popped;
  }

  /// Marks the stream finished. Producers fail fast; consumers drain whatever
  /// is queued and then observe end-of-stream.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Current depth without taking the queue lock — safe to call from a
  /// metrics snapshot or monitoring thread at any rate. May lag a mutation
  /// in flight by one update (relaxed atomic), never by more.
  size_t ApproxSize() const {
    return approx_size_.load(std::memory_order_relaxed);
  }

  /// Highest depth ever observed after a push. Lock-free read.
  size_t high_watermark() const {
    return high_watermark_.load(std::memory_order_relaxed);
  }

 private:
  // Called with mu_ held after every mutation of items_: mirrors the depth
  // into a relaxed atomic (so gauges read it lock-free) and ratchets the
  // high watermark. The stores are ordered by mu_, so the mirror is exact
  // between critical sections.
  void NoteSizeLocked() {
    size_t n = items_.size();
    approx_size_.store(n, std::memory_order_relaxed);
    size_t seen = high_watermark_.load(std::memory_order_relaxed);
    while (n > seen && !high_watermark_.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  std::atomic<size_t> approx_size_{0};
  std::atomic<size_t> high_watermark_{0};
};

}  // namespace chariots

#endif  // CHARIOTS_COMMON_QUEUE_H_
