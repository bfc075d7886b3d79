// task_queue.h -- the blocking MPMC/MPSC queue underneath every worker
// thread in agora: the enforcement engine's shard workers and the wire
// service's backend pump. Two ways to wait:
//
//   * wait_pop      -- classic one-item blocking pop (the service's pump),
//   * wait_nonempty -- block until there is work, but take nothing. An
//                      engine shard's worker waits with it, then takes the
//                      shard's run lock and only then takes the items with
//                      try_drain(): whoever holds that lock runs the shard's
//                      work, and draining outside it would let a blocking
//                      caller overtake items queued before its own op.
//
// close() wakes all waiters; pops drain remaining items first and only then
// report closure, so no submitted work is ever silently lost.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace agora {

template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueue one item. Returns false (dropping the item) iff the queue is
  /// closed -- callers that must not lose work check the result.
  ///
  /// Wake-up hygiene: notify_one() is only issued when a consumer is
  /// actually parked in a wait (waiters_ > 0). When the consumer is busy,
  /// the push is one lock acquisition with no condvar syscall; the
  /// consumer's next wait re-checks the queue and picks the item up.
  bool push(T item) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      count_.store(items_.size(), std::memory_order_relaxed);
      wake = waiters_ > 0;
    }
    if (wake) cv_.notify_one();
    return true;
  }

  /// Blocking single-item pop. Returns false when the queue is closed AND
  /// drained.
  bool wait_pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    wait_for_work(lock);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    count_.store(items_.size(), std::memory_order_relaxed);
    return true;
  }

  /// Block until an item is queued or the queue closes, taking nothing.
  /// Returns false when the queue is closed AND drained.
  bool wait_nonempty() {
    std::unique_lock<std::mutex> lock(mu_);
    wait_for_work(lock);
    return !items_.empty();
  }

  /// Non-blocking batch pop: move every queued item into `out` (cleared
  /// first) and return how many.
  std::size_t try_drain(std::vector<T>& out) {
    out.clear();
    std::lock_guard<std::mutex> lock(mu_);
    while (!items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    count_.store(0, std::memory_order_relaxed);
    return out.size();
  }

  /// Stop accepting items and wake every waiter. Already-queued items are
  /// still handed out by subsequent pops.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Lock-free depth estimate for telemetry gauges on hot submit paths --
  /// may lag concurrent pushes/pops by a step, never takes the queue lock.
  std::size_t size_approx() const { return count_.load(std::memory_order_relaxed); }

 private:
  /// Park until there is work or the queue closes, tracking the waiter so
  /// push() knows whether a notify is needed. waiters_ is only accessed
  /// under mu_, so no wake-up can be lost: a waiter either registered before
  /// the pusher's critical section (push sees waiters_ > 0 and notifies) or
  /// registers after it (the wait predicate sees the item and never sleeps).
  void wait_for_work(std::unique_lock<std::mutex>& lock) {
    ++waiters_;
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    --waiters_;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::atomic<std::size_t> count_{0};
  std::size_t waiters_ = 0;
  bool closed_ = false;
};

}  // namespace agora
