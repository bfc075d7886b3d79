// task_queue.h -- the blocking MPMC queue underneath agora's one worker
// thread: the wire service's backend pump (net/service.cpp), which pops
// each consult with wait_pop and runs it on the backend.
//
// close() wakes all waiters; pops drain remaining items first and only then
// report closure, so no submitted work is ever silently lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

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
      wake = waiters_ > 0;
    }
    if (wake) cv_.notify_one();
    return true;
  }

  /// Blocking single-item pop. Returns false when the queue is closed AND
  /// drained. waiters_ is only accessed under mu_, so no wake-up can be
  /// lost: a waiter either registered before the pusher's critical section
  /// (push sees waiters_ > 0 and notifies) or registers after it (the wait
  /// predicate sees the item and never sleeps).
  bool wait_pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiters_;
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    --waiters_;
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
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

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t waiters_ = 0;
  bool closed_ = false;
};

}  // namespace agora
