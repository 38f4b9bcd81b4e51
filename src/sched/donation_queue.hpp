// Work sharing for the parallel search: one FIFO of donated subtrees
// behind a mutex, plus the idle-count termination protocol
// (docs/concurrency.md §3).
//
// A busy worker donates spare subtrees with push(); a worker that runs
// dry takes the oldest one with acquire(). Oldest first means shallowest
// first, so a hungry worker receives the coarsest subtree on offer.
// Donations are rare next to visited-table claims (tens to hundreds per
// search against tens of thousands of claims), so the lock is cold.
//
// Termination: a worker that finds the queue empty counts itself idle,
// under the mutex. Only a worker that is not idle can donate, so once
// the idle count reaches the worker count over an empty queue, no item
// can ever appear again and the reachable space is exhausted.
//
// Items are held by value; whatever an early stop leaves queued is
// destroyed with the queue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "base/assert.hpp"

namespace ezrt::sched {

template <typename T>
class DonationQueue {
 public:
  /// Per-worker accounting, written under the mutex and read after the
  /// workers join.
  struct WorkerStats {
    std::uint64_t steals = 0;            ///< items taken that a peer donated
    std::uint64_t idle_transitions = 0;  ///< waits on an empty queue
  };

  enum class Acquire { kItem, kDone, kTimeout };

  /// `idle_gauge`, when set, is called with the new idle-worker count on
  /// every transition. It runs under the mutex, so successive counts
  /// arrive in order; it must be cheap and must not call back into the
  /// queue.
  explicit DonationQueue(std::uint32_t workers,
                         std::function<void(std::uint32_t)> idle_gauge = {})
      : workers_(workers),
        idle_gauge_(std::move(idle_gauge)),
        stats_(workers) {
    EZRT_CHECK(workers >= 1, "donation queue needs at least one worker");
  }

  /// Queues `item`, donated by worker `tid`, behind every earlier one.
  void push(std::uint32_t tid, T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(Entry{std::move(item), tid});
      pending_.store(items_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Moves the oldest item into `out` (kItem). On an empty queue the
  /// worker waits: kDone once every worker waits over an empty queue or
  /// shutdown() was called, kTimeout when `poll` > 0 elapsed first (the
  /// caller runs its resource-guard checks and comes back). `poll` == 0
  /// waits indefinitely.
  Acquire acquire(std::uint32_t tid, T& out, std::chrono::milliseconds poll) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!done_ && items_.empty()) {
      ++stats_[tid].idle_transitions;
      publish_gauge(++idle_);
      if (idle_ == workers_) {
        done_ = true;
        cv_.notify_all();
        return Acquire::kDone;
      }
      const auto ready = [this] { return done_ || !items_.empty(); };
      bool woke = true;
      if (poll.count() > 0) {
        woke = cv_.wait_for(lock, poll, ready);
      } else {
        cv_.wait(lock, ready);
      }
      if (done_) {
        return Acquire::kDone;  // leave the terminal gauge at "all idle"
      }
      publish_gauge(--idle_);
      if (!woke) {
        return Acquire::kTimeout;
      }
    }
    if (done_) {
      return Acquire::kDone;
    }
    out = std::move(items_.front().item);
    if (items_.front().donor != tid) {
      ++stats_[tid].steals;
    }
    items_.pop_front();
    pending_.store(items_.size(), std::memory_order_relaxed);
    return Acquire::kItem;
  }

  /// Cooperative stop: every current and future acquire returns kDone.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

  /// Items currently queued: a relaxed mirror, read without the lock by
  /// the donation policy and the progress gauge.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const WorkerStats& stats(std::uint32_t tid) const {
    return stats_[tid];
  }

 private:
  struct Entry {
    T item;
    std::uint32_t donor;
  };

  void publish_gauge(std::uint32_t idle_now) {
    if (idle_gauge_) {
      idle_gauge_(idle_now);
    }
  }

  const std::uint32_t workers_;
  std::function<void(std::uint32_t)> idle_gauge_;
  std::atomic<std::size_t> pending_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> items_;         ///< guarded by mu_
  std::vector<WorkerStats> stats_;  ///< guarded by mu_
  std::uint32_t idle_ = 0;          ///< guarded by mu_
  bool done_ = false;               ///< guarded by mu_
};

}  // namespace ezrt::sched
