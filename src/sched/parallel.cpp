#include "sched/parallel.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "obs/trace.hpp"
#include "sched/donation_queue.hpp"
#include "sched/search_kernel.hpp"

namespace ezrt::sched {

namespace {

/// Preference among concurrent outcomes: a goal found alongside a budget
/// or guard stop counts as feasible (the serial engine tests the goal
/// before the limits too), and a guard verdict (time/memory/cancel)
/// outranks the state budget — it names the ceiling the operator set
/// tightest. Among equals the first to arrive wins.
[[nodiscard]] int rank(SearchStatus status) {
  if (status == SearchStatus::kFeasible) {
    return 3;
  }
  if (status == SearchStatus::kInfeasible) {
    return 0;
  }
  return status == SearchStatus::kLimitReached ? 1 : 2;
}

/// Every worker runs the serial DFS's stack loop (SearchWorker::run_stack)
/// and shares its visited table through SearchShared; this class adds
/// only the donation queue (sched/donation_queue.hpp), donation, the
/// cooperative stop and the per-worker merge. Termination is the
/// idle-counting protocol: when every worker waits at once over an
/// empty queue, the search space is exhausted (docs/concurrency.md).
class ParallelSearch {
 public:
  ParallelSearch(const tpn::TimePetriNet& net, const SchedulerOptions& options,
                 const GoalPredicate& goal)
      : shared_(net, options, goal, options.threads),
        pool_(shared_.threads, [this](std::uint32_t idle) {
          gauge(&obs::ProgressSink::idle_workers, idle);
        }) {}

  SearchOutcome run();

 private:
  /// Moves the item into the shared queue for whichever worker runs dry.
  void push_work(std::uint32_t tid, WorkItem&& item) {
    pool_.push(tid, std::move(item));
    gauge(&obs::ProgressSink::queue, pool_.pending());
  }

  /// Write-only progress gauge; never read back by the search.
  void gauge(std::atomic<std::uint64_t> obs::ProgressSink::*field,
             std::uint64_t value) noexcept {
    if constexpr (obs::kTelemetryEnabled) {
      if (shared_.options.progress != nullptr) {
        (shared_.options.progress->*field)
            .store(value, std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] bool stopped() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Cooperative stop: waiting workers wake, running ones unwind at their
  /// next step. Items left in the queue die with it.
  void finish() {
    stop_.store(true, std::memory_order_release);
    pool_.shutdown();
  }

  /// Records an outcome that ends the search (goal, budget, guard).
  void conclude(SearchStatus status, Trace trace = {}) {
    {
      std::lock_guard<std::mutex> lock(result_mu_);
      if (rank(status) > rank(status_)) {
        status_ = status;
        winning_ = std::move(trace);
      }
    }
    finish();
  }

  /// Donates pending candidates from the *shallowest* unexhausted frame
  /// to the shared queue while other workers are hungry: shallow siblings
  /// root the largest subtrees, so shared work stays coarse. Donations
  /// are admitted here, so the taker starts from an expanded frame. Only
  /// frames with untried candidates are fired from, and those still own
  /// their state; donating a frame's last candidate spends it like any
  /// other firing (SearchWorker::admit).
  void maybe_offload(SearchWorker& w, const WorkItem& item) {
    const std::size_t hunger = shared_.threads;
    if (hunger == 1 || pool_.pending() >= hunger) {
      return;
    }
    for (std::size_t i = 0; i < w.stack.size() && !stopped(); ++i) {
      Frame& frame = w.stack[i];
      // Keep the frame's last pending candidate for ourselves when it is
      // the top frame — a worker must not starve itself into a pop/push
      // cycle on its own donations.
      const bool top = i + 1 == w.stack.size();
      const std::size_t path_len = frame.edge_at + frame.events;
      while (frame.next + (top ? 1 : 0) < frame.candidates.size() &&
             pool_.pending() < hunger) {
        WorkItem donated;
        const Admit r = w.admit(frame, w.stack.size(), donated.frame);
        if (r == Admit::kAdmitted) {
          donated.prefix = w.trace_to(item, path_len);
          push_work(w.tid, std::move(donated));
          ++w.donations;
          continue;
        }
        w.retire(std::move(donated.frame));
        if (r == Admit::kFinal) {
          conclude(w.status, w.trace_to(item, path_len));
          return;
        }
      }
      if (frame.next < frame.candidates.size()) {
        return;  // donated enough; deeper frames stay ours
      }
    }
  }

  void worker_main(SearchWorker& w) {
    obs::Span span(shared_.options.tracer, "search-worker", "sched");
    span.set_args("{\"worker\":" + std::to_string(w.tid) + "}");
    // Bounded wait only when a guard is armed, so a waiting worker still
    // notices a SIGINT or an expired wall limit even when no peer ever
    // wakes it; unguarded searches wait indefinitely.
    const auto poll = std::chrono::milliseconds(
        shared_.guard.armed() ? 20 : 0);
    auto between = [&](const WorkItem& item) {
      if (stopped()) {
        return false;
      }
      maybe_offload(w, item);
      return !stopped();
    };
    auto search = [&](WorkItem& item) {
      if (auto status = w.run_stack(item, between)) {
        conclude(*status, std::move(w.trace));
      }
    };
    using Pool = DonationQueue<WorkItem>;
    try {
      if (w.tid == 0) {
        // Worker 0 runs s0 itself; its peers wait until it donates.
        WorkItem root;
        if (w.admit_root(root.frame) == Admit::kFinal) {
          conclude(w.status);
        } else {
          search(root);
        }
      }
      for (;;) {
        WorkItem item;
        const Pool::Acquire r = pool_.acquire(w.tid, item, poll);
        if (r == Pool::Acquire::kDone) {
          break;
        }
        if (r == Pool::Acquire::kTimeout) {
          if (auto tripped = shared_.guard.check_now(
                  [&] { return shared_.visited->memory_bytes(); })) {
            conclude(*tripped);
          }
          continue;
        }
        search(item);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(result_mu_);
      if (!failure_) {
        failure_ = std::current_exception();
      }
    }
    finish();  // idempotent; after a failure it stops the peers
  }

  SearchShared shared_;
  DonationQueue<WorkItem> pool_;
  std::atomic<bool> stop_{false};

  std::mutex result_mu_;
  SearchStatus status_ = SearchStatus::kInfeasible;  ///< guarded by result_mu_
  Trace winning_;                                    ///< guarded by result_mu_
  std::exception_ptr failure_;                       ///< guarded by result_mu_
};

SearchOutcome ParallelSearch::run() {
  std::deque<SearchWorker> workers;
  std::vector<SearchWorker*> views;
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < shared_.threads; ++i) {
    SearchWorker& w = workers.emplace_back(shared_, i);
    views.push_back(&w);
    threads.emplace_back([this, &w] { worker_main(w); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (failure_) {
    std::rethrow_exception(failure_);
  }

  SearchOutcome out;
  out.status = status_;
  if (out.status == SearchStatus::kFeasible) {
    out.trace = std::move(winning_);
  }
  shared_.fold(out, views);
  for (std::size_t i = 0; i < out.telemetry.workers.size(); ++i) {
    out.telemetry.workers[i].steals = pool_.stats(i).steals;
    out.telemetry.workers[i].idle_transitions =
        pool_.stats(i).idle_transitions;
  }
  return out;
}

}  // namespace

SearchOutcome parallel_search(const tpn::TimePetriNet& net,
                              const SchedulerOptions& options,
                              const GoalPredicate& goal) {
  EZRT_CHECK(options.threads >= 1,
             "parallel_search requires options.threads >= 1");
  EZRT_CHECK(options.objective == Objective::kFirstFeasible,
             "parallel_search supports the kFirstFeasible objective only");

  SearchOutcome out = ParallelSearch(net, options, goal).run();

  if (options.deterministic && (out.status == SearchStatus::kFeasible ||
                                out.status == SearchStatus::kLimitReached)) {
    // A parallel kInfeasible verdict (the pruned graph exhausted below the
    // budget) is the same in every interleaving and passes through, as do
    // the timing-dependent guard verdicts. A feasible trace is
    // first-past-the-post, and under a bounded budget feasible-vs-limit is
    // a race, so those are re-derived serially: the serial outcome is
    // canonical. The phases are reported separately (parallel_verdict_ms
    // vs the serial stats.elapsed_ms) so the toggle's cost stays visible.
    const double verdict_ms = out.stats.elapsed_ms;
    SchedulerOptions serial = options;
    serial.threads = 0;
    DfsScheduler scheduler(net, serial);
    scheduler.set_goal(goal);
    out = scheduler.search();
    out.parallel_verdict_ms = verdict_ms;
  }
  return out;
}

}  // namespace ezrt::sched
