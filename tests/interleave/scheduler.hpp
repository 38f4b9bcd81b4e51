// Schedule-controlled interleaving harness for the lock-free search
// structures (lincheck-style; see docs/concurrency.md §4).
//
// The structures under test are compiled with EZRT_INTERLEAVE_HOOKS, so
// every linearization-relevant atomic operation calls EZRT_STEP first.
// The harness installs a hook that parks the calling thread until the
// scheduler grants it one step, which serializes execution into
// step-delimited blocks: at any moment at most one thread runs, and the
// scheduler decides — per a pluggable policy — which parked thread moves
// next. That turns "did we get unlucky with the OS scheduler" into "did
// any schedule in this space break the invariant":
//
//  * kFixed   — replay an explicit schedule (a thread index per step);
//               used by the exhaustive enumerator and the minimizer.
//  * kRandom  — uniform random choice per step, seeded.
//  * kPct     — PCT-style random priorities: the highest-priority
//               runnable thread always moves; a few seeded change points
//               demote the leader mid-run, and a spin-demotion rule
//               breaks priority-induced livelocks on spin-wait sites.
//
// `exhaust` enumerates every schedule of a scenario up to a budget by
// branching on each decision's runnable set (stateless-model-checking
// style, no reduction); `minimize` greedily shrinks a failing schedule by
// merging adjacent context switches and truncating the tail, re-running
// the scenario to confirm each candidate still fails.
//
// Threads that block *outside* the hook (on a mutex, or waiting on a
// condition variable such as the donation queue's empty-queue wait)
// would deadlock a naive controller: the blocked thread never reaches a
// step, and the thread that would release it is parked in the harness.
// The control loop detects the stall with a bounded wait and grants an
// additional parked thread — strict one-at-a-time scheduling resumes
// once the cycle breaks. The lock-free table scenarios never hit this
// path and stay fully deterministic; the donation-queue scenarios take
// it whenever a worker waits on the empty queue.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sched/interleave_hooks.hpp"

namespace ezrt::testing {

/// One concurrent test case: `reset` builds fresh structures, `body(tid)`
/// is executed by thread `tid` under the scheduler, and `check` runs
/// single-threaded after every thread joined, returning false (and a
/// reason) when an invariant broke.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void reset() = 0;
  [[nodiscard]] virtual std::size_t threads() const = 0;
  virtual void body(std::size_t tid) = 0;
  virtual bool check(std::string* why) = 0;
};

struct ScheduleOptions {
  enum class Policy { kFixed, kRandom, kPct };
  Policy policy = Policy::kRandom;
  std::uint64_t seed = 0;
  std::vector<int> fixed;  ///< kFixed: forced prefix, then lowest-index
  /// Steps before the run switches to free-running threads (schedule
  /// abandoned, marked overflowed). Generous: spin-wait sites consume
  /// steps while waiting for their peer.
  std::size_t max_steps = 20000;
  std::size_t pct_change_points = 3;
  /// Consecutive grants to one thread parked at one site before kPct
  /// demotes it (it is spinning on a peer that priority order starves).
  std::size_t spin_demote_after = 32;
};

struct RunOutcome {
  bool ok = true;
  bool overflowed = false;
  std::vector<int> executed;  ///< chosen thread per decision
  std::vector<std::vector<int>> runnable;  ///< choice set per decision
  std::string failure;
};

class StepScheduler {
 public:
  explicit StepScheduler(ScheduleOptions opts) : opts_(std::move(opts)) {}

  /// Runs the scenario once under the configured policy.
  RunOutcome drive(Scenario& scenario) {
    scenario.reset();
    const std::size_t n = scenario.threads();
    recs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      recs_.push_back(std::make_unique<Rec>());
    }
    ids_.clear();
    running_ = n;
    finished_ = 0;
    free_run_ = false;

    RunOutcome out;
    sched::interleave::install_step_hook(&StepScheduler::trampoline, this);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t tid = 0; tid < n; ++tid) {
      threads.emplace_back([this, &scenario, tid] {
        attach(tid);
        scenario.body(tid);
        detach(tid);
      });
    }
    control_loop(out);
    for (std::thread& t : threads) {
      t.join();
    }
    sched::interleave::clear_step_hook();
    if (!scenario.check(&out.failure)) {
      out.ok = false;
    }
    return out;
  }

 private:
  struct Rec {
    enum class State { kRunning, kAtStep, kFinished };
    State state = State::kRunning;
    bool granted = false;
    const char* site = "";
  };

  static void trampoline(void* ctx, const char* site) {
    static_cast<StepScheduler*>(ctx)->on_step(site);
  }

  void attach(std::size_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    ids_[std::this_thread::get_id()] = tid;
  }

  void detach(std::size_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_[tid]->state = Rec::State::kFinished;
    ++finished_;
    --running_;
    cv_.notify_all();
  }

  void on_step(const char* site) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = ids_.find(std::this_thread::get_id());
    if (it == ids_.end() || free_run_) {
      return;  // untracked thread, or the schedule was abandoned
    }
    Rec& rec = *recs_[it->second];
    rec.site = site;
    rec.state = Rec::State::kAtStep;
    --running_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return rec.granted || free_run_; });
    rec.granted = false;
    // grant() already flipped state/running_ under the lock; only a
    // free_run_ wake (schedule abandoned mid-park) leaves them stale.
    if (rec.state == Rec::State::kAtStep) {
      rec.state = Rec::State::kRunning;
      ++running_;
    }
  }

  [[nodiscard]] std::vector<int> at_step_indices() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i]->state == Rec::State::kAtStep) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  // Caller holds mu_. The state flip happens here, not in the woken
  // thread: the control loop re-enters its quiesce wait immediately after
  // granting, and if the grantee still read as kAtStep/not-running until
  // it woke, the loop would see a quiesced system and record a duplicate
  // decision for the same parked state.
  void grant(int tid) {
    Rec& rec = *recs_[static_cast<std::size_t>(tid)];
    rec.granted = true;
    rec.state = Rec::State::kRunning;
    ++running_;
    cv_.notify_all();
  }

  void control_loop(RunOutcome& out) {
    const std::size_t n = recs_.size();
    std::mt19937_64 rng(opts_.seed);

    // PCT state: a seeded priority permutation (higher value wins), seeded
    // change points, and the spin-demotion counter.
    std::vector<std::int64_t> priority(n);
    std::iota(priority.begin(), priority.end(), std::int64_t{1});
    std::shuffle(priority.begin(), priority.end(), rng);
    std::vector<std::size_t> change_at;
    for (std::size_t i = 0; i < opts_.pct_change_points; ++i) {
      change_at.push_back(rng() % opts_.max_steps);
    }
    std::int64_t low_water = 0;  // demotions go below every initial rank
    int last_pick = -1;
    const char* last_site = "";
    std::size_t repeats = 0;
    std::size_t fixed_pos = 0;

    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      // Quiesce: every unfinished thread parked at a step — or a stall
      // (granted thread blocked on a lock a parked thread holds).
      while (running_ > 0 && finished_ < n) {
        if (cv_.wait_for(lock, std::chrono::milliseconds(10)) ==
                std::cv_status::timeout &&
            running_ > 0 && !at_step_indices().empty()) {
          break;  // stall: schedule an extra thread to break the cycle
        }
      }
      if (finished_ == n && at_step_indices().empty()) {
        return;
      }
      const std::vector<int> runnable = at_step_indices();
      if (runnable.empty()) {
        continue;  // spurious wake while the last threads finish
      }

      int pick = runnable.front();
      switch (opts_.policy) {
        case ScheduleOptions::Policy::kFixed:
          if (fixed_pos < opts_.fixed.size()) {
            const int want = opts_.fixed[fixed_pos++];
            for (int r : runnable) {
              if (r == want) {
                pick = r;
                break;
              }
            }
          }
          break;
        case ScheduleOptions::Policy::kRandom:
          pick = runnable[rng() % runnable.size()];
          break;
        case ScheduleOptions::Policy::kPct: {
          for (int r : runnable) {
            if (priority[static_cast<std::size_t>(r)] >
                priority[static_cast<std::size_t>(pick)]) {
              pick = r;
            }
          }
          for (std::size_t cp : change_at) {
            if (cp == out.executed.size()) {
              priority[static_cast<std::size_t>(pick)] = --low_water;
            }
          }
          const char* site = recs_[static_cast<std::size_t>(pick)]->site;
          if (pick == last_pick && site == last_site) {
            if (++repeats >= opts_.spin_demote_after) {
              priority[static_cast<std::size_t>(pick)] = --low_water;
              repeats = 0;
            }
          } else {
            repeats = 0;
          }
          last_pick = pick;
          last_site = site;
          break;
        }
      }

      out.runnable.push_back(runnable);
      out.executed.push_back(pick);
      if (out.executed.size() >= opts_.max_steps) {
        out.overflowed = true;
        free_run_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return finished_ == n; });
        return;
      }
      grant(pick);
    }
  }

  ScheduleOptions opts_;
  std::vector<std::unique_ptr<Rec>> recs_;
  std::map<std::thread::id, std::size_t> ids_;
  std::size_t running_ = 0;
  std::size_t finished_ = 0;
  bool free_run_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
};

struct ExhaustResult {
  std::size_t schedules = 0;
  bool budget_exhausted = false;
  bool found_failure = false;
  RunOutcome failure;
  std::vector<int> failing_schedule;
};

/// Enumerates schedules depth-first: run one, then branch on every
/// decision point's untried alternatives. Complete below `max_steps` when
/// the budget is not exhausted; stops at the first failing schedule.
inline ExhaustResult exhaust(Scenario& scenario, std::size_t max_steps,
                             std::size_t schedule_budget) {
  ExhaustResult result;
  std::vector<std::vector<int>> pending;
  pending.push_back({});
  while (!pending.empty()) {
    if (result.schedules >= schedule_budget) {
      result.budget_exhausted = true;
      return result;
    }
    const std::vector<int> prefix = std::move(pending.back());
    pending.pop_back();

    ScheduleOptions opts;
    opts.policy = ScheduleOptions::Policy::kFixed;
    opts.fixed = prefix;
    opts.max_steps = max_steps;
    RunOutcome out = StepScheduler(opts).drive(scenario);
    ++result.schedules;
    if (!out.ok) {
      result.found_failure = true;
      result.failing_schedule = out.executed;
      result.failure = std::move(out);
      return result;
    }
    if (out.overflowed) {
      continue;  // abandoned: do not branch a runaway schedule further
    }
    for (std::size_t i = prefix.size(); i < out.runnable.size(); ++i) {
      for (int alt : out.runnable[i]) {
        if (alt == out.executed[i]) {
          continue;
        }
        std::vector<int> next(out.executed.begin(),
                              out.executed.begin() +
                                  static_cast<std::ptrdiff_t>(i));
        next.push_back(alt);
        pending.push_back(std::move(next));
      }
    }
  }
  return result;
}

/// Runs `rounds` PCT-seeded schedules; returns at the first failure.
inline ExhaustResult pct_campaign(Scenario& scenario, std::size_t rounds,
                                  std::uint64_t seed0,
                                  std::size_t max_steps = 20000) {
  ExhaustResult result;
  for (std::size_t round = 0; round < rounds; ++round) {
    ScheduleOptions opts;
    opts.policy = ScheduleOptions::Policy::kPct;
    opts.seed = seed0 + round;
    opts.max_steps = max_steps;
    RunOutcome out = StepScheduler(opts).drive(scenario);
    ++result.schedules;
    if (!out.ok) {
      result.found_failure = true;
      result.failing_schedule = out.executed;
      result.failure = std::move(out);
      return result;
    }
  }
  return result;
}

[[nodiscard]] inline std::size_t context_switches(
    const std::vector<int>& schedule) {
  std::size_t switches = 0;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    switches += schedule[i] != schedule[i - 1] ? 1 : 0;
  }
  return switches;
}

/// Greedy round minimization of a failing schedule: merge context
/// switches (replace each choice with its predecessor's thread) and
/// truncate the tail, keeping every candidate that still fails.
inline std::vector<int> minimize(Scenario& scenario,
                                 std::vector<int> schedule,
                                 std::size_t max_steps = 20000) {
  const auto still_fails = [&](const std::vector<int>& candidate) {
    ScheduleOptions opts;
    opts.policy = ScheduleOptions::Policy::kFixed;
    opts.fixed = candidate;
    opts.max_steps = max_steps;
    return !StepScheduler(opts).drive(scenario).ok;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < schedule.size(); ++i) {
      if (schedule[i] == schedule[i - 1]) {
        continue;
      }
      std::vector<int> candidate = schedule;
      candidate[i] = candidate[i - 1];
      if (still_fails(candidate)) {
        schedule = std::move(candidate);
        changed = true;
      }
    }
    while (!schedule.empty()) {
      std::vector<int> candidate(schedule.begin(), schedule.end() - 1);
      if (!still_fails(candidate)) {
        break;
      }
      schedule = std::move(candidate);
      changed = true;
    }
  }
  return schedule;
}

}  // namespace ezrt::testing
