#include "sched/reachability.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "sched/search_kernel.hpp"

namespace ezrt::sched {

const char* to_string(ReachabilityStop stop) {
  switch (stop) {
    case ReachabilityStop::kComplete:
      return "complete";
    case ReachabilityStop::kStateBudget:
      return "state-budget";
    case ReachabilityStop::kTimeLimit:
      return "time-limit";
    case ReachabilityStop::kMemoryLimit:
      return "memory-limit";
    case ReachabilityStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

ReachabilityResult explore(const tpn::TimePetriNet& net,
                           const ReachabilityOptions& options) {
  EZRT_CHECK(net.validated(), "explore requires a validated net");
  // The scheduler's complete mode with POR and state classes off: every
  // fireable transition at its earliest time, keyed on concrete states.
  const SchedulerOptions scheduler{
      .pruning = PruningMode::kNone,
      .partial_order_reduction = false,
      .state_classes = StateClassMode::kOff,
      .max_states = options.max_states,
      .wall_limit_ms = options.wall_limit_ms,
      .memory_limit_bytes = options.memory_limit_bytes,
      .cancel = options.cancel,
      .progress = options.progress};
  // The goal is an observer: the kernel shows it every admitted state
  // once, and it never ends the exploration.
  ReachabilityResult result;
  const GoalPredicate observe = [&](const tpn::Marking& m) {
    for (const std::uint32_t tokens : m.tokens()) {
      result.bound = std::max(result.bound, tokens);
    }
    result.final_reachable |= tpn::is_final_marking(net, m);
    return false;
  };
  auto dead_end = [&](const Frame& f) {
    return f.candidates.empty() &&
           !tpn::is_final_marking(net, f.state.marking());
  };
  SearchShared shared(net, scheduler, observe, 0);
  SearchWorker w(shared, 0);

  // A level frontier: each depth is admitted whole before the next.
  std::vector<Frame> level(1);
  std::vector<Frame> next;
  std::optional<SearchStatus> stop;
  if (w.admit_root(level[0]) == Admit::kFinal) {
    stop = w.status;
  }
  result.deadlock_found = !stop && dead_end(level[0]);
  while (!stop && !level.empty()) {
    if constexpr (obs::kTelemetryEnabled) {
      if (options.progress != nullptr) {
        options.progress->queue.store(level.size(),
                                      std::memory_order_relaxed);
      }
    }
    for (std::size_t i = 0; i < level.size() && !stop; ++i) {
      const std::size_t frontier = level.size() - i + next.size();
      result.peak_frontier =
          std::max<std::uint64_t>(result.peak_frontier, frontier);
      while (level[i].next < level[i].candidates.size()) {
        Frame child;
        const Admit r =
            w.admit(level[i], level.size() + next.size(), child);
        if (r == Admit::kAdmitted) {
          result.deadlock_found |= dead_end(child);
          next.push_back(std::move(child));
          continue;
        }
        w.retire(std::move(child));
        if (r == Admit::kFinal) {
          stop = w.status;
          break;
        }
      }
      w.retire(std::move(level[i]));  // a dead end still holds its state
    }
    level.swap(next);
    next.clear();
  }

  SearchOutcome out;
  shared.fold(out, std::array{&w});
  result.states_explored = out.stats.states_visited;
  result.transitions_fired = out.stats.transitions_fired;
  result.miss_reachable = out.stats.pruned_deadline > 0;
  result.complete = !stop;
  using enum ReachabilityStop;
  result.stop = !stop ? kComplete
                : *stop == SearchStatus::kLimitReached ? kStateBudget
                : *stop == SearchStatus::kTimeLimit    ? kTimeLimit
                : *stop == SearchStatus::kMemoryLimit  ? kMemoryLimit
                                                       : kCancelled;
  return result;
}

}  // namespace ezrt::sched
