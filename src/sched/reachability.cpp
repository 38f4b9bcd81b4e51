#include "sched/reachability.hpp"

#include <chrono>
#include <deque>
#include <utility>

#include "base/assert.hpp"
#include "sched/guards.hpp"
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
  const tpn::Semantics semantics(net);
  ReachabilityResult result;

  // The search engines' guard, table and key, built from the same ceiling
  // values: the key is the Zobrist digest Semantics::fire maintains.
  const ResourceGuard guard(
      {.wall_limit_ms = options.wall_limit_ms,
       .memory_limit_bytes = options.memory_limit_bytes,
       .cancel = options.cancel},
      std::chrono::steady_clock::now());
  const std::uint64_t state_bytes = estimated_frame_bytes(net);
  CasVisitedSet visited(1, 1);
  std::deque<tpn::State> frontier;

  // BFS has no notion of prunes, so the duplicate-hit count stands in,
  // and the frontier size feeds both the depth and queue gauges.
  std::uint64_t duplicates = 0;
  ProgressCursor progress{options.progress};
  if (options.progress != nullptr) {
    options.progress->publish(0, 0, 0, 0);  // the cursor adds growth
  }
  auto publish_queue = [&] {
    if constexpr (obs::kTelemetryEnabled) {
      options.progress->queue.store(frontier.size(),
                                    std::memory_order_relaxed);
    }
  };
  auto stop = [&](ReachabilityStop why) {
    result.stop = why;
    result.complete = why == ReachabilityStop::kComplete;
    if (options.progress != nullptr) {
      options.progress->publish(result.states_explored,
                                result.transitions_fired, duplicates,
                                frontier.size());
      publish_queue();
    }
    return result;
  };

  auto observe = [&](const tpn::State& s) {
    for (PlaceId p : net.place_ids()) {
      result.bound = std::max(result.bound, s.marking()[p]);
    }
    if (tpn::is_final_marking(net, s.marking())) {
      result.final_reachable = true;
    }
  };

  tpn::State s0 = tpn::State::initial(net);
  visited.insert(s0.digest(), 0);
  observe(s0);
  frontier.push_back(std::move(s0));
  result.states_explored = 1;

  while (!frontier.empty()) {
    result.peak_frontier =
        std::max<std::uint64_t>(result.peak_frontier, frontier.size());
    const tpn::State s = std::move(frontier.front());
    frontier.pop_front();

    const auto fireable = semantics.fireable(s, /*priority_filter=*/false);
    if (fireable.empty()) {
      if (!tpn::is_final_marking(net, s.marking()) &&
          !tpn::has_deadline_miss(net, s.marking())) {
        result.deadlock_found = true;
      }
      continue;
    }

    for (const tpn::FireableTransition& f : fireable) {
      tpn::State next = semantics.fire(s, f.transition, f.earliest);
      ++result.transitions_fired;
      if (const auto tripped = guard.check(result.transitions_fired, [&] {
            return visited.memory_bytes() + frontier.size() * state_bytes;
          })) {
        return stop(*tripped == SearchStatus::kCancelled
                        ? ReachabilityStop::kCancelled
                    : *tripped == SearchStatus::kTimeLimit
                        ? ReachabilityStop::kTimeLimit
                        : ReachabilityStop::kMemoryLimit);
      }
      if (!visited.insert(std::as_const(next).digest(), 0)) {
        ++duplicates;
        continue;
      }
      ++result.states_explored;
      observe(next);
      if (progress.publish(result.states_explored, result.transitions_fired,
                           duplicates, frontier.size())) {
        publish_queue();
      }
      if (tpn::has_deadline_miss(net, next.marking())) {
        // Observed but not expanded, mirroring the scheduler's pruning.
        result.miss_reachable = true;
        continue;
      }
      if (options.max_states != 0 &&
          result.states_explored >= options.max_states) {
        return stop(ReachabilityStop::kStateBudget);
      }
      frontier.push_back(std::move(next));
    }
  }
  return stop(ReachabilityStop::kComplete);
}

}  // namespace ezrt::sched
