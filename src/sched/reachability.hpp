// Bounded reachability analysis over the TLTS.
//
// Besides schedule synthesis, ezRealtime advertises property checking on
// the composed model. This analyzer is the scheduler's explorer run
// breadth-first: a level frontier over the shared admission step
// (sched/search_kernel.hpp) in the scheduler's complete mode with
// partial-order reduction and state classes off, i.e. the same
// earliest-firing discretization. It reports the properties a specifier
// cares about before synthesis:
//
//   * final_reachable  — M_F is reachable at all (necessary and, in this
//     discretization, sufficient for the DFS to find a schedule);
//   * miss_reachable   — some interleaving marks a deadline-miss place
//     (i.e. the schedule *choice* matters; a run-time scheduler could
//     pick a losing order);
//   * deadlock_found   — a non-final state with no fireable transition
//     (a modeling error: well-formed block compositions cannot deadlock
//     short of the final marking);
//   * bound            — the largest token count observed in any place
//     (the built models are bounded by construction; this verifies it).
//
// A miss marking is a deadline prune, exactly as in the scheduler: it is
// neither counted in states_explored nor expanded, and miss_reachable
// says that at least one was pruned. The goal does not stop the
// exploration; the final state counts and expands like any other. So an
// exhausted exploration of an infeasible model admits the same states
// and fires the same edges as the complete DFS with classes and
// partial-order reduction off.
#pragma once

#include <cstdint>

#include "base/result.hpp"
#include "tpn/analysis.hpp"
#include "tpn/semantics.hpp"

namespace ezrt::base {
class CancelToken;
}  // namespace ezrt::base

namespace ezrt::obs {
class ProgressSink;
}  // namespace ezrt::obs

namespace ezrt::sched {

struct ReachabilityOptions {
  /// Stop after this many distinct states (0 = unlimited — beware).
  /// Matches SchedulerOptions::max_states: every engine in the tool is
  /// budgeted out of the box with the same default (docs/robustness.md).
  std::uint64_t max_states = 250'000;
  /// Wall-clock ceiling in milliseconds (0 = off) — same guard surface as
  /// SchedulerOptions (docs/robustness.md).
  std::uint64_t wall_limit_ms = 0;
  /// Ceiling on the estimated visited + frontier heap bytes (0 = off).
  std::uint64_t memory_limit_bytes = 0;
  /// Cooperative cancellation (base/cancel.hpp). Null = off.
  const base::CancelToken* cancel = nullptr;
  /// Live progress gauges (obs/progress.hpp), published by the search
  /// kernel like every engine's; depth is the level and queue its size.
  /// Null = off.
  obs::ProgressSink* progress = nullptr;
};

/// Why the exploration stopped. kComplete is the only outcome whose
/// property verdicts (final_reachable etc.) are exhaustive; the others
/// report what was observed up to the ceiling that tripped.
enum class ReachabilityStop : std::uint8_t {
  kComplete,
  kStateBudget,
  kTimeLimit,
  kMemoryLimit,
  kCancelled,
};

[[nodiscard]] const char* to_string(ReachabilityStop stop);

struct ReachabilityResult {
  std::uint64_t states_explored = 0;  ///< admitted states, misses excluded
  std::uint64_t transitions_fired = 0;
  bool complete = false;  ///< the whole (pruned) space fit under the bound
  ReachabilityStop stop = ReachabilityStop::kComplete;
  bool final_reachable = false;
  bool miss_reachable = false;
  bool deadlock_found = false;
  std::uint32_t bound = 0;  ///< max tokens observed in a single place
  std::uint64_t peak_frontier = 0;
};

/// Explores the earliest-firing state graph of a validated net.
[[nodiscard]] ReachabilityResult explore(const tpn::TimePetriNet& net,
                                         const ReachabilityOptions&
                                             options = {});

}  // namespace ezrt::sched
