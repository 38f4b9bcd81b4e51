// Guided search engines: best-first and beam (docs/search.md).
//
// Both engines consume the exact pruned successor graph the DFS walks
// (sched/expansion.hpp) and differ only in which frontier state expands
// next:
//
//   * kBestFirst orders the frontier by f = elapsed + h, where h is the
//     admissible remaining-work lower bound from tpn::StateClassifier
//     (the largest per-processor outstanding computation demand). Ties
//     break toward the tightest deadline slack, then insertion order, so
//     the exploration is deterministic. Admissible h never prunes — it
//     only reorders — so best-first is complete: an exhausted frontier is
//     a sound kInfeasible verdict, and the paper's differential contract
//     (same verdict as the DFS oracle) holds.
//
//   * kBeam expands level by level, keeping only the beam_width best
//     states per level. A pass that dropped states and found no goal is
//     inconclusive (kLimitReached — never kInfeasible); with
//     SchedulerOptions::widen the width doubles until a schedule appears
//     or a pass completes without dropping anything, which makes that
//     pass exhaustive and its kInfeasible sound.
//
// Both are frontiers over the shared admission step (sched/search_kernel.hpp),
// so with state classes enabled (sched::state_classes_enabled) they key on
// canonical class digests, cut doomed branches and contract forced
// corridors exactly like the DFS.
#pragma once

#include "sched/dfs.hpp"

namespace ezrt::sched {

/// Runs the engine selected by options.search_engine (kBestFirst or
/// kBeam). Preconditions (checked): a guided engine is selected and
/// options.objective == kFirstFeasible. Always serial; options.threads is
/// ignored.
[[nodiscard]] SearchOutcome guided_search(const tpn::TimePetriNet& net,
                                          const SchedulerOptions& options,
                                          const GoalPredicate& goal);

}  // namespace ezrt::sched
