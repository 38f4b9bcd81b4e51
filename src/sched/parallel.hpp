// Parallel TLTS search (docs/semantics.md §8).
//
// A work-sharing depth-first exploration of the same pruned successor
// graph the serial engine walks: each worker runs the serial DFS's stack
// loop and admission step (sched/search_kernel.hpp) over disjoint
// subtrees, admission is arbitrated by the sharded lock-free visited set
// keyed on the 128-bit Zobrist state digest (sched/visited_set.hpp),
// donation and termination go through one mutex-guarded FIFO
// (sched/donation_queue.hpp), and the first worker to reach the final
// marking stops the others cooperatively through an atomic flag,
// returning its winning firing schedule. Downstream stages
// (schedule-table extraction, trace replay, code generation) consume the
// returned trace exactly as they consume a serial one.
//
// Verdict determinism: the candidate expansion is a pure function of the
// state, so the pruned successor relation is a fixed graph and an
// exhaustive visited-set search explores exactly its reachable set in any
// interleaving — an infeasible verdict cannot depend on thread count (the
// differential sweep in tests/parallel_test.cpp checks this against the
// serial engine). The *trace* of a feasible model is first-past-the-post,
// and under a bounded state budget feasible-vs-limit is a race;
// SchedulerOptions::deterministic re-derives those outcomes serially when
// reproducibility matters more than latency. Resource-guard verdicts
// (time/memory/cancel, sched/guards.hpp) are inherently timing-dependent
// and exempt (docs/robustness.md).
#pragma once

#include "sched/dfs.hpp"

namespace ezrt::sched {

/// Runs the multi-threaded search. Preconditions (checked): options.threads
/// >= 1 and options.objective == kFirstFeasible. `goal` must be safe to
/// call concurrently (a pure function of the marking).
[[nodiscard]] SearchOutcome parallel_search(const tpn::TimePetriNet& net,
                                          const SchedulerOptions& options,
                                          const GoalPredicate& goal);

}  // namespace ezrt::sched
