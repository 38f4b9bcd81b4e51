// Pre-runtime schedule synthesis (paper §4.4.1).
//
// A depth-first search over the timed labeled transition system of an
// extended TPN, looking for a firing sequence that reaches the final
// marking M_F (the join block's pend place). State-space growth is kept
// under control by
//   * undesirable-state pruning — any marking that covers a deadline-miss
//     place is abandoned immediately;
//   * a visited set over (marking, clock-vector) states;
//   * the paper's priority filter FT_P(s) (optional);
//   * a partial-order reduction in the spirit of Lilius: a transition
//     that is forced *now* (DUB = 0), is structurally conflict-free, and
//     produces only into places whose consumers carry fresh clocks
//     commutes with every zero-delay alternative and is explored as the
//     only successor (docs/semantics.md §4 gives the soundness argument
//     and the two tempting-but-unsound stronger rules this replaced).
//
// Firing times default to the earliest point of each firing domain, which
// yields work-conserving schedules; the exhaustive AllInDomain policy also
// explores deliberately inserted idle time (exponentially larger).
#pragma once

#include <chrono>
#include <functional>

#include "base/result.hpp"
#include "sched/attribution.hpp"
#include "sched/trace.hpp"
#include "tpn/analysis.hpp"
#include "tpn/semantics.hpp"

namespace ezrt::base {
class CancelToken;
}  // namespace ezrt::base

namespace ezrt::obs {
struct ProgressSink;
class Tracer;
}  // namespace ezrt::obs

namespace ezrt::sched {

/// Which subset of FT(s) the search branches over.
enum class PruningMode : std::uint8_t {
  kNone,            ///< all fireable transitions (complete w.r.t. policy)
  kPriorityFilter,  ///< the paper's FT_P(s): minimal-priority subset only
};

enum class FiringTimePolicy : std::uint8_t {
  kEarliest,     ///< fire each candidate at its dynamic lower bound
  kAllInDomain,  ///< try every integer delay in the firing domain
};

/// How successors are computed. Both engines implement the same
/// Definition 3.1 firing rule and must produce bit-identical searches;
/// kReference exists only as the oracle the incremental engine is checked
/// against (tests/incremental_test.cpp): no CLI flag, serve field or run
/// option selects it.
enum class SuccessorEngine : std::uint8_t {
  kIncremental,  ///< O(|affected(t)|) per firing via the maintained bitset
  kReference,    ///< dense O(|T|) rescan per firing (literal Definition 3.1)
};

/// Which search strategy orders the exploration (docs/search.md). All
/// strategies walk the same pruned successor graph (sched/expansion.hpp);
/// they differ only in *which* frontier state is expanded next — so
/// kFeasible traces may differ between engines, but verdicts may not
/// (kBeam without widening excepted: a fixed-width beam that drops states
/// and finds no goal reports kLimitReached, never kInfeasible).
enum class SearchEngine : std::uint8_t {
  kDfs,        ///< depth-first (the paper's algorithm; default)
  kBestFirst,  ///< lowest f = elapsed + remaining-work bound first; complete
  kBeam,       ///< levelized, keeps the best beam_width states per level
};

/// Whether the search keys its visited set on discrete state classes
/// (tpn::StateClassifier) instead of concrete states, prunes provably
/// doomed branches via the slack certificate, and contracts forced
/// corridors (docs/search.md §3). Goal-reachability is preserved, so
/// verdicts are unchanged while exhaustive state counts drop by an order
/// of magnitude on builder-produced nets.
enum class StateClassMode : std::uint8_t {
  /// On exactly for truly exhaustive verdict runs (pruning == kNone,
  /// max_states == 0, objective == kFirstFeasible) — the configuration
  /// whose cost the abstraction exists to collapse; off otherwise, which
  /// keeps bounded/pruned explorations (and their pinned test counts)
  /// bit-identical to previous releases.
  kAuto,
  kOn,   ///< always on (kFirstFeasible searches only)
  kOff,  ///< always off
};

/// What the search optimizes. The paper's algorithm stops at the first
/// feasible schedule; the optimizing modes keep exploring with
/// branch-and-bound (partial cost is monotone, so a branch whose cost
/// reaches the incumbent's is pruned) and return the best schedule found.
enum class Objective : std::uint8_t {
  kFirstFeasible,        ///< stop at the first schedule (paper behavior)
  kMinimizeMakespan,     ///< earliest completion of the whole period
  kMinimizeSwitches,     ///< fewest context switches, counted per core: a
                         ///< switch is a compute firing whose task differs
                         ///< from the previous compute firing on the *same*
                         ///< processor (on mono-processor nets this equals
                         ///< the global count) — the "optimize the generated
                         ///< code" future work: each switch costs dispatcher
                         ///< time on the target
};

struct SchedulerOptions {
  PruningMode pruning = PruningMode::kPriorityFilter;
  FiringTimePolicy firing_times = FiringTimePolicy::kEarliest;
  bool partial_order_reduction = true;
  Objective objective = Objective::kFirstFeasible;
  SuccessorEngine engine = SuccessorEngine::kIncremental;
  /// Exploration-order strategy. The guided engines (kBestFirst, kBeam)
  /// apply to the kFirstFeasible objective and run serially; optimizing
  /// objectives fall back to the branch-and-bound DFS, and `threads` is
  /// ignored while a guided engine is selected.
  SearchEngine search_engine = SearchEngine::kDfs;
  /// Frontier width for SearchEngine::kBeam: the states kept per level
  /// (everything else is dropped and counted in SearchStats::beam_dropped).
  std::uint32_t beam_width = 8;
  /// Iterative widening for kBeam: rerun with the width doubled until a
  /// schedule is found or a pass completes without dropping any state —
  /// that pass was exhaustive, so its kInfeasible verdict is sound.
  bool widen = false;
  /// State-class abstraction for the visited set (docs/search.md §3).
  StateClassMode state_classes = StateClassMode::kAuto;
  /// Abort with kLimitReached after this many distinct states (0 = off).
  /// For optimizing objectives the incumbent found so far is returned.
  /// The default matches ReachabilityOptions::max_states so every engine
  /// in the tool is budgeted out of the box (docs/robustness.md); opt
  /// into unbounded search explicitly with 0.
  std::uint64_t max_states = 250'000;
  /// Wall-clock ceiling on the search in milliseconds (0 = off): checked
  /// every few hundred fired transitions, terminates with kTimeLimit.
  /// Partial SearchStats are still reported (docs/robustness.md).
  std::uint64_t wall_limit_ms = 0;
  /// Ceiling on the search's estimated heap footprint in bytes (0 = off):
  /// visited-set bytes (exact slot accounting) plus an estimate of the
  /// states and frames the workers hold. Terminates with kMemoryLimit.
  std::uint64_t memory_limit_bytes = 0;
  /// Absolute wall-clock deadline (default-constructed = off). Unlike
  /// wall_limit_ms, which restarts at every engine's own t0, this point is
  /// fixed by the caller, so one budget spans a whole *sequence* of
  /// searches: `ezrt explain`'s culprit-minimization probes and the serve
  /// worker pool (where queueing time must count against the request's
  /// budget, docs/serve.md) both rely on it. When both ceilings are set
  /// the earlier one wins; terminates with kTimeLimit either way.
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancellation (base/cancel.hpp): polled on every fired
  /// transition (one relaxed atomic load), terminates with kCancelled.
  /// The CLI wires a SIGINT handler to this so ^C still produces a run
  /// report with partial statistics. Null = off.
  const base::CancelToken* cancel = nullptr;
  /// Widest firing domain AllInDomain will enumerate before giving up.
  Time max_domain_width = 10'000;
  /// Worker threads for the parallel search engine (docs/semantics.md §8):
  /// work-sharing DFS over disjoint subtrees with a sharded concurrent
  /// visited set. 0 = the serial engine, preserving today's exploration
  /// order, trace and statistics bit-for-bit. Parallel search applies to
  /// the kFirstFeasible objective only; the optimizing (branch-and-bound)
  /// objectives always run serially regardless of this setting.
  std::uint32_t threads = 0;
  /// Fix the outcome across thread counts. A parallel kInfeasible verdict
  /// is order-independent by construction (the pruned successor graph was
  /// exhausted below the state budget, which every engine and thread
  /// count reproduces); any other parallel verdict (kFeasible, or
  /// kLimitReached — with a bounded budget, which of the two wins is a
  /// race) is re-derived with the serial engine, whose outcome is
  /// canonical and returned. Net guarantee: verdict and trace are
  /// identical across all thread counts, for any max_states. Costs one
  /// serial search on feasible/limit outcomes; free on infeasible ones.
  /// The resource-guard verdicts (kTimeLimit, kMemoryLimit, kCancelled)
  /// are inherently machine- and timing-dependent and pass through
  /// unchanged. No effect when threads == 0.
  bool deterministic = false;
  /// Fill SearchOutcome::telemetry (per-worker and per-shard breakdowns).
  /// Collection happens after the verdict, so it never perturbs the
  /// search itself.
  bool collect_telemetry = false;
  /// Fill SearchOutcome::attribution (per-place deadline/contention and
  /// per-task doom counters at prune points, sched/attribution.hpp). Plain
  /// deterministic integers, present in every build — `ezrt explain`
  /// depends on them being byte-identical under EZRT_NO_TELEMETRY. For
  /// exhausted (kInfeasible) searches with state classes off they are also
  /// thread-count- and engine-order-independent (docs/explain.md §4).
  bool collect_attribution = false;
  /// Live progress atomics the engines publish into (masked to every
  /// 64th admitted state; docs/observability.md). Publishing is
  /// write-only and never read back, so verdict, trace and SearchStats
  /// are bit-for-bit identical with or without a sink. Null = off.
  obs::ProgressSink* progress = nullptr;
  /// Span tracer for search-internal activity (per-worker lifetime spans
  /// in the parallel engine). Null = off.
  obs::Tracer* tracer = nullptr;
};

enum class SearchStatus : std::uint8_t {
  kFeasible,      ///< trace holds a feasible firing schedule
  kInfeasible,    ///< search space exhausted without reaching M_F
  kLimitReached,  ///< max_states hit before a verdict
  kTimeLimit,     ///< wall_limit_ms elapsed before a verdict
  kMemoryLimit,   ///< memory_limit_bytes exceeded before a verdict
  kCancelled,     ///< CancelToken tripped (e.g. SIGINT) before a verdict
};

[[nodiscard]] const char* to_string(SearchStatus status);
[[nodiscard]] const char* to_string(SearchEngine engine);
[[nodiscard]] const char* to_string(StateClassMode mode);

/// Resolves StateClassMode against the rest of the options: what kAuto
/// defaults to, and the objective gate for kOn. Exposed so the run report
/// can record the effective value and tests can assert the rule.
[[nodiscard]] bool state_classes_enabled(const SchedulerOptions& options);

struct SearchOutcome {
  SearchStatus status = SearchStatus::kInfeasible;
  Trace trace;  ///< meaningful only when status == kFeasible
  SearchStats stats;
  /// Optimizing objectives: the returned schedule's cost (makespan or
  /// switch count) and how many incumbent schedules were found.
  std::uint64_t best_cost = 0;
  std::uint64_t solutions_found = 0;
  /// Deterministic parallel runs re-derive the trace serially; this is
  /// the parallel verdict phase alone, while stats.elapsed_ms covers the
  /// serial re-derivation that produced the reported trace and counters.
  /// 0 when no re-derivation happened.
  double parallel_verdict_ms = 0.0;
  /// Filled when SchedulerOptions::collect_telemetry is set.
  SearchTelemetry telemetry;
  /// Filled when SchedulerOptions::collect_attribution is set.
  AttributionCounters attribution;
};

/// Goal predicate over markings. An empty predicate (the default) is the
/// final marking M_F: a token in an End-role place (m(pend) = 1,
/// §3.3.1b), read from the net's role index.
using GoalPredicate = std::function<bool(const tpn::Marking&)>;

class DfsScheduler {
 public:
  /// The net must be validated and outlive the scheduler.
  explicit DfsScheduler(const tpn::TimePetriNet& net,
                        SchedulerOptions options = {});

  /// Overrides the default goal (used by nets without a join block).
  void set_goal(GoalPredicate goal) { goal_ = std::move(goal); }

  /// Runs the search from s0. With threads == 0 the search is fully
  /// deterministic: identical inputs yield identical traces and
  /// statistics. With threads > 0 the verdict is still deterministic,
  /// but the reported trace and effort counters depend on scheduling
  /// unless SchedulerOptions::deterministic is set.
  [[nodiscard]] SearchOutcome search() const;

  /// Replays a trace from s0, validating every firing against the timed
  /// semantics; returns the final state. Used to cross-check search
  /// results and to audit externally supplied schedules.
  [[nodiscard]] Result<tpn::State> replay(const Trace& trace) const;

 private:
  const tpn::TimePetriNet* net_;
  tpn::Semantics semantics_;
  SchedulerOptions options_;
  GoalPredicate goal_;
};

}  // namespace ezrt::sched
