// Feasible firing schedules (Definition 3.2) and search statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "base/time.hpp"
#include "tpn/net.hpp"

namespace ezrt::sched {

/// One labeled TLTS action (t, q): transition `transition` fired `delay`
/// units after the previous state, i.e. at absolute model time `at`.
struct FiringEvent {
  TransitionId transition;
  Time delay = 0;
  Time at = 0;
};

/// A firing sequence s0 -(t1,q1)-> s1 ... -(tn,qn)-> sn. When produced by a
/// successful search it is a feasible firing schedule: it ends in the
/// desired final marking M_F with no deadline-miss place ever marked.
using Trace = std::vector<FiringEvent>;

/// Search effort counters. `states_visited` counts distinct TLTS states
/// entered (the paper reports 3268 for the mine-pump study; the minimum —
/// the length of the feasible path — is 3130 firings).
struct SearchStats {
  std::uint64_t states_visited = 0;   ///< distinct states pushed (incl. s0)
  std::uint64_t transitions_fired = 0;  ///< fire() applications
  std::uint64_t backtracks = 0;       ///< frames popped without success
  std::uint64_t pruned_deadline = 0;  ///< successors with a miss marking
  std::uint64_t pruned_visited = 0;   ///< successors already in the set
  /// Fireable transitions dropped by the FT_P priority filter
  /// (tpn::apply_priority_filter) before they became candidates.
  std::uint64_t pruned_priority = 0;
  /// DFS stack height in every engine: the admitted states on the deepest
  /// expanded path, s0 included (docs/search.md).
  std::uint64_t max_depth = 0;
  /// Successors pruned by the state-class doom certificate: every
  /// continuation provably marks a miss place (docs/search.md §3).
  std::uint64_t pruned_doomed = 0;
  /// Admitted states whose canonical class representative differs from
  /// the concrete state (a release clock was capped) — the states the
  /// class abstraction can merge with siblings.
  std::uint64_t classes_merged = 0;
  /// StateClassifier::evaluate calls by the guided engines (one per
  /// admitted frontier state; docs/search.md §2).
  std::uint64_t heuristic_evals = 0;
  /// Frontier states discarded by the beam width limit. Nonzero means the
  /// exploration was incomplete: a goalless beam pass reports
  /// kLimitReached unless this stayed zero.
  std::uint64_t beam_dropped = 0;
  /// Estimated high-water heap footprint of the visited structure, in
  /// bytes. The structures only grow, so the end-of-search size is the
  /// peak; deterministic for a given exploration (table geometry depends
  /// only on the set of inserted states).
  std::uint64_t peak_visited_bytes = 0;
  double elapsed_ms = 0.0;            ///< wall-clock search time
};

/// Per-worker effort of one parallel search (docs/observability.md).
/// `stats` holds the worker's share of the aggregate SearchStats.
struct WorkerTelemetry {
  std::uint32_t worker = 0;
  std::uint64_t expansions = 0;        ///< Expander::expand calls
  std::uint64_t donations = 0;         ///< items shared via the queue
  std::uint64_t steals = 0;            ///< items taken that a peer donated
  std::uint64_t idle_transitions = 0;  ///< waits on an empty queue
  /// Expansions this worker collapsed to one successor via the reduction.
  std::uint64_t reduction_singletons = 0;
  SearchStats stats;
};

/// Occupancy and probe-length distribution of one visited-set shard.
/// `probe_hist[i]` counts keys at linear-probe displacement i from their
/// home slot for i < 8; the last bucket aggregates displacements >= 8.
struct ShardTelemetry {
  std::uint64_t slots = 0;
  std::uint64_t occupied = 0;
  double load_factor = 0.0;
  std::uint64_t probe_max = 0;
  double probe_mean = 0.0;
  std::vector<std::uint64_t> probe_hist;
};

/// Detailed search telemetry, collected when
/// SchedulerOptions::collect_telemetry is set. Worker/shard breakdowns are
/// scheduling-dependent for parallel runs (docs/semantics.md §8); the
/// serial engine reports itself as a single worker and no shards.
struct SearchTelemetry {
  bool collected = false;
  std::vector<WorkerTelemetry> workers;
  std::vector<ShardTelemetry> shards;
  /// Expansions collapsed to a single successor by the partial-order
  /// reduction (docs/semantics.md §4).
  std::uint64_t reduction_singletons = 0;
};

}  // namespace ezrt::sched
