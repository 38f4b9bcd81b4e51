// Dense-time state-class graph construction (Berthomieu & Diaz).
//
// The paper adopts a time-discrete semantics; the classic TPN analyzers
// it is related to (TINA, Romeo) work in *dense* time using state
// classes: a class C = (m, D) pairs a marking with a firing domain D — a
// difference-bound polyhedron over the enabled transitions' firing times.
// This module implements the standard class-graph successor computation:
//
//   fire(C, t):  t must be firable from C, i.e. adding the constraints
//   theta_t <= theta_u (for every enabled u) keeps D consistent; the new
//   domain shifts remaining clocks by theta_t, projects t out, and adds
//   fresh [EFT, LFT] intervals for newly enabled transitions.
//
// The atom constraints are kept in normalized DBM form (closure by
// Floyd-Warshall), so class equality is canonical and the reachable
// class graph is finite for bounded nets.
//
// Role here: an independent, dense-time engine to cross-validate the
// discrete-clock search — for the integer-interval nets ezRealtime
// builds, a marking is dense-time reachable iff it is reachable in the
// discrete semantics, and the class graph's firable sets subsume the
// discrete fireable sets (validated by tests and usable as an oracle).
#pragma once

#include <cstdint>
#include <vector>

#include "base/result.hpp"
#include "tpn/marking.hpp"
#include "tpn/net.hpp"
#include "tpn/state.hpp"

namespace ezrt::tpn {

/// A state class: marking + firing-domain DBM over enabled transitions.
class StateClass {
 public:
  /// The initial class C0 = (m0, prod of static intervals).
  [[nodiscard]] static StateClass initial(const TimePetriNet& net);

  [[nodiscard]] const Marking& marking() const { return marking_; }

  /// Enabled transitions (the DBM's dimensions, in index order).
  [[nodiscard]] const std::vector<TransitionId>& enabled() const {
    return enabled_;
  }

  /// True if t can fire first from this class (domain stays consistent
  /// under theta_t <= theta_u for all enabled u).
  [[nodiscard]] bool firable(const TimePetriNet& net, TransitionId t) const;

  /// All firable transitions.
  [[nodiscard]] std::vector<TransitionId> firable_set(
      const TimePetriNet& net) const;

  /// Successor class after firing t (checked precondition: firable).
  [[nodiscard]] StateClass fire(const TimePetriNet& net,
                                TransitionId t) const;

  /// Canonical equality (markings and normalized domains).
  [[nodiscard]] bool operator==(const StateClass& other) const;

  /// Hash over marking and normalized DBM entries.
  [[nodiscard]] std::uint64_t hash() const;

  /// Earliest global firing time lower bound of transition t within this
  /// class (for diagnostics/tests): min theta_t admitted by the domain.
  [[nodiscard]] Time earliest(TransitionId t) const;
  /// Latest theta_t admitted (kTimeInfinity when unbounded).
  [[nodiscard]] Time latest(TransitionId t) const;

 private:
  StateClass() = default;

  /// DBM entry: bound_[i][j] >= theta_i - theta_j, with index 0 reserved
  /// for the reference "zero" variable; entries use a saturating
  /// +infinity. Dimensions: enabled_.size() + 1.
  [[nodiscard]] std::int64_t& bound(std::size_t i, std::size_t j);
  [[nodiscard]] std::int64_t bound(std::size_t i, std::size_t j) const;
  void close();  ///< Floyd-Warshall normalization
  [[nodiscard]] bool consistent() const;

  Marking marking_;
  std::vector<TransitionId> enabled_;
  std::vector<std::int64_t> dbm_;  ///< (n+1)^2 row-major
};

struct ClassGraphOptions {
  std::uint64_t max_classes = 100'000;
};

struct ClassGraphResult {
  std::uint64_t classes_explored = 0;
  std::uint64_t edges = 0;
  bool complete = false;
  bool final_reachable = false;
  bool miss_reachable = false;
  /// Distinct markings seen (≥ classes with equal markings collapse).
  std::uint64_t distinct_markings = 0;
};

/// Breadth-first construction of the reachable class graph.
[[nodiscard]] ClassGraphResult build_class_graph(
    const TimePetriNet& net, const ClassGraphOptions& options = {});

// -- Discrete state-class abstraction (docs/search.md) -----------------------
//
// Where the dense-time classes above are an independent cross-validation
// engine, StateClassifier serves the discrete search directly: it collapses
// concrete (marking, clock-vector) states into classes that agree on goal
// reachability, using the structural invariants of builder-produced nets
// (node roles, docs/search.md §3 gives the full soundness arguments):
//
//   * release-clock capping — a release transition tr with static window
//     [r, d - c] has an unobservable clock beyond its EFT while the task's
//     deadline watchdog td is co-enabled: branches that release later than
//     DUB(td) - c are doomed either way (the watchdog forces a miss before
//     the instance can accumulate c computation), and on surviving branches
//     the window upper bound never binds because c(td) >= c(tr) always
//     holds. The visited set can therefore key on a canonical digest with
//     c(tr) capped to EFT(tr);
//
//   * doom certificate — for each active instance (td enabled), slack
//     D = deadline - c(td) against the remaining-work lower bound W
//     (unreleased: the full computation time; otherwise pending chunks plus
//     the running chunk's residue). W > D proves every continuation marks a
//     miss place, as does the per-processor EDF check: active instances on
//     one processor serialize, so sorted by slack, any prefix whose summed
//     W exceeds its slack horizon is unschedulable.
//
// On nets without role metadata (hand-built tests, imported PNML) the
// classifier degrades to the identity: canonical_digest() returns the
// concrete digest and evaluate() never dooms.
class StateClassifier {
 public:
  /// The net must be validated and outlive the classifier. Construction
  /// precomputes the per-task tables (watchdog, compute chunk, remaining
  /// demand, processor grouping) from roles and arc weights alone.
  explicit StateClassifier(const TimePetriNet& net);

  /// False when the net carries no task/deadline role metadata at all; the
  /// abstraction is then the identity and callers may skip it entirely.
  [[nodiscard]] bool structured() const { return structured_; }

  struct CanonicalDigest {
    StateDigest digest;
    /// True when capping changed the digest (the state is a non-canonical
    /// member of its class); feeds SearchStats::classes_merged.
    bool capped = false;
  };

  /// Class-representative digest of `s`: the concrete Zobrist digest with
  /// every cappable release clock folded down to its EFT.
  [[nodiscard]] CanonicalDigest canonical_digest(const State& s) const;

  struct Eval {
    /// No continuation of the state can avoid marking a miss place.
    bool doomed = false;
    /// Watchdog transition of the instance whose slack certificate fired
    /// (-1 when not doomed); lets callers attribute the doom to a task —
    /// for the EDF-prefix certificate, the last instance of the failing
    /// prefix (the one whose horizon the summed demand overran).
    std::int32_t doomed_watchdog = -1;
    /// Admissible lower bound on further elapsed time before the final
    /// marking is reachable: the largest per-processor remaining
    /// computation demand (active instances plus unarrived budget).
    Time remaining_work = 0;
    /// Tightest slack among active instances (kTimeInfinity when idle);
    /// the guided engines break f-ties toward urgency with this.
    Time min_slack = kTimeInfinity;
  };

  /// Per-call scratch buffers, owned by the caller (one per worker); keeps
  /// evaluate() allocation-free on the admission hot path.
  struct Scratch {
    std::vector<Time> proc_demand;
    /// (slack, work, watchdog transition) per active instance, grouped by
    /// processor index. The watchdog rides along purely for attribution;
    /// it is the last sort key, so ordering stays slack-major.
    std::vector<std::vector<std::tuple<Time, Time, std::int32_t>>> per_proc;
  };

  /// Doom certificate + heuristic in one pass over the per-task tables.
  [[nodiscard]] Eval evaluate(const State& s, Scratch& scratch) const;

 private:
  struct TaskInfo {
    std::int32_t td = -1;        ///< deadline watchdog transition
    Time deadline = 0;           ///< static LFT of td
    Time comp = 0;               ///< full per-instance computation demand
    Time chunk = 0;              ///< one compute firing's duration
    std::int32_t tc = -1;        ///< compute transition
    std::int32_t proc = -1;      ///< dense processor-group index
    std::int32_t wait_release = -1;
    std::int32_t wait_grant = -1;
    std::int32_t wait_compute = -1;
    std::int32_t locked = -1;
    std::int32_t wait_arrival = -1;
  };

  /// (release transition, watchdog transition, EFT) capping rules.
  struct CapRule {
    TransitionId release;
    TransitionId watchdog;
    Time eft;
  };

  const TimePetriNet* net_;
  bool structured_ = false;
  std::vector<TaskInfo> tasks_;
  std::vector<CapRule> cap_rules_;
  std::size_t proc_count_ = 0;
};

}  // namespace ezrt::tpn
