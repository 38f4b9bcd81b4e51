// Shared successor expansion for the serial and parallel search engines.
//
// The soundness of the differential guarantees between the engines (same
// verdict at any thread count, docs/semantics.md §8) rests on both engines
// exploring the *same* pruned successor graph. That graph is defined here,
// once: Expander::expand produces the ordered branching alternatives of a
// state — partial-order reduction, FT_P priority filter, deterministic
// candidate ordering and firing-time policy included — and both DfsScheduler
// and the parallel workers consume it verbatim.
//
// An Expander instance is NOT thread-safe (it owns scratch buffers); the
// parallel engine gives each worker its own. All shared inputs (net,
// semantics, options) are read-only.
#pragma once

#include <vector>

#include "sched/dfs.hpp"
#include "tpn/semantics.hpp"

namespace ezrt::sched {

/// One branching alternative: fire `fireable.transition` after `delay`.
/// The full FireableTransition is kept so the firing can go through
/// Semantics::fire_into without re-deriving the domain.
struct Candidate {
  tpn::FireableTransition fireable;
  Time delay;
};

class Expander {
 public:
  /// Prune-reason breakdown of every expand() call so far. Plain
  /// per-instance integers: counting costs nothing measurable and stays
  /// deterministic for a deterministic exploration.
  struct Counters {
    std::uint64_t expansions = 0;  ///< expand() calls
    /// Fireable transitions dropped by the FT_P priority filter.
    std::uint64_t pruned_priority = 0;
    /// Expansions collapsed to one forced successor by the reduction.
    std::uint64_t reduction_singletons = 0;
  };

  /// All three referents must outlive the Expander and stay unchanged
  /// while it is in use.
  Expander(const tpn::TimePetriNet& net, const tpn::Semantics& semantics,
           const SchedulerOptions& options);

  /// Generates the ordered branching alternatives for a state into `out`
  /// (cleared first). Deterministic: a given state always yields the same
  /// candidate sequence, independent of which engine or thread asks.
  void expand(const tpn::State& s, std::vector<Candidate>& out);

  /// Fires one candidate under the configured successor engine into
  /// `out`, which may be `s` itself (Semantics::fire_into).
  void fire_into(const tpn::State& s, const Candidate& c,
                 tpn::State& out) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  const tpn::TimePetriNet* net_;
  const tpn::Semantics* semantics_;
  const SchedulerOptions* options_;
  std::vector<tpn::FireableTransition> ft_;  ///< per-instance scratch
  Counters counters_;
};

}  // namespace ezrt::sched
