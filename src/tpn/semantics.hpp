// Timed semantics of an extended TPN (paper §3.1, Definitions 3.1/3.2).
//
// Implements, over State:
//   * ET(m)        — transitions enabled by the marking;
//   * DLB/DUB      — dynamic firing bounds max(0, EFT-c) and LFT-c;
//   * FT(s)        — fireable transitions: {t in ET(m) | DLB(t) <= min DUB},
//                    optionally restricted to minimal priority as in the
//                    paper's FT_P(s) definition;
//   * FD_s(t)      — the firing domain [DLB(t), min DUB];
//   * fire(s,t,q)  — Definition 3.1: token flow plus clock update (clock
//                    reset for the fired and the newly enabled transitions,
//                    advance by q for the persistently enabled rest).
//
// The semantics is *strong*: time may never advance beyond the smallest
// dynamic upper bound, which is why firing times are capped by min DUB.
#pragma once

#include <algorithm>
#include <vector>

#include "base/result.hpp"
#include "base/time.hpp"
#include "tpn/net.hpp"
#include "tpn/state.hpp"

namespace ezrt::tpn {

/// A fireable transition together with its firing domain at some state.
struct FireableTransition {
  TransitionId transition;
  Time earliest;  ///< DLB(t), relative to the current state
  Time latest;    ///< min over ET(m) of DUB — the domain is [earliest,latest]
};

/// The labeled action (t, q) of the TLTS: transition t fired q time units
/// after the previous state.
struct FiringAction {
  TransitionId transition;
  Time delay = 0;
};

/// Stateless helper bound to one net. All methods are const and
/// thread-compatible.
class Semantics {
 public:
  explicit Semantics(const TimePetriNet& net);

  [[nodiscard]] const TimePetriNet& net() const { return *net_; }

  /// ET(m): every t whose preset is covered by the marking.
  [[nodiscard]] std::vector<TransitionId> enabled(const Marking& m) const;

  /// Inline: the firing rule checks every affected transition with it.
  [[nodiscard]] bool is_enabled(const Marking& m, TransitionId t) const {
    return std::ranges::all_of(net_->inputs(t), [&](const Arc& arc) {
      return m.covers(arc.place, arc.weight);
    });
  }

  /// Dynamic lower bound max(0, EFT(t) - c(t)).
  [[nodiscard]] Time dynamic_lower_bound(const State& s, TransitionId t) const;

  /// Dynamic upper bound LFT(t) - c(t); kTimeInfinity when unbounded.
  [[nodiscard]] Time dynamic_upper_bound(const State& s, TransitionId t) const;

  /// min over ET(m) of DUB — how far time may advance from s.
  /// kTimeInfinity when nothing is enabled or all LFTs are unbounded.
  [[nodiscard]] Time max_time_advance(const State& s,
                                      const std::vector<TransitionId>&
                                          enabled_set) const;

  /// FT(s) with firing domains. When `priority_filter` is set, restricts
  /// the result to transitions of minimal priority value, reproducing the
  /// paper's FT_P(s) pruning.
  [[nodiscard]] std::vector<FireableTransition> fireable(
      const State& s, bool priority_filter = false) const;

  /// As `fireable`, but appends into a caller-owned buffer (cleared first)
  /// so the search can reuse one allocation across millions of states.
  void fireable_into(const State& s, bool priority_filter,
                     std::vector<FireableTransition>& out) const;

  /// Definition 3.1: fires t at relative time q, as
  /// `try_fire(s, t, q).value()` (a refused firing is a contract
  /// violation). The successor is computed incrementally over affected(t);
  /// see docs/semantics.md §5.
  [[nodiscard]] State fire(const State& s, TransitionId t, Time q) const;

  /// Hot-path firing for the scheduler: trusts that `f` came from
  /// `fireable(s)` and `q` lies in its domain (asserted in debug builds
  /// only), skipping the enabledness and domain re-checks `fire` pays.
  /// The successor is written to caller-owned storage: `out` is
  /// copy-assigned from `s` (reusing its buffers, whatever state or net
  /// they last held) and then fired in place; `out` may be `s` itself.
  /// The search recycles states through this, so a firing stops
  /// allocating once its pools are warm (docs/semantics.md §5).
  void fire_into(const State& s, const FireableTransition& f, Time q,
                 State& out) const;

  /// The literal dense Definition 3.1 (full |T| rescan, no maintained
  /// enabled set), which then rebuilds the successor's enabled set and
  /// digest by dense scans too: the reference the incremental engine is
  /// checked against (tests/incremental_test.cpp).
  [[nodiscard]] State fire_reference(const State& s, TransitionId t,
                                     Time q) const;

  /// Fires t at q after checking both against s's maintained enabled set
  /// (t enabled, q inside its firing domain), reporting a refusal as a
  /// Result: IO and replay paths on untrusted traces use this.
  [[nodiscard]] Result<State> try_fire(const State& s, TransitionId t,
                                       Time q) const;

 private:
  /// min over s's enabled set of DUB: max_time_advance over the bitset.
  [[nodiscard]] Time min_upper_bound(const State& s) const;

  /// Shared core of try_fire and fire_into: turns `s` into its successor
  /// incrementally, in place.
  void advance(State& s, TransitionId t, Time q) const;

  const TimePetriNet* net_;
};

/// The paper's FT_P(s) restriction: erases every candidate whose priority
/// is not minimal. Shared between Semantics::fireable and the scheduler's
/// expansion (which must filter *after* the partial-order reduction looked
/// at the unfiltered set).
void apply_priority_filter(const TimePetriNet& net,
                           std::vector<FireableTransition>& ft);

}  // namespace ezrt::tpn
