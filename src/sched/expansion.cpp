#include "sched/expansion.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace ezrt::sched {

using tpn::FireableTransition;
using tpn::State;

Expander::Expander(const tpn::TimePetriNet& net,
                   const tpn::Semantics& semantics,
                   const SchedulerOptions& options)
    : net_(&net), semantics_(&semantics), options_(&options) {}

void Expander::fire_into(const State& s, const Candidate& c,
                         State& out) const {
  // The incremental engine trusts the candidate's precomputed domain (it
  // came out of fireable_into on the same state) and skips the rescan; the
  // reference engine re-runs the dense Definition 3.1 and rebuilds the
  // successor's enabled set and digest by dense scans.
  if (options_->engine == SuccessorEngine::kIncremental) {
    semantics_->fire_into(s, c.fireable, c.delay, out);
  } else {
    out = semantics_->fire_reference(s, c.fireable.transition, c.delay);
  }
}

void Expander::expand(const State& s, std::vector<Candidate>& candidates) {
  candidates.clear();
  ++counters_.expansions;
  // The reduction must look at the *unfiltered* fireable set: a
  // conflict-free, zero-lower-bound transition (e.g. an arrival whose
  // instant has come) commutes with every alternative and is fired
  // first even when the priority filter would prefer something else —
  // otherwise a grant could sneak in ahead of a simultaneous arrival
  // and hide the newly arrived task from the scheduler.
  semantics_->fireable_into(s, false, ft_);
  if (ft_.empty()) {
    return;
  }

  // The reduction preserves schedule *existence* and makespan (it only
  // reorders zero-delay firings), but can reorder same-instant compute
  // completions and thus perturb the switch count: disabled under the
  // switch-minimizing objective.
  if (options_->partial_order_reduction &&
      options_->objective != Objective::kMinimizeSwitches) {
    // Sound single-successor reduction. A transition t may be fired as
    // the only successor when:
    //  (1) it is *forced now* — DUB(t) == 0, so time cannot advance and
    //      every feasible continuation fires t at delay 0 somewhere in
    //      its zero-time prefix (requiring only DLB == 0 would be
    //      unsound: pinning a transition that may legally fire later
    //      forecloses schedules that delay it past a contested window);
    //  (2) it is structurally conflict-free — nothing else consumes its
    //      inputs, so no alternative order ever disables it; and
    //  (3) every consumer of each of t's output places has clock 0 —
    //      otherwise t's produced tokens can keep such a consumer
    //      *continuously enabled* across the zero-time window where an
    //      alternative order would have toggled it (clock reset), and
    //      the end states genuinely differ. The canonical hazard is an
    //      arrival producing the next deadline-watchdog token at the
    //      very instant the previous instance finishes: arrival-first
    //      keeps td enabled with its old clock and dooms the branch.
    // Under (1)-(3) firing t commutes with every zero-delay
    // alternative, so exploring only t preserves schedule existence.
    // Every candidate's domain ends at min DUB (`latest`), so (1) can
    // hold only when that bound is 0.
    for (const FireableTransition& f : ft_) {
      if (f.earliest != 0 || f.latest != 0) {
        continue;
      }
      const tpn::FiringRecord& r = net_->firing_record(f.transition);
      if (r.dub(s.clock(f.transition)) != 0 || !r.conflict_free) {
        continue;
      }
      bool output_consumers_fresh = true;
      for (const tpn::Arc& arc : net_->outputs(f.transition)) {
        for (TransitionId u : net_->consumers(arc.place)) {
          if (s.clock(u) != 0) {
            output_consumers_fresh = false;
            break;
          }
        }
        if (!output_consumers_fresh) {
          break;
        }
      }
      if (output_consumers_fresh) {
        candidates.push_back(Candidate{f, 0});
        ++counters_.reduction_singletons;
        return;
      }
    }
  }

  if (options_->pruning == PruningMode::kPriorityFilter) {
    // The paper's FT_P(s): keep only minimal-priority transitions.
    const std::size_t before = ft_.size();
    tpn::apply_priority_filter(*net_, ft_);
    counters_.pruned_priority += before - ft_.size();
  }

  // Deterministic exploration order: priority, then earliest firing
  // time, then transition index.
  std::sort(ft_.begin(), ft_.end(),
            [&](const FireableTransition& x, const FireableTransition& y) {
              const auto px = net_->firing_record(x.transition).priority;
              const auto py = net_->firing_record(y.transition).priority;
              if (px != py) {
                return px < py;
              }
              if (x.earliest != y.earliest) {
                return x.earliest < y.earliest;
              }
              return x.transition.value() < y.transition.value();
            });

  if (options_->firing_times == FiringTimePolicy::kEarliest) {
    candidates.reserve(ft_.size());
    for (const FireableTransition& f : ft_) {
      candidates.push_back(Candidate{f, f.earliest});
    }
  } else {
    for (const FireableTransition& f : ft_) {
      EZRT_CHECK(f.latest != kTimeInfinity &&
                     f.latest - f.earliest <= options_->max_domain_width,
                 "AllInDomain: firing domain too wide; raise "
                 "max_domain_width or use kEarliest");
      for (Time q = f.earliest; q <= f.latest; ++q) {
        candidates.push_back(Candidate{f, q});
      }
    }
  }
}

}  // namespace ezrt::sched
