#include "tpn/semantics.hpp"

#include <algorithm>
#include <limits>

#include "base/assert.hpp"

namespace ezrt::tpn {

Semantics::Semantics(const TimePetriNet& net) : net_(&net) {
  EZRT_CHECK(net.validated(), "Semantics requires a validated net");
}

std::vector<TransitionId> Semantics::enabled(const Marking& m) const {
  std::vector<TransitionId> out;
  for (TransitionId t : net_->transition_ids()) {
    if (is_enabled(m, t)) {
      out.push_back(t);
    }
  }
  return out;
}

Time Semantics::dynamic_lower_bound(const State& s, TransitionId t) const {
  return net_->firing_record(t).dlb(s.clock(t));
}

Time Semantics::dynamic_upper_bound(const State& s, TransitionId t) const {
  // Strong semantics guarantee c never exceeds LFT for enabled transitions.
  EZRT_ASSERT(s.clock(t) <= net_->firing_record(t).lft,
              "clock of '" + net_->transition(t).name + "' passed its LFT");
  return net_->firing_record(t).dub(s.clock(t));
}

Time Semantics::max_time_advance(
    const State& s, const std::vector<TransitionId>& enabled_set) const {
  Time bound = kTimeInfinity;
  for (TransitionId t : enabled_set) {
    bound = std::min(bound, dynamic_upper_bound(s, t));
  }
  return bound;
}

Time Semantics::min_upper_bound(const State& s) const {
  Time bound = kTimeInfinity;
  s.for_each_enabled([&](TransitionId t) {
    bound = std::min(bound, dynamic_upper_bound(s, t));
  });
  return bound;
}

std::vector<FireableTransition> Semantics::fireable(
    const State& s, bool priority_filter) const {
  std::vector<FireableTransition> out;
  fireable_into(s, priority_filter, out);
  return out;
}

void Semantics::fireable_into(const State& s, bool priority_filter,
                              std::vector<FireableTransition>& out) const {
  // One pass over the maintained enabled set, in transition-id order as
  // the dense scan would: each DLB and the minimum DUB come from the
  // packed firing records; then the transitions whose DLB lies within
  // that bound are kept in place, in the same order.
  out.clear();
  out.reserve(s.enabled_count());
  Time bound = kTimeInfinity;
  s.for_each_enabled([&](TransitionId t) {
    const FiringRecord& r = net_->firing_record(t);
    const Time c = s.clocks_[t.value()];
    EZRT_ASSERT(c <= r.lft, "clock of '" + net_->transition(t).name +
                                "' passed its LFT");
    bound = std::min(bound, r.dub(c));
    out.push_back(FireableTransition{t, r.dlb(c), 0});
  });
  std::size_t kept = 0;
  for (const FireableTransition& f : out) {
    if (f.earliest <= bound) {
      out[kept++] = FireableTransition{f.transition, f.earliest, bound};
    }
  }
  out.resize(kept);
  if (priority_filter) {
    apply_priority_filter(*net_, out);
  }
}

void Semantics::advance(State& s, TransitionId t, Time q) const {
  // (1) Token flow: m' = m - W(p,t) + W(t,p) — touches only •t ∪ t•, and
  // the identity digest is patched cell-by-cell alongside.
  for (const Arc& arc : net_->inputs(t)) {
    const std::uint32_t before = s.marking_[arc.place];
    s.marking_.remove(arc.place, arc.weight);
    s.fold_tokens(arc.place, before, before - arc.weight);
  }
  for (const Arc& arc : net_->outputs(t)) {
    const std::uint32_t before = s.marking_[arc.place];
    s.marking_.add(arc.place, arc.weight);
    s.fold_tokens(arc.place, before, before + arc.weight);
  }

  // (2) Advance the clock of every transition enabled in m by q. For
  // transitions outside affected(t) whose enabledness cannot change, this
  // IS the Definition 3.1 update; for the rest, step (3) overrides.
  if (q > 0) {
    s.for_each_enabled([&](TransitionId u) {
      const Time c = s.clocks_[u.value()];
      s.clocks_[u.value()] = c + q;
      State::fold_clock(s.digest_, u, c, c + q);
    });
  }

  // (3) Re-evaluate the affected neighborhood against m' (Definition 3.1
  // compares enabledness in m and m' only — never any intermediate
  // marking, so disabled-then-re-enabled within this one firing lands in
  // the "newly enabled" case by comparing against the m bits).
  for (TransitionId u : net_->affected(t)) {
    const bool enabled_before = s.enabled(u);
    bool reset = false;
    if (!is_enabled(s.marking_, u)) {
      if (enabled_before) {
        s.clear_enabled_bit(u);
      }
      reset = true;  // canonical form for disabled
    } else if (!enabled_before || u == t) {
      if (!enabled_before) {
        s.set_enabled_bit(u);
      }
      reset = true;  // newly enabled, or the fired one
    }
    // else: persistently enabled and not fired — step (2) advanced it.
    if (reset) {
      const Time c = s.clocks_[u.value()];
      if (c != 0) {
        s.clocks_[u.value()] = 0;
        State::fold_clock(s.digest_, u, c, 0);
      }
    }
  }

  s.elapsed_ += q;
}

State Semantics::fire(const State& s, TransitionId t, Time q) const {
  return try_fire(s, t, q).value();
}

void Semantics::fire_into(const State& s, const FireableTransition& f, Time q,
                          State& out) const {
  EZRT_ASSERT(q >= f.earliest && q <= f.latest,
              "fire_into: delay outside the precomputed domain of '" +
                  net_->transition(f.transition).name + "'");
  if (&out != &s) {
    out = s;
  }
  advance(out, f.transition, q);
}

State Semantics::fire_reference(const State& s, TransitionId t,
                                Time q) const {
  EZRT_CHECK(is_enabled(s.marking(), t),
             "fire: transition '" + net_->transition(t).name +
                 "' is not enabled");
  const Time dlb = dynamic_lower_bound(s, t);
  const Time bound = max_time_advance(s, enabled(s.marking()));
  EZRT_CHECK(q >= dlb && q <= bound,
             "fire: delay outside the firing domain of '" +
                 net_->transition(t).name + "'");

  State next = s;
  // (1) Token flow: m' = m - W(p,t) + W(t,p).
  for (const Arc& arc : net_->inputs(t)) {
    next.marking_.remove(arc.place, arc.weight);
  }
  for (const Arc& arc : net_->outputs(t)) {
    next.marking_.add(arc.place, arc.weight);
  }

  // (2) Clock update (Definition 3.1). A transition enabled in the new
  // marking gets clock 0 if it is the fired one or was disabled before,
  // and advances by q otherwise. Disabled transitions are normalized to 0.
  for (TransitionId tk : net_->transition_ids()) {
    const bool persistent = is_enabled(next.marking_, tk) && tk != t &&
                            is_enabled(s.marking(), tk);
    next.clocks_[tk.value()] = persistent ? s.clock(tk) + q : 0;
  }
  next.elapsed_ = s.elapsed() + q;
  next.rebuild(*this);
  return next;
}

Result<State> Semantics::try_fire(const State& s, TransitionId t, Time q)
    const {
  if (t.value() >= net_->transition_count()) {
    return make_error(ErrorCode::kInvalidArgument, "unknown transition id");
  }
  if (!s.enabled(t)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "transition '" + net_->transition(t).name +
                          "' is not enabled at this state");
  }
  const Time dlb = dynamic_lower_bound(s, t);
  const Time bound = min_upper_bound(s);
  if (q < dlb || q > bound) {
    return make_error(ErrorCode::kInvalidArgument,
                      "delay " + std::to_string(q) +
                          " outside the firing domain of '" +
                          net_->transition(t).name + "'");
  }
  State next = s;
  advance(next, t, q);
  return next;
}

void apply_priority_filter(const TimePetriNet& net,
                           std::vector<FireableTransition>& ft) {
  if (ft.empty()) {
    return;
  }
  // FT_P(s): only transitions of minimal priority value survive.
  Priority best = std::numeric_limits<Priority>::max();
  for (const FireableTransition& f : ft) {
    best = std::min(best, net.firing_record(f.transition).priority);
  }
  std::erase_if(ft, [&](const FireableTransition& f) {
    return net.firing_record(f.transition).priority != best;
  });
}

State State::initial(const TimePetriNet& net) {
  State s;
  s.marking_ = Marking(net.initial_marking());
  s.clocks_.assign(net.transition_count(), 0);
  s.rebuild(Semantics(net));
  return s;
}

void State::rebuild(const Semantics& sem) {
  const TimePetriNet& net = sem.net();
  enabled_words_.assign((net.transition_count() + 63) / 64, 0);
  enabled_count_ = 0;
  for (TransitionId t : net.transition_ids()) {
    if (sem.is_enabled(marking_, t)) {
      set_enabled_bit(t);
    }
  }
  digest_ = compute_digest();
}

}  // namespace ezrt::tpn
