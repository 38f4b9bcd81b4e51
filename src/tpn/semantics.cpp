#include "tpn/semantics.hpp"

#include <algorithm>
#include <bit>
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

bool Semantics::is_enabled(const Marking& m, TransitionId t) const {
  for (const Arc& arc : net_->inputs(t)) {
    if (!m.covers(arc.place, arc.weight)) {
      return false;
    }
  }
  return true;
}

Time Semantics::dynamic_lower_bound(const State& s, TransitionId t) const {
  const Time eft = net_->transition(t).interval.eft();
  const Time c = s.clock(t);
  return eft > c ? eft - c : 0;
}

Time Semantics::dynamic_upper_bound(const State& s, TransitionId t) const {
  const TimeInterval& interval = net_->transition(t).interval;
  if (!interval.bounded()) {
    return kTimeInfinity;
  }
  const Time c = s.clock(t);
  // Strong semantics guarantee c never exceeds LFT for enabled transitions.
  EZRT_ASSERT(c <= interval.lft(),
              "clock of '" + net_->transition(t).name + "' passed its LFT");
  return interval.lft() - c;
}

Time Semantics::max_time_advance(
    const State& s, const std::vector<TransitionId>& enabled_set) const {
  Time bound = kTimeInfinity;
  for (TransitionId t : enabled_set) {
    bound = std::min(bound, dynamic_upper_bound(s, t));
  }
  return bound;
}

void Semantics::refresh_enabled_cache(State& s) const {
  s.reset_enabled_cache(net_->transition_count());
  for (TransitionId t : net_->transition_ids()) {
    if (is_enabled(s.marking_, t)) {
      s.set_enabled_bit(t);
    }
  }
}

std::vector<FireableTransition> Semantics::fireable(
    const State& s, bool priority_filter) const {
  std::vector<FireableTransition> out;
  fireable_into(s, priority_filter, out);
  return out;
}

void Semantics::fireable_into(const State& s, bool priority_filter,
                              std::vector<FireableTransition>& out) const {
  out.clear();
  if (s.enabled_cache_valid()) {
    // Iterate the maintained enabled set (in transition-id order, exactly
    // as the dense scan would): one pass for the time bound, one for the
    // surviving candidates.
    const auto words = s.enabled_words();
    const auto for_each_enabled = [&](auto&& body) {
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        std::uint64_t w = words[wi];
        while (w != 0) {
          const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
          w &= w - 1;
          body(TransitionId(static_cast<std::uint32_t>(wi * 64) + bit));
        }
      }
    };
    Time bound = kTimeInfinity;
    for_each_enabled([&](TransitionId t) {
      bound = std::min(bound, dynamic_upper_bound(s, t));
    });
    out.reserve(s.enabled_count());
    for_each_enabled([&](TransitionId t) {
      const Time dlb = dynamic_lower_bound(s, t);
      if (dlb <= bound) {
        out.push_back(FireableTransition{t, dlb, bound});
      }
    });
  } else {
    // No cache (hand-built or externally mutated state): dense reference
    // enumeration.
    const std::vector<TransitionId> enabled_set = enabled(s.marking());
    const Time bound = max_time_advance(s, enabled_set);
    out.reserve(enabled_set.size());
    for (TransitionId t : enabled_set) {
      const Time dlb = dynamic_lower_bound(s, t);
      if (dlb <= bound) {
        out.push_back(FireableTransition{t, dlb, bound});
      }
    }
  }

  if (priority_filter) {
    apply_priority_filter(*net_, out);
  }
}

void Semantics::advance(State& s, TransitionId t, Time q) const {
  if (!s.enabled_cache_valid()) {
    refresh_enabled_cache(s);  // reflects the pre-firing marking m
  }
  if (!s.digest_valid()) {
    s.refresh_digest();
  }

  // (1) Token flow: m' = m - W(p,t) + W(t,p) — touches only •t ∪ t•, and
  // the identity digest is patched cell-by-cell alongside.
  for (const Arc& arc : net_->inputs(t)) {
    const std::uint32_t before = s.marking_[arc.place];
    s.marking_.remove(arc.place, arc.weight);
    s.digest_token_update(arc.place.value(), before, before - arc.weight);
  }
  for (const Arc& arc : net_->outputs(t)) {
    const std::uint32_t before = s.marking_[arc.place];
    s.marking_.add(arc.place, arc.weight);
    s.digest_token_update(arc.place.value(), before, before + arc.weight);
  }

  // (2) Advance the clock of every transition enabled in m by q. For
  // transitions outside affected(t) whose enabledness cannot change, this
  // IS the Definition 3.1 update; for the rest, step (3) overrides.
  if (q > 0) {
    const auto& words = s.enabled_words_;
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
        w &= w - 1;
        const std::size_t i = wi * 64 + bit;
        const Time c = s.clocks_[i];
        s.clocks_[i] = c + q;
        s.digest_clock_update(i, c, c + q);
      }
    }
  }

  // (3) Re-evaluate the affected neighborhood against m' (Definition 3.1
  // compares enabledness in m and m' only — never any intermediate
  // marking, so disabled-then-re-enabled within this one firing lands in
  // the "newly enabled" case by comparing against the cached m bits).
  for (TransitionId u : net_->affected(t)) {
    const bool enabled_before = s.cached_enabled(u);
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
        s.digest_clock_update(u.value(), c, 0);
      }
    }
  }

  s.elapsed_ += q;
}

State Semantics::fire(const State& s, TransitionId t, Time q) const {
  EZRT_CHECK(is_enabled(s.marking(), t),
             "fire: transition '" + net_->transition(t).name +
                 "' is not enabled");
  const Time dlb = dynamic_lower_bound(s, t);
  const std::vector<TransitionId> old_enabled = enabled(s.marking());
  const Time bound = max_time_advance(s, old_enabled);
  EZRT_CHECK(q >= dlb && q <= bound,
             "fire: delay outside the firing domain of '" +
                 net_->transition(t).name + "'");
  State next = s;
  advance(next, t, q);
  return next;
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
  const std::vector<TransitionId> old_enabled = enabled(s.marking());
  const Time bound = max_time_advance(s, old_enabled);
  EZRT_CHECK(q >= dlb && q <= bound,
             "fire: delay outside the firing domain of '" +
                 net_->transition(t).name + "'");

  State next = s;
  next.drop_enabled_cache();
  next.drop_digest();
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
    if (!is_enabled(next.marking_, tk)) {
      next.set_clock(tk, 0);
      continue;
    }
    if (tk == t || !is_enabled(s.marking(), tk)) {
      next.set_clock(tk, 0);
    } else {
      next.set_clock(tk, s.clock(tk) + q);
    }
  }
  next.set_elapsed(s.elapsed() + q);
  return next;
}

Result<State> Semantics::try_fire(const State& s, TransitionId t, Time q)
    const {
  if (t.value() >= net_->transition_count()) {
    return make_error(ErrorCode::kInvalidArgument, "unknown transition id");
  }
  if (!is_enabled(s.marking(), t)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "transition '" + net_->transition(t).name +
                          "' is not enabled at this state");
  }
  const Time dlb = dynamic_lower_bound(s, t);
  const Time bound = max_time_advance(s, enabled(s.marking()));
  if (q < dlb || q > bound) {
    return make_error(ErrorCode::kInvalidArgument,
                      "delay " + std::to_string(q) +
                          " outside the firing domain of '" +
                          net_->transition(t).name + "'");
  }
  return fire(s, t, q);
}

void apply_priority_filter(const TimePetriNet& net,
                           std::vector<FireableTransition>& ft) {
  if (ft.empty()) {
    return;
  }
  // FT_P(s): only transitions of minimal priority value survive.
  Priority best = std::numeric_limits<Priority>::max();
  for (const FireableTransition& f : ft) {
    best = std::min(best, net.transition(f.transition).priority);
  }
  std::erase_if(ft, [&](const FireableTransition& f) {
    return net.transition(f.transition).priority != best;
  });
}

State State::initial(const TimePetriNet& net) {
  State s;
  s.marking_ = Marking(net.initial_marking());
  s.clocks_.assign(net.transition_count(), 0);
  s.elapsed_ = 0;
  s.refresh_digest();
  return s;
}

}  // namespace ezrt::tpn
