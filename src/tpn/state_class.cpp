#include "tpn/state_class.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "base/assert.hpp"
#include "base/hash.hpp"
#include "tpn/analysis.hpp"

namespace ezrt::tpn {

namespace {

/// Saturating +infinity for DBM entries.
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

[[nodiscard]] std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  if (a >= kInf || b >= kInf) {
    return kInf;
  }
  return a + b;
}

/// Transitions enabled by a marking, in index order.
[[nodiscard]] std::vector<TransitionId> enabled_in(const TimePetriNet& net,
                                                   const Marking& m) {
  std::vector<TransitionId> out;
  for (TransitionId t : net.transition_ids()) {
    bool enabled = true;
    for (const Arc& arc : net.inputs(t)) {
      if (!m.covers(arc.place, arc.weight)) {
        enabled = false;
        break;
      }
    }
    if (enabled) {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace

std::int64_t& StateClass::bound(std::size_t i, std::size_t j) {
  const std::size_t n = enabled_.size() + 1;
  return dbm_[i * n + j];
}

std::int64_t StateClass::bound(std::size_t i, std::size_t j) const {
  const std::size_t n = enabled_.size() + 1;
  return dbm_[i * n + j];
}

void StateClass::close() {
  const std::size_t n = enabled_.size() + 1;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t via = sat_add(bound(i, k), bound(k, j));
        if (via < bound(i, j)) {
          bound(i, j) = via;
        }
      }
    }
  }
}

bool StateClass::consistent() const {
  const std::size_t n = enabled_.size() + 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (bound(i, i) < 0) {
      return false;
    }
  }
  return true;
}

StateClass StateClass::initial(const TimePetriNet& net) {
  EZRT_CHECK(net.validated(), "StateClass requires a validated net");
  StateClass c;
  c.marking_ = Marking(net.initial_marking());
  c.enabled_ = enabled_in(net, c.marking_);
  const std::size_t n = c.enabled_.size() + 1;
  c.dbm_.assign(n * n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    c.bound(i, i) = 0;
  }
  for (std::size_t i = 0; i < c.enabled_.size(); ++i) {
    const TimeInterval& interval =
        net.transition(c.enabled_[i]).interval;
    c.bound(i + 1, 0) = interval.bounded()
                            ? static_cast<std::int64_t>(interval.lft())
                            : kInf;
    c.bound(0, i + 1) = -static_cast<std::int64_t>(interval.eft());
  }
  c.close();
  return c;
}

bool StateClass::firable(const TimePetriNet& net, TransitionId t) const {
  (void)net;
  const auto it = std::find(enabled_.begin(), enabled_.end(), t);
  if (it == enabled_.end()) {
    return false;
  }
  const std::size_t ti =
      static_cast<std::size_t>(it - enabled_.begin()) + 1;
  // Adding theta_t - theta_u <= 0 for every u keeps the domain consistent
  // iff no negative cycle appears: with a closed DBM that reduces to
  // bound(u, t) >= 0 for every enabled u.
  for (std::size_t u = 1; u <= enabled_.size(); ++u) {
    if (u != ti && bound(u, ti) < 0) {
      return false;
    }
  }
  return true;
}

std::vector<TransitionId> StateClass::firable_set(
    const TimePetriNet& net) const {
  std::vector<TransitionId> out;
  for (TransitionId t : enabled_) {
    if (firable(net, t)) {
      out.push_back(t);
    }
  }
  return out;
}

StateClass StateClass::fire(const TimePetriNet& net, TransitionId t) const {
  EZRT_CHECK(firable(net, t), "fire: transition '" +
                                  net.transition(t).name +
                                  "' is not firable from this class");
  const std::size_t n_old = enabled_.size() + 1;
  const auto it = std::find(enabled_.begin(), enabled_.end(), t);
  const std::size_t ti =
      static_cast<std::size_t>(it - enabled_.begin()) + 1;

  // Tighten with theta_t <= theta_u and re-close.
  std::vector<std::int64_t> d = dbm_;
  auto at = [&](std::size_t i, std::size_t j) -> std::int64_t& {
    return d[i * n_old + j];
  };
  for (std::size_t u = 1; u < n_old; ++u) {
    if (u != ti) {
      at(ti, u) = std::min(at(ti, u), std::int64_t{0});
    }
  }
  for (std::size_t k = 0; k < n_old; ++k) {
    for (std::size_t i = 0; i < n_old; ++i) {
      for (std::size_t j = 0; j < n_old; ++j) {
        const std::int64_t via = sat_add(at(i, k), at(k, j));
        if (via < at(i, j)) {
          at(i, j) = via;
        }
      }
    }
  }

  // Token flow.
  StateClass next;
  next.marking_ = marking_;
  Marking intermediate = marking_;
  for (const Arc& arc : net.inputs(t)) {
    next.marking_.remove(arc.place, arc.weight);
    intermediate.remove(arc.place, arc.weight);
  }
  for (const Arc& arc : net.outputs(t)) {
    next.marking_.add(arc.place, arc.weight);
  }

  // Persistent = enabled before, still enabled on the intermediate
  // marking (m - pre(t)), and not the fired transition itself.
  next.enabled_ = enabled_in(net, next.marking_);
  std::vector<std::size_t> old_index(next.enabled_.size(), 0);  // 0 = new
  for (std::size_t i = 0; i < next.enabled_.size(); ++i) {
    const TransitionId u = next.enabled_[i];
    if (u == t) {
      continue;  // refired transitions restart fresh
    }
    const auto old_it = std::find(enabled_.begin(), enabled_.end(), u);
    if (old_it == enabled_.end()) {
      continue;
    }
    bool enabled_intermediate = true;
    for (const Arc& arc : net.inputs(u)) {
      if (!intermediate.covers(arc.place, arc.weight)) {
        enabled_intermediate = false;
        break;
      }
    }
    if (enabled_intermediate) {
      old_index[i] =
          static_cast<std::size_t>(old_it - enabled_.begin()) + 1;
    }
  }

  // New domain over theta'_u = theta_u - theta_t.
  const std::size_t n_new = next.enabled_.size() + 1;
  next.dbm_.assign(n_new * n_new, kInf);
  for (std::size_t i = 0; i < n_new; ++i) {
    next.dbm_[i * n_new + i] = 0;
  }
  for (std::size_t i = 0; i < next.enabled_.size(); ++i) {
    if (old_index[i] != 0) {
      // Persistent: bounds against the fired instant.
      next.dbm_[(i + 1) * n_new + 0] = at(old_index[i], ti);
      next.dbm_[0 * n_new + (i + 1)] = at(ti, old_index[i]);
    } else {
      // Newly enabled: fresh static interval.
      const TimeInterval& interval =
          net.transition(next.enabled_[i]).interval;
      next.dbm_[(i + 1) * n_new + 0] =
          interval.bounded() ? static_cast<std::int64_t>(interval.lft())
                             : kInf;
      next.dbm_[0 * n_new + (i + 1)] =
          -static_cast<std::int64_t>(interval.eft());
    }
  }
  // Pairwise bounds between persistent transitions carry over.
  for (std::size_t i = 0; i < next.enabled_.size(); ++i) {
    for (std::size_t j = 0; j < next.enabled_.size(); ++j) {
      if (i != j && old_index[i] != 0 && old_index[j] != 0) {
        next.dbm_[(i + 1) * n_new + (j + 1)] =
            at(old_index[i], old_index[j]);
      }
    }
  }
  next.close();
  EZRT_ASSERT(next.consistent(), "successor class inconsistent");
  return next;
}

bool StateClass::operator==(const StateClass& other) const {
  return marking_ == other.marking_ && enabled_ == other.enabled_ &&
         dbm_ == other.dbm_;
}

std::uint64_t StateClass::hash() const {
  std::uint64_t h = marking_.hash();
  for (TransitionId t : enabled_) {
    h = hash_mix(h, t.value());
  }
  for (std::int64_t v : dbm_) {
    h = hash_mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

Time StateClass::earliest(TransitionId t) const {
  const auto it = std::find(enabled_.begin(), enabled_.end(), t);
  EZRT_CHECK(it != enabled_.end(), "transition not enabled in this class");
  const std::size_t ti =
      static_cast<std::size_t>(it - enabled_.begin()) + 1;
  return static_cast<Time>(-bound(0, ti));
}

Time StateClass::latest(TransitionId t) const {
  const auto it = std::find(enabled_.begin(), enabled_.end(), t);
  EZRT_CHECK(it != enabled_.end(), "transition not enabled in this class");
  const std::size_t ti =
      static_cast<std::size_t>(it - enabled_.begin()) + 1;
  const std::int64_t b = bound(ti, 0);
  return b >= kInf ? kTimeInfinity : static_cast<Time>(b);
}

ClassGraphResult build_class_graph(const TimePetriNet& net,
                                   const ClassGraphOptions& options) {
  ClassGraphResult result;
  std::deque<StateClass> frontier;
  // Full-equality buckets keyed by hash: the class graph serves as a
  // correctness oracle, so hash collisions must not merge classes.
  std::unordered_map<std::uint64_t, std::vector<StateClass>> seen;
  std::unordered_map<std::uint64_t, bool> markings_seen;

  auto visit = [&](StateClass&& c) -> bool {
    auto& bucket = seen[c.hash()];
    for (const StateClass& existing : bucket) {
      if (existing == c) {
        return false;
      }
    }
    ++result.classes_explored;
    markings_seen.emplace(c.marking().hash(), true);
    if (is_final_marking(net, c.marking())) {
      result.final_reachable = true;
    }
    const bool miss = has_deadline_miss(net, c.marking());
    if (miss) {
      result.miss_reachable = true;
    }
    bucket.push_back(c);
    if (!miss) {
      frontier.push_back(std::move(c));
    }
    return true;
  };

  (void)visit(StateClass::initial(net));
  while (!frontier.empty()) {
    const StateClass c = std::move(frontier.front());
    frontier.pop_front();
    for (TransitionId t : c.firable_set(net)) {
      ++result.edges;
      if (result.classes_explored >= options.max_classes) {
        result.distinct_markings = markings_seen.size();
        return result;  // bound hit: incomplete
      }
      (void)visit(c.fire(net, t));
    }
  }
  result.complete = true;
  result.distinct_markings = markings_seen.size();
  return result;
}

// -- StateClassifier ---------------------------------------------------------

StateClassifier::StateClassifier(const TimePetriNet& net) : net_(&net) {
  // Task table size: roles tag nodes with TaskId, so the densest tag + 1
  // bounds the table.
  std::size_t ntasks = 0;
  for (TransitionId t : net.transition_ids()) {
    const Transition& tr = net.transition(t);
    if (tr.task.valid()) {
      ntasks = std::max<std::size_t>(ntasks, tr.task.value() + 1);
    }
  }
  for (PlaceId p : net.place_ids()) {
    const Place& pl = net.place(p);
    if (pl.task.valid()) {
      ntasks = std::max<std::size_t>(ntasks, pl.task.value() + 1);
    }
  }
  tasks_.resize(ntasks);

  for (TransitionId t : net.transition_ids()) {
    const Transition& tr = net.transition(t);
    if (!tr.task.valid()) {
      continue;
    }
    TaskInfo& ti = tasks_[tr.task.value()];
    switch (tr.role) {
      case TransitionRole::kDeadlineHit:
        ti.td = static_cast<std::int32_t>(t.value());
        ti.deadline = tr.interval.lft();
        break;
      case TransitionRole::kCompute:
        ti.tc = static_cast<std::int32_t>(t.value());
        ti.chunk = tr.interval.eft();
        break;
      default:
        break;
    }
  }
  for (PlaceId p : net.place_ids()) {
    const Place& pl = net.place(p);
    if (!pl.task.valid()) {
      continue;
    }
    TaskInfo& ti = tasks_[pl.task.value()];
    const auto pv = static_cast<std::int32_t>(p.value());
    switch (pl.role) {
      case PlaceRole::kWaitRelease:
        ti.wait_release = pv;
        break;
      case PlaceRole::kWaitGrant:
        ti.wait_grant = pv;
        break;
      case PlaceRole::kWaitCompute:
        ti.wait_compute = pv;
        break;
      case PlaceRole::kLocked:
        ti.locked = pv;
        break;
      case PlaceRole::kWaitArrival:
        ti.wait_arrival = pv;
        break;
      default:
        break;
    }
  }

  // Full per-instance demand from arc weights: the release transition
  // emits the instance's chunk budget (wcet chunks for preemptive tasks,
  // one fused chunk otherwise), so comp = (release -> wait_grant weight)
  // * chunk. Processor grouping: the kProcessor place consumed by any of
  // the task's release/grant/compute transitions, densely renumbered.
  std::vector<std::int32_t> proc_index(net.place_count(), -1);
  for (TransitionId t : net.transition_ids()) {
    const Transition& tr = net.transition(t);
    if (!tr.task.valid()) {
      continue;
    }
    TaskInfo& ti = tasks_[tr.task.value()];
    if (tr.role == TransitionRole::kRelease) {
      for (const Arc& arc : net.outputs(t)) {
        if (static_cast<std::int32_t>(arc.place.value()) == ti.wait_grant) {
          ti.comp = static_cast<Time>(arc.weight) * ti.chunk;
        }
      }
    }
    if (tr.role == TransitionRole::kRelease ||
        tr.role == TransitionRole::kGrant ||
        tr.role == TransitionRole::kCompute) {
      for (const Arc& arc : net.inputs(t)) {
        if (net.place(arc.place).role == PlaceRole::kProcessor) {
          std::int32_t& idx = proc_index[arc.place.value()];
          if (idx < 0) {
            idx = static_cast<std::int32_t>(proc_count_++);
          }
          ti.proc = idx;
        }
      }
    }
  }

  for (TaskInfo& ti : tasks_) {
    // A compact-style task fuses release+grant: no wait_grant place, the
    // whole computation is the single chunk.
    if (ti.comp == 0) {
      ti.comp = ti.chunk;
    }
    if (ti.td >= 0 && ti.comp > 0) {
      structured_ = true;
    }
  }

  // Capping rules: non-punctual release windows guarded by a same-task
  // watchdog. The builder invariant "tr enabled implies td enabled with
  // c(td) >= c(tr)" is what makes the cap sound; both transitions being
  // present with their roles is the structural witness.
  for (TransitionId t : net.transition_ids()) {
    const Transition& tr = net.transition(t);
    if (tr.role != TransitionRole::kRelease || !tr.task.valid() ||
        tr.interval.punctual()) {
      continue;
    }
    const TaskInfo& ti = tasks_[tr.task.value()];
    if (ti.td < 0) {
      continue;
    }
    cap_rules_.push_back(
        CapRule{t, TransitionId(static_cast<std::uint32_t>(ti.td)),
                tr.interval.eft()});
  }
}

StateClassifier::CanonicalDigest StateClassifier::canonical_digest(
    const State& s) const {
  CanonicalDigest out{s.digest(), false};
  if (!structured_) {
    return out;
  }
  for (const CapRule& rule : cap_rules_) {
    if (!s.enabled(rule.release) || !s.enabled(rule.watchdog)) {
      continue;
    }
    const Time c = s.clock(rule.release);
    if (c <= rule.eft) {
      continue;
    }
    // Fold the cap into the XOR-combinable Zobrist digest: the concrete
    // clock cell out, the capped one in.
    State::fold_clock(out.digest, rule.release, c, rule.eft);
    out.capped = true;
  }
  return out;
}

StateClassifier::Eval StateClassifier::evaluate(const State& s,
                                                Scratch& scratch) const {
  Eval eval;
  if (!structured_) {
    return eval;
  }
  scratch.proc_demand.assign(proc_count_, 0);
  scratch.per_proc.resize(proc_count_);
  for (auto& group : scratch.per_proc) {
    group.clear();
  }
  const Marking& m = s.marking();
  for (const TaskInfo& ti : tasks_) {
    if (ti.td < 0 || ti.comp == 0) {
      continue;
    }
    // Unarrived instance budget contributes full demand to the heuristic
    // (every remaining instance must still occupy its processor for comp
    // time units before the final marking), but not to the doom check —
    // its deadline starts only at arrival.
    Time future = 0;
    if (ti.wait_arrival >= 0) {
      future = static_cast<Time>(
                   m[PlaceId(static_cast<std::uint32_t>(ti.wait_arrival))]) *
               ti.comp;
    }
    const TransitionId td(static_cast<std::uint32_t>(ti.td));
    Time work = 0;
    if (s.enabled(td)) {  // an active instance
      const Time wd_clock = s.clock(td);
      const Time slack = ti.deadline > wd_clock ? ti.deadline - wd_clock : 0;
      if (ti.wait_release >= 0 &&
          m[PlaceId(static_cast<std::uint32_t>(ti.wait_release))] > 0) {
        work = ti.comp;  // not yet released: the full computation remains
      } else {
        std::uint64_t pending = 0;
        if (ti.wait_grant >= 0) {
          pending += m[PlaceId(static_cast<std::uint32_t>(ti.wait_grant))];
        }
        if (ti.locked >= 0) {
          pending += m[PlaceId(static_cast<std::uint32_t>(ti.locked))];
        }
        work = static_cast<Time>(pending) * ti.chunk;
        if (ti.wait_compute >= 0 && ti.tc >= 0 &&
            m[PlaceId(static_cast<std::uint32_t>(ti.wait_compute))] > 0) {
          const TransitionId tc(static_cast<std::uint32_t>(ti.tc));
          work += ti.chunk - (s.enabled(tc) ? s.clock(tc) : 0);
        }
      }
      if (work > slack) {
        eval.doomed = true;  // this instance alone cannot make its deadline
        eval.doomed_watchdog = ti.td;
        return eval;
      }
      eval.min_slack = std::min(eval.min_slack, slack);
      if (work > 0 && ti.proc >= 0) {
        scratch.per_proc[static_cast<std::size_t>(ti.proc)].push_back(
            {slack, work, ti.td});
      }
    }
    if (ti.proc >= 0) {
      scratch.proc_demand[static_cast<std::size_t>(ti.proc)] += work + future;
    }
  }
  // Per-processor EDF prefix check: instances sharing a processor must
  // serialize, so sorted by slack horizon, each prefix's summed work must
  // fit within its horizon.
  for (auto& group : scratch.per_proc) {
    if (group.size() < 2) {
      continue;
    }
    std::sort(group.begin(), group.end());
    Time demand = 0;
    for (const auto& [slack, work, td] : group) {
      demand += work;
      if (demand > slack) {
        eval.doomed = true;
        eval.doomed_watchdog = td;
        return eval;
      }
    }
  }
  for (Time demand : scratch.proc_demand) {
    eval.remaining_work = std::max(eval.remaining_work, demand);
  }
  return eval;
}

}  // namespace ezrt::tpn
