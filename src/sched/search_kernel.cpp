#include "sched/search_kernel.hpp"

namespace ezrt::sched {

SearchShared::SearchShared(const tpn::TimePetriNet& net,
                           const SchedulerOptions& options,
                           const GoalPredicate& goal, std::uint32_t threads,
                           bool ranked)
    : net(net),
      options(options),
      goal(goal),
      semantics(net),
      classes_on(state_classes_enabled(options)),
      ranked(ranked),
      classifier(classes_on || ranked
                     ? std::make_optional<tpn::StateClassifier>(net)
                     : std::nullopt),
      miss_at_s0(std::ranges::any_of(
          net.miss_places(),
          [&](PlaceId p) { return net.place(p).initial_tokens > 0; })),
      threads(threads),
      t0(std::chrono::steady_clock::now()),
      guard(options, t0),
      state_bytes(estimated_state_bytes(net)) {
  // One shard keeps a serial search's table set-up small; the parallel
  // engine spreads its inserts over four shards per thread (at least 16).
  if (options.objective == Objective::kFirstFeasible) {
    visited.emplace(threads == 0 ? 1
                                 : std::max<std::size_t>(
                                       16, std::size_t{threads} * 4),
                    std::max<std::uint32_t>(1, threads));
  } else {
    costs.emplace();
  }
  if (options.progress != nullptr) {
    // Workers publish counter growth, so a reused sink restarts at zero.
    options.progress->publish(0, 0, 0, 0);
  }
}

void SearchShared::fold(SearchOutcome& out,
                        std::span<SearchWorker* const> workers,
                        std::uint64_t retired_bytes) const {
  const std::uint64_t peak_bytes = std::max(retired_bytes, table_bytes());
  SearchStats& s = out.stats;
  for (SearchWorker* w : workers) {
    SearchStats& ws = w->stats;
    ws.pruned_priority = w->expander.counters().pruned_priority;
    ws.peak_visited_bytes = peak_bytes;
    s.states_visited += ws.states_visited;
    s.transitions_fired += ws.transitions_fired;
    s.backtracks += ws.backtracks;
    s.pruned_deadline += ws.pruned_deadline;
    s.pruned_visited += ws.pruned_visited;
    s.pruned_priority += ws.pruned_priority;
    s.pruned_doomed += ws.pruned_doomed;
    s.classes_merged += ws.classes_merged;
    s.heuristic_evals += ws.heuristic_evals;
    s.beam_dropped += ws.beam_dropped;
    s.max_depth = std::max(s.max_depth, ws.max_depth);
    out.attribution.merge(w->attribution.counters());
  }
  s.peak_visited_bytes = peak_bytes;
  s.elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  if (options.progress != nullptr) {
    // Unmasked: the reporter's closing line shows exact totals even for
    // searches shorter than the publish mask.
    options.progress->publish(s.states_visited, s.transitions_fired,
                              s.pruned_deadline + s.pruned_visited,
                              s.max_depth);
  }
  if (!options.collect_telemetry) {
    return;
  }
  out.telemetry.collected = true;
  for (const SearchWorker* w : workers) {
    const Expander::Counters& c = w->expander.counters();
    out.telemetry.reduction_singletons += c.reduction_singletons;
    out.telemetry.workers.push_back(WorkerTelemetry{
        w->tid, c.expansions, w->donations, 0, 0, c.reduction_singletons,
        w->stats});
  }
  if (threads > 0) {
    out.telemetry.shards = visited->shard_stats();
  }
}

SearchWorker::SearchWorker(SearchShared& shared, std::uint32_t tid)
    : shared(shared),
      tid(tid),
      expander(shared.net, shared.semantics, shared.options),
      attribution(shared.net, shared.options.collect_attribution),
      guarded_(shared.guard.armed()),
      progress_{shared.options.progress} {}

Admit SearchWorker::admit_root(Frame& root) {
  root.state = tpn::State::initial(shared.net);
  ++states_owned_;
  const tpn::State& s0 = root.state;
  claim(shared.classes_on ? shared.classifier->canonical_digest(s0).digest
                          : s0.digest());
  ++stats.states_visited;
  const std::uint64_t n =
      shared.states.fetch_add(1, std::memory_order_relaxed) + 1;
  if (shared.is_goal(s0.marking())) {
    return conclude(SearchStatus::kFeasible);
  }
  if (budget_spent(n)) {
    return conclude(SearchStatus::kLimitReached);
  }
  expander.expand(s0, root.candidates);
  if (shared.ranked) {
    eval = shared.classifier->evaluate(s0, scratch);
    ++stats.heuristic_evals;
  }
  stats.max_depth = std::max<std::uint64_t>(stats.max_depth, root.depth);
  return Admit::kAdmitted;
}

Admit SearchWorker::admit(Frame& parent, std::size_t frames,
                          Frame& child) {
  edge.clear();
  corridor_.clear();
  // A copy: firing the last candidate hands its buffer to the child.
  Candidate cand = parent.candidates[parent.next++];
  if (parent.next < parent.candidates.size()) {
    states_owned_ += state_pool_.empty() ? 1 : 0;
    child.state = take(state_pool_);
    child.candidates = take(candidate_pool_);
    expander.fire_into(parent.state, cand, child.state);
  } else {
    // The parent is spent: nothing reads its state or buffer again.
    child.state = std::exchange(parent.state, {});
    child.candidates = std::exchange(parent.candidates, {});
    expander.fire_into(child.state, cand, child.state);  // in place
  }
  ++stats.transitions_fired;
  child.depth = parent.depth + 1;
  const tpn::State& s = child.state;
  tpn::StateClassifier::CanonicalDigest key;
  // With class keys this loop is the corridor chase (docs/search.md §3.1):
  // single-candidate successors are fired in place until a decision
  // state, a dead end or a prune. Only decision states are claimed and
  // counted; the interiors go to the memo once the claim has decided
  // their corridor.
  for (;;) {
    edge.push_back(
        FiringEvent{cand.fireable.transition, cand.delay, s.elapsed()});
    if (auto tripped = poll_guard([&] {
          // The table is exact; this worker's states, frames and memo
          // stand in for every worker's.
          return shared.table_bytes() +
                 (states_owned_ * shared.state_bytes +
                  frames * sizeof(Frame) + memo.memory_bytes()) *
                     std::max<std::uint32_t>(1, shared.threads);
        })) {
      return conclude(*tripped);
    }
    // Every state fired from passed this test when it was admitted or
    // chased, s0 aside, and a firing changes only •t ∪ t•: only a t with
    // a miss place in t• can mark one (docs/search.md §5).
    if ((shared.miss_at_s0 ||
         shared.net.firing_record(cand.fireable.transition).feeds_miss) &&
        tpn::has_deadline_miss(shared.net, s.marking())) {
      ++stats.pruned_deadline;
      attribution.record_deadline(s.marking());
      return Admit::kPruned;
    }
    if (!shared.classes_on) {
      key.digest = s.digest();
      break;
    }
    const tpn::StateDigest concrete = s.digest();
    if (memo.contains(concrete)) {
      // The chase would end at a decided claim, as would one from every
      // interior that led here.
      memoize_corridor();
      ++stats.pruned_visited;
      return Admit::kPruned;
    }
    if (shared.is_goal(s.marking())) {
      return conclude(SearchStatus::kFeasible);
    }
    eval = shared.classifier->evaluate(s, scratch);
    stats.heuristic_evals += shared.ranked ? 1 : 0;
    if (eval.doomed) {
      ++stats.pruned_doomed;
      attribution.record_doomed(eval.doomed_watchdog, s.marking());
      return Admit::kPruned;
    }
    key = shared.classifier->canonical_digest(s);
    expander.expand(s, child.candidates);
    if (child.candidates.size() != 1) {
      break;  // a decision state
    }
    if (edge.size() > kCorridorCap) {
      // Where the safety valve stops depends on where the chase began,
      // so these interiors are not memoized.
      corridor_.clear();
      break;
    }
    corridor_.push_back(concrete);
    cand = child.candidates[0];
    expander.fire_into(s, cand, child.state);  // in place
    ++stats.transitions_fired;
  }

  const bool claimed = claim(key.digest);
  memoize_corridor();
  if (!claimed) {
    ++stats.pruned_visited;
    return Admit::kPruned;
  }
  ++stats.states_visited;
  stats.classes_merged += key.capped ? 1 : 0;
  const std::uint64_t n =
      shared.states.fetch_add(1, std::memory_order_relaxed) + 1;
  publish(n, child.depth);
  if (!shared.classes_on && shared.is_goal(s.marking())) {
    return conclude(SearchStatus::kFeasible);
  }
  if (budget_spent(n)) {
    return conclude(SearchStatus::kLimitReached);
  }
  if (!shared.classes_on) {
    if (shared.ranked) {
      eval = shared.classifier->evaluate(s, scratch);
      ++stats.heuristic_evals;
    }
    expander.expand(s, child.candidates);
  }
  stats.max_depth = std::max(stats.max_depth, child.depth);
  return Admit::kAdmitted;
}

void CorridorMemo::insert(tpn::StateDigest d) {
  if ((d.a | d.b) == 0) {
    return;
  }
  if ((count_ + 1) * 4 > slots_.size() * 3) {
    if (slots_.size() >= kMaxSlots) {
      return;  // at the cap: stop recording
    }
    std::vector<tpn::StateDigest> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : old.size() * 2, {});
    count_ = 0;
    for (const tpn::StateDigest& o : old) {
      if ((o.a | o.b) != 0) {
        insert(o);
      }
    }
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = d.a & mask;; i = (i + 1) & mask) {
    if (slots_[i].a == d.a && slots_[i].b == d.b) {
      return;
    }
    if ((slots_[i].a | slots_[i].b) == 0) {
      slots_[i] = d;
      ++count_;
      return;
    }
  }
}

bool SearchWorker::claim_cheaper(tpn::StateDigest key) {
  key.a ^= salt;
  return shared.costs->claim(key, cost);
}

}  // namespace ezrt::sched
