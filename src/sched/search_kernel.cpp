#include "sched/search_kernel.hpp"

namespace ezrt::sched {

SearchShared::SearchShared(const tpn::TimePetriNet& net,
                           const SchedulerOptions& options,
                           const GoalPredicate& goal, std::uint32_t threads)
    : net(net),
      options(options),
      goal(goal),
      semantics(net),
      classifier(net),
      classes_on(state_classes_enabled(options)),
      threads(threads),
      t0(std::chrono::steady_clock::now()),
      guard(options, t0),
      frame_bytes(estimated_frame_bytes(net) *
                  std::max<std::uint32_t>(1, threads)) {
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
  for (PlaceId p : net.place_ids()) {
    const tpn::PlaceRole role = net.place(p).role;
    if (role == tpn::PlaceRole::kMissPending ||
        role == tpn::PlaceRole::kMissed) {
      miss_places_.push_back(p);
    }
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

SearchWorker::SearchWorker(SearchShared& shared, std::uint32_t tid,
                           bool heuristic)
    : shared(shared),
      tid(tid),
      expander(shared.net, shared.semantics, shared.options),
      attribution(shared.net, shared.options.collect_attribution),
      heuristic_(heuristic),
      guarded_(shared.guard.armed()),
      progress_{shared.options.progress} {}

Admit SearchWorker::admit_root(Frame& root) {
  root.state = tpn::State::initial(shared.net);
  const tpn::State& s0 = root.state;
  claim(shared.classes_on
            ? shared.classifier.canonical_digest(s0, shared.semantics).digest
            : s0.digest());
  ++stats.states_visited;
  const std::uint64_t n =
      shared.states.fetch_add(1, std::memory_order_relaxed) + 1;
  if (shared.goal(s0.marking())) {
    return conclude(SearchStatus::kFeasible);
  }
  if (budget_spent(n)) {
    return conclude(SearchStatus::kLimitReached);
  }
  expander.expand(s0, root.candidates);
  if (heuristic_) {
    eval = shared.classifier.evaluate(s0, shared.semantics, scratch);
    ++stats.heuristic_evals;
  }
  stats.max_depth = std::max<std::uint64_t>(stats.max_depth, root.depth);
  return Admit::kAdmitted;
}

Admit SearchWorker::admit(const Frame& parent, Candidate cand,
                          std::size_t frames, Frame& child) {
  edge.clear();
  child.state = expander.fire(parent.state, cand);
  ++stats.transitions_fired;
  child.depth = parent.depth + 1;
  const tpn::State& s = child.state;
  tpn::StateClassifier::CanonicalDigest key;
  // With class keys this loop is the corridor chase (docs/search.md §3):
  // single-candidate successors are walked inline until a decision state,
  // a dead end or a prune. Interior states are only checked against the
  // table (a snapshot under concurrency), so only decision states are
  // inserted and counted.
  for (;;) {
    edge.push_back(
        FiringEvent{cand.fireable.transition, cand.delay, s.elapsed()});
    if (auto tripped = poll_guard([&] {
          return shared.table_bytes() + frames * shared.frame_bytes;
        })) {
      return conclude(*tripped);
    }
    if (shared.has_miss(s.marking())) {
      ++stats.pruned_deadline;
      attribution.record_deadline(s.marking());
      return Admit::kPruned;
    }
    if (!shared.classes_on) {
      key.digest = s.digest();
      break;
    }
    if (shared.goal(s.marking())) {
      return conclude(SearchStatus::kFeasible);
    }
    eval = shared.classifier.evaluate(s, shared.semantics, scratch);
    stats.heuristic_evals += heuristic_ ? 1 : 0;
    if (eval.doomed) {
      ++stats.pruned_doomed;
      attribution.record_doomed(eval.doomed_watchdog, s.marking());
      return Admit::kPruned;
    }
    key = shared.classifier.canonical_digest(s, shared.semantics);
    expander.expand(s, child.candidates);
    if (child.candidates.size() != 1 || edge.size() > kCorridorCap) {
      break;  // a decision state (or the corridor safety valve)
    }
    if (shared.visited->contains(key.digest)) {
      ++stats.pruned_visited;  // the corridor rejoined an explored class
      return Admit::kPruned;
    }
    cand = child.candidates[0];
    child.state = expander.fire(s, cand);
    ++stats.transitions_fired;
  }

  if (!claim(key.digest)) {
    ++stats.pruned_visited;
    return Admit::kPruned;
  }
  ++stats.states_visited;
  stats.classes_merged += key.capped ? 1 : 0;
  const std::uint64_t n =
      shared.states.fetch_add(1, std::memory_order_relaxed) + 1;
  publish(n, child.depth);
  if (!shared.classes_on && shared.goal(s.marking())) {
    return conclude(SearchStatus::kFeasible);
  }
  if (budget_spent(n)) {
    return conclude(SearchStatus::kLimitReached);
  }
  if (!shared.classes_on) {
    if (heuristic_) {
      eval = shared.classifier.evaluate(s, shared.semantics, scratch);
      ++stats.heuristic_evals;
    }
    expander.expand(s, child.candidates);
  }
  stats.max_depth = std::max(stats.max_depth, child.depth);
  return Admit::kAdmitted;
}

bool SearchWorker::claim_cheaper(tpn::StateDigest key) {
  key.a ^= salt;
  return shared.costs->claim(key, cost);
}

}  // namespace ezrt::sched
