// Equivalence guardrail for the incremental firing engine (docs/semantics.md
// §5): the maintained-enabled-set engine must be observationally identical
// to the dense Definition 3.1 reference — same fireable sets (against a
// dense FT(s) written here), same successor states, and bit-identical
// searches (traces, statuses, effort and attribution counters) across all
// model families, state classes on and off; the in-place firing the
// search recycles states through, and the net's role index, against
// dense scans. Plus direct fire() edge cases the incremental clock
// maintenance must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "builder/tpn_builder.hpp"
#include "sched/dfs.hpp"
#include "tpn/analysis.hpp"
#include "tpn/semantics.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

using sched::DfsScheduler;
using sched::SchedulerOptions;
using sched::SearchOutcome;
using sched::SuccessorEngine;
using spec::Specification;
using spec::TimingConstraints;
using tpn::FireableTransition;
using tpn::Semantics;
using tpn::State;
using tpn::TimePetriNet;
using workload::WorkloadConfig;

[[nodiscard]] TimePetriNet build_net(const Specification& s) {
  auto model = builder::build_tpn(s);
  EXPECT_TRUE(model.ok()) << (model.ok() ? "" : model.error().to_string());
  return std::move(model).value().net;
}

[[nodiscard]] SearchOutcome run(const TimePetriNet& net,
                                SchedulerOptions options,
                                SuccessorEngine engine) {
  options.engine = engine;
  DfsScheduler scheduler(net, options);
  return scheduler.search();
}

/// Runs the same search with both engines and requires bit-identical
/// results: status, the full trace, every effort counter and the
/// attribution counters. Returns the incremental engine's outcome.
SearchOutcome expect_search_equivalent(const TimePetriNet& net,
                                       SchedulerOptions options = {}) {
  const SearchOutcome inc = run(net, options, SuccessorEngine::kIncremental);
  const SearchOutcome ref = run(net, options, SuccessorEngine::kReference);

  EXPECT_EQ(inc.status, ref.status)
      << to_string(inc.status) << " vs " << to_string(ref.status);
  EXPECT_EQ(inc.trace.size(), ref.trace.size());
  for (std::size_t i = 0;
       i < std::min(inc.trace.size(), ref.trace.size()); ++i) {
    EXPECT_EQ(inc.trace[i].transition, ref.trace[i].transition) << "at " << i;
    EXPECT_EQ(inc.trace[i].delay, ref.trace[i].delay) << "at " << i;
    EXPECT_EQ(inc.trace[i].at, ref.trace[i].at) << "at " << i;
  }
  EXPECT_EQ(inc.stats.states_visited, ref.stats.states_visited);
  EXPECT_EQ(inc.stats.transitions_fired, ref.stats.transitions_fired);
  EXPECT_EQ(inc.stats.backtracks, ref.stats.backtracks);
  EXPECT_EQ(inc.stats.pruned_deadline, ref.stats.pruned_deadline);
  EXPECT_EQ(inc.stats.pruned_visited, ref.stats.pruned_visited);
  EXPECT_EQ(inc.stats.max_depth, ref.stats.max_depth);
  EXPECT_EQ(inc.stats.pruned_doomed, ref.stats.pruned_doomed);
  EXPECT_EQ(inc.stats.classes_merged, ref.stats.classes_merged);
  EXPECT_EQ(inc.stats.heuristic_evals, ref.stats.heuristic_evals);
  EXPECT_EQ(inc.stats.pruned_priority, ref.stats.pruned_priority);
  EXPECT_EQ(inc.stats.beam_dropped, ref.stats.beam_dropped);
  EXPECT_EQ(inc.stats.peak_visited_bytes, ref.stats.peak_visited_bytes);
  EXPECT_EQ(inc.best_cost, ref.best_cost);
  EXPECT_EQ(inc.solutions_found, ref.solutions_found);
  EXPECT_EQ(inc.attribution.collected, ref.attribution.collected);
  EXPECT_EQ(inc.attribution.deadline_hits, ref.attribution.deadline_hits);
  EXPECT_EQ(inc.attribution.contention, ref.attribution.contention);
  EXPECT_EQ(inc.attribution.doomed_hits, ref.attribution.doomed_hits);
  EXPECT_EQ(inc.attribution.doomed_unattributed,
            ref.attribution.doomed_unattributed);
  return inc;
}

[[nodiscard]] Specification generated(WorkloadConfig config) {
  auto spec = workload::generate(config);
  EXPECT_TRUE(spec.ok()) << (spec.ok() ? "" : spec.error().to_string());
  return std::move(spec).value();
}

// -- Search equivalence across model families ---------------------------------

TEST(IncrementalEquivalence, MinePumpCaseStudy) {
  expect_search_equivalent(build_net(workload::mine_pump_specification()));
}

TEST(IncrementalEquivalence, PrecedenceWorkload) {
  WorkloadConfig config;
  config.tasks = 4;
  config.utilization = 0.35;
  config.precedence_edges = 3;
  config.seed = 7;
  expect_search_equivalent(build_net(generated(config)));
}

TEST(IncrementalEquivalence, ExclusionWorkload) {
  WorkloadConfig config;
  config.tasks = 4;
  config.utilization = 0.35;
  config.exclusion_pairs = 2;
  config.seed = 11;
  expect_search_equivalent(build_net(generated(config)));
}

TEST(IncrementalEquivalence, PreemptiveWorkload) {
  WorkloadConfig config;
  config.tasks = 3;
  config.utilization = 0.3;
  config.preemptive_fraction = 1.0;
  config.seed = 13;
  SchedulerOptions options;
  options.max_states = 50'000;  // preemptive chunking inflates the space
  expect_search_equivalent(build_net(generated(config)), options);
}

TEST(IncrementalEquivalence, RandomWorkloadSweep) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    WorkloadConfig config;
    config.tasks = 5;
    config.utilization = 0.5;
    config.seed = seed;
    SchedulerOptions options;
    options.max_states = 20'000;  // bound infeasible exhaustions
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_search_equivalent(build_net(generated(config)), options);
  }
}

[[nodiscard]] Specification two_tasks() {
  Specification s("two");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10});
  return s;
}

TEST(IncrementalEquivalence, UnprunedSearch) {
  SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.partial_order_reduction = false;
  options.max_states = 50'000;
  expect_search_equivalent(build_net(two_tasks()), options);
}

TEST(IncrementalEquivalence, AllInDomainFiringTimes) {
  SchedulerOptions options;
  options.firing_times = sched::FiringTimePolicy::kAllInDomain;
  options.max_states = 10'000;
  expect_search_equivalent(build_net(two_tasks()), options);
}

TEST(IncrementalEquivalence, BranchAndBoundMakespan) {
  SchedulerOptions options;
  options.objective = sched::Objective::kMinimizeMakespan;
  options.max_states = 50'000;
  expect_search_equivalent(build_net(two_tasks()), options);
}

TEST(IncrementalEquivalence, BranchAndBoundSwitches) {
  SchedulerOptions options;
  options.objective = sched::Objective::kMinimizeSwitches;
  options.max_states = 50'000;
  expect_search_equivalent(build_net(two_tasks()), options);
}

// The classifier reads the enabled bits and the digest of every state it
// keys or dooms; under the reference engine those come from
// fire_reference's dense rebuild. An exhausted infeasible set with state
// classes on must still search identically under both engines, on every
// frontier (dfs, best-first, a width-2 beam and one parallel worker),
// down to the doom and merge counts. Each frontier fires the last
// candidate of a state in place into that state, where the reference
// engine's successor aliases its source.
TEST(IncrementalEquivalence, StateClassesOnExhaustiveInfeasible) {
  WorkloadConfig config;
  config.tasks = 6;
  config.utilization = 0.85;
  config.exclusion_pairs = 2;
  config.seed = 4;
  const TimePetriNet net = build_net(generated(config));
  std::vector<std::pair<std::string, SchedulerOptions>> engines(4);
  engines[0].first = "dfs";
  engines[1].first = "bestfirst";
  engines[1].second.search_engine = sched::SearchEngine::kBestFirst;
  engines[2].first = "beam";
  engines[2].second.search_engine = sched::SearchEngine::kBeam;
  engines[2].second.beam_width = 2;
  engines[3].first = "threads=1";
  engines[3].second.threads = 1;
  for (auto& [name, options] : engines) {
    SCOPED_TRACE(name);
    options.pruning = sched::PruningMode::kNone;
    options.max_states = 0;
    options.state_classes = sched::StateClassMode::kOn;
    options.collect_attribution = true;
    const SearchOutcome out = expect_search_equivalent(net, options);
    // The beam drops states, so its goalless pass is inconclusive.
    const bool beam = options.search_engine == sched::SearchEngine::kBeam;
    EXPECT_EQ(out.status, beam ? sched::SearchStatus::kLimitReached
                               : sched::SearchStatus::kInfeasible);
    EXPECT_EQ(out.stats.beam_dropped > 0, beam);
    EXPECT_GT(out.stats.pruned_doomed, 0u);
    if (!beam) {
      EXPECT_GT(out.stats.classes_merged, 0u);  // a width-2 beam merges none
    }
    EXPECT_TRUE(out.attribution.collected);
  }
}

// The pipeline's search: a generated 32-task set at default options
// (classes off) is a straight dive, 547 states deep with no backtrack.
// On a dive nearly every admission fires its parent's last candidate in
// place (97% on the pipeline corpus), so under the reference engine the
// successor aliases its source at almost every step, and the schedule
// is read back from a stack of spent frames. The depth and the
// backtrack count are pinned so that a generator change cannot quietly
// turn it into a shallow search.
TEST(IncrementalEquivalence, PipelineShapedDive) {
  WorkloadConfig config;
  config.tasks = 32;
  config.utilization = 0.5;
  config.preemptive_fraction = 0.2;
  config.precedence_edges = config.tasks / 5;
  config.exclusion_pairs = config.tasks / 8;
  config.seed = 3;
  const SearchOutcome out =
      expect_search_equivalent(build_net(generated(config)));
  EXPECT_EQ(out.status, sched::SearchStatus::kFeasible);
  EXPECT_EQ(out.stats.max_depth, 547u);
  EXPECT_EQ(out.stats.backtracks, 0u);
}

// -- Stepwise fire vs fire_reference -------------------------------------------

/// FT(s) written from its definition over the dense reference scans:
/// ET(m) from `enabled`, the bound from `max_time_advance`, each DLB
/// from `dynamic_lower_bound`. The oracle for `fireable`, which
/// enumerates the maintained bitset.
[[nodiscard]] std::vector<FireableTransition> dense_fireable(
    const Semantics& sem, const State& s, bool priority_filter) {
  const std::vector<TransitionId> et = sem.enabled(s.marking());
  const Time bound = sem.max_time_advance(s, et);
  std::vector<FireableTransition> ft;
  for (const TransitionId t : et) {
    const Time dlb = sem.dynamic_lower_bound(s, t);
    if (dlb <= bound) {
      ft.push_back(FireableTransition{t, dlb, bound});
    }
  }
  if (priority_filter) {
    tpn::apply_priority_filter(sem.net(), ft);
  }
  return ft;
}

/// `ft`, from `fireable`, against dense_fireable at `s`.
void expect_dense_fireable(const Semantics& sem, const State& s,
                           bool priority_filter,
                           const std::vector<FireableTransition>& ft) {
  const std::vector<FireableTransition> dense =
      dense_fireable(sem, s, priority_filter);
  ASSERT_EQ(ft.size(), dense.size());
  for (std::size_t i = 0; i < ft.size(); ++i) {
    ASSERT_EQ(ft[i].transition, dense[i].transition) << "entry " << i;
    ASSERT_EQ(ft[i].earliest, dense[i].earliest) << "entry " << i;
    ASSERT_EQ(ft[i].latest, dense[i].latest) << "entry " << i;
  }
}

// Walks one path through the mine-pump TLTS keeping two copies of the
// state: one advanced by the incremental fire(), one by the dense
// fire_reference(). At every step the timed states must agree, and the
// filtered FT_P(s) of the incremental state must equal the dense
// enumeration at the reference state.
TEST(IncrementalEquivalence, StepwiseWalkMatchesReference) {
  const TimePetriNet net = build_net(workload::mine_pump_specification());
  const Semantics sem(net);

  State inc = State::initial(net);
  State ref = State::initial(net);
  for (int step = 0; step < 500; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::vector<FireableTransition> ft_inc = sem.fireable(inc, true);
    expect_dense_fireable(sem, ref, true, ft_inc);
    if (HasFatalFailure()) {
      return;
    }
    if (ft_inc.empty()) {
      break;
    }
    const FireableTransition f = ft_inc[step % ft_inc.size()];
    inc = sem.fire(inc, f.transition, f.earliest);
    ref = sem.fire_reference(ref, f.transition, f.earliest);
    ASSERT_TRUE(inc.same_timed_state(ref)) << "diverged at step " << step;
    ASSERT_EQ(inc.elapsed(), ref.elapsed());
  }
}

// -- In-place firing into recycled states ------------------------------------

/// The nets the random walks cover: the three example models and
/// generated multiprocessor nets (partitioned; global with bus messages
/// and a sync budget).
[[nodiscard]] std::vector<std::pair<std::string, TimePetriNet>> walk_nets() {
  Specification harmonic("harmonic_u40");
  harmonic.add_processor("cpu0");
  harmonic.add_task("T1", TimingConstraints{0, 0, 28, 135, 200});
  harmonic.add_task("T2", TimingConstraints{0, 0, 9, 175, 200});
  harmonic.add_task("T3", TimingConstraints{0, 0, 12, 162, 200});
  harmonic.add_task("T4", TimingConstraints{0, 0, 16, 91, 100});
  std::vector<std::pair<std::string, TimePetriNet>> nets;
  nets.emplace_back("mine_pump",
                    build_net(workload::mine_pump_specification()));
  nets.emplace_back("harmonic_u40", build_net(harmonic));
  nets.emplace_back("uav_dual_processor",
                    build_net(workload::uav_autopilot_specification()));
  for (const auto placement :
       {workload::Placement::kPartitioned, workload::Placement::kGlobal}) {
    for (const std::uint64_t seed : {1, 2}) {
      nets.emplace_back(
          std::string(placement == workload::Placement::kGlobal
                          ? "global"
                          : "partitioned") +
              " multiproc seed " + std::to_string(seed),
          build_net(generated(workload::multiproc_scenario(
              placement, seed == 1, 2 + static_cast<std::uint32_t>(seed),
              seed))));
    }
  }
  return nets;
}

/// The role tests as dense scans over every place, written from the
/// PlaceRole definitions: the oracle for the net's role index.
[[nodiscard]] bool final_by_scan(const TimePetriNet& net,
                                 const tpn::Marking& m) {
  for (const PlaceId p : net.place_ids()) {
    if (net.place(p).role == tpn::PlaceRole::kEnd && m[p] > 0) {
      return true;
    }
  }
  return false;
}
[[nodiscard]] TaskId missed_by_scan(const TimePetriNet& net,
                                    const tpn::Marking& m) {
  for (const PlaceId p : net.place_ids()) {
    const tpn::PlaceRole role = net.place(p).role;
    if ((role == tpn::PlaceRole::kMissPending ||
         role == tpn::PlaceRole::kMissed) &&
        m[p] > 0) {
      return net.place(p).task;
    }
  }
  return TaskId();
}

/// `in_place` (fired by fire_into) against `ref` (fired by
/// fire_reference): marking, clocks, elapsed time, the enabled set and
/// count against a dense scan, and the maintained digest against a dense
/// recomputation and the reference's densely rebuilt one. Also checks the
/// role index on the marking.
void expect_matches_reference(const TimePetriNet& net, const Semantics& sem,
                              const State& in_place, const State& ref) {
  ASSERT_TRUE(in_place.same_timed_state(ref));
  ASSERT_EQ(in_place.elapsed(), ref.elapsed());
  ASSERT_EQ(in_place.enabled_words().size(),
            (net.transition_count() + 63) / 64);
  std::uint32_t enabled = 0;
  for (const TransitionId t : net.transition_ids()) {
    const bool dense = sem.is_enabled(ref.marking(), t);
    ASSERT_EQ(in_place.enabled(t), dense) << net.transition(t).name;
    ASSERT_EQ(ref.enabled(t), dense) << net.transition(t).name;
    enabled += dense ? 1 : 0;
  }
  ASSERT_EQ(in_place.enabled_count(), enabled);
  const tpn::StateDigest maintained = in_place.digest();
  const tpn::StateDigest dense = in_place.compute_digest();
  ASSERT_EQ(maintained.a, dense.a);
  ASSERT_EQ(maintained.b, dense.b);
  ASSERT_EQ(maintained.a, ref.digest().a);
  ASSERT_EQ(maintained.b, ref.digest().b);

  ASSERT_EQ(tpn::is_final_marking(net, in_place.marking()),
            final_by_scan(net, ref.marking()));
  ASSERT_EQ(tpn::missed_task(net, in_place.marking()),
            missed_by_scan(net, ref.marking()));
}

// Random walks fire into one recycled State that starts as a dirty state
// of a larger net, then alternate between firing into the previous state
// and firing a state in place. Every step must equal the dense reference.
TEST(InPlaceFiring, RandomWalksIntoRecycledStatesMatchReference) {
  const auto nets = walk_nets();
  // The dirtiest start: the largest net's state a few firings in.
  const TimePetriNet* largest = &nets.front().second;
  for (const auto& entry : nets) {
    if (entry.second.transition_count() > largest->transition_count()) {
      largest = &entry.second;
    }
  }
  State dirty = State::initial(*largest);
  {
    const Semantics sem(*largest);
    for (int i = 0; i < 10; ++i) {
      const auto ft = sem.fireable(dirty, false);
      ASSERT_FALSE(ft.empty());
      dirty = sem.fire(dirty, ft.back().transition, ft.back().earliest);
    }
  }

  std::mt19937_64 rng(20081017);
  std::size_t misses = 0;
  for (const auto& [name, net] : nets) {
    SCOPED_TRACE(name);
    ASSERT_LE(net.transition_count(), largest->transition_count());
    const Semantics sem(net);
    for (int walk = 0; walk < 4; ++walk) {
      State recycled = dirty;
      State cur = State::initial(net);
      State ref = State::initial(net);
      for (int step = 0; step < 300; ++step) {
        SCOPED_TRACE("walk " + std::to_string(walk) + " step " +
                     std::to_string(step));
        const auto ft = sem.fireable(cur, false);
        expect_dense_fireable(sem, ref, false, ft);
        if (HasFatalFailure()) {
          return;
        }
        if (ft.empty()) {
          break;
        }
        const FireableTransition f = ft[rng() % ft.size()];
        const Time width =
            f.latest == kTimeInfinity ? 3 : f.latest - f.earliest;
        const Time q = f.earliest + rng() % (std::min<Time>(width, 3) + 1);
        ref = sem.fire_reference(ref, f.transition, q);
        if (step % 2 == 0) {
          sem.fire_into(cur, f, q, recycled);
          std::swap(cur, recycled);
        } else {
          sem.fire_into(cur, f, q, cur);
        }
        expect_matches_reference(net, sem, cur, ref);
        if (HasFatalFailure()) {
          return;
        }
        misses += tpn::has_deadline_miss(net, cur.marking()) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(misses, 0u) << "the walks never exercised the miss index";
}

// The goal side of the role index: every example model's schedule, fired
// in place into a recycled state, ends in a marking both the index and
// the dense scan accept, and no step before it is accepted.
TEST(InPlaceFiring, SchedulesReachTheFinalMarkingByIndexAndScan) {
  for (const auto& [name, net] : walk_nets()) {
    SCOPED_TRACE(name);
    SchedulerOptions options;
    options.pruning = sched::PruningMode::kNone;
    const SearchOutcome out = DfsScheduler(net, options).search();
    if (out.status != sched::SearchStatus::kFeasible) {
      continue;
    }
    const Semantics sem(net);
    State cur = State::initial(net);
    State recycled;
    for (std::size_t i = 0; i < out.trace.size(); ++i) {
      ASSERT_FALSE(final_by_scan(net, cur.marking()));
      ASSERT_FALSE(tpn::is_final_marking(net, cur.marking()));
      const auto ft = sem.fireable(cur, false);
      expect_dense_fireable(sem, cur, false, ft);
      if (HasFatalFailure()) {
        return;
      }
      const auto it = std::find_if(ft.begin(), ft.end(), [&](const auto& f) {
        return f.transition == out.trace[i].transition;
      });
      ASSERT_NE(it, ft.end()) << "step " << i;
      sem.fire_into(cur, *it, out.trace[i].delay, recycled);
      std::swap(cur, recycled);
      ASSERT_EQ(cur.elapsed(), out.trace[i].at);
    }
    EXPECT_TRUE(final_by_scan(net, cur.marking()));
    EXPECT_TRUE(tpn::is_final_marking(net, cur.marking()));
    EXPECT_FALSE(tpn::missed_task(net, cur.marking()).valid());
  }
}

// -- fire() edge cases ---------------------------------------------------------

// Self-loop: t consumes and reproduces its own input token. The fired
// transition's clock resets to 0 (it fired); a neighbor u reading the same
// place is enabled in both m and m' — Definition 3.1 compares only those
// two markings, so u is *persistent* and its clock advances by q.
TEST(FireEdgeCases, SelfLoopArc) {
  TimePetriNet net;
  const PlaceId p = net.add_place("p", 1);
  const PlaceId sink = net.add_place("sink", 0);
  const auto t = net.add_transition("t", TimeInterval(1, 4));
  const auto u = net.add_transition("u", TimeInterval(20, 30));
  net.add_input(t, p);
  net.add_output(t, p);  // self-loop
  net.add_input(u, p);
  net.add_output(u, sink);
  ASSERT_TRUE(net.validate().ok());
  const Semantics sem(net);

  const State s0 = State::initial(net);
  const State s1 = sem.fire(s0, t, 2);
  EXPECT_EQ(s1.marking()[p], 1u);       // token restored by the loop
  EXPECT_EQ(s1.clock(t), 0);            // fired => reset
  EXPECT_EQ(s1.clock(u), 2);            // persistent => advanced
  EXPECT_TRUE(sem.fire_reference(s0, t, 2).same_timed_state(s1));

  // Fire the loop again: u keeps accumulating across self-loop firings.
  const State s2 = sem.fire(s1, t, 3);
  EXPECT_EQ(s2.clock(u), 5);
  EXPECT_TRUE(sem.fire_reference(s1, t, 3).same_timed_state(s2));
}

// Weight > 1: t needs two tokens of p and produces two into out; u needs
// one of p. Firing t drains p entirely, so u flips to disabled and its
// clock is normalized to 0.
TEST(FireEdgeCases, WeightedArcs) {
  TimePetriNet net;
  const PlaceId p = net.add_place("p", 2);
  const PlaceId out = net.add_place("out", 0);
  const auto t = net.add_transition("t", TimeInterval(0, 5));
  const auto u = net.add_transition("u", TimeInterval(10, 20));
  net.add_input(t, p, 2);
  net.add_output(t, out, 2);
  net.add_input(u, p);
  net.add_output(u, out);
  ASSERT_TRUE(net.validate().ok());
  const Semantics sem(net);

  const State s0 = State::initial(net);
  ASSERT_TRUE(sem.is_enabled(s0.marking(), u));
  const State s1 = sem.fire(s0, t, 4);
  EXPECT_EQ(s1.marking()[p], 0u);
  EXPECT_EQ(s1.marking()[out], 2u);
  EXPECT_FALSE(sem.is_enabled(s1.marking(), u));
  EXPECT_EQ(s1.clock(u), 0);  // disabled => canonical 0, not 4
  EXPECT_TRUE(sem.fire_reference(s0, t, 4).same_timed_state(s1));
}

// Disabled-then-re-enabled: u ran up a clock, was disabled (clock
// normalized to 0), and a later firing re-enables it while q > 0 time
// passes. The newly-enabled rule must reset u's clock to 0 — in
// particular it must NOT inherit the q advance that persistent
// transitions receive in the same firing.
TEST(FireEdgeCases, DisabledThenReenabledClockResets) {
  TimePetriNet net;
  const PlaceId pa = net.add_place("pa", 1);
  const PlaceId pb = net.add_place("pb", 1);
  const PlaceId pc = net.add_place("pc", 0);
  const PlaceId sink = net.add_place("sink", 0);
  const auto u = net.add_transition("u", TimeInterval(50, 60));
  const auto w = net.add_transition("w", TimeInterval(0, 10));
  const auto x = net.add_transition("x", TimeInterval(0, 10));
  net.add_input(u, pa);
  net.add_input(u, pb);
  net.add_output(u, sink);
  net.add_input(w, pb);  // steals u's second token
  net.add_output(w, pc);
  net.add_input(x, pc);  // gives it back
  net.add_output(x, pb);
  ASSERT_TRUE(net.validate().ok());
  const Semantics sem(net);

  const State s0 = State::initial(net);
  const State s1 = sem.fire(s0, w, 4);  // u accumulated 4, then disabled
  EXPECT_FALSE(sem.is_enabled(s1.marking(), u));
  EXPECT_EQ(s1.clock(u), 0);
  EXPECT_TRUE(sem.fire_reference(s0, w, 4).same_timed_state(s1));

  const State s2 = sem.fire(s1, x, 3);  // re-enabled within this firing
  EXPECT_TRUE(sem.is_enabled(s2.marking(), u));
  EXPECT_EQ(s2.clock(u), 0);  // newly enabled => 0, not 3 and not 7
  EXPECT_TRUE(sem.fire_reference(s1, x, 3).same_timed_state(s2));
}

// The trusted firing of a fireable candidate (fire_into, which skips the
// domain checks) must agree with the checked fire.
TEST(FireEdgeCases, FireFireableMatchesFire) {
  const TimePetriNet net = build_net(two_tasks());
  const Semantics sem(net);
  State s = State::initial(net);
  for (int step = 0; step < 40; ++step) {
    const auto ft = sem.fireable(s, true);
    if (ft.empty()) {
      break;
    }
    const FireableTransition f = ft.front();
    const State via_fire = sem.fire(s, f.transition, f.earliest);
    State via_fast;
    sem.fire_into(s, f, f.earliest, via_fast);
    ASSERT_TRUE(via_fast.same_timed_state(via_fire)) << "step " << step;
    s = via_fast;
  }
}

}  // namespace
}  // namespace ezrt
