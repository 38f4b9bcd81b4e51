// Unit tests for the DFS scheduler: feasibility, infeasibility, pruning
// modes, partial-order reduction, trace replay and schedule extraction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.hpp"
#include "builder/tpn_builder.hpp"
#include "sched/dfs.hpp"
#include "sched/reachability.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt::sched {
namespace {

using builder::BlockStyle;
using builder::BuildOptions;
using builder::BuiltModel;
using spec::SchedulingType;
using spec::Specification;
using spec::TimingConstraints;

[[nodiscard]] BuiltModel build(const Specification& s,
                               BuildOptions options = {}) {
  auto model = builder::build_tpn(s, options);
  EXPECT_TRUE(model.ok()) << (model.ok() ? "" : model.error().to_string());
  return std::move(model).value();
}

[[nodiscard]] Specification two_tasks() {
  Specification s("two");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10});
  return s;
}

/// The first-feasible engines (dfs, bestfirst, beam, two threads) as
/// (name, options) pairs, with state classes forced on or off.
[[nodiscard]] std::vector<std::pair<std::string, SchedulerOptions>>
engine_variants(bool classes) {
  std::vector<std::pair<std::string, SchedulerOptions>> out(4);
  out[0].first = "dfs";
  out[1].first = "bestfirst";
  out[1].second.search_engine = SearchEngine::kBestFirst;
  out[2].first = "beam";
  out[2].second.search_engine = SearchEngine::kBeam;
  out[3].first = "threads=2";
  out[3].second.threads = 2;
  for (auto& [name, options] : out) {
    name += classes ? "+classes" : "";
    options.state_classes =
        classes ? StateClassMode::kOn : StateClassMode::kOff;
  }
  return out;
}

// -- Hand-built nets -----------------------------------------------------------

TEST(Dfs, TrivialGoalAtInitialState) {
  tpn::TimePetriNet net;
  net.add_place("pend", 1, tpn::PlaceRole::kEnd);
  net.add_place("p", 1);
  const auto t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, PlaceId(1));
  ASSERT_TRUE(net.validate().ok());

  // s0 is admitted (and counted) before the goal test in every engine.
  for (const bool classes : {false, true}) {
    for (const auto& [name, options] : engine_variants(classes)) {
      SCOPED_TRACE(name);
      const SearchOutcome out = DfsScheduler(net, options).search();
      EXPECT_EQ(out.status, SearchStatus::kFeasible);
      EXPECT_TRUE(out.trace.empty());
      EXPECT_EQ(out.stats.states_visited, 1u);
    }
  }
}

TEST(Dfs, LinearChainReachesGoal) {
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const auto t1 = net.add_transition("t1", TimeInterval(2, 4));
  const auto t2 = net.add_transition("t2", TimeInterval(1, 1));
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, end);
  ASSERT_TRUE(net.validate().ok());

  DfsScheduler scheduler(net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  ASSERT_EQ(out.trace.size(), 2u);
  EXPECT_EQ(out.trace[0].transition, t1);
  EXPECT_EQ(out.trace[0].delay, 2u);  // earliest policy
  EXPECT_EQ(out.trace[1].at, 3u);
  EXPECT_EQ(out.stats.max_depth, 2u);  // s0 and the state after t1

  // max_depth is the DFS stack height in every engine, and the count rule
  // depends only on the key mode: within one mode all engines agree.
  for (const bool classes : {false, true}) {
    const SearchOutcome dfs =
        DfsScheduler(net, engine_variants(classes).front().second).search();
    for (const auto& [name, options] : engine_variants(classes)) {
      SCOPED_TRACE(name);
      const SearchOutcome o = DfsScheduler(net, options).search();
      ASSERT_EQ(o.status, SearchStatus::kFeasible);
      EXPECT_EQ(o.trace.size(), 2u);
      EXPECT_EQ(o.stats.max_depth, dfs.stats.max_depth);
      EXPECT_EQ(o.stats.states_visited, dfs.stats.states_visited);
    }
  }
}

TEST(Dfs, UnreachableGoalIsInfeasible) {
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  net.add_place("pend", 0, tpn::PlaceRole::kEnd);  // never marked
  const auto t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a);
  net.add_output(t, b);
  ASSERT_TRUE(net.validate().ok());

  DfsScheduler scheduler(net);
  const SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, SearchStatus::kInfeasible);
  EXPECT_TRUE(out.trace.empty());
  EXPECT_GT(out.stats.backtracks, 0u);
}

TEST(Dfs, CustomGoalPredicate) {
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const auto t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a);
  net.add_output(t, b);
  ASSERT_TRUE(net.validate().ok());

  DfsScheduler scheduler(net);
  scheduler.set_goal(
      [&](const tpn::Marking& m) { return m[b] == 1; });
  EXPECT_EQ(scheduler.search().status, SearchStatus::kFeasible);
}

TEST(Dfs, BacktracksOverWrongChoice) {
  // Conflict: t_good leads to the goal, t_bad to a dead end. The DFS must
  // recover via backtracking regardless of candidate order.
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId dead = net.add_place("dead", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const auto bad =
      net.add_transition("bad", TimeInterval(0, 1), /*priority=*/1);
  const auto good =
      net.add_transition("good", TimeInterval(0, 1), /*priority=*/2);
  net.add_input(bad, a);
  net.add_output(bad, dead);
  net.add_input(good, a);
  net.add_output(good, end);
  ASSERT_TRUE(net.validate().ok());

  SchedulerOptions options;
  options.pruning = PruningMode::kNone;  // keep both candidates
  DfsScheduler scheduler(net, options);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  ASSERT_EQ(out.trace.size(), 1u);
  EXPECT_EQ(out.trace[0].transition, good);
  EXPECT_GE(out.stats.backtracks, 1u);
}

TEST(Dfs, PriorityFilterCanLoseSchedules) {
  // Same net: with the paper's FT_P filter, only the min-priority (bad)
  // branch is explored, so the search reports infeasible — documenting
  // that the filter trades completeness for speed.
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId dead = net.add_place("dead", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const auto bad =
      net.add_transition("bad", TimeInterval(0, 1), /*priority=*/1);
  const auto good =
      net.add_transition("good", TimeInterval(0, 1), /*priority=*/2);
  net.add_input(bad, a);
  net.add_output(bad, dead);
  net.add_input(good, a);
  net.add_output(good, end);
  ASSERT_TRUE(net.validate().ok());

  SchedulerOptions options;
  options.pruning = PruningMode::kPriorityFilter;
  DfsScheduler scheduler(net, options);
  EXPECT_EQ(scheduler.search().status, SearchStatus::kInfeasible);
}

TEST(Dfs, MaxStatesLimit) {
  Specification s = workload::mine_pump_specification();
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.max_states = 100;
  DfsScheduler scheduler(model.net, options);
  const SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, SearchStatus::kLimitReached);
  EXPECT_LE(out.stats.states_visited, 101u);
}

TEST(Dfs, StateBudgetIsExactInEveryEngine) {
  // A budget of N admits exactly N states: s0 counts against it too, so
  // N = 1 stops at s0 in every engine, branch-and-bound and reach.
  const BuiltModel pump = build(workload::mine_pump_specification());
  std::vector<std::pair<std::string, SchedulerOptions>> rows;
  for (const bool classes : {false, true}) {
    for (auto& row : engine_variants(classes)) {
      rows.push_back(std::move(row));
    }
  }
  rows.emplace_back("optimize=makespan", SchedulerOptions{});
  rows.back().second.objective = Objective::kMinimizeMakespan;
  for (auto& [name, options] : rows) {
    SCOPED_TRACE(name);
    options.max_states = 1;
    const SearchOutcome out = DfsScheduler(pump.net, options).search();
    EXPECT_EQ(out.status, SearchStatus::kLimitReached);
    EXPECT_EQ(out.stats.states_visited, 1u);
  }
  const ReachabilityResult pump_reach =
      explore(pump.net, ReachabilityOptions{.max_states = 1});
  EXPECT_EQ(pump_reach.stop, ReachabilityStop::kStateBudget);
  EXPECT_EQ(pump_reach.states_explored, 1u);

  // Every budget on a model whose miss states used to land on the
  // boundary: a stop on the budget has admitted exactly that many states.
  workload::WorkloadConfig config;
  config.seed = 1;
  config.tasks = 4;
  config.utilization = 0.6;
  config.period_pool = {20, 40};
  const BuiltModel model = build(workload::generate(config).value());
  for (std::uint64_t n = 1; n < 600; ++n) {
    const ReachabilityResult r =
        explore(model.net, ReachabilityOptions{.max_states = n});
    if (r.stop == ReachabilityStop::kStateBudget) {
      EXPECT_EQ(r.states_explored, n) << "max_states " << n;
    } else {
      EXPECT_TRUE(r.complete) << "max_states " << n;
      EXPECT_LT(r.states_explored, n) << "max_states " << n;
    }
  }
}

TEST(Dfs, AllInDomainFindsDelayedFiring) {
  // Goal requires t1 to fire at exactly time 3 within [0,5]: earliest-only
  // misses it, the exhaustive policy finds it. The "gate" transition g
  // with [3,3] must fire first; t1 after it.
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId g_in = net.add_place("g_in", 1);
  const PlaceId g_out = net.add_place("g_out", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const auto t1 = net.add_transition("t1", TimeInterval(0, 5));
  const auto gate = net.add_transition("gate", TimeInterval(3, 3));
  // t1 consumes a AND g_out: it can only fire after the gate.
  net.add_input(t1, a);
  net.add_input(t1, g_out);
  net.add_output(t1, end);
  net.add_input(gate, g_in);
  net.add_output(gate, g_out);
  ASSERT_TRUE(net.validate().ok());

  DfsScheduler scheduler(net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.trace.back().at, 3u);
}

// The miss test runs only after a firing into a miss place, unless s0
// already marks one: then a child that keeps s0's token is a deadline
// prune although the transition that produced it touches no miss place.
TEST(Dfs, MissMarkedAtInitialStatePrunesEveryChildThatKeepsIt) {
  tpn::TimePetriNet net;
  const PlaceId pending =
      net.add_place("pwpc", 1, tpn::PlaceRole::kMissPending, TaskId(0));
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const PlaceId sink = net.add_place("sink", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const auto go = net.add_transition("go", TimeInterval(0, 2));
  const auto drain = net.add_transition("drain", TimeInterval(1, 1));
  const auto finish = net.add_transition("finish", TimeInterval(0, 0));
  net.add_input(go, a);
  net.add_output(go, b);
  net.add_input(drain, pending);
  net.add_output(drain, sink);
  net.add_input(finish, b);
  net.add_output(finish, end);
  ASSERT_TRUE(net.validate().ok());
  ASSERT_FALSE(net.firing_record(go).feeds_miss);

  // s0 offers go at 0 and drain at 1. go keeps the miss token and is
  // pruned (without the test it would reach pend with a miss marked);
  // drain removes it, and go and finish then reach the goal.
  for (const bool classes : {false, true}) {
    for (const auto& [name, options] : engine_variants(classes)) {
      SCOPED_TRACE(name);
      SchedulerOptions o = options;
      o.pruning = PruningMode::kNone;
      const SearchOutcome out = DfsScheduler(net, o).search();
      ASSERT_EQ(out.status, SearchStatus::kFeasible);
      ASSERT_EQ(out.trace.size(), 3u);
      EXPECT_EQ(out.trace[0].transition, drain);
      EXPECT_EQ(out.trace[1].transition, go);
      EXPECT_EQ(out.trace[2].transition, finish);
      EXPECT_EQ(out.stats.pruned_deadline, 1u);
    }
  }
  SchedulerOptions options;
  options.pruning = PruningMode::kNone;
  const SearchStats st = DfsScheduler(net, options).search().stats;
  EXPECT_EQ(st.states_visited, 4u);
  EXPECT_EQ(st.transitions_fired, 4u);
  EXPECT_EQ(st.backtracks, 0u);
  EXPECT_EQ(st.pruned_visited, 0u);
  EXPECT_EQ(st.max_depth, 3u);
}

// The miss bit of a firing record follows the output places' roles, not
// the transition's: a generic hand-built transition that outputs into a
// kMissed place has its children tested, and pruned.
TEST(Dfs, HandBuiltTransitionIntoMissedPlaceIsPruned) {
  tpn::TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId missed =
      net.add_place("pdm", 0, tpn::PlaceRole::kMissed, TaskId(0));
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  // `bad` is tried first and would reach the goal with a miss marked.
  const auto bad =
      net.add_transition("bad", TimeInterval(0, 1), /*priority=*/1);
  const auto good =
      net.add_transition("good", TimeInterval(0, 1), /*priority=*/2);
  net.add_input(bad, a);
  net.add_output(bad, missed);
  net.add_output(bad, end);
  net.add_input(good, a);
  net.add_output(good, end);
  ASSERT_TRUE(net.validate().ok());
  EXPECT_TRUE(net.firing_record(bad).feeds_miss);
  EXPECT_FALSE(net.firing_record(good).feeds_miss);

  for (const bool classes : {false, true}) {
    for (const auto& [name, options] : engine_variants(classes)) {
      SCOPED_TRACE(name);
      SchedulerOptions o = options;
      o.pruning = PruningMode::kNone;
      const SearchOutcome out = DfsScheduler(net, o).search();
      ASSERT_EQ(out.status, SearchStatus::kFeasible);
      ASSERT_EQ(out.trace.size(), 1u);
      EXPECT_EQ(out.trace[0].transition, good);
      EXPECT_EQ(out.stats.pruned_deadline, 1u);
      EXPECT_EQ(out.stats.transitions_fired, 2u);
    }
  }
  // FT_P keeps only `bad`, whose child is pruned: infeasible.
  const SearchOutcome filtered = DfsScheduler(net).search();
  EXPECT_EQ(filtered.status, SearchStatus::kInfeasible);
  EXPECT_EQ(filtered.stats.pruned_deadline, 1u);
  EXPECT_EQ(filtered.stats.states_visited, 1u);
}

// -- Pinned statistics -------------------------------------------------------

/// Order-sensitive digest of a trace (transition, delay, timestamp).
[[nodiscard]] std::uint64_t trace_hash(const Trace& trace) {
  std::uint64_t h = kHashSeed;
  for (const FiringEvent& e : trace) {
    h = hash_mix(hash_mix(hash_mix(h, e.transition.value()), e.delay), e.at);
  }
  return h;
}

/// Default-DFS statistics and trace on the checked-in example models.
/// Every field but the wall clock and the visited-table footprint is
/// pinned: any change to the search kernel must reproduce them exactly.
struct Golden {
  const char* name;
  Specification spec;
  PruningMode pruning;
  std::uint64_t states, fired, backtracks, pruned_deadline, pruned_visited,
      pruned_priority, max_depth, trace_length, trace_hash;
};

/// examples/specs/harmonic_u40.ezspec, rebuilt in code.
[[nodiscard]] Specification harmonic_u40() {
  Specification s("workload-1");
  s.add_processor("cpu0");
  s.add_task("T1", TimingConstraints{0, 0, 28, 135, 200});
  s.add_task("T2", TimingConstraints{0, 0, 9, 175, 200});
  s.add_task("T3", TimingConstraints{0, 0, 12, 162, 200});
  s.add_task("T4", TimingConstraints{0, 0, 16, 91, 100});
  return s;
}

TEST(DfsGolden, ExampleModelsKeepTheirStatisticsAndTraces) {
  const Golden goldens[] = {
      {"mine_pump", workload::mine_pump_specification(),
       PruningMode::kPriorityFilter, 3211, 3226, 80, 16, 0, 3270, 3130,
       3130, 4488059357398901868ull},
      {"harmonic_u40", harmonic_u40(), PruningMode::kPriorityFilter, 23, 22,
       0, 0, 0, 15, 22, 22, 12157207866621660947ull},
      {"uav_dual_processor", workload::uav_autopilot_specification(),
       PruningMode::kNone, 65, 64, 0, 0, 0, 0, 64, 64,
       8284553346209788659ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    const BuiltModel model = build(g.spec);
    SchedulerOptions options;
    options.pruning = g.pruning;
    const SearchOutcome out = DfsScheduler(model.net, options).search();
    ASSERT_EQ(out.status, SearchStatus::kFeasible);
    const SearchStats& st = out.stats;
    EXPECT_EQ(st.states_visited, g.states);
    EXPECT_EQ(st.transitions_fired, g.fired);
    EXPECT_EQ(st.backtracks, g.backtracks);
    EXPECT_EQ(st.pruned_deadline, g.pruned_deadline);
    EXPECT_EQ(st.pruned_visited, g.pruned_visited);
    EXPECT_EQ(st.pruned_priority, g.pruned_priority);
    EXPECT_EQ(st.max_depth, g.max_depth);
    EXPECT_EQ(out.trace.size(), g.trace_length);
    EXPECT_EQ(trace_hash(out.trace), g.trace_hash);
  }
}

/// A one-core set shaped like the `pipeline` benchmark corpus
/// (perfbench/pin.cpp): 20% preemptive tasks, tasks/5 precedence edges
/// and tasks/8 exclusion pairs.
[[nodiscard]] workload::WorkloadConfig pipeline_shaped(std::uint32_t tasks,
                                                       double utilization,
                                                       std::uint64_t seed) {
  workload::WorkloadConfig c;
  c.tasks = tasks;
  c.utilization = utilization;
  c.preemptive_fraction = 0.2;
  c.precedence_edges = tasks / 5;
  c.exclusion_pairs = tasks / 8;
  c.seed = seed;
  return c;
}

// Default-DFS statistics and traces on generated sets, feasible and
// infeasible, one-core and 2- and 4-core (partitioned and global). The
// example models above barely backtrack; here most infeasible searches
// dive, hit one deadline and pop every frame, so `backtracks` pins how the
// stack unwinds a long single-candidate dive.
TEST(DfsGolden, GeneratedDocumentsKeepTheirStatisticsAndTraces) {
  using workload::multiproc_scenario;
  using workload::Placement;
  struct Row {
    const char* name;
    workload::WorkloadConfig config;
    SearchStatus status;
    std::uint64_t states, fired, backtracks, pruned_deadline, pruned_visited,
        pruned_priority, max_depth, trace_hash;
  };
  constexpr auto kF = SearchStatus::kFeasible;
  constexpr auto kI = SearchStatus::kInfeasible;
  constexpr std::uint64_t kEmpty = 14695981039346656037ull;  // no events
  const Row rows[] = {
      {"8t u0.3", pipeline_shaped(8, 0.3, 29), kF, 311, 310, 0, 0, 0, 295,
       310, 7448592323287577311ull},
      {"12t u0.7", pipeline_shaped(12, 0.7, 26), kF, 559, 558, 0, 0, 0, 1197,
       558, 10479808556549707698ull},
      {"28t u0.6", pipeline_shaped(28, 0.6, 35), kF, 779, 778, 0, 0, 0, 2726,
       778, 12307711862858973056ull},
      {"36t u0.5", pipeline_shaped(36, 0.5, 64), kF, 827, 826, 0, 0, 0, 3809,
       826, 2978892604550360932ull},
      {"32t u0.4", pipeline_shaped(32, 0.4, 39), kF, 786, 787, 149, 1, 1,
       3546, 636, 8300905173266811950ull},
      {"32t u0.6", pipeline_shaped(32, 0.6, 39), kF, 866, 867, 107, 1, 1,
       4071, 758, 14589218342391175945ull},
      {"36t u0.6", pipeline_shaped(36, 0.6, 64), kF, 1095, 1111, 258, 1, 16,
       5621, 836, 8490296825251846450ull},
      {"40t u0.5", pipeline_shaped(40, 0.5, 68), kF, 1353, 1394, 426, 2, 40,
       8272, 926, 14535916847261630593ull},
      {"40t u0.7", pipeline_shaped(40, 0.7, 68), kF, 1383, 1408, 324, 2, 24,
       8931, 1058, 3123661154701790559ull},
      {"6t u0.6", pipeline_shaped(6, 0.6, 20), kI, 24, 25, 24, 1, 1, 34, 23,
       kEmpty},
      {"10t u0.7", pipeline_shaped(10, 0.7, 38), kI, 426, 434, 426, 1, 8, 425,
       402, kEmpty},
      {"12t u0.7 infeasible", pipeline_shaped(12, 0.7, 33), kI, 357, 409, 357,
       1, 52, 580, 191, kEmpty},
      {"14t u0.7", pipeline_shaped(14, 0.7, 21), kI, 309, 321, 309, 2, 11,
       584, 272, kEmpty},
      {"24t u0.5", pipeline_shaped(24, 0.5, 45), kI, 374, 382, 374, 1, 8,
       1356, 297, kEmpty},
      {"28t u0.6 infeasible", pipeline_shaped(28, 0.6, 56), kI, 90, 90, 90, 1,
       0, 543, 90, kEmpty},
      {"32t u0.7", pipeline_shaped(32, 0.7, 39), kI, 443, 459, 443, 2, 15,
       3058, 303, kEmpty},
      {"40t u0.6", pipeline_shaped(40, 0.6, 47), kI, 533, 561, 533, 2, 27,
       3271, 234, kEmpty},
      {"partitioned 2-core", multiproc_scenario(Placement::kPartitioned, false,
                                               2, 1),
       kF, 103, 102, 0, 0, 0, 62, 102, 8132141911115277408ull},
      {"partitioned 4-core", multiproc_scenario(Placement::kPartitioned, false,
                                               4, 1),
       kF, 191, 190, 0, 0, 0, 183, 190, 2786152641894107591ull},
      {"partitioned harmonic 2-core",
       multiproc_scenario(Placement::kPartitioned, true, 2, 4), kF, 59, 58, 0,
       0, 0, 36, 58, 7276288566753573341ull},
      {"global 2-core", multiproc_scenario(Placement::kGlobal, false, 2, 4),
       kI, 36, 38, 36, 1, 2, 14, 33, kEmpty},
      {"global 4-core", multiproc_scenario(Placement::kGlobal, false, 4, 1),
       kI, 115, 124, 115, 1, 9, 69, 95, kEmpty},
      {"global harmonic 4-core",
       multiproc_scenario(Placement::kGlobal, true, 4, 2), kI, 69, 73, 69, 1,
       4, 41, 59, kEmpty},
      {"global harmonic 4-core feasible",
       multiproc_scenario(Placement::kGlobal, true, 4, 4), kF, 137, 136, 0, 0,
       0, 91, 136, 11803458194405054849ull},
  };
  for (const Row& g : rows) {
    SCOPED_TRACE(g.name);
    auto spec = workload::generate(g.config);
    ASSERT_TRUE(spec.ok()) << spec.error().to_string();
    const BuiltModel model = build(spec.value());
    const SearchOutcome out = DfsScheduler(model.net).search();
    EXPECT_EQ(out.status, g.status);
    const SearchStats& st = out.stats;
    EXPECT_EQ(st.states_visited, g.states);
    EXPECT_EQ(st.transitions_fired, g.fired);
    EXPECT_EQ(st.backtracks, g.backtracks);
    EXPECT_EQ(st.pruned_deadline, g.pruned_deadline);
    EXPECT_EQ(st.pruned_visited, g.pruned_visited);
    EXPECT_EQ(st.pruned_priority, g.pruned_priority);
    EXPECT_EQ(st.max_depth, g.max_depth);
    EXPECT_EQ(trace_hash(out.trace), g.trace_hash);
  }
}

// The exhausted UAV search (K = 1 makes it infeasible): with classes off
// every engine and thread count admits and fires exactly the reachable
// edges of the pruned successor graph; with classes on the admitted class
// count is the invariant (fired and doom counts depend on the order).
TEST(DfsGolden, ExhaustedUavSearchAgreesAcrossEngines) {
  Specification s = workload::uav_autopilot_specification();
  s.set_sync_budget(1);
  const BuiltModel model = build(s);
  const std::pair<SearchEngine, std::uint32_t> runs[] = {
      {SearchEngine::kDfs, 0},
      {SearchEngine::kBestFirst, 0},
      {SearchEngine::kDfs, 1},
      {SearchEngine::kDfs, 2},
      {SearchEngine::kDfs, 4}};
  for (const bool classes : {false, true}) {
    for (const auto& [engine, threads] : runs) {
      SCOPED_TRACE(std::string(to_string(engine)) + " threads " +
                   std::to_string(threads) +
                   (classes ? " classes on" : " classes off"));
      SchedulerOptions options;
      options.pruning = PruningMode::kNone;
      options.search_engine = engine;
      options.threads = threads;
      options.state_classes =
          classes ? StateClassMode::kOn : StateClassMode::kOff;
      const SearchOutcome out = DfsScheduler(model.net, options).search();
      EXPECT_EQ(out.status, SearchStatus::kInfeasible);
      if (classes) {
        EXPECT_EQ(out.stats.states_visited, 555u);
        continue;
      }
      EXPECT_EQ(out.stats.states_visited, 5'529u);
      EXPECT_EQ(out.stats.transitions_fired, 16'783u);
      EXPECT_EQ(out.stats.pruned_deadline, 5'269u);
      EXPECT_EQ(out.stats.pruned_visited, 5'986u);
    }
  }
}

TEST(Dfs, DeterministicAcrossRuns) {
  Specification s = workload::mine_pump_specification();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome a = scheduler.search();
  const SearchOutcome b = scheduler.search();
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].transition, b.trace[i].transition);
    EXPECT_EQ(a.trace[i].at, b.trace[i].at);
  }
}

// The default goal belongs to the search, not to the scheduler object: a
// copy searched after its original is gone must not reach back into it
// (under ASan a goal bound to the original reads freed memory).
TEST(Dfs, CopiedSchedulerOutlivesItsOriginal) {
  const BuiltModel model = build(workload::mine_pump_specification());
  for (const StateClassMode classes :
       {StateClassMode::kOff, StateClassMode::kOn}) {
    SCOPED_TRACE(to_string(classes));
    SchedulerOptions options;
    options.state_classes = classes;
    const SearchOutcome reference = DfsScheduler(model.net, options).search();
    ASSERT_EQ(reference.status, SearchStatus::kFeasible);

    auto original = std::make_unique<DfsScheduler>(model.net, options);
    const DfsScheduler copy = *original;
    original.reset();
    const SearchOutcome out = copy.search();
    EXPECT_EQ(out.status, reference.status);
    EXPECT_EQ(out.stats.states_visited, reference.stats.states_visited);
    EXPECT_EQ(out.stats.transitions_fired, reference.stats.transitions_fired);
    EXPECT_EQ(out.stats.pruned_visited, reference.stats.pruned_visited);
    EXPECT_EQ(trace_hash(out.trace), trace_hash(reference.trace));
  }
}

// -- Replay ---------------------------------------------------------------------

TEST(Replay, AcceptsOwnTrace) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto final_state = scheduler.replay(out.trace);
  ASSERT_TRUE(final_state.ok());
  EXPECT_TRUE(tpn::is_final_marking(model.net,
                                    final_state.value().marking()));
}

TEST(Replay, RejectsTamperedDelay) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  out.trace[0].delay += 1;  // violates the firing domain or timestamps
  EXPECT_FALSE(scheduler.replay(out.trace).ok());
}

TEST(Replay, RejectsForeignTransitionOrder) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  std::swap(out.trace.front(), out.trace.back());
  EXPECT_FALSE(scheduler.replay(out.trace).ok());
}

// -- Built models ----------------------------------------------------------------

TEST(DfsOnModels, TwoTasksFeasible) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  // Compact blocks: fork + 2 arrivals + 2*(tr,tc,tf) + join = 10 firings.
  EXPECT_EQ(out.trace.size(), 10u);
}

TEST(DfsOnModels, OverloadedSetInfeasible) {
  // Two tasks, both need 6 of 10 units with deadline 10: U > 1.
  Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 6, 10, 10});
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.pruning = PruningMode::kNone;  // full search, still infeasible
  DfsScheduler scheduler(model.net, options);
  EXPECT_EQ(scheduler.search().status, SearchStatus::kInfeasible);
}

TEST(DfsOnModels, NonPreemptiveBlockingInfeasibleButPreemptiveFeasible) {
  // Long task C (c=8) + urgent A (d=2, p=5 phase 4): non-preemptive C
  // blocks A past its deadline; making C preemptive fixes it.
  auto make = [](SchedulingType mode) {
    Specification s("blocking");
    s.add_processor("cpu");
    s.add_task("A", TimingConstraints{4, 0, 1, 2, 5});
    s.add_task("C", TimingConstraints{0, 0, 8, 10, 10}, mode);
    return s;
  };
  {
    const BuiltModel model = build(make(SchedulingType::kNonPreemptive));
    SchedulerOptions options;
    options.pruning = PruningMode::kNone;
    DfsScheduler scheduler(model.net, options);
    EXPECT_EQ(scheduler.search().status, SearchStatus::kInfeasible);
  }
  {
    const BuiltModel model = build(make(SchedulingType::kPreemptive));
    DfsScheduler scheduler(model.net);
    EXPECT_EQ(scheduler.search().status, SearchStatus::kFeasible);
  }
}

TEST(DfsOnModels, PartialOrderReductionPreservesVerdictAndShrinksSpace) {
  Specification s = workload::mine_pump_specification();
  const BuiltModel model = build(s);

  SchedulerOptions with_por;
  with_por.partial_order_reduction = true;
  SchedulerOptions without_por;
  without_por.partial_order_reduction = false;

  const SearchOutcome a = DfsScheduler(model.net, with_por).search();
  const SearchOutcome b = DfsScheduler(model.net, without_por).search();
  EXPECT_EQ(a.status, SearchStatus::kFeasible);
  EXPECT_EQ(b.status, SearchStatus::kFeasible);
  EXPECT_LE(a.stats.states_visited, b.stats.states_visited);
}

TEST(DfsOnModels, MinePumpMatchesPaperScale) {
  // §5: 3268 states searched, minimum 3130, on the paper's machine 330 ms.
  // The minimum (feasible path length) is reproduced exactly; the visited
  // count depends on DFS tie-breaking and must stay in the same ballpark.
  Specification s = workload::mine_pump_specification();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.trace.size(), 3130u);
  EXPECT_GE(out.stats.states_visited, 3130u);
  EXPECT_LE(out.stats.states_visited, 6000u);
}

TEST(DfsOnModels, PrecedenceOrdersExecution) {
  Specification s("prec");
  s.add_processor("cpu");
  s.add_task("T1", TimingConstraints{0, 0, 15, 100, 250});
  s.add_task("T2", TimingConstraints{0, 0, 20, 150, 250});
  s.add_precedence(TaskId(0), TaskId(1));
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().items.size(), 2u);
  const auto& items = table.value().items;
  EXPECT_EQ(items[0].task, TaskId(0));
  EXPECT_GE(items[1].start, items[0].start + items[0].duration);
}

// -- Schedule extraction -----------------------------------------------------------

TEST(ScheduleExtraction, NonPreemptiveSegments) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().items.size(), 2u);
  for (const ScheduleItem& item : table.value().items) {
    EXPECT_FALSE(item.preempted);
    EXPECT_EQ(item.instance, 0u);
    EXPECT_EQ(item.duration,
              s.task(item.task).timing.computation);
  }
  EXPECT_EQ(table.value().schedule_period, 10u);
}

TEST(ScheduleExtraction, PreemptiveChunksMerge) {
  // One preemptive task alone: its chunks are contiguous and must merge
  // into a single segment.
  Specification s("solo");
  s.add_processor("cpu");
  s.add_task("P", TimingConstraints{0, 0, 5, 10, 10},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().items.size(), 1u);
  EXPECT_EQ(table.value().items[0].duration, 5u);
  EXPECT_FALSE(table.value().items[0].preempted);
}

TEST(ScheduleExtraction, PreemptionSetsResumeFlag) {
  // Urgent A (phase 2, c=1, d=1) preempts long preemptive C (c=6, d=10):
  // C must appear as >= 2 segments, continuations flagged.
  Specification s("preempt");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{2, 0, 1, 1, 10});
  s.add_task("C", TimingConstraints{0, 0, 6, 10, 10},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());

  std::size_t c_segments = 0;
  std::size_t resumed = 0;
  Time c_total = 0;
  for (const ScheduleItem& item : table.value().items) {
    if (s.task(item.task).name == "C") {
      ++c_segments;
      c_total += item.duration;
      resumed += item.preempted ? 1 : 0;
    }
  }
  EXPECT_GE(c_segments, 2u);
  EXPECT_EQ(resumed, c_segments - 1);
  EXPECT_EQ(c_total, 6u);
}

TEST(ScheduleExtraction, TableIsSortedByStart) {
  Specification s = workload::mine_pump_specification();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().items.size(), 782u);
  for (std::size_t i = 1; i < table.value().items.size(); ++i) {
    EXPECT_LE(table.value().items[i - 1].start,
              table.value().items[i].start);
  }
  EXPECT_LE(table.value().makespan, 30000u);
}

TEST(ScheduleExtraction, Fig8StyleRendering) {
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  DfsScheduler scheduler(model.net);
  const SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
  const std::string rendered = to_string(table.value(), s);
  EXPECT_NE(rendered.find("struct ScheduleItem scheduleTable"),
            std::string::npos);
  EXPECT_NE(rendered.find("(int *)A"), std::string::npos);
  EXPECT_NE(rendered.find("starts"), std::string::npos);
}

// -- Optimizing objectives -----------------------------------------------------

TEST(Optimize, MakespanMatchesFirstFeasibleOnSerialWork) {
  // Two tasks on one CPU: any order completes at c1 + c2.
  Specification s = two_tasks();
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeMakespan;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.best_cost, 5u);  // 2 + 3
  EXPECT_GE(out.solutions_found, 1u);
}

TEST(Optimize, MakespanPrefersParallelProcessors) {
  // Same two tasks on two CPUs: optimal makespan is max(c1, c2) = 3.
  Specification s("dual");
  s.add_processor("cpu0");
  s.add_processor("cpu1");
  spec::Task a;
  a.name = "A";
  a.timing = TimingConstraints{0, 0, 2, 8, 10};
  a.processor = ProcessorId(0);
  s.add_task(std::move(a));
  spec::Task b;
  b.name = "B";
  b.timing = TimingConstraints{0, 0, 3, 9, 10};
  b.processor = ProcessorId(1);
  s.add_task(std::move(b));
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeMakespan;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.best_cost, 3u);
}

TEST(Optimize, SwitchesAvoidsNeedlessPreemption) {
  // A preemptive long task and a short one with a generous deadline: the
  // first-feasible search (deadline-monotonic order) may interleave, but
  // zero-preemption schedules exist; the optimizer must find one with
  // exactly 2 switches (one per task).
  Specification s("np-possible");
  s.add_processor("cpu");
  s.add_task("L", TimingConstraints{0, 0, 6, 20, 20},
             SchedulingType::kPreemptive);
  s.add_task("S", TimingConstraints{0, 0, 2, 20, 20},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeSwitches;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.best_cost, 2u);
}

TEST(Optimize, SwitchesExploitsReleaseWindowToAvoidPreemption) {
  // Urgent A (phase 2, d=1) vs long preemptive C (d=10): C's release
  // window [0, 4] lets the optimizer *delay* C until after A — two
  // switches, no preemption. (A greedy work-conserving scheduler would
  // start C at 0 and pay three.)
  Specification s("avoidable");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{2, 0, 1, 1, 10});
  s.add_task("C", TimingConstraints{0, 0, 6, 10, 10},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeSwitches;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.best_cost, 2u);
}

TEST(Optimize, SwitchesPaysTrulyForcedPreemptions) {
  // Tightening C's deadline to 7 closes the delay escape: C must start
  // by t=1, A preempts at 2, C resumes — three switches minimum.
  Specification s("forced");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{2, 0, 1, 1, 10});
  s.add_task("C", TimingConstraints{0, 0, 6, 7, 10},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeSwitches;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  EXPECT_EQ(out.best_cost, 3u);
}

TEST(Optimize, OptimalTraceStillValidates) {
  Specification s("valid");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{2, 0, 1, 2, 10});
  s.add_task("C", TimingConstraints{0, 0, 6, 10, 10},
             SchedulingType::kPreemptive);
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeSwitches;
  options.pruning = PruningMode::kNone;
  const SearchOutcome out = DfsScheduler(model.net, options).search();
  ASSERT_EQ(out.status, SearchStatus::kFeasible);
  // The optimal trace replays and extracts into a valid table.
  DfsScheduler replayer(model.net);
  ASSERT_TRUE(replayer.replay(out.trace).ok());
  auto table = extract_schedule(s, model, out.trace);
  ASSERT_TRUE(table.ok());
}

TEST(Optimize, InfeasibleStaysInfeasible) {
  Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 6, 10, 10});
  const BuiltModel model = build(s);
  SchedulerOptions options;
  options.objective = Objective::kMinimizeMakespan;
  options.pruning = PruningMode::kNone;
  EXPECT_EQ(DfsScheduler(model.net, options).search().status,
            SearchStatus::kInfeasible);
}

TEST(Optimize, MakespanNeverWorseThanFirstFeasible) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    workload::WorkloadConfig config;
    config.seed = seed;
    config.tasks = 3;
    config.utilization = 0.5;
    config.period_pool = {16, 32};
    auto s = workload::generate(config).value();
    const BuiltModel model = build(s);

    SchedulerOptions first;
    first.pruning = PruningMode::kNone;
    const SearchOutcome baseline = DfsScheduler(model.net, first).search();
    if (baseline.status != SearchStatus::kFeasible) {
      continue;
    }
    SchedulerOptions optimal = first;
    optimal.objective = Objective::kMinimizeMakespan;
    const SearchOutcome best = DfsScheduler(model.net, optimal).search();
    ASSERT_EQ(best.status, SearchStatus::kFeasible) << "seed " << seed;
    EXPECT_LE(best.best_cost, baseline.trace.back().at) << "seed " << seed;
  }
}

TEST(Optimize, PreemptiveMixEffortIsPinned) {
  // bench_optimizer's preemptive mixes, complete and unbudgeted: cost,
  // incumbents and effort of each objective.
  struct Row {
    std::uint64_t seed;
    Objective objective;
    std::uint64_t cost, solutions, states, fired;
  };
  const Row rows[] = {
      {3, Objective::kMinimizeSwitches, 6, 2, 3753, 6539},
      {3, Objective::kMinimizeMakespan, 30, 1, 1987, 3610},
      {8, Objective::kMinimizeSwitches, 6, 4, 12502, 22982},
      {8, Objective::kMinimizeMakespan, 32, 1, 3871, 7629},
      {11, Objective::kMinimizeSwitches, 6, 2, 19311, 37806},
      {11, Objective::kMinimizeMakespan, 37, 1, 8036, 16929},
      {5, Objective::kMinimizeMakespan, 28, 1, 21298, 41424},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE("seed " + std::to_string(row.seed) +
                 (row.objective == Objective::kMinimizeSwitches
                      ? " switches"
                      : " makespan"));
    workload::WorkloadConfig config;
    config.seed = row.seed;
    config.tasks = 4;
    config.utilization = 0.6;
    config.preemptive_fraction = 0.75;
    config.period_pool = {24, 48};
    const BuiltModel model = build(workload::generate(config).value());
    SchedulerOptions options;
    options.pruning = PruningMode::kNone;
    options.max_states = 0;
    options.objective = row.objective;
    const SearchOutcome out = DfsScheduler(model.net, options).search();
    ASSERT_EQ(out.status, SearchStatus::kFeasible);
    EXPECT_EQ(out.best_cost, row.cost);
    EXPECT_EQ(out.solutions_found, row.solutions);
    EXPECT_EQ(out.stats.states_visited, row.states);
    EXPECT_EQ(out.stats.transitions_fired, row.fired);
  }
}

TEST(Optimize, PartitionedMultiprocEffortIsPinned) {
  // Two-core partitioned sets, complete and unbudgeted: the switch
  // objective counts per core (the per-core running task is a salt in the
  // visited key), so these rows pin cost, incumbents and effort where the
  // mono-processor rows above cannot.
  struct Row {
    bool harmonic;
    std::uint64_t seed;
    Objective objective;
    std::uint64_t cost, solutions, states, fired;
  };
  const Row rows[] = {
      {true, 6, Objective::kMinimizeSwitches, 9, 3, 13591, 27411},
      {true, 6, Objective::kMinimizeMakespan, 349, 1, 6226, 10908},
      {true, 2, Objective::kMinimizeSwitches, 9, 6, 50615, 115416},
      {false, 3, Objective::kMinimizeSwitches, 6, 2, 5928, 9521},
      {false, 3, Objective::kMinimizeMakespan, 203, 1, 3205, 5027},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.harmonic ? "harmonic" : "arbitrary") +
                 " seed " + std::to_string(row.seed) +
                 (row.objective == Objective::kMinimizeSwitches
                      ? " switches"
                      : " makespan"));
    const BuiltModel model =
        build(workload::generate(workload::multiproc_scenario(
                                     workload::Placement::kPartitioned,
                                     row.harmonic, 2, row.seed))
                  .value());
    SchedulerOptions options;
    options.pruning = PruningMode::kNone;
    options.max_states = 0;
    options.objective = row.objective;
    const SearchOutcome out = DfsScheduler(model.net, options).search();
    ASSERT_EQ(out.status, SearchStatus::kFeasible);
    EXPECT_EQ(out.best_cost, row.cost);
    EXPECT_EQ(out.solutions_found, row.solutions);
    EXPECT_EQ(out.stats.states_visited, row.states);
    EXPECT_EQ(out.stats.transitions_fired, row.fired);
  }
}

TEST(SearchStatusNames, AllNamed) {
  EXPECT_STREQ(to_string(SearchStatus::kFeasible), "feasible");
  EXPECT_STREQ(to_string(SearchStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SearchStatus::kLimitReached), "limit-reached");
}

}  // namespace
}  // namespace ezrt::sched
