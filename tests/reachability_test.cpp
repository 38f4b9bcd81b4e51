// Unit tests for the bounded reachability analyzer.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "sched/dfs.hpp"
#include "sched/reachability.hpp"
#include "workload/generator.hpp"

namespace ezrt::sched {
namespace {

using spec::Specification;
using spec::TimingConstraints;

TEST(Reachability, LinearChainFullyExplored) {
  tpn::TimePetriNet net("chain");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const TransitionId t1 = net.add_transition("t1", TimeInterval(1, 2));
  const TransitionId t2 = net.add_transition("t2", TimeInterval(0, 0));
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, end);
  ASSERT_TRUE(net.validate().ok());

  const ReachabilityResult result = explore(net);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.states_explored, 3u);
  EXPECT_TRUE(result.final_reachable);
  EXPECT_FALSE(result.miss_reachable);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_EQ(result.bound, 1u);
}

TEST(Reachability, DetectsDeadlock) {
  // A transition that needs two tokens from a place holding one.
  tpn::TimePetriNet net("stuck");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a, 2);
  net.add_output(t, b);
  ASSERT_TRUE(net.validate().ok());

  const ReachabilityResult result = explore(net);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_FALSE(result.final_reachable);
}

TEST(Reachability, FinalMarkingIsNotADeadlock) {
  tpn::TimePetriNet net("done");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId end = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a);
  net.add_output(t, end);
  ASSERT_TRUE(net.validate().ok());
  const ReachabilityResult result = explore(net);
  EXPECT_TRUE(result.final_reachable);
  EXPECT_FALSE(result.deadlock_found);
}

TEST(Reachability, BoundHonored) {
  auto model =
      builder::build_tpn(workload::mine_pump_specification()).value();
  ReachabilityOptions options;
  options.max_states = 1000;
  const ReachabilityResult result = explore(model.net, options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.states_explored, 1000u);
}

TEST(Reachability, FeasibleModelReachesFinalMarking) {
  Specification s("small");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10});
  auto model = builder::build_tpn(s).value();

  const ReachabilityResult result = explore(model.net);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.final_reachable);
  EXPECT_FALSE(result.deadlock_found);
  // Cross-check with the complete DFS.
  SchedulerOptions options;
  options.pruning = PruningMode::kNone;
  EXPECT_EQ(DfsScheduler(model.net, options).search().status,
            SearchStatus::kFeasible);
}

TEST(Reachability, MissReachableWhenOrderingMatters) {
  // Feasible overall, but a wrong interleaving (long task first) misses:
  // the analyzer must see both facts.
  Specification s("order");
  s.add_processor("cpu");
  s.add_task("urgent", TimingConstraints{1, 0, 2, 2, 12});
  s.add_task("long", TimingConstraints{0, 0, 6, 12, 12});
  auto model = builder::build_tpn(s).value();

  const ReachabilityResult result = explore(model.net);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.final_reachable);
  EXPECT_TRUE(result.miss_reachable);
}

TEST(Reachability, InfeasibleOverloadNeverReachesFinal) {
  Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 6, 10, 10});
  auto model = builder::build_tpn(s).value();
  const ReachabilityResult result = explore(model.net);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.final_reachable);
  EXPECT_TRUE(result.miss_reachable);

  // reach is the complete DFS with classes and POR off run as a level
  // frontier: exhausted, both admit the same states and fire the same
  // edges (miss states are deadline prunes in both).
  SchedulerOptions options;
  options.pruning = PruningMode::kNone;
  options.partial_order_reduction = false;
  options.state_classes = StateClassMode::kOff;
  options.max_states = 0;
  const SearchOutcome dfs = DfsScheduler(model.net, options).search();
  ASSERT_EQ(dfs.status, SearchStatus::kInfeasible);
  EXPECT_EQ(result.states_explored, dfs.stats.states_visited);
  EXPECT_EQ(result.transitions_fired, dfs.stats.transitions_fired);
}

TEST(Reachability, PreemptiveMixCountsArePinned) {
  // bench_optimizer's BM_Engines_DiscreteReach model. Miss states are
  // deadline prunes, not explored states.
  workload::WorkloadConfig config;
  config.seed = 7;
  config.tasks = 4;
  config.utilization = 0.6;
  config.preemptive_fraction = 0.75;
  config.period_pool = {24, 48};
  auto model = builder::build_tpn(workload::generate(config).value()).value();
  const ReachabilityResult result = explore(model.net);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.final_reachable);
  EXPECT_TRUE(result.miss_reachable);
  EXPECT_EQ(result.states_explored, 6153u);
  EXPECT_EQ(result.transitions_fired, 13196u);
}

TEST(Reachability, BoundReflectsArrivalBanking) {
  // N-1 instance tokens are banked in pwa: the bound reflects it.
  Specification s("bank");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 4, 4});
  s.add_task("B", TimingConstraints{0, 0, 1, 16, 16});
  auto model = builder::build_tpn(s).value();
  const ReachabilityResult result = explore(model.net);
  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.bound, 3u);  // A banks PS/p - 1 = 3 tokens
}

TEST(Reachability, AgreesWithDfsAcrossRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::WorkloadConfig config;
    config.seed = seed;
    config.tasks = 4;
    config.utilization = 0.6;
    config.period_pool = {20, 40};
    auto s = workload::generate(config).value();
    auto model = builder::build_tpn(s).value();

    const ReachabilityResult reach = explore(model.net);
    ASSERT_TRUE(reach.complete) << "seed " << seed;

    SchedulerOptions options;
    options.pruning = PruningMode::kNone;
    const SearchOutcome out = DfsScheduler(model.net, options).search();
    // The DFS explores the same earliest-firing graph: verdicts agree.
    EXPECT_EQ(out.status == SearchStatus::kFeasible, reach.final_reachable)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ezrt::sched
