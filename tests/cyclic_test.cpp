// Unit tests for steady-state (cyclic) execution analysis.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "runtime/cyclic.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "workload/generator.hpp"

namespace ezrt::runtime {
namespace {

using sched::ScheduleItem;
using sched::ScheduleTable;
using spec::Specification;
using spec::TimingConstraints;

[[nodiscard]] Specification two_tasks() {
  Specification s("two");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10});
  EXPECT_TRUE(s.validate().ok());
  return s;
}

[[nodiscard]] ScheduleTable simple_table() {
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, TaskId(1), 0, 3, {}});
  t.makespan = 5;
  return t;
}

TEST(CyclicCheck, AcceptsCleanSchedule) {
  const CyclicCheck check = check_repeatable(two_tasks(), simple_table());
  EXPECT_TRUE(check.repeatable) << (check.reasons.empty()
                                        ? ""
                                        : check.reasons.front());
}

TEST(CyclicCheck, RejectsSpilloverMakespan) {
  ScheduleTable t = simple_table();
  t.items.push_back(ScheduleItem{9, false, TaskId(0), 1, 2, {}});
  t.makespan = 11;  // crosses the period boundary
  const CyclicCheck check = check_repeatable(two_tasks(), t);
  EXPECT_FALSE(check.repeatable);
  EXPECT_NE(check.reasons.front().find("spills"), std::string::npos);
}

TEST(CyclicCheck, RejectsZeroPeriod) {
  ScheduleTable t;
  EXPECT_FALSE(check_repeatable(two_tasks(), t).repeatable);
}

TEST(CyclicRun, AccumulatesAcrossCycles) {
  const CyclicRun run = simulate_cyclic(two_tasks(), simple_table(), 5);
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.cycles, 5u);
  EXPECT_EQ(run.instances_completed, 10u);  // 2 per cycle
  EXPECT_EQ(run.deadline_misses, 0u);
  EXPECT_EQ(run.total_busy, 25u);
  EXPECT_EQ(run.total_idle, 25u);  // 5 idle per cycle (makespan..period)
}

TEST(CyclicRun, CountsMissesPerCycle) {
  ScheduleTable t = simple_table();
  t.items[1].start = 7;  // B completes at 10 > d 9, every cycle
  t.makespan = 10;
  const CyclicRun run = simulate_cyclic(two_tasks(), t, 3);
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.deadline_misses, 3u);
}

TEST(CyclicRun, MinePumpStaysCleanOverManyCycles) {
  auto s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s).value();
  const auto out = sched::DfsScheduler(model.net).search();
  auto table = sched::extract_schedule(s, model, out.trace).value();

  const CyclicCheck check = check_repeatable(s, table);
  ASSERT_TRUE(check.repeatable);
  const CyclicRun run = simulate_cyclic(s, table, 20);
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.instances_completed, 20u * 782u);
  EXPECT_EQ(run.deadline_misses, 0u);
  // Busy/idle ratio reproduces the utilization each cycle.
  EXPECT_EQ(run.total_busy, 20u * 9135u);
  EXPECT_EQ(run.total_busy + run.total_idle, 20u * 30000u);
}

TEST(CyclicRun, PreemptiveContextSwitchesScaleLinearly) {
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{2, 0, 1, 1, 10});
  s.add_task("C", TimingConstraints{0, 0, 6, 10, 10},
             spec::SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  auto model = builder::build_tpn(s).value();
  const auto out = sched::DfsScheduler(model.net).search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  auto table = sched::extract_schedule(s, model, out.trace).value();

  const CyclicRun one = simulate_cyclic(s, table, 1);
  const CyclicRun ten = simulate_cyclic(s, table, 10);
  EXPECT_TRUE(one.ok);
  EXPECT_GT(one.context_switches, 0u);
  EXPECT_EQ(ten.context_switches, 10u * one.context_switches);
}

}  // namespace
}  // namespace ezrt::runtime
