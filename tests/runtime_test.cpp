// Unit tests for the runtime layer: the independent schedule validator,
// the dispatcher simulator and the on-line baseline schedulers.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/online_sched.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "workload/generator.hpp"

namespace ezrt::runtime {
namespace {

using sched::ScheduleItem;
using sched::ScheduleTable;
using spec::SchedulingType;
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

/// A hand-built correct table for two_tasks(): A @0..2, B @2..5.
[[nodiscard]] ScheduleTable good_table() {
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, TaskId(1), 0, 3, {}});
  t.makespan = 5;
  return t;
}

// -- Validator -------------------------------------------------------------------

TEST(Validator, AcceptsCorrectTable) {
  Specification s = two_tasks();
  const ValidationReport report = validate_schedule(s, good_table());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.instances_checked, 2u);
  EXPECT_EQ(report.segments_checked, 2u);
}

TEST(Validator, DetectsMissingInstance) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items.pop_back();  // B never runs
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("never executes"), std::string::npos);
}

TEST(Validator, DetectsWcetUnderrun) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[0].duration = 1;  // A executes 1 of 2
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("WCET"), std::string::npos);
}

TEST(Validator, DetectsDeadlineOverrun) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[1].start = 7;  // B completes at 10 > deadline 9
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("deadline"), std::string::npos);
}

TEST(Validator, DetectsEarlyStartBeforeRelease) {
  Specification s("released");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 4, 2, 8, 10});  // release 4
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{2, false, TaskId(0), 0, 2, {}});  // too early
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("release"), std::string::npos);
}

TEST(Validator, DetectsProcessorOverlap) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[1].start = 1;  // B overlaps A
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("overlap"), std::string::npos);
}

TEST(Validator, AllowsOverlapAcrossProcessors) {
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
  ASSERT_TRUE(s.validate().ok());

  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{0, false, TaskId(1), 0, 3, {}});
  EXPECT_TRUE(validate_schedule(s, t).ok());
}

TEST(Validator, DetectsSplitNonPreemptiveTask) {
  Specification s = two_tasks();
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 1, {}});
  t.items.push_back(ScheduleItem{5, true, TaskId(0), 0, 1, {}});
  t.items.push_back(ScheduleItem{1, false, TaskId(1), 0, 3, {}});
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("non-preemptive"), std::string::npos);
}

TEST(Validator, DetectsWrongResumeFlags) {
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("P", TimingConstraints{0, 0, 4, 10, 10},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  // Second segment of the same instance must carry preempted=true.
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{5, false, TaskId(0), 0, 2, {}});
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("preempted"), std::string::npos);
}

TEST(Validator, DetectsPrecedenceViolation) {
  Specification s = two_tasks();
  s.add_precedence(TaskId(1), TaskId(0));  // B must finish before A starts
  ASSERT_TRUE(s.validate().ok());
  const ValidationReport report = validate_schedule(s, good_table());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("precedence"), std::string::npos);
}

TEST(Validator, AcceptsSatisfiedPrecedence) {
  Specification s = two_tasks();
  s.add_precedence(TaskId(0), TaskId(1));  // A before B: matches the table
  ASSERT_TRUE(s.validate().ok());
  EXPECT_TRUE(validate_schedule(s, good_table()).ok());
}

TEST(Validator, DetectsExclusionInterleaving) {
  Specification s("excl");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 4, 20, 20},
             SchedulingType::kPreemptive);
  s.add_task("B", TimingConstraints{0, 0, 2, 20, 20},
             SchedulingType::kPreemptive);
  s.add_exclusion(TaskId(0), TaskId(1));
  ASSERT_TRUE(s.validate().ok());

  // B runs in the middle of A's preempted span: exclusion violated even
  // though no segments overlap on the CPU.
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, TaskId(1), 0, 2, {}});
  t.items.push_back(ScheduleItem{4, true, TaskId(0), 0, 2, {}});
  const ValidationReport report = validate_schedule(s, t);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("exclusion"), std::string::npos);
}

TEST(Validator, ZeroDurationSegmentFlagged) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items.push_back(ScheduleItem{6, false, TaskId(0), 1, 0, {}});
  EXPECT_FALSE(validate_schedule(s, t).ok());
}

// -- Dispatcher simulator -----------------------------------------------------------

TEST(DispatcherSim, RunsCleanTable) {
  Specification s = two_tasks();
  const DispatcherRun run = simulate_dispatcher(s, good_table());
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.events.size(), 2u);
  EXPECT_EQ(run.context_saves, 0u);
  EXPECT_EQ(run.busy_time, 5u);
  EXPECT_EQ(run.outcomes.size(), 2u);
  for (const InstanceOutcome& o : run.outcomes) {
    EXPECT_TRUE(o.deadline_met);
  }
}

TEST(DispatcherSim, CountsPreemptionsAndRestores) {
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("C", TimingConstraints{0, 0, 4, 10, 10},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());

  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(1), 0, 2, {}});  // C starts
  t.items.push_back(ScheduleItem{2, false, TaskId(0), 0, 1, {}});  // A preempts
  t.items.push_back(ScheduleItem{3, true, TaskId(1), 0, 2, {}});   // C resumes
  const DispatcherRun run = simulate_dispatcher(s, t);
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "" : run.faults[0]);
  EXPECT_EQ(run.context_saves, 1u);
  EXPECT_EQ(run.context_restores, 1u);
}

TEST(DispatcherSim, DetectsResumeWithoutStart) {
  Specification s = two_tasks();
  ScheduleTable t;
  t.schedule_period = 10;
  // A bogus resume: the instance never started.
  t.items.push_back(ScheduleItem{0, true, TaskId(0), 0, 2, {}});
  const DispatcherRun run = simulate_dispatcher(s, t);
  EXPECT_FALSE(run.ok());
  ASSERT_FALSE(run.faults.empty());
  EXPECT_NE(run.faults[0].find("resume"), std::string::npos);
}

TEST(DispatcherSim, DetectsIncompleteInstance) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[1].duration = 1;  // B starves
  const DispatcherRun run = simulate_dispatcher(s, t);
  EXPECT_FALSE(run.ok());
}

TEST(DispatcherSim, ReportsLateCompletionAsMiss) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[1].start = 7;  // B finishes at 10 > d 9
  const DispatcherRun run = simulate_dispatcher(s, t);
  EXPECT_FALSE(run.all_deadlines_met);
}

TEST(DispatcherSim, AccountsIdleTime) {
  Specification s = two_tasks();
  ScheduleTable t = good_table();
  t.items[1].start = 4;  // gap [2,4)
  const DispatcherRun run = simulate_dispatcher(s, t);
  EXPECT_EQ(run.idle_time, 2u);
}

TEST(DispatcherSim, EndToEndWithSynthesizedSchedule) {
  Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  sched::DfsScheduler scheduler(model.value().net);
  const auto out = scheduler.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  auto table = sched::extract_schedule(s, model.value(), out.trace);
  ASSERT_TRUE(table.ok());
  const DispatcherRun run = simulate_dispatcher(s, table.value());
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.outcomes.size(), 782u);
}

TEST(DispatcherSim, EarlyCompletionIdlesUntilNextDispatch) {
  Specification s = two_tasks();
  DispatchSimOptions options;
  options.min_execution_fraction = 0.5;
  options.seed = 9;
  const DispatcherRun run =
      simulate_dispatcher(s, good_table(), options);
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "miss" : run.faults[0]);
  // Actual < WCET: strictly less busy, all deadlines still met (actual
  // execution never exceeds the budgeted WCET).
  EXPECT_LT(run.busy_time, 5u);
  EXPECT_TRUE(run.all_deadlines_met);
}

TEST(DispatcherSim, EarlyCompletionSkipsStaleResumes) {
  // A preempted instance that finishes inside its first segment: the
  // table's resume entry becomes a benign no-op under early completion,
  // but stays a fault under the strict WCET model.
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("C", TimingConstraints{0, 0, 4, 10, 10},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(1), 0, 3, {}});
  t.items.push_back(ScheduleItem{3, false, TaskId(0), 0, 1, {}});
  t.items.push_back(ScheduleItem{4, true, TaskId(1), 0, 1, {}});

  DispatchSimOptions early;
  early.min_execution_fraction = 0.25;  // C may finish within 1..4 units
  const DispatcherRun run = simulate_dispatcher(s, t, early);
  EXPECT_TRUE(run.faults.empty())
      << (run.faults.empty() ? "" : run.faults[0]);
}

TEST(DispatcherSim, ExecutionModelIsDeterministicPerSeed) {
  Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  const auto out = sched::DfsScheduler(model.value().net).search();
  auto table = sched::extract_schedule(s, model.value(), out.trace).value();
  DispatchSimOptions options;
  options.min_execution_fraction = 0.6;
  options.seed = 4;
  const DispatcherRun a = simulate_dispatcher(s, table, options);
  const DispatcherRun b = simulate_dispatcher(s, table, options);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_TRUE(a.ok());
  EXPECT_LT(a.busy_time, 9135u);  // strictly under the WCET-model total
  options.seed = 5;
  const DispatcherRun c = simulate_dispatcher(s, table, options);
  EXPECT_NE(a.busy_time, c.busy_time);  // different draw
}

// -- On-line baselines ---------------------------------------------------------------

TEST(OnlineSched, EdfSchedulesLightLoad) {
  Specification s = two_tasks();
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdf);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_EQ(r.busy_time, 5u);
  EXPECT_EQ(r.idle_time, 5u);
}

TEST(OnlineSched, EdfSchedulesFullUtilization) {
  // EDF is optimal on one processor: U = 1 with implicit deadlines fits.
  Specification s("full");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 5, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 5, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdf);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.idle_time, 0u);
}

TEST(OnlineSched, OverloadMissesDeadlines) {
  Specification s("over");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 6, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  for (const auto policy :
       {OnlinePolicy::kEdf, OnlinePolicy::kRateMonotonic,
        OnlinePolicy::kDeadlineMonotonic, OnlinePolicy::kEdfNonPreemptive}) {
    const OnlineResult r = simulate_online(s, policy);
    EXPECT_FALSE(r.schedulable) << to_string(policy);
    EXPECT_GT(r.deadline_misses, 0u) << to_string(policy);
  }
}

TEST(OnlineSched, RmFailsWhereEdfSucceeds) {
  // Classic RM counterexample above the Liu & Layland bound:
  // T1 (c=3, p=6), T2 (c=4, p=9): U = 0.5 + 0.444 = 0.944 > 2(√2-1).
  Specification s("rm-vs-edf");
  s.add_processor("cpu");
  s.add_task("T1", TimingConstraints{0, 0, 3, 6, 6});
  s.add_task("T2", TimingConstraints{0, 0, 4, 9, 9});
  ASSERT_TRUE(s.validate().ok());
  EXPECT_TRUE(simulate_online(s, OnlinePolicy::kEdf).schedulable);
  EXPECT_FALSE(simulate_online(s, OnlinePolicy::kRateMonotonic).schedulable);
}

TEST(OnlineSched, PreemptionCounting) {
  // Short-period A keeps preempting long preemptive B under EDF.
  Specification s("preempt-count");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 4, 4});
  s.add_task("B", TimingConstraints{0, 0, 9, 16, 16});
  ASSERT_TRUE(s.validate().ok());
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdf);
  EXPECT_TRUE(r.schedulable);
  EXPECT_GT(r.preemptions, 0u);
}

TEST(OnlineSched, NonPreemptiveEdfRunsJobsToCompletion) {
  Specification s("np-edf");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 20, 20});
  s.add_task("B", TimingConstraints{0, 0, 10, 20, 20});
  ASSERT_TRUE(s.validate().ok());
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdfNonPreemptive);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.preemptions, 0u);
}

TEST(OnlineSched, MinePumpSchedulableUnderEdf) {
  Specification s = workload::mine_pump_specification();
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdf);
  EXPECT_TRUE(r.schedulable);
}

TEST(OnlineSched, PhaseDelaysFirstRelease) {
  Specification s("phase");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{5, 0, 1, 5, 10});
  ASSERT_TRUE(s.validate().ok());
  const OnlineResult r = simulate_online(s, OnlinePolicy::kEdf);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.busy_time, 1u);  // exactly one instance inside PS = 10
}

TEST(OnlineSched, PolicyNames) {
  EXPECT_STREQ(to_string(OnlinePolicy::kEdf), "EDF");
  EXPECT_STREQ(to_string(OnlinePolicy::kRateMonotonic), "RM");
  EXPECT_STREQ(to_string(OnlinePolicy::kDeadlineMonotonic), "DM");
  EXPECT_STREQ(to_string(OnlinePolicy::kEdfNonPreemptive), "NP-EDF");
}

}  // namespace
}  // namespace ezrt::runtime
