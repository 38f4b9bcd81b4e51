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

// -- Validator messages: exact text and order, one table per check ----------

using Messages = std::vector<std::string>;

[[nodiscard]] ScheduleItem row(Time start, bool preempted, TaskId task,
                               std::uint32_t instance, Time duration,
                               ProcessorId proc = {}) {
  return ScheduleItem{start, preempted, task, instance, duration, proc};
}

/// S on cpu0 sends "m" and "m2" to R on cpu1, both over bus "can".
[[nodiscard]] Specification messaging() {
  Specification s("msg");
  s.add_processor("cpu0");
  const ProcessorId cpu1 = s.add_processor("cpu1");
  const TaskId sender = s.add_task("S", TimingConstraints{0, 0, 2, 20, 20});
  spec::Task r;
  r.name = "R";
  r.timing = TimingConstraints{0, 0, 1, 20, 20};
  r.processor = cpu1;
  const TaskId receiver = s.add_task(std::move(r));
  for (const char* name : {"m", "m2"}) {
    spec::Message m;
    m.name = name;
    m.bus = "can";
    m.communication = 2;
    s.connect_message(sender, s.add_message(std::move(m)), receiver);
  }
  EXPECT_TRUE(s.validate().ok());
  return s;
}

/// S @0..2 on cpu0, R @6..7 on cpu1; the bus timeline is the caller's.
[[nodiscard]] ScheduleTable messaging_table() {
  ScheduleTable t;
  t.schedule_period = 20;
  t.processor_count = 2;
  t.items.push_back(row(0, false, TaskId(0), 0, 2, ProcessorId(0)));
  t.items.push_back(row(6, false, TaskId(1), 0, 1, ProcessorId(1)));
  return t;
}

[[nodiscard]] sched::BusSegment transfer(Time start, Time duration,
                                         MessageId message) {
  return sched::BusSegment{start, duration, message, ProcessorId(0),
                           ProcessorId(1)};
}

TEST(Validator, MessageUnknownTask) {
  ScheduleTable t = good_table();
  t.items.push_back(row(6, false, TaskId(7), 0, 1));
  t.items.push_back(row(7, false, TaskId{}, 0, 1));
  const ValidationReport report = validate_schedule(two_tasks(), t);
  EXPECT_EQ(report.violations,
            (Messages{"segment references an unknown task",
                      "segment references an unknown task"}));
  EXPECT_EQ(report.segments_checked, 4u);
  EXPECT_EQ(report.instances_checked, 2u);
}

TEST(Validator, MessageZeroLengthSegment) {
  ScheduleTable t = good_table();
  t.items.push_back(row(6, false, TaskId(0), 1, 0));
  EXPECT_EQ(validate_schedule(two_tasks(), t).violations,
            (Messages{"task 'A' has a zero-length segment at t=6",
                      "A#2: executes 0 units, WCET is 2",
                      "A#2: starts at 6, release is 10"}));
}

TEST(Validator, MessageInstancePastCount) {
  ScheduleTable t = good_table();
  t.items.push_back(row(5, false, TaskId(0), 2, 2));
  const ValidationReport report = validate_schedule(two_tasks(), t);
  EXPECT_EQ(report.violations, (Messages{"A#3: starts at 5, release is 20"}));
  EXPECT_EQ(report.instances_checked, 3u);
}

TEST(Validator, MessagePeriodNotDividingSchedulePeriod) {
  ScheduleTable t = good_table();
  t.schedule_period = 15;
  EXPECT_EQ(validate_schedule(two_tasks(), t).violations,
            (Messages{"schedule period 15 is not a multiple of task 'A' period",
                      "schedule period 15 is not a multiple of task 'B' "
                      "period"}));
  t.schedule_period = 0;
  EXPECT_EQ(validate_schedule(two_tasks(), t).violations,
            (Messages{"schedule period 0 is not a multiple of task 'A' period",
                      "schedule period 0 is not a multiple of task 'B' "
                      "period"}));
}

TEST(Validator, MessageMissingInstance) {
  Specification s = two_tasks();
  s.task(TaskId(1)).timing = TimingConstraints{0, 0, 1, 5, 5};
  ScheduleTable t = good_table();
  t.items.pop_back();
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"task 'B' instance 1 never executes",
                      "task 'B' instance 2 never executes"}));
}

TEST(Validator, MessagePerInstanceContracts) {
  Specification s("contracts");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 3, 2, 8, 10});
  s.add_task("P", TimingConstraints{0, 0, 4, 10, 10},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  // A: starts before its release, split in two, finishes late, runs 3 of 2.
  t.items.push_back(row(1, false, TaskId(0), 0, 1));
  t.items.push_back(row(8, false, TaskId(0), 0, 2));
  // P: a first segment flagged as a resume and a continuation that is not.
  t.items.push_back(row(2, true, TaskId(1), 0, 2));
  t.items.push_back(row(4, false, TaskId(1), 0, 2));
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"A#1: executes 3 units, WCET is 2",
                      "A#1: starts at 1, release is 3",
                      "A#1: completes at 10, deadline is 8",
                      "A#1: non-preemptive task split into 2 segments",
                      "A#1: segment 2 carries preempted=false, expected true",
                      "P#1: segment 1 carries preempted=true, expected false",
                      "P#1: segment 2 carries preempted=false, expected "
                      "true"}));
}

TEST(Validator, MessageProcessorOverlap) {
  ScheduleTable t = good_table();
  t.items[1].start = 1;
  t.items.push_back(row(2, false, TaskId(0), 1, 2));
  EXPECT_EQ(validate_schedule(two_tasks(), t).violations,
            (Messages{"A#2: starts at 2, release is 10",
                      "processor 'cpu': segments of 'A' and 'B' overlap at "
                      "t=1",
                      "processor 'cpu': segments of 'B' and 'A' overlap at "
                      "t=2"}));
}

TEST(Validator, MessagePrecedence) {
  Specification s = two_tasks();
  s.add_precedence(TaskId(1), TaskId(0));  // B before A; A runs first
  ASSERT_TRUE(s.validate().ok());
  EXPECT_EQ(validate_schedule(s, good_table()).violations,
            (Messages{"precedence B -> A: start 0 before predecessor "
                      "finish 5"}));
  ScheduleTable t = good_table();
  t.items.pop_back();  // B never runs
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"task 'B' instance 1 never executes",
                      "precedence B -> A: successor instance 1 has no "
                      "matching predecessor"}));
}

TEST(Validator, MessageCoreAssignment) {
  Specification s = messaging();
  ScheduleTable t = messaging_table();
  t.items[0].processor = ProcessorId(1);
  t.bus_timeline.push_back(transfer(2, 2, MessageId(0)));
  t.bus_timeline.push_back(transfer(4, 2, MessageId(1)));
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"task 'S' segment at t=0 runs on processor 1, the task "
                      "is pinned to 0"}));
}

TEST(Validator, MessageBusOverlap) {
  Specification s = messaging();
  ScheduleTable t = messaging_table();
  t.bus_timeline.push_back(transfer(2, 2, MessageId(0)));
  t.bus_timeline.push_back(transfer(3, 2, MessageId(1)));
  t.bus_timeline.push_back(transfer(9, 1, MessageId(5)));
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"bus segment at t=9 references an unknown message",
                      "bus 'can': transfers of 'm' and 'm2' overlap at t=3"}));
}

TEST(Validator, MessageBusOrderIsByBusName) {
  Specification s("buses");
  s.add_processor("cpu0");
  const ProcessorId cpu1 = s.add_processor("cpu1");
  const TaskId sender = s.add_task("S", TimingConstraints{0, 0, 1, 20, 20});
  spec::Task r;
  r.name = "R";
  r.timing = TimingConstraints{0, 0, 1, 20, 20};
  r.processor = cpu1;
  const TaskId receiver = s.add_task(std::move(r));
  const char* const buses[] = {"can", "can", "ahb", "ahb"};
  for (int i = 0; i < 4; ++i) {
    spec::Message m;
    m.name = "m" + std::to_string(i + 1);
    m.bus = buses[i];
    m.communication = 2;
    s.connect_message(sender, s.add_message(std::move(m)), receiver);
  }
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  t.processor_count = 2;
  t.items.push_back(row(0, false, sender, 0, 1, ProcessorId(0)));
  t.items.push_back(row(9, false, receiver, 0, 1, cpu1));
  t.bus_timeline.push_back(transfer(1, 2, MessageId(0)));
  t.bus_timeline.push_back(transfer(1, 2, MessageId(2)));
  t.bus_timeline.push_back(transfer(2, 2, MessageId(1)));
  t.bus_timeline.push_back(transfer(2, 2, MessageId(3)));
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"bus 'ahb': transfers of 'm3' and 'm4' overlap at t=2",
                      "bus 'can': transfers of 'm1' and 'm2' overlap at "
                      "t=2"}));
}

TEST(Validator, MessageCrossCorePrecedence) {
  Specification s = messaging();
  ScheduleTable t = messaging_table();
  // m starts before S finishes; m2 completes after R starts.
  t.bus_timeline.push_back(transfer(1, 2, MessageId(0)));
  t.bus_timeline.push_back(transfer(3, 4, MessageId(1)));
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"message 'm': transfer starts at 1 before the sender "
                      "finishes at 2",
                      "message 'm2': receiver starts at 6 before the transfer "
                      "completes at 7"}));
  t.bus_timeline.pop_back();  // m2 is never transferred
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"message 'm': transfer starts at 1 before the sender "
                      "finishes at 2",
                      "message 'm2': receiver instance 1 has no matching bus "
                      "transfer"}));
}

TEST(Validator, MessageSyncBudget) {
  ScheduleTable t = good_table();
  t.sync_budget = 1;
  t.sync_high_water = 1;
  EXPECT_TRUE(validate_schedule(two_tasks(), t).ok());
  t.sync_high_water = 3;
  EXPECT_EQ(validate_schedule(two_tasks(), t).violations,
            (Messages{"sync budget: 3 synchronization resources held at once, "
                      "budget K=1"}));
  t.sync_budget = 0;
  EXPECT_TRUE(validate_schedule(two_tasks(), t).ok());
}

TEST(Validator, MessageExclusionInterleave) {
  Specification s("excl");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 4, 10, 10},
             SchedulingType::kPreemptive);
  s.add_task("B", TimingConstraints{0, 0, 2, 10, 10},
             SchedulingType::kPreemptive);
  s.add_exclusion(TaskId(0), TaskId(1));
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  for (const Time base : {Time{0}, Time{10}}) {
    const auto k = static_cast<std::uint32_t>(base / 10);
    t.items.push_back(row(base, false, TaskId(0), k, 2));
    t.items.push_back(row(base + 2, false, TaskId(1), k, 2));
    t.items.push_back(row(base + 4, true, TaskId(0), k, 2));
  }
  EXPECT_EQ(validate_schedule(s, t).violations,
            (Messages{"exclusion A <-> B: spans [0,6) and [2,4) interleave",
                      "exclusion A <-> B: spans [10,16) and [12,14) "
                      "interleave"}));
}

TEST(Validator, MessagesOfSeveralChecksKeepTheirOrder) {
  Specification s = messaging();
  s.add_task("X", TimingConstraints{0, 0, 1, 10, 10});
  s.add_exclusion(TaskId(0), TaskId(2));
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  t.processor_count = 2;
  t.sync_budget = 1;
  t.sync_high_water = 2;
  t.items.push_back(row(0, false, TaskId(0), 0, 1, ProcessorId(1)));
  t.items.push_back(row(1, false, TaskId(2), 0, 1, ProcessorId(0)));
  t.items.push_back(row(1, false, TaskId(0), 0, 2, ProcessorId(0)));
  t.items.push_back(row(4, false, TaskId(9), 0, 1));
  t.items.push_back(row(5, false, TaskId(1), 0, 0, ProcessorId(1)));
  t.bus_timeline.push_back(transfer(0, 9, MessageId(0)));
  t.bus_timeline.push_back(transfer(3, 1, MessageId(1)));
  const ValidationReport report = validate_schedule(s, t);
  EXPECT_EQ(
      report.violations,
      (Messages{
          "segment references an unknown task",
          "task 'R' has a zero-length segment at t=5",
          "task 'X' instance 2 never executes",
          "S#1: executes 3 units, WCET is 2",
          "S#1: non-preemptive task split into 2 segments",
          "S#1: segment 2 carries preempted=false, expected true",
          "R#1: executes 0 units, WCET is 1",
          "processor 'cpu0': segments of 'X' and 'S' overlap at t=1",
          "task 'S' segment at t=0 runs on processor 1, the task is pinned "
          "to 0",
          "bus 'can': transfers of 'm' and 'm2' overlap at t=3",
          "message 'm': receiver starts at 5 before the transfer completes "
          "at 9",
          "message 'm': transfer starts at 0 before the sender finishes at 3",
          "sync budget: 2 synchronization resources held at once, budget K=1",
          "exclusion S <-> X: spans [0,3) and [1,2) interleave"}));
  EXPECT_EQ(report.segments_checked, 5u);
  EXPECT_EQ(report.instances_checked, 3u);
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
