// Unit tests for schedule metrics (response times, jitter, slack, energy)
// and the ASCII Gantt renderer.
#include <gtest/gtest.h>

#include "base/strings.hpp"
#include "builder/tpn_builder.hpp"
#include "runtime/metrics.hpp"
#include "sched/dfs.hpp"
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

TEST(Metrics, ResponseTimes) {
  const ScheduleMetrics m = compute_metrics(two_tasks(), simple_table());
  ASSERT_EQ(m.tasks.size(), 2u);
  EXPECT_EQ(m.tasks[0].worst_response, 2u);  // A: 0..2, arrival 0
  EXPECT_EQ(m.tasks[1].worst_response, 5u);  // B: 2..5, arrival 0
  EXPECT_EQ(m.tasks[0].best_response, 2u);
  EXPECT_DOUBLE_EQ(m.tasks[1].mean_response, 5.0);
}

TEST(Metrics, SlackAgainstDeadline) {
  const ScheduleMetrics m = compute_metrics(two_tasks(), simple_table());
  EXPECT_EQ(m.tasks[0].worst_slack, 6u);  // d 8 - completion 2
  EXPECT_EQ(m.tasks[1].worst_slack, 4u);  // d 9 - completion 5
}

TEST(Metrics, SystemAggregates) {
  const ScheduleMetrics m = compute_metrics(two_tasks(), simple_table());
  EXPECT_EQ(m.busy_time, 5u);
  EXPECT_EQ(m.idle_time, 5u);
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);
  EXPECT_EQ(m.makespan, 5u);
  EXPECT_EQ(m.total_preemptions, 0u);
}

TEST(Metrics, JitterAcrossInstances) {
  // Two instances with start offsets 0 and 3 → jitter 3.
  Specification s("jit");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{13, false, TaskId(0), 1, 2, {}});
  const ScheduleMetrics m = compute_metrics(s, t);
  EXPECT_EQ(m.tasks[0].start_jitter, 3u);
  EXPECT_EQ(m.tasks[0].worst_response, 5u);
  EXPECT_EQ(m.tasks[0].best_response, 2u);
}

TEST(Metrics, PreemptionCountFromSegments) {
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("P", TimingConstraints{0, 0, 4, 10, 10},
             spec::SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{5, true, TaskId(0), 0, 2, {}});
  const ScheduleMetrics m = compute_metrics(s, t);
  EXPECT_EQ(m.tasks[0].preemptions, 1u);
  EXPECT_EQ(m.total_preemptions, 1u);
}

TEST(Metrics, EnergyUsesMetamodelAttribute) {
  Specification s("energy");
  s.add_processor("cpu");
  const TaskId a = s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.task(a).energy = 7;  // power units while executing
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  const ScheduleMetrics m = compute_metrics(s, t);
  EXPECT_EQ(m.tasks[0].energy, 14u);  // 7 * c(2) * 1 instance
  EXPECT_EQ(m.total_energy, 14u);
}

TEST(Metrics, FormatGolden) {
  // Byte-exact golden for the fixed-width report: column widths, number
  // formatting and the summary line are all part of the contract (the CLI
  // prints this verbatim and docs/observability.md shows it).
  const Specification s = two_tasks();
  const std::string report =
      format_metrics(s, compute_metrics(s, simple_table()));
  EXPECT_EQ(report,
            "task        inst  resp[best/mean/worst]  jitter  slack  "
            "preempt  energy\n"
            "A              1       2/   2.0/     2       0      6      "
            "  0       0\n"
            "B              1       5/   5.0/     5       0      4      "
            "  0       0\n"
            "makespan 5, busy 5, idle 5, U = 0.500, 0 preemptions, "
            "energy 0\n");
}

TEST(Gantt, Golden) {
  // Byte-exact golden: '#' executing, '.' idle, '|' period boundary (only
  // where no execution cell wins), one cell per unit at width >= horizon.
  const Specification s = two_tasks();
  const std::string chart = render_gantt(s, simple_table(), 10, 10);
  EXPECT_EQ(chart,
            "time 0..10, one cell = 1 unit(s)\n"
            "A ##........\n"
            "B |.###.....\n");
}

TEST(Metrics, PreemptionAndEnergyAggregateAcrossTasks) {
  // Two preemptive tasks, each split into two segments, with distinct
  // energy attributes: per-task counts and the system totals must agree.
  Specification s("agg");
  s.add_processor("cpu");
  const TaskId a = s.add_task("A", TimingConstraints{0, 0, 4, 18, 20},
                              spec::SchedulingType::kPreemptive);
  const TaskId b = s.add_task("B", TimingConstraints{0, 0, 4, 19, 20},
                              spec::SchedulingType::kPreemptive);
  s.task(a).energy = 3;
  s.task(b).energy = 5;
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, a, 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, b, 0, 2, {}});
  t.items.push_back(ScheduleItem{4, true, a, 0, 2, {}});
  t.items.push_back(ScheduleItem{6, true, b, 0, 2, {}});
  const ScheduleMetrics m = compute_metrics(s, t);
  EXPECT_EQ(m.tasks[0].preemptions, 1u);
  EXPECT_EQ(m.tasks[1].preemptions, 1u);
  EXPECT_EQ(m.total_preemptions, 2u);
  EXPECT_EQ(m.tasks[0].energy, 12u);  // 3 * c(4) * 1 instance
  EXPECT_EQ(m.tasks[1].energy, 20u);  // 5 * c(4) * 1 instance
  EXPECT_EQ(m.total_energy, 32u);
}

TEST(Metrics, EnergyMultipliesByInstanceCount) {
  Specification s("inst");
  s.add_processor("cpu");
  const TaskId a = s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.task(a).energy = 7;
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;  // two instances of the period-10 task
  t.items.push_back(ScheduleItem{0, false, a, 0, 2, {}});
  t.items.push_back(ScheduleItem{10, false, a, 1, 2, {}});
  const ScheduleMetrics m = compute_metrics(s, t);
  EXPECT_EQ(m.tasks[0].instances, 2u);
  EXPECT_EQ(m.tasks[0].energy, 28u);  // 7 * c(2) * 2 instances
  EXPECT_EQ(m.total_energy, 28u);
}

TEST(Metrics, FormatContainsEveryTask) {
  const Specification s = two_tasks();
  const std::string report =
      format_metrics(s, compute_metrics(s, simple_table()));
  EXPECT_NE(report.find("A"), std::string::npos);
  EXPECT_NE(report.find("B"), std::string::npos);
  EXPECT_NE(report.find("U = 0.500"), std::string::npos);
}

TEST(Metrics, MinePumpMetricsAreDeadlineClean) {
  auto s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s).value();
  const auto out = sched::DfsScheduler(model.net).search();
  auto table = sched::extract_schedule(s, model, out.trace).value();
  const ScheduleMetrics m = compute_metrics(s, table);
  EXPECT_EQ(m.busy_time, 9135u);  // sum over instances of c_i
  EXPECT_NEAR(m.utilization, 0.3045, 1e-4);
  for (const TaskMetrics& tm : m.tasks) {
    // Slack never negative means no deadline overrun.
    EXPECT_GE(tm.worst_slack, 0u);
    EXPECT_LE(tm.worst_response,
              s.task(tm.task).timing.deadline);
  }
}

// -- Gantt ----------------------------------------------------------------------

TEST(Gantt, MarksExecutionCells) {
  const Specification s = two_tasks();
  const std::string chart = render_gantt(s, simple_table(), 10, 10);
  // One cell per unit: A row starts with "##", B row has "###" at 2..5.
  EXPECT_NE(chart.find("A "), std::string::npos);
  EXPECT_NE(chart.find("##"), std::string::npos);
  EXPECT_NE(chart.find("one cell = 1 unit"), std::string::npos);
}

TEST(Gantt, ScalesToWidth) {
  auto s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s).value();
  const auto out = sched::DfsScheduler(model.net).search();
  auto table = sched::extract_schedule(s, model, out.trace).value();
  const std::string chart = render_gantt(s, table, 0, 60);
  EXPECT_NE(chart.find("one cell = 500 unit(s)"), std::string::npos);
  // Every row fits in label + 1 + 60 cells.
  for (const std::string& line : split(chart, '\n')) {
    EXPECT_LE(line.size(), 12u + 1u + 60u);
  }
}

TEST(Gantt, EmptyScheduleHandled) {
  const Specification s = two_tasks();
  ScheduleTable empty;
  EXPECT_EQ(render_gantt(s, empty), "(empty schedule)\n");
}

}  // namespace
}  // namespace ezrt::runtime
