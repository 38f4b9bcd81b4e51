// Unit tests for the scheduled-C-code generator, including an integration
// test that compiles and executes the host-simulation backend with the
// system C compiler when one is available.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "builder/tpn_builder.hpp"
#include "codegen/c_generator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "workload/generator.hpp"

namespace ezrt::codegen {
namespace {

using sched::ScheduleTable;
using spec::Specification;
using spec::TimingConstraints;

[[nodiscard]] Specification demo_spec() {
  Specification s("demo");
  s.add_processor("cpu");
  const TaskId a = s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10});
  s.set_task_code(a, "sensor_read();\nactuate();");
  EXPECT_TRUE(s.validate().ok());
  return s;
}

[[nodiscard]] ScheduleTable demo_table() {
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(sched::ScheduleItem{2, false, TaskId(1), 0, 3, {}});
  t.makespan = 5;
  return t;
}

TEST(Codegen, EmitsThreeFiles) {
  auto code = generate(demo_spec(), demo_table());
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().files.size(), 3u);
  EXPECT_NE(code.value().find("schedule.h"), nullptr);
  EXPECT_NE(code.value().find("tasks.c"), nullptr);
  EXPECT_NE(code.value().find("dispatcher.c"), nullptr);
}

TEST(Codegen, RejectsEmptyTable) {
  ScheduleTable empty;
  EXPECT_FALSE(generate(demo_spec(), empty).ok());
}

TEST(Codegen, HeaderDeclaresTableAndTasks) {
  auto code = generate(demo_spec(), demo_table());
  ASSERT_TRUE(code.ok());
  const std::string& header = code.value().find("schedule.h")->content;
  EXPECT_NE(header.find("#define SCHEDULE_SIZE 2"), std::string::npos);
  EXPECT_NE(header.find("#define SCHEDULE_PERIOD 10ul"), std::string::npos);
  EXPECT_NE(header.find("struct ScheduleItem"), std::string::npos);
  EXPECT_NE(header.find("void task_A(void);"), std::string::npos);
  EXPECT_NE(header.find("void task_B(void);"), std::string::npos);
}

TEST(Codegen, TableRowsInFig8Format) {
  auto code = generate(demo_spec(), demo_table());
  ASSERT_TRUE(code.ok());
  const std::string& dispatcher = code.value().find("dispatcher.c")->content;
  EXPECT_NE(dispatcher.find("{0ul, 0, 1, task_A}"), std::string::npos);
  EXPECT_NE(dispatcher.find("{2ul, 0, 2, task_B}"), std::string::npos);
  EXPECT_NE(dispatcher.find("/* A1 starts */"), std::string::npos);
}

TEST(Codegen, ResumeFlagEmittedForPreemptedRows) {
  Specification s("pre");
  s.add_processor("cpu");
  s.add_task("P", TimingConstraints{0, 0, 4, 10, 10},
             spec::SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(sched::ScheduleItem{5, true, TaskId(0), 0, 2, {}});
  auto code = generate(s, t);
  ASSERT_TRUE(code.ok());
  const std::string& dispatcher = code.value().find("dispatcher.c")->content;
  EXPECT_NE(dispatcher.find("{5ul, 1, 1, task_P}"), std::string::npos);
  EXPECT_NE(dispatcher.find("/* P1 resumes */"), std::string::npos);
}

TEST(Codegen, UserCodeSpliced) {
  auto code = generate(demo_spec(), demo_table());
  ASSERT_TRUE(code.ok());
  const std::string& tasks = code.value().find("tasks.c")->content;
  EXPECT_NE(tasks.find("sensor_read();"), std::string::npos);
  EXPECT_NE(tasks.find("actuate();"), std::string::npos);
  // B has no code: stub comment instead.
  EXPECT_NE(tasks.find("behavioral code for B was not specified"),
            std::string::npos);
}

TEST(Codegen, UserCodeCanBeSuppressed) {
  CodegenOptions options;
  options.include_user_code = false;
  auto code = generate(demo_spec(), demo_table(), options);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().find("tasks.c")->content.find("sensor_read"),
            std::string::npos);
}

TEST(Codegen, BareMetalBackendUsesPortMacros) {
  CodegenOptions options;
  options.target = Target::kBareMetal;
  auto code = generate(demo_spec(), demo_table(), options);
  ASSERT_TRUE(code.ok());
  const std::string& dispatcher = code.value().find("dispatcher.c")->content;
  for (const char* macro :
       {"SAVE_CONTEXT", "RESTORE_CONTEXT", "PROGRAM_TIMER", "IDLE()",
        "TIMER_ISR"}) {
    EXPECT_NE(dispatcher.find(macro), std::string::npos) << macro;
  }
  EXPECT_NE(dispatcher.find("#include \"port.h\""), std::string::npos);
}

TEST(Codegen, DispatcherOverheadFlagEmitsMacro) {
  Specification s = demo_spec();
  s.set_dispatcher_overhead(true);
  CodegenOptions options;
  options.target = Target::kBareMetal;
  auto code = generate(s, demo_table(), options);
  ASSERT_TRUE(code.ok());
  EXPECT_NE(code.value().find("dispatcher.c")
                ->content.find("DISPATCH_OVERHEAD_TICKS"),
            std::string::npos);
}

TEST(Codegen, SanitizesAwkwardTaskNames) {
  Specification s("odd");
  s.add_processor("cpu");
  s.add_task("CH4-high", TimingConstraints{0, 0, 1, 5, 10});
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 1, {}});
  auto code = generate(s, t);
  ASSERT_TRUE(code.ok());
  EXPECT_NE(code.value().find("schedule.h")->content.find("task_CH4_high"),
            std::string::npos);
}

TEST(Codegen, RejectsCollidingSymbols) {
  Specification s("collide");
  s.add_processor("cpu");
  s.add_task("a-b", TimingConstraints{0, 0, 1, 5, 10});
  s.add_task("a_b", TimingConstraints{0, 0, 1, 5, 10});
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 10;
  t.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 1, {}});
  t.items.push_back(sched::ScheduleItem{1, false, TaskId(1), 0, 1, {}});
  EXPECT_FALSE(generate(s, t).ok());
}

TEST(Codegen, CollisionNamesTheFirstCollidingTaskInIdOrder) {
  // Two colliding pairs, (p q, p_q) and (m-n, m_n): the scan in id order
  // meets m_n (id 2) before p_q (id 3). A leading digit gains a 't'.
  const auto collision = [](std::initializer_list<const char*> names) {
    Specification s("collide");
    s.add_processor("cpu");
    for (const char* name : names) {
      s.add_task(name, TimingConstraints{0, 0, 1, 50, 50});
    }
    EXPECT_TRUE(s.validate().ok());
    ScheduleTable t;
    t.schedule_period = 50;
    t.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 1, {}});
    auto code = generate(s, t);
    return code.ok() ? std::string() : code.error().message();
  };
  EXPECT_EQ(collision({"p q", "m-n", "m_n", "p_q"}),
            "task names 'm_n' collide after C-identifier sanitizing");
  EXPECT_EQ(collision({"t1x", "x", "1x"}),
            "task names '1x' collide after C-identifier sanitizing");
  EXPECT_EQ(collision({"a-b", "a_b", "a.b"}),
            "task names 'a_b' collide after C-identifier sanitizing");
  EXPECT_EQ(collision({"a", "b", "c"}), "");
}

TEST(Codegen, TargetNames) {
  EXPECT_STREQ(to_string(Target::kBareMetal), "bare-metal");
  EXPECT_STREQ(to_string(Target::kHostSim), "host-sim");
}

/// Compiles and runs the host-sim backend for the mine-pump schedule.
/// Exercises the full paper pipeline down to executing generated C code;
/// skipped when no C compiler is reachable.
TEST(CodegenIntegration, HostSimCompilesAndRunsMinePump) {
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no C compiler available";
  }

  Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  sched::DfsScheduler scheduler(model.value().net);
  const auto out = scheduler.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  auto table = sched::extract_schedule(s, model.value(), out.trace);
  ASSERT_TRUE(table.ok());
  auto code = generate(s, table.value());
  ASSERT_TRUE(code.ok());

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ezrt_codegen_integration";
  fs::create_directories(dir);
  for (const GeneratedFile& file : code.value().files) {
    std::ofstream(dir / file.name) << file.content;
  }
  const std::string compile = "cc -std=c99 -Wall -Werror -o " +
                              (dir / "scheduled").string() + " " +
                              (dir / "dispatcher.c").string() + " " +
                              (dir / "tasks.c").string() +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(compile.c_str()), 0)
      << "generated C failed to compile";
  // Exit code == number of deadline misses: must be 0.
  const std::string run =
      (dir / "scheduled").string() + " > " + (dir / "run.log").string();
  EXPECT_EQ(std::system(run.c_str()), 0);

  // The run log reports every instance; spot-check the count.
  std::ifstream log(dir / "run.log");
  std::size_t ok_lines = 0;
  std::string line;
  while (std::getline(log, line)) {
    if (line.find(" OK") != std::string::npos) {
      ++ok_lines;
    }
  }
  EXPECT_EQ(ok_lines, 782u);
}

}  // namespace
}  // namespace ezrt::codegen
