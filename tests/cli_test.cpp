// Tests for the ezrt command-line tool, driven in-process through
// cli::run with captured streams.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/cancel.hpp"
#include "cli/cli.hpp"
#include "obs/telemetry.hpp"
#include "pnml/ezspec_io.hpp"
#include "workload/generator.hpp"

namespace ezrt::cli {
namespace {

namespace fs = std::filesystem;

/// Temp workspace with the mine-pump spec written to disk.
class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ezrt_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    spec_path_ = (dir_ / "mine_pump.ezspec").string();
    std::ofstream(spec_path_)
        << pnml::write_ezspec(workload::mine_pump_specification()).value();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Runs the CLI and captures streams.
  int run_cli(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  fs::path dir_;
  std::string spec_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_NE(out_.str().find("usage: ezrt"), std::string::npos);
  EXPECT_NE(out_.str().find("schedule"), std::string::npos);
}

TEST_F(CliTest, NoArgsIsUsageError) {
  EXPECT_EQ(run_cli({}), 4);
}

TEST_F(CliTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_cli({"frobnicate"}), 4);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, InfoShowsDerivedQuantities) {
  EXPECT_EQ(run_cli({"info", spec_path_}), 0);
  EXPECT_NE(out_.str().find("schedule period: 30000"), std::string::npos);
  EXPECT_NE(out_.str().find("task instances:  782"), std::string::npos);
}

TEST_F(CliTest, ValidateAcceptsGoodSpec) {
  EXPECT_EQ(run_cli({"validate", spec_path_}), 0);
  EXPECT_NE(out_.str().find("valid"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsBrokenSpec) {
  const std::string bad = (dir_ / "bad.ezspec").string();
  std::ofstream(bad) << "<rt:ez-spec xmlns:rt=\"x\" name=\"b\"></rt:ez-spec>";
  EXPECT_EQ(run_cli({"validate", bad}), 4);
  EXPECT_FALSE(err_.str().empty());
}

TEST_F(CliTest, MissingFileReported) {
  EXPECT_EQ(run_cli({"info", (dir_ / "nope.xml").string()}), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, ScheduleEmitsTableAndTrace) {
  const std::string trace = (dir_ / "mp.trace").string();
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--trace", trace}), 0);
  EXPECT_NE(out_.str().find("feasible schedule: 3130 firings"),
            std::string::npos);
  EXPECT_NE(out_.str().find("scheduleTable[782]"), std::string::npos);
  EXPECT_TRUE(fs::exists(trace));
}

TEST_F(CliTest, ReplayAuditsStoredTrace) {
  const std::string trace = (dir_ / "mp.trace").string();
  ASSERT_EQ(run_cli({"schedule", spec_path_, "--trace", trace}), 0);
  EXPECT_EQ(run_cli({"replay", spec_path_, trace}), 0);
  EXPECT_NE(out_.str().find("reaches M_F"), std::string::npos);
}

TEST_F(CliTest, ReplayRejectsTamperedTrace) {
  const std::string trace = (dir_ / "mp.trace").string();
  ASSERT_EQ(run_cli({"schedule", spec_path_, "--trace", trace}), 0);
  // Corrupt one delay (keeping timestamps consistent is the attacker's
  // job; we just break it bluntly).
  std::ifstream in(trace);
  std::stringstream content;
  content << in.rdbuf();
  std::string text = content.str();
  const std::size_t pos = text.find("delay 0 at 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "delay 3 at 3");
  std::ofstream(trace) << text;
  EXPECT_EQ(run_cli({"replay", spec_path_, trace}), 4);
}

TEST_F(CliTest, ScheduleInfeasibleExitCode) {
  spec::Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", spec::TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", spec::TimingConstraints{0, 0, 6, 10, 10});
  const std::string path = (dir_ / "overload.ezspec").string();
  std::ofstream(path) << pnml::write_ezspec(s).value();
  // Infeasible is a definitive domain answer, not a runtime failure.
  EXPECT_EQ(run_cli({"schedule", path}), 2);
  EXPECT_NE(err_.str().find("infeasible"), std::string::npos);
}

TEST_F(CliTest, CodegenWritesFiles) {
  const std::string out_dir = (dir_ / "gen").string();
  EXPECT_EQ(run_cli({"codegen", spec_path_, "-o", out_dir}), 0);
  EXPECT_TRUE(fs::exists(fs::path(out_dir) / "schedule.h"));
  EXPECT_TRUE(fs::exists(fs::path(out_dir) / "tasks.c"));
  EXPECT_TRUE(fs::exists(fs::path(out_dir) / "dispatcher.c"));
}

TEST_F(CliTest, CodegenBareMetalWithMcu) {
  const std::string out_dir = (dir_ / "gen8051").string();
  EXPECT_EQ(run_cli({"codegen", spec_path_, "-o", out_dir, "--target",
                     "bare-metal", "--mcu", "8051", "--timer-hz", "100"}),
            0);
  ASSERT_TRUE(fs::exists(fs::path(out_dir) / "port.h"));
  std::ifstream port(fs::path(out_dir) / "port.h");
  std::stringstream content;
  content << port.rdbuf();
  EXPECT_NE(content.str().find("EZRT_TICK_HZ 100ul"), std::string::npos);
}

TEST_F(CliTest, CodegenRequiresOutputDir) {
  EXPECT_EQ(run_cli({"codegen", spec_path_}), 4);
}

TEST_F(CliTest, CodegenRejectsBadMcu) {
  EXPECT_EQ(run_cli({"codegen", spec_path_, "-o",
                     (dir_ / "x").string(), "--target", "bare-metal",
                     "--mcu", "z80"}),
            4);
}

TEST_F(CliTest, ExportPnmlToStdout) {
  EXPECT_EQ(run_cli({"export-pnml", spec_path_}), 0);
  EXPECT_NE(out_.str().find("<pnml"), std::string::npos);
  EXPECT_NE(out_.str().find("toolspecific"), std::string::npos);
}

TEST_F(CliTest, ExportPnmlToFile) {
  const std::string path = (dir_ / "net.pnml").string();
  EXPECT_EQ(run_cli({"export-pnml", spec_path_, "-o", path}), 0);
  EXPECT_TRUE(fs::exists(path));
}

TEST_F(CliTest, SimulateReportsMetricsAndGantt) {
  EXPECT_EQ(run_cli({"simulate", spec_path_}), 0);
  EXPECT_NE(out_.str().find("all deadlines met"), std::string::npos);
  EXPECT_NE(out_.str().find("resp[best/mean/worst]"), std::string::npos);
  EXPECT_NE(out_.str().find("one cell ="), std::string::npos);
}

TEST_F(CliTest, BaselineComparesPolicies) {
  EXPECT_EQ(run_cli({"baseline", spec_path_}), 0);
  for (const char* policy : {"EDF", "DM", "RM", "NP-EDF"}) {
    EXPECT_NE(out_.str().find(policy), std::string::npos) << policy;
  }
}

TEST_F(CliTest, ReachDenseClasses) {
  EXPECT_EQ(
      run_cli({"reach", spec_path_, "--classes", "--max-states", "500"}),
      0);
  EXPECT_NE(out_.str().find("state-class graph"), std::string::npos);
  EXPECT_NE(out_.str().find("classes explored:  500"), std::string::npos);
}

TEST_F(CliTest, ReachReportsProperties) {
  EXPECT_EQ(run_cli({"reach", spec_path_, "--max-states", "2000"}), 0);
  EXPECT_NE(out_.str().find("states explored:  2000"), std::string::npos);
  EXPECT_NE(out_.str().find("miss reachable"), std::string::npos);
}

TEST_F(CliTest, ScheduleOptimizeSwitches) {
  spec::Specification s("opt");
  s.add_processor("cpu");
  s.add_task("L", spec::TimingConstraints{0, 0, 6, 20, 20},
             spec::SchedulingType::kPreemptive);
  s.add_task("S", spec::TimingConstraints{0, 0, 2, 20, 20},
             spec::SchedulingType::kPreemptive);
  const std::string path = (dir_ / "opt.ezspec").string();
  std::ofstream(path) << pnml::write_ezspec(s).value();
  EXPECT_EQ(run_cli({"schedule", path, "--optimize", "switches"}), 0);
  EXPECT_NE(out_.str().find("optimized: best cost 2"), std::string::npos);
}

TEST_F(CliTest, ScheduleOptimizeRejectsUnknownObjective) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--optimize", "vibes"}), 4);
}

TEST_F(CliTest, ExportDotProducesGraph) {
  EXPECT_EQ(run_cli({"export-dot", spec_path_}), 0);
  EXPECT_NE(out_.str().find("digraph"), std::string::npos);
  EXPECT_NE(out_.str().find("shape=circle"), std::string::npos);
}

TEST_F(CliTest, ExportDotWithPriorities) {
  EXPECT_EQ(run_cli({"export-dot", spec_path_, "--priorities"}), 0);
  EXPECT_NE(out_.str().find("pi="), std::string::npos);
}

TEST_F(CliTest, WorkloadGeneratesSpecFile) {
  const std::string path = (dir_ / "random.ezspec").string();
  EXPECT_EQ(run_cli({"workload", "-o", path, "--tasks", "6",
                     "--utilization", "0.5", "--seed", "3"}),
            0);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(run_cli({"validate", path}), 0);
}

TEST_F(CliTest, WorkloadToStdout) {
  EXPECT_EQ(run_cli({"workload", "--tasks", "3", "--seed", "5"}), 0);
  EXPECT_NE(out_.str().find("<rt:ez-spec"), std::string::npos);
}

TEST_F(CliTest, WorkloadRejectsBadUtilization) {
  EXPECT_EQ(run_cli({"workload", "--utilization", "abc"}), 4);
}

TEST_F(CliTest, SimulateCyclesChecksSteadyState) {
  EXPECT_EQ(run_cli({"simulate", spec_path_, "--cycles", "3"}), 0);
  EXPECT_NE(out_.str().find("cyclic run over 3 schedule periods"),
            std::string::npos);
  EXPECT_NE(out_.str().find("0 misses"), std::string::npos);
}

// -- observability ------------------------------------------------------------

/// Slurps a file the CLI was asked to write.
[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST_F(CliTest, ScheduleWritesRunReport) {
  const std::string report = (dir_ / "run.json").string();
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--report", report}), 0);
  EXPECT_NE(out_.str().find("report written to"), std::string::npos);
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"schema\":\"ezrt-run-report\""), std::string::npos);
  EXPECT_NE(json.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(json.find("\"firings\":3130"), std::string::npos);
  // --report implies telemetry collection and stage spans.
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"spec-parse\""), std::string::npos);
  EXPECT_NE(json.find("\"search\""), std::string::npos);
}

TEST_F(CliTest, RunReportIsVersion5WithSearchEngineFields) {
  const std::string report = (dir_ / "v5.json").string();
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--report", report}), 0);
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"version\":5"), std::string::npos);
  // v4: per-processor / bus / sync breakdown is always present.
  EXPECT_NE(json.find("\"processors\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"bus\":{"), std::string::npos);
  EXPECT_NE(json.find("\"sync\":{"), std::string::npos);
  // The default run records the exploration strategy and the resolved
  // state-class decision alongside the legacy successor-engine field.
  EXPECT_NE(json.find("\"search_engine\":\"dfs\""), std::string::npos);
  EXPECT_NE(json.find("\"state_classes\":\"auto\""), std::string::npos);
  EXPECT_NE(json.find("\"state_classes_enabled\":false"),
            std::string::npos);
  EXPECT_NE(json.find("\"heuristic_evals\""), std::string::npos);
  EXPECT_NE(json.find("\"beam_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"classes_merged\""), std::string::npos);
  EXPECT_NE(json.find("\"pruned_doomed\""), std::string::npos);
}

TEST_F(CliTest, GuidedEngineFlagsSchedule) {
  const std::string report = (dir_ / "guided.json").string();
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--engine=bestfirst",
                     "--state-classes=on", "--report", report}),
            0);
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"search_engine\":\"bestfirst\""),
            std::string::npos);
  EXPECT_NE(json.find("\"state_classes_enabled\":true"),
            std::string::npos);
  EXPECT_NE(json.find("\"feasible\":true"), std::string::npos);
}

TEST_F(CliTest, BeamEngineFlagsSchedule) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--engine=beam",
                     "--beam-width", "8", "--widen",
                     "--state-classes=on"}),
            0);
  EXPECT_NE(out_.str().find("feasible schedule"), std::string::npos);
}

TEST_F(CliTest, EngineFlagRejectsUnknownValue) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--engine", "astar"}), 4);
}

TEST_F(CliTest, BeamWidthRejectsZero) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--beam-width", "0"}), 4);
  // 2^32 would narrow to a width of 0.
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--beam-width", "4294967296"}),
            4);
  EXPECT_NE(err_.str().find("--beam-width"), std::string::npos);
}

TEST_F(CliTest, ScheduleWritesReportOnInfeasibleModels) {
  spec::Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", spec::TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", spec::TimingConstraints{0, 0, 6, 10, 10});
  const std::string path = (dir_ / "overload.ezspec").string();
  std::ofstream(path) << pnml::write_ezspec(s).value();
  const std::string report = (dir_ / "fail.json").string();
  // The run still fails (exit 2, infeasible) but the report captures the
  // effort.
  EXPECT_EQ(run_cli({"schedule", path, "--report", report}), 2);
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"feasible\":false"), std::string::npos);
  EXPECT_NE(json.find("\"states_visited\""), std::string::npos);
}

TEST_F(CliTest, ScheduleWritesChromeTrace) {
  const std::string trace = (dir_ / "trace.json").string();
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--trace-out", trace}), 0);
  EXPECT_NE(out_.str().find("trace written to"), std::string::npos);
  const std::string json = read_file(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"tpn-build\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST_F(CliTest, ScheduleProgressHeartbeatOnStderr) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--progress=1"}), 0);
  // The final line always appears, even for sub-interval searches, and
  // carries the exact totals of the finished search (zeros when the
  // build compiles telemetry out).
  EXPECT_NE(err_.str().find("[progress]"), std::string::npos);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_NE(err_.str().find("states=3211"), std::string::npos);
  }
}

TEST_F(CliTest, ScheduleReportsSearchEffort) {
  EXPECT_EQ(run_cli({"schedule", spec_path_}), 0);
  EXPECT_NE(out_.str().find("search effort: pruned deadline="),
            std::string::npos);
  EXPECT_NE(out_.str().find("peak visited"), std::string::npos);
}

TEST_F(CliTest, DeterministicRunPrintsBothPhases) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--threads", "2",
                     "--deterministic"}),
            0);
  EXPECT_NE(out_.str().find("ms parallel verdict"), std::string::npos);
  EXPECT_NE(out_.str().find("ms serial trace re-derivation"),
            std::string::npos);
  // The re-derived trace matches the serial engine's canonical answer.
  EXPECT_NE(out_.str().find("feasible schedule: 3130 firings"),
            std::string::npos);
}

TEST_F(CliTest, TelemetryDoesNotChangeScheduleOutput) {
  // Differential: the schedule table and firing count are byte-identical
  // with the whole observability surface enabled vs. disabled.
  ASSERT_EQ(run_cli({"schedule", spec_path_}), 0);
  const std::string plain = out_.str();
  const std::string report = (dir_ / "diff.json").string();
  const std::string trace = (dir_ / "diff_trace.json").string();
  ASSERT_EQ(run_cli({"schedule", spec_path_, "--report", report,
                     "--trace-out", trace, "--progress=1000"}),
            0);
  const std::string observed = out_.str();
  // Everything up to the summary line is the schedule table itself.
  const std::string marker = "feasible schedule:";
  const std::size_t plain_cut = plain.find(marker);
  const std::size_t observed_cut = observed.find(marker);
  ASSERT_NE(plain_cut, std::string::npos);
  ASSERT_NE(observed_cut, std::string::npos);
  EXPECT_EQ(plain.substr(0, plain_cut), observed.substr(0, observed_cut));
}

TEST_F(CliTest, SimulateWritesDispatchTrace) {
  const std::string trace = (dir_ / "sim_trace.json").string();
  EXPECT_EQ(run_cli({"simulate", spec_path_, "--trace-out", trace}), 0);
  const std::string json = read_file(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Dispatcher activity lands on the named virtual-time track.
  EXPECT_NE(json.find("ezrt dispatcher (virtual time)"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dispatch\""), std::string::npos);
}

// -- Robustness: exit codes, guards, resilience campaign ---------------------

TEST_F(CliTest, ScheduleStateBudgetExitCode) {
  const std::string report = (dir_ / "budget.json").string();
  // 50 states is far below the mine pump's ~3.3k-state feasible path.
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--max-states", "50",
                     "--report", report}),
            3);
  // The run report is still written with the partial search statistics.
  EXPECT_NE(read_file(report).find("\"ezrt-run-report\""),
            std::string::npos);
}

TEST_F(CliTest, ScheduleCancelledExitCode) {
  base::CancelToken cancel;
  cancel.request();
  const std::string report = (dir_ / "cancelled.json").string();
  out_.str("");
  err_.str("");
  EXPECT_EQ(run({"schedule", spec_path_, "--report", report}, out_, err_,
                &cancel),
            130);
  EXPECT_NE(read_file(report).find("\"ezrt-run-report\""),
            std::string::npos);
}

TEST_F(CliTest, ScheduleRejectsBadLimitFlags) {
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--wall-limit", "abc"}), 4);
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--mem-limit", "12q"}), 4);
  // Byte counts whose product wraps 2^64 (to 0, which would switch the
  // guard off, and to 1024 bytes).
  for (const char* bytes : {"17179869184g", "18014398509481985k"}) {
    EXPECT_EQ(run_cli({"schedule", spec_path_, "--mem-limit", bytes}), 4);
    EXPECT_NE(err_.str().find("--mem-limit"), std::string::npos) << bytes;
  }
  // Thread counts beyond the cap, including ones that narrow to 32 bits.
  for (const char* threads : {"257", "4294967295", "4294967298"}) {
    EXPECT_EQ(run_cli({"schedule", spec_path_, "--threads", threads}), 4);
    EXPECT_NE(err_.str().find("--threads"), std::string::npos) << threads;
  }
  EXPECT_EQ(run_cli({"info", spec_path_, "--sync-budget", "4294967296"}), 4);
  EXPECT_EQ(out_.str(), "");
}

TEST_F(CliTest, UndeclaredFlagsExit4AndNameTheFlag) {
  // A typo'd limit must not run unbudgeted: --max-states=10 trips its
  // budget (exit 3), the misspelling is refused before any search.
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--max-states=10"}), 3);
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--max-staets=10"}), 4);
  EXPECT_NE(err_.str().find("'--max-staets'"), std::string::npos);
  EXPECT_EQ(out_.str(), "");
  // Each surface accepts only its own spelling of a run option, and a
  // command accepts only the flags it declares.
  EXPECT_EQ(run_cli({"schedule", spec_path_, "--max_states", "10"}), 4);
  EXPECT_EQ(run_cli({"info", spec_path_, "--report", "x.json"}), 4);
  EXPECT_EQ(run_cli({"workload", "--threads", "2"}), 4);
  EXPECT_NE(err_.str().find("'--threads'"), std::string::npos);
  // Command-local counts are range-checked before they are narrowed.
  EXPECT_EQ(run_cli({"workload", "--tasks", "4294967296"}), 4);
  EXPECT_EQ(run_cli({"robust", spec_path_, "--trials", "4294967297"}), 4);
  EXPECT_EQ(run_cli({"serve", "--workers", "4294967296"}), 4);
}

TEST_F(CliTest, RobustRunsCampaignAndWritesReport) {
  const std::string report = (dir_ / "resilience.json").string();
  EXPECT_EQ(run_cli({"robust", spec_path_, "--trials", "1", "--intensities",
                     "0.5", "--policies", "abort,skip-instance", "--report",
                     report}),
            0);
  EXPECT_NE(out_.str().find("resilience campaign"), std::string::npos);
  EXPECT_NE(out_.str().find("skip-instance"), std::string::npos);
  EXPECT_NE(read_file(report).find("\"ezrt-resilience-report\""),
            std::string::npos);
}

TEST_F(CliTest, RobustReportIsDeterministic) {
  const std::string a = (dir_ / "res_a.json").string();
  const std::string b = (dir_ / "res_b.json").string();
  ASSERT_EQ(run_cli({"robust", spec_path_, "--trials", "2", "--seed", "5",
                     "--intensities", "0.5,1", "--report", a}),
            0);
  ASSERT_EQ(run_cli({"robust", spec_path_, "--trials", "2", "--seed", "5",
                     "--intensities", "0.5,1", "--report", b}),
            0);
  const std::string first = read_file(a);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, read_file(b));
}

TEST_F(CliTest, RobustRejectsBadArguments) {
  EXPECT_EQ(run_cli({"robust", spec_path_, "--policies", "vibes"}), 4);
  EXPECT_EQ(run_cli({"robust", spec_path_, "--faults", "bogus:1"}), 4);
  EXPECT_EQ(run_cli({"robust", spec_path_, "--intensities", "-1"}), 4);
  EXPECT_EQ(run_cli({"robust", spec_path_, "--trials", "0"}), 4);
}

TEST_F(CliTest, RobustCancelledExitCode) {
  base::CancelToken cancel;
  cancel.request();
  out_.str("");
  err_.str("");
  EXPECT_EQ(run({"robust", spec_path_}, out_, err_, &cancel), 130);
}

TEST_F(CliTest, ScheduleCompleteModeFlag) {
  // The crafted idle-insertion set: pruned search fails, --complete wins.
  spec::Specification s("crafted");
  s.add_processor("cpu");
  s.add_task("long", spec::TimingConstraints{0, 0, 5, 9, 10});
  s.add_task("short", spec::TimingConstraints{1, 0, 2, 2, 10});
  const std::string path = (dir_ / "crafted.ezspec").string();
  std::ofstream(path) << pnml::write_ezspec(s).value();
  EXPECT_EQ(run_cli({"schedule", path}), 2);
  EXPECT_EQ(run_cli({"schedule", path, "--complete"}), 0);
}

TEST_F(CliTest, UavDualProcessorEndToEnd) {
  // Hermetic copy of examples/specs/uav_dual_processor.ezspec — the
  // checked-in file is exactly this serialization (CI's multiproc job
  // schedules the committed file itself).
  const std::string path = (dir_ / "uav.ezspec").string();
  std::ofstream(path)
      << pnml::write_ezspec(workload::uav_autopilot_specification())
             .value();
  const std::string report = (dir_ / "uav.json").string();

  EXPECT_EQ(run_cli({"schedule", path, "--complete", "--report", report}),
            0);
  EXPECT_NE(out_.str().find("scheduleTable_p0[4]"), std::string::npos);
  EXPECT_NE(out_.str().find("scheduleTable_p1[7]"), std::string::npos);
  EXPECT_NE(out_.str().find("bus timeline"), std::string::npos);

  // v4 report: per-processor breakdown, bus contention, K high-water.
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"processor\":\"sensor-cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"processor\":\"control-cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"bus\":{\"transfers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sync\":{\"budget\":0,\"high_water\":2"),
            std::string::npos);

  // Replay through the dispatcher co-simulation (per-core metric rows).
  EXPECT_EQ(run_cli({"simulate", path, "--complete"}), 0);
  EXPECT_NE(out_.str().find("sensor-cpu"), std::string::npos);
  EXPECT_NE(out_.str().find("control-cpu"), std::string::npos);

  // K-budget flip: the schedule's high-water mark is 2, so K = 2 stays
  // feasible and K = 1 proves infeasible (exit code 2).
  EXPECT_EQ(
      run_cli({"schedule", path, "--complete", "--sync-budget", "2"}), 0);
  EXPECT_EQ(
      run_cli({"schedule", path, "--complete", "--sync-budget", "1"}), 2);
}

}  // namespace
}  // namespace ezrt::cli
