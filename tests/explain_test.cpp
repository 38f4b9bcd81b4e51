// Verdict provenance (docs/explain.md): the `ezrt explain` golden
// renderings on the two example-class models, the cross-engine and
// cross-thread attribution determinism contract, the analytic
// short-circuit, and byte-determinism of the schema-v5 report.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "core/project.hpp"
#include "obs/explain.hpp"
#include "pnml/ezspec_io.hpp"
#include "workload/generator.hpp"

namespace ezrt::cli {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The "explanation" object plus everything after it (the deterministic
/// tail: the always-empty `counters` object). The preceding "options" section
/// faithfully echoes the requested engine/threads, so whole-file equality
/// across configurations is not expected — explanation equality is.
[[nodiscard]] std::string explanation_section(const std::string& report) {
  const std::size_t at = report.find("\"explanation\":");
  EXPECT_NE(at, std::string::npos);
  return report.substr(at);
}

class ExplainTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ezrt_explain_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    mine_pump_path_ = (dir_ / "mine_pump.ezspec").string();
    std::ofstream(mine_pump_path_)
        << pnml::write_ezspec(workload::mine_pump_specification()).value();
    uav_path_ = (dir_ / "uav.ezspec").string();
    std::ofstream(uav_path_)
        << pnml::write_ezspec(workload::uav_autopilot_specification())
               .value();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  int run_cli(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  fs::path dir_;
  std::string mine_pump_path_;
  std::string uav_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

// Feasible verdicts get provenance too: binding constraints name the
// tightest task and the busiest processor, and every task gets a WCET
// headroom figure.
TEST_F(ExplainTest, MinePumpFeasibleBindingConstraints) {
  EXPECT_EQ(run_cli({"explain", mine_pump_path_}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("verdict: feasible"), std::string::npos) << text;
  EXPECT_NE(text.find("binding constraints:"), std::string::npos);
  EXPECT_NE(text.find("tightest slack: task PMC"), std::string::npos);
  EXPECT_NE(text.find("busiest processor: cpu"), std::string::npos);
  EXPECT_NE(text.find("task PMC: +"), std::string::npos);
  EXPECT_NE(text.find("uniform WCET scaling: x"), std::string::npos);
}

// The headline acceptance case: the UAV model under a shrunken sync pool
// is infeasible, and explain names the budget as the culprit with the
// exact lower bound that restores feasibility.
TEST_F(ExplainTest, UavSyncBudgetCulpritWithLowerBound) {
  EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                     "--complete"}),
            2);
  const std::string text = out_.str();
  EXPECT_NE(text.find("verdict: infeasible"), std::string::npos) << text;
  EXPECT_NE(text.find("culprits (1-minimal infeasible task subset"),
            std::string::npos);
  EXPECT_NE(text.find("sync budget: K=1 < minimum feasible budget 2"),
            std::string::npos);
  // The K-pool place tops the contention table for this model.
  EXPECT_NE(text.find("sync-pool psync_pool: contended at"),
            std::string::npos);
  EXPECT_NE(text.find("deadline-watchdog hits"), std::string::npos);
}

// Blame attribution is part of the determinism contract (docs/explain.md
// §4): for exhausted searches with state classes off, the counters are
// identical across engines and thread counts.
TEST_F(ExplainTest, AttributionIdenticalAcrossEnginesAndThreads) {
  const std::string report = (dir_ / "r.json").string();
  std::string reference;
  for (const char* engine : {"dfs", "bestfirst"}) {
    EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                       "--complete", "--engine", engine, "--report",
                       report}),
              2);
    const std::string section = explanation_section(slurp(report));
    if (reference.empty()) {
      reference = section;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(section, reference) << "engine " << engine;
    }
  }
  for (const char* threads : {"1", "2", "4"}) {
    EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                       "--complete", "--threads", threads, "--report",
                       report}),
              2);
    EXPECT_EQ(explanation_section(slurp(report)), reference)
        << "threads " << threads;
  }
}

// Re-running the identical invocation produces byte-identical report
// files — the deterministic emission mode zeroes every wall-clock field.
TEST_F(ExplainTest, ReportIsByteDeterministicAcrossReruns) {
  const std::string r1 = (dir_ / "r1.json").string();
  const std::string r2 = (dir_ / "r2.json").string();
  EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                     "--complete", "--report", r1}),
            2);
  EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                     "--complete", "--report", r2}),
            2);
  const std::string a = slurp(r1);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(r2));
  EXPECT_NE(a.find("\"version\":5"), std::string::npos);
  EXPECT_NE(a.find("\"sync_budget_culprit\":true"), std::string::npos);
}

// A spec whose utilization exceeds capacity is refuted by layer 1 alone:
// no search runs, and the report still carries the certificates.
TEST_F(ExplainTest, AnalyticCertificateShortCircuitsTheSearch) {
  spec::Specification overload;
  overload.set_name("overload");
  spec::Processor cpu;
  cpu.name = "cpu";
  overload.add_processor(cpu);
  spec::Task a;
  a.name = "a";
  a.timing = {0, 0, 30, 40, 40};
  spec::Task b;
  b.name = "b";
  b.timing = {0, 0, 30, 40, 40};
  overload.add_task(a);
  overload.add_task(b);
  const std::string path = (dir_ / "overload.ezspec").string();
  std::ofstream(path) << pnml::write_ezspec(overload).value();

  EXPECT_EQ(run_cli({"explain", path}), 2);
  const std::string text = out_.str();
  EXPECT_NE(text.find("(analytic, no search needed)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[violated] utilization bound"), std::string::npos);
}

// Unit-level: the analytic certificates flag the overload directly.
TEST(ExplainCertificates, UtilizationViolationProvesInfeasible) {
  spec::Specification overload;
  overload.set_name("overload");
  spec::Processor cpu;
  cpu.name = "cpu";
  overload.add_processor(cpu);
  spec::Task a;
  a.name = "a";
  a.timing = {0, 0, 30, 40, 40};
  spec::Task b;
  b.name = "b";
  b.timing = {0, 0, 30, 40, 40};
  overload.add_task(a);
  overload.add_task(b);
  const auto certs = obs::analytic_certificates(overload);
  EXPECT_TRUE(obs::certificates_prove_infeasible(certs));
}

// --no-minimize skips the layer-3 re-runs but keeps certificates and
// attribution.
TEST_F(ExplainTest, NoMinimizeSkipsCulpritsAndSlack) {
  EXPECT_EQ(run_cli({"explain", uav_path_, "--sync-budget", "1",
                     "--complete", "--no-minimize"}),
            2);
  const std::string text = out_.str();
  EXPECT_EQ(text.find("culprits"), std::string::npos) << text;
  EXPECT_EQ(text.find("reduce "), std::string::npos);
  EXPECT_NE(text.find("blame (search attribution):"), std::string::npos);
}

// Guard interplay (docs/serve.md / docs/explain.md §4): --wall-limit is
// converted to one absolute deadline spanning the primary search AND every
// layer-3 re-run probe. When that deadline expires inside culprit
// minimization, each remaining probe trips kTimeLimit, the probe result is
// treated as inconclusive (never misread as infeasible), and the
// explanation degrades honestly: `minimized` is false, the sync budget is
// not blamed, and the report stays schema-valid.
TEST_F(ExplainTest, DeadlineExpiringInsideProbesDegradesHonestly) {
  spec::Specification spec = workload::uav_autopilot_specification();
  spec.set_sync_budget(1);
  sched::SchedulerOptions scheduler;
  scheduler.pruning = sched::PruningMode::kNone;
  scheduler.collect_attribution = true;
  core::Project project(spec, {}, scheduler);
  // The primary search runs to completion — no deadline yet.
  (void)project.schedule();
  ASSERT_TRUE(project.scheduled());
  ASSERT_EQ(project.outcome().status, sched::SearchStatus::kInfeasible);

  // Every minimization probe inherits an already-expired deadline, so its
  // engine returns kTimeLimit at the first masked guard check.
  obs::ExplainOptions options;
  options.scheduler = scheduler;
  options.scheduler.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const obs::Explanation e =
      obs::build_explanation(spec, &project.model().net, &project.outcome(),
                             nullptr, options);

  EXPECT_EQ(e.status, sched::SearchStatus::kInfeasible);
  ASSERT_TRUE(e.culprits.has_value());
  EXPECT_FALSE(e.culprits->minimized);
  EXPECT_FALSE(e.culprits->sync_budget_culprit);
  const std::string text = obs::render_explanation(e);
  EXPECT_NE(text.find("verdict: infeasible"), std::string::npos) << text;
  EXPECT_NE(text.find("minimization inconclusive"), std::string::npos)
      << text;
}

// CLI-level: a tiny --wall-limit must terminate `ezrt explain` with a
// documented code (2 when the primary verdict landed before the deadline,
// 3 when a guard tripped first) and the report file must stay a valid v5
// document either way — never a hang, never a truncated report.
TEST_F(ExplainTest, WallLimitBoundsExplainEndToEnd) {
  const std::string report = (dir_ / "limited.json").string();
  const int code = run_cli({"explain", uav_path_, "--sync-budget", "1",
                            "--complete", "--wall-limit", "1", "--report",
                            report});
  EXPECT_TRUE(code == 2 || code == 3) << code;
  const std::string body = slurp(report);
  EXPECT_NE(body.find("\"version\":5"), std::string::npos);
  EXPECT_NE(body.find("\"explanation\":"), std::string::npos);
  EXPECT_NE(out_.str().find("verdict:"), std::string::npos) << out_.str();
}

}  // namespace
}  // namespace ezrt::cli
