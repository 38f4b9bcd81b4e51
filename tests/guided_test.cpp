// Tests for the guided search engines and the state-class abstraction
// (docs/search.md).
//
// Layers:
//
//   * auto rule — state_classes_enabled() resolves kAuto exactly for
//     exhaustive first-feasible runs (pruning off, no state budget) and
//     never otherwise, so default-configured searches are untouched;
//   * exhaustive compression — the ~330k-state infeasible workload from
//     BM_Parallel_ExhaustiveInfeasible must reach its kInfeasible verdict
//     visiting at most 10% of the concrete state count once classes are
//     on, while the kOff run still counts every concrete state;
//   * engine parity — best-first exhausts the same class graph as DFS
//     (identical verdict and distinct-state count), and fixed-width beam
//     reports kLimitReached rather than a unsound kInfeasible, with
//     --widen restoring the exhaustive verdict;
//   * guidance quality — on the paper's mine-pump model best-first with
//     classes finds a feasible schedule visiting a fraction of the DFS
//     state count, and every guided trace survives replay, the validator
//     and the dispatcher simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "builder/tpn_builder.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

/// Concrete reachable-state count of exhaustive_infeasible_spec() under
/// strong semantics with pruning off (pinned by ParallelScale tests and
/// BM_Parallel_ExhaustiveInfeasible).
constexpr std::uint64_t kExhaustiveConcreteStates = 328'577;

/// The workload behind BM_Parallel_ExhaustiveInfeasible: infeasible by
/// exclusion contention, so any complete engine must exhaust the space.
[[nodiscard]] spec::Specification exhaustive_infeasible_spec() {
  workload::WorkloadConfig config;
  config.tasks = 10;
  config.utilization = 0.95;
  config.exclusion_pairs = 4;
  config.seed = 5;
  return workload::generate(config).value();
}

[[nodiscard]] sched::SchedulerOptions exhaustive_options() {
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 0;
  return options;
}

/// Full downstream pipeline check on a feasible trace: replay under the
/// timed semantics into M_F (P2), the independent schedule validator (P1)
/// and the dispatcher simulator (P3).
void expect_trace_valid(const spec::Specification& s,
                        const builder::BuiltModel& model,
                        const sched::DfsScheduler& scheduler,
                        const sched::Trace& trace) {
  auto final_state = scheduler.replay(trace);
  ASSERT_TRUE(final_state.ok()) << final_state.error();
  EXPECT_TRUE(tpn::is_final_marking(model.net, final_state.value().marking()));

  auto table = sched::extract_schedule(s, model, trace);
  ASSERT_TRUE(table.ok()) << table.error();
  const runtime::ValidationReport report =
      runtime::validate_schedule(s, table.value());
  EXPECT_TRUE(report.ok()) << report.summary();

  const runtime::DispatcherRun run =
      runtime::simulate_dispatcher(s, table.value());
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "deadline missed"
                                               : run.faults.front());
}

// -- kAuto resolution --------------------------------------------------------

TEST(StateClassMode, AutoEnablesOnlyForExhaustiveFirstFeasibleRuns) {
  sched::SchedulerOptions options;  // priority filter + 250k budget
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  EXPECT_TRUE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.max_states = 250'000;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.pruning = sched::PruningMode::kPriorityFilter;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.objective = sched::Objective::kMinimizeMakespan;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  // Explicit modes override the heuristic in both directions.
  options = sched::SchedulerOptions{};
  options.state_classes = sched::StateClassMode::kOn;
  EXPECT_TRUE(sched::state_classes_enabled(options));
  options = exhaustive_options();
  options.state_classes = sched::StateClassMode::kOff;
  EXPECT_FALSE(sched::state_classes_enabled(options));
}

// -- Exhaustive verdict compression ------------------------------------------

TEST(StateClasses, ExhaustiveInfeasibleVisitsUnderTenPercent) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  // kAuto resolves to classes-on for this configuration.
  const sched::DfsScheduler scheduler(model.value().net,
                                      exhaustive_options());
  const sched::SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  EXPECT_LE(out.stats.states_visited, kExhaustiveConcreteStates / 10)
      << "state classes must compress the exhaustive verdict by >= 10x";
  EXPECT_GT(out.stats.classes_merged, 0u);
  EXPECT_GT(out.stats.pruned_doomed, 0u);
}

TEST(StateClasses, ClassesOffStillCountsEveryConcreteState) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions options = exhaustive_options();
  options.state_classes = sched::StateClassMode::kOff;
  const sched::DfsScheduler scheduler(model.value().net, options);
  const sched::SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  EXPECT_EQ(out.stats.states_visited, kExhaustiveConcreteStates);
  EXPECT_EQ(out.stats.classes_merged, 0u);
}

// -- Engine parity on exhausted searches -------------------------------------

TEST(GuidedSearch, BestFirstExhaustsTheSameClassGraphAsDfs) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  const sched::DfsScheduler dfs(model.value().net, exhaustive_options());
  const sched::SearchOutcome reference = dfs.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kInfeasible);

  sched::SchedulerOptions options = exhaustive_options();
  options.search_engine = sched::SearchEngine::kBestFirst;
  const sched::DfsScheduler guided(model.value().net, options);
  const sched::SearchOutcome out = guided.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  // Both engines exhaust exactly the reachable class graph, so the
  // distinct-state count is an invariant, not a statistic.
  EXPECT_EQ(out.stats.states_visited, reference.stats.states_visited);
  EXPECT_GT(out.stats.heuristic_evals, 0u);
}

TEST(GuidedSearch, FixedBeamReportsLimitNotInfeasible) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions options = exhaustive_options();
  options.search_engine = sched::SearchEngine::kBeam;
  options.beam_width = 4;
  const sched::DfsScheduler beam(model.value().net, options);
  const sched::SearchOutcome out = beam.search();
  // A width-4 pass necessarily drops states on this workload; claiming
  // kInfeasible after dropping would be unsound.
  EXPECT_EQ(out.status, sched::SearchStatus::kLimitReached);
  EXPECT_GT(out.stats.beam_dropped, 0u);
}

TEST(GuidedSearch, WideningBeamRecoversTheExhaustiveVerdict) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions options = exhaustive_options();
  options.search_engine = sched::SearchEngine::kBeam;
  options.beam_width = 4;
  options.widen = true;
  const sched::DfsScheduler beam(model.value().net, options);
  const sched::SearchOutcome out = beam.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
}

/// The nonzero entries of a dense counter vector, as (index, count).
[[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>> nonzero(
    const std::vector<std::uint64_t>& counts) {
  std::vector<std::pair<std::size_t, std::uint64_t>> out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      out.emplace_back(i, counts[i]);
    }
  }
  return out;
}

// The corridor memo (docs/search.md §3.1) cuts a chased state only where
// chasing it again would end in a visited prune. So every admission,
// prune, merge and attribution count keeps the value it had without the
// memo; only the firings it skips fall below the 220,544 the chase
// fires without it, and with them best-first's evaluations (190,831).
TEST(StateClasses, CorridorMemoSavesOnlyFirings) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  struct Pin {
    sched::SearchEngine engine;
    std::uint64_t fired;
    std::uint64_t evals;
  };
  const std::vector<std::pair<std::size_t, std::uint64_t>> deadline_hits = {
      {12, 8'217}, {21, 1'855}, {38, 13}, {63, 1'394}, {72, 12}, {89, 18'223}};
  const std::vector<std::pair<std::size_t, std::uint64_t>> contention = {
      {0, 29'057}, {1, 604}, {2, 13'792}, {3, 8'497}, {4, 2'396}};
  const std::vector<std::uint64_t> doomed_hits = {
      1'973, 502, 56, 2'952, 2'261, 0, 1'399, 1'296, 0, 1'005};
  for (const Pin& pin : {Pin{sched::SearchEngine::kDfs, 200'084, 0},
                         Pin{sched::SearchEngine::kBestFirst, 200'084,
                             151'337}}) {
    SCOPED_TRACE(sched::to_string(pin.engine));
    sched::SchedulerOptions options = exhaustive_options();
    options.search_engine = pin.engine;
    options.collect_attribution = true;
    const sched::SearchOutcome out =
        sched::DfsScheduler(model.value().net, options).search();
    EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
    const sched::SearchStats& st = out.stats;
    EXPECT_EQ(st.states_visited, 16'692u);
    EXPECT_EQ(st.pruned_deadline, 29'714u);
    EXPECT_EQ(st.pruned_visited, 34'148u);
    EXPECT_EQ(st.pruned_doomed, 11'444u);
    EXPECT_EQ(st.classes_merged, 76u);
    EXPECT_EQ(nonzero(out.attribution.deadline_hits), deadline_hits);
    EXPECT_EQ(nonzero(out.attribution.contention), contention);
    EXPECT_EQ(out.attribution.doomed_hits, doomed_hits);
    EXPECT_EQ(out.attribution.doomed_unattributed, 0u);

    EXPECT_LT(st.transitions_fired, 220'544u);
    EXPECT_EQ(st.transitions_fired, pin.fired);
    EXPECT_EQ(st.heuristic_evals, pin.evals);
  }
}

// -- Guidance quality on feasible models -------------------------------------

TEST(GuidedSearch, BestFirstWithClassesBeatsDfsOnMinePump) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  const sched::SchedulerOptions dfs_options;
  const sched::DfsScheduler dfs(model.value().net, dfs_options);
  const sched::SearchOutcome reference = dfs.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kFeasible);

  sched::SchedulerOptions options;
  options.search_engine = sched::SearchEngine::kBestFirst;
  options.state_classes = sched::StateClassMode::kOn;
  const sched::DfsScheduler guided(model.value().net, options);
  const sched::SearchOutcome out = guided.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  EXPECT_LT(out.stats.states_visited, reference.stats.states_visited)
      << "guided search must beat DFS on the paper's case study";
  expect_trace_valid(s, model.value(), dfs, out.trace);
}

TEST(GuidedSearch, BeamFindsAValidMinePumpSchedule) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions options;
  options.search_engine = sched::SearchEngine::kBeam;
  options.beam_width = 8;
  options.state_classes = sched::StateClassMode::kOn;
  const sched::DfsScheduler beam(model.value().net, options);
  const sched::SearchOutcome out = beam.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);

  const sched::DfsScheduler oracle(model.value().net,
                                   sched::SchedulerOptions{});
  expect_trace_valid(s, model.value(), oracle, out.trace);
}

TEST(GuidedSearch, BestFirstSchedulesGeneratedWorkloads) {
  for (std::uint64_t seed : {7u, 11u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    workload::WorkloadConfig config;
    config.tasks = 8;
    config.utilization = 0.5;
    config.seed = seed;
    auto s = workload::generate(config);
    ASSERT_TRUE(s.ok());
    auto model = builder::build_tpn(s.value());
    ASSERT_TRUE(model.ok());

    sched::SchedulerOptions options;
    options.search_engine = sched::SearchEngine::kBestFirst;
    const sched::DfsScheduler guided(model.value().net, options);
    const sched::SearchOutcome out = guided.search();
    ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);

    const sched::DfsScheduler oracle(model.value().net,
                                     sched::SchedulerOptions{});
    expect_trace_valid(s.value(), model.value(), oracle, out.trace);
  }
}

// Beam widening replaces the visited table every pass, and the corridor
// memo must go with it: a memo that outlived its table would cut
// corridors whose claims the new pass never made. At width 1 every pass
// but the last drops states, so the generated sets run several passes.
// Each verdict must equal DFS's, and each schedule replay and validate.
TEST(GuidedSearch, WideningBeamWithClassesFindsFeasibleSchedules) {
  std::vector<spec::Specification> specs = {
      workload::mine_pump_specification()};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::WorkloadConfig config;
    config.tasks = 4 + seed % 3;
    config.utilization = 0.5 + 0.05 * static_cast<double>(seed % 4);
    config.exclusion_pairs = seed % 2;
    config.seed = seed;
    specs.push_back(workload::generate(config).value());
  }
  std::size_t feasible = 0;
  std::uint64_t passes_dropped = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const spec::Specification& s = specs[i];
    SCOPED_TRACE("set " + std::to_string(i) + " (" + s.name() + ")");
    auto model = builder::build_tpn(s);
    ASSERT_TRUE(model.ok());
    sched::SchedulerOptions options = exhaustive_options();
    const sched::DfsScheduler dfs(model.value().net, options);
    const sched::SearchOutcome reference = dfs.search();

    options.search_engine = sched::SearchEngine::kBeam;
    options.beam_width = 1;
    options.widen = true;
    const sched::SearchOutcome out =
        sched::DfsScheduler(model.value().net, options).search();
    ASSERT_EQ(out.status, reference.status);
    passes_dropped += out.stats.beam_dropped > 0 ? 1 : 0;
    if (out.status == sched::SearchStatus::kFeasible) {
      ++feasible;
      expect_trace_valid(s, model.value(), dfs, out.trace);
    }
  }
  EXPECT_GE(feasible, 20u);
  EXPECT_GE(passes_dropped, 20u);
}

}  // namespace
}  // namespace ezrt
