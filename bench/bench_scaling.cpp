// Experiment (extension): scaling of the pre-runtime search.
//
// The paper notes the DFS "may experience the state explosion problem".
// This harness measures how visited states and wall time grow with task
// count and with utilization, under the paper's pruning configuration —
// the practical envelope of the approach.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "base/hash.hpp"
#include "builder/tpn_builder.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sched/dfs.hpp"
#include "sched/visited_set.hpp"
#include "workload/generator.hpp"

namespace {

using namespace ezrt;

[[nodiscard]] spec::Specification scaling_set(std::uint32_t tasks,
                                              double utilization,
                                              std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.tasks = tasks;
  config.utilization = utilization;
  config.seed = seed;
  config.period_pool = {50, 100, 200};
  return workload::generate(config).value();
}

void BM_Scaling_TaskCount(benchmark::State& state) {
  const auto tasks = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s = scaling_set(tasks, 0.5, 7);
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
  state.counters["instances"] = static_cast<double>(model.total_instances);
}
BENCHMARK(BM_Scaling_TaskCount)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_Scaling_Utilization(benchmark::State& state) {
  const double u = static_cast<double>(state.range(0)) / 100.0;
  const spec::Specification s = scaling_set(10, u, 11);
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
}
BENCHMARK(BM_Scaling_Utilization)
    ->Arg(30)
    ->Arg(50)
    ->Arg(70)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

// -- Thread scaling of the parallel engine (docs/semantics.md §8) ------------

/// Infeasible under complete pruning after ~330k states: the search must
/// exhaust the whole pruned state space, which is the workload shape that
/// parallelizes fully (no first-past-the-post early exit).
[[nodiscard]] spec::Specification exhaustive_infeasible_set() {
  workload::WorkloadConfig config;
  config.tasks = 10;
  config.utilization = 0.95;
  config.exclusion_pairs = 4;
  config.seed = 5;
  return workload::generate(config).value();
}

void BM_Parallel_ExhaustiveInfeasible(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s = exhaustive_infeasible_set();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 0;  // ~330k states: must outlast the 250k default
  options.threads = threads;  // 0 = serial engine
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
}
BENCHMARK(BM_Parallel_ExhaustiveInfeasible)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The BM_Scaling_TaskCount/32 workload under the parallel engine: a
/// feasible instance, so the first worker to reach M_F wins and the
/// speedup is bounded by how much of the explored frontier lies off the
/// winning path.
void BM_Parallel_TaskCount32(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s = scaling_set(32, 0.5, 7);
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  options.threads = threads;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
}
BENCHMARK(BM_Parallel_TaskCount32)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// -- Guided engines (docs/search.md) -----------------------------------------

/// Best-first with state classes on the paper's §5 mine-pump case study:
/// the headline guidance bench. DFS visits ~3.2k states on this model;
/// the heuristic plus class merging should land well under 1k.
void BM_Guided_BestFirst(benchmark::State& state) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.search_engine = sched::SearchEngine::kBestFirst;
  options.state_classes = sched::StateClassMode::kOn;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  std::uint64_t evals = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    evals = out.stats.heuristic_evals;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
  state.counters["heuristic_evals"] = static_cast<double>(evals);
}
BENCHMARK(BM_Guided_BestFirst)->Unit(benchmark::kMillisecond);

/// Width-K beam (no widening) on the mine-pump model: the bounded-memory
/// configuration. Counts what the truncation threw away.
void BM_Guided_Beam(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.search_engine = sched::SearchEngine::kBeam;
  options.beam_width = width;
  options.state_classes = sched::StateClassMode::kOn;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  std::uint64_t dropped = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    dropped = out.stats.beam_dropped;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
  state.counters["beam_dropped"] = static_cast<double>(dropped);
}
BENCHMARK(BM_Guided_Beam)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

/// Best-first exhausting the BM_Parallel_ExhaustiveInfeasible class graph:
/// the priority queue must reach the same kInfeasible verdict over the
/// same distinct-state count as DFS, so this row isolates the queue's
/// overhead against BM_Parallel_ExhaustiveInfeasible/0.
void BM_Guided_BestFirst_Exhaustive(benchmark::State& state) {
  const spec::Specification s = exhaustive_infeasible_set();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 0;
  options.search_engine = sched::SearchEngine::kBestFirst;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
}
BENCHMARK(BM_Guided_BestFirst_Exhaustive)->Unit(benchmark::kMillisecond);

// -- Multi-processor scenarios (docs/multiprocessor.md) ----------------------

/// Partitioned placement at 2/4 processors: cores are isolated (no
/// messages), so the search cost should stay near the per-core sum — the
/// baseline against which BM_MultiProc_Global's bus coupling is read.
void BM_MultiProc_Partitioned(benchmark::State& state) {
  const auto processors = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s =
      workload::generate(workload::multiproc_scenario(
                             workload::Placement::kPartitioned, true,
                             processors, 4))
          .value();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
  state.counters["processors"] = static_cast<double>(processors);
}
BENCHMARK(BM_MultiProc_Partitioned)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Global placement at 2/4 processors: cross-core messages contend for
/// the bus and the K = 2 sync pool, so the cores' interleavings couple —
/// the state-space price of shared resources.
void BM_MultiProc_Global(benchmark::State& state) {
  const auto processors = static_cast<std::uint32_t>(state.range(0));
  const spec::Specification s =
      workload::generate(workload::multiproc_scenario(
                             workload::Placement::kGlobal, true, processors,
                             4))
          .value();
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
  state.counters["processors"] = static_cast<double>(processors);
}
BENCHMARK(BM_MultiProc_Global)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// -- Visited-set insert throughput (docs/concurrency.md) ---------------------

/// Distinct-digest insert throughput of the lock-free CasVisitedSet at
/// 1/2/4 inserting threads over a shared 16-shard set. Each iteration
/// builds a fresh set and streams 100k precomputed digests through it
/// (disjoint strides per thread), so the timed region is the admission
/// path: shard selection, probe, claim, growth. items_per_second is the
/// comparable figure.
constexpr std::uint64_t kVisitedBenchDigests = 100'000;

[[nodiscard]] const std::vector<tpn::StateDigest>& visited_bench_keys() {
  static const std::vector<tpn::StateDigest> keys = [] {
    std::vector<tpn::StateDigest> k;
    k.reserve(kVisitedBenchDigests);
    for (std::uint64_t i = 0; i < kVisitedBenchDigests; ++i) {
      k.push_back({hash_cell(i, 11, kHashSeed), hash_cell(i, 13, kHashSeed)});
    }
    return k;
  }();
  return keys;
}

void BM_VisitedSet_CAS(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const std::vector<tpn::StateDigest>& keys = visited_bench_keys();
  for (auto _ : state) {
    sched::CasVisitedSet set(16, threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (std::uint64_t i = w; i < kVisitedBenchDigests; i += threads) {
          benchmark::DoNotOptimize(set.insert(keys[i], w));
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (set.size() != kVisitedBenchDigests) {
      state.SkipWithError("lost inserts");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kVisitedBenchDigests));
}
BENCHMARK(BM_VisitedSet_CAS)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// -- Telemetry overhead (docs/observability.md) ------------------------------

/// The BM_Scaling_TaskCount/32 workload with the full observability
/// surface enabled: telemetry collection, a live progress sink and a span
/// tracer. Comparing against BM_Scaling_TaskCount/32 measures the tax of
/// the masked publishes and relaxed-atomic stores on the search hot loop —
/// the acceptance bound is < 3% (BENCH_search.json tracks both rows).
void BM_Scaling_TaskCount32_Telemetry(benchmark::State& state) {
  const spec::Specification s = scaling_set(32, 0.5, 7);
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.max_states = 2'000'000;
  options.collect_telemetry = true;
  obs::ProgressSink sink;
  obs::Tracer tracer;
  options.progress = &sink;
  options.tracer = &tracer;
  sched::DfsScheduler scheduler(model.net, options);
  std::uint64_t states = 0;
  const char* verdict = "?";
  for (auto _ : state) {
    const auto out = scheduler.search();
    states = out.stats.states_visited;
    verdict = sched::to_string(out.status);
  }
  state.SetLabel(verdict);
  state.counters["states_visited"] = static_cast<double>(states);
}
BENCHMARK(BM_Scaling_TaskCount32_Telemetry)->Unit(benchmark::kMillisecond);

void print_report() {
  std::printf(
      "== Scaling: visited states vs task count (U = 0.5) "
      "===========================\n"
      "  %-8s %12s %12s %12s %12s\n",
      "tasks", "instances", "states", "time (ms)", "verdict");
  for (std::uint32_t tasks : {4u, 8u, 16u, 32u, 64u}) {
    const spec::Specification s = scaling_set(tasks, 0.5, 7);
    auto model = builder::build_tpn(s).value();
    sched::SchedulerOptions options;
    options.max_states = 2'000'000;
    const auto out = sched::DfsScheduler(model.net, options).search();
    std::printf("  %-8u %12llu %12llu %12.2f %12s\n", tasks,
                static_cast<unsigned long long>(model.total_instances),
                static_cast<unsigned long long>(out.stats.states_visited),
                out.stats.elapsed_ms, sched::to_string(out.status));
  }
  std::printf(
      "  expected shape: states grow ~linearly with total instances while\n"
      "  the pruned search stays on the feasible path; wall time follows.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
