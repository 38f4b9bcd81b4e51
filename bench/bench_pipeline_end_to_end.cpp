// Experiment: Figs 5-7 — the model-driven pipeline end to end.
//
// Times every stage of the Fig 6 tool flow in isolation and composed:
// ez-spec parse -> metamodel validation -> ezRealtime2PNML translation ->
// PNML serialization -> schedule synthesis -> table extraction -> C code
// generation, on the mine-pump study. The BM_Stage_<stage>/<model> rows
// time each stage alone on each examples/specs model, so a change to one
// layer shows in its own row.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/project.hpp"
#include "obs/explain.hpp"
#include "pnml/ezspec_io.hpp"
#include "pnml/pnml_io.hpp"
#include "runtime/validator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace ezrt;

[[nodiscard]] std::string mine_pump_document() {
  return pnml::write_ezspec(workload::mine_pump_specification()).value();
}

void BM_Pipeline_ParseDsl(benchmark::State& state) {
  const std::string doc = mine_pump_document();
  for (auto _ : state) {
    auto s = pnml::read_ezspec(doc);
    benchmark::DoNotOptimize(s);
  }
  state.counters["doc_bytes"] = static_cast<double>(doc.size());
}
BENCHMARK(BM_Pipeline_ParseDsl)->Unit(benchmark::kMicrosecond);

void BM_Pipeline_WritePnml(benchmark::State& state) {
  auto model =
      builder::build_tpn(workload::mine_pump_specification()).value();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = pnml::write_pnml(model.net);
    bytes = doc.size();
    benchmark::DoNotOptimize(doc);
  }
  state.counters["doc_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Pipeline_WritePnml)->Unit(benchmark::kMicrosecond);

void BM_Pipeline_ReadPnml(benchmark::State& state) {
  auto model =
      builder::build_tpn(workload::mine_pump_specification()).value();
  const std::string doc = pnml::write_pnml(model.net);
  for (auto _ : state) {
    auto net = pnml::read_pnml(doc);
    benchmark::DoNotOptimize(net);
  }
}
BENCHMARK(BM_Pipeline_ReadPnml)->Unit(benchmark::kMicrosecond);

/// The whole Fig 6 flow: document in, scheduled C program out.
void BM_Pipeline_DocumentToCode(benchmark::State& state) {
  const std::string doc = mine_pump_document();
  std::size_t code_bytes = 0;
  for (auto _ : state) {
    auto project = core::Project::from_ezspec(doc);
    auto code = project.value().generate_code();
    code_bytes = 0;
    for (const codegen::GeneratedFile& file : code.value().files) {
      code_bytes += file.content.size();
    }
    benchmark::DoNotOptimize(code);
  }
  state.counters["generated_bytes"] = static_cast<double>(code_bytes);
}
BENCHMARK(BM_Pipeline_DocumentToCode)->Unit(benchmark::kMillisecond);

/// Verdict provenance end to end (docs/explain.md): the sync-starved UAV
/// spec through search + attribution + culprit minimization + the K
/// lower-bound search + WCET slack — the full `ezrt explain` diagnosis
/// an infeasible multi-processor design pays for.
void BM_Explain_UAVCulprit(benchmark::State& state) {
  std::size_t culprit_tasks = 0;
  std::uint32_t k_bound = 0;
  for (auto _ : state) {
    spec::Specification s = workload::uav_autopilot_specification();
    s.set_sync_budget(1);
    core::Project project(std::move(s));
    project.scheduler_options().pruning = sched::PruningMode::kNone;
    project.scheduler_options().collect_attribution = true;
    project.scheduler_options().deterministic = true;
    (void)project.schedule();
    obs::ExplainOptions options;
    options.scheduler = project.scheduler_options();
    obs::Explanation e =
        obs::build_explanation(project.specification(), &project.model().net,
                               &project.outcome(), nullptr, options);
    culprit_tasks = e.culprits ? e.culprits->tasks.size() : 0;
    k_bound = e.culprits ? e.culprits->sync_budget_lower_bound : 0;
    benchmark::DoNotOptimize(e);
  }
  state.counters["culprit_tasks"] = static_cast<double>(culprit_tasks);
  state.counters["k_lower_bound"] = static_cast<double>(k_bound);
}
BENCHMARK(BM_Explain_UAVCulprit)->Unit(benchmark::kMillisecond);

// -- Per-stage rows on the examples/specs models -----------------------------

/// Every stage's input and output for one example model, produced once
/// outside the timed loops.
struct StageFixture {
  std::string document;
  spec::Specification spec;
  builder::BuiltModel model;
  sched::SchedulerOptions options;
  sched::SearchOutcome outcome;
  sched::ScheduleTable table;
};

[[nodiscard]] StageFixture stage_fixture(const std::string& model) {
  StageFixture f;
  std::ifstream in(std::string(EZRT_EXAMPLE_SPECS_DIR) + "/" + model +
                   ".ezspec");
  std::stringstream text;
  text << in.rdbuf();
  f.document = text.str();
  f.spec = pnml::read_ezspec(f.document).value();
  f.model = builder::build_tpn(f.spec).value();
  // The UAV rows time the complete search mode, as recorded in the
  // ledger; the default search schedules the set too
  // (docs/multiprocessor.md §7).
  if (model == "uav_dual_processor") {
    f.options.pruning = sched::PruningMode::kNone;
  }
  f.outcome = sched::DfsScheduler(f.model.net, f.options).search();
  f.table = sched::extract_schedule(f.spec, f.model, f.outcome.trace).value();
  return f;
}

void register_stage_rows() {
  for (const std::string model :
       {"harmonic_u40", "mine_pump", "uav_dual_processor"}) {
    const auto f = std::make_shared<const StageFixture>(stage_fixture(model));
    const auto add = [&](const std::string& stage, auto body) {
      benchmark::RegisterBenchmark(
          ("BM_Stage_" + stage + "/" + model).c_str(),
          [f, body](benchmark::State& state) {
            for (auto _ : state) {
              body(*f);
            }
          })
          ->Unit(benchmark::kMicrosecond);
    };
    add("Read", [](const StageFixture& x) {
      auto out = pnml::read_ezspec(x.document);
      benchmark::DoNotOptimize(out);
    });
    add("Build", [](const StageFixture& x) {
      auto out = builder::build_tpn(x.spec);
      benchmark::DoNotOptimize(out);
    });
    add("Search", [](const StageFixture& x) {
      auto out = sched::DfsScheduler(x.model.net, x.options).search();
      benchmark::DoNotOptimize(out);
    });
    add("Table", [](const StageFixture& x) {
      auto out = sched::extract_schedule(x.spec, x.model, x.outcome.trace);
      benchmark::DoNotOptimize(out);
    });
    add("Validate", [](const StageFixture& x) {
      auto out = runtime::validate_schedule(x.spec, x.table);
      benchmark::DoNotOptimize(out);
    });
    add("Codegen", [](const StageFixture& x) {
      auto out = codegen::generate(x.spec, x.table);
      benchmark::DoNotOptimize(out);
    });
  }
}

void print_report() {
  const std::string doc = mine_pump_document();
  auto project = core::Project::from_ezspec(doc);
  auto code = project.value().generate_code();
  auto pnml_doc = project.value().export_pnml();
  std::printf(
      "== Figs 5-7: model-driven pipeline on the mine pump "
      "==========================\n"
      "  ez-spec document:   %zu bytes (Fig 7 dialect)\n"
      "  PNML export:        %zu bytes (ISO 15909-2 + toolspecific)\n"
      "  generated C:        %zu files\n",
      doc.size(), pnml_doc.value().size(), code.value().files.size());
  for (const codegen::GeneratedFile& file : code.value().files) {
    std::printf("    %-14s %zu bytes\n", file.name.c_str(),
                file.content.size());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_report();
  register_stage_rows();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
