// A dual-processor UAV autopilot — exercising the metamodel's
// multi-processor extension (ProcessorC is 1..* in Fig 5, although the
// paper's evaluation is mono-processor): a sensor/fusion CPU feeds a
// control CPU over a CAN bus; the control CPU mixes a preemptive
// trajectory task with urgent actuator commands under an exclusion
// relation (shared SPI to the ESCs).
//
//   $ ./uav_dual_processor
//
// Also demonstrates the design-time analyses: WCET sensitivity (how much
// budget headroom the synthesized schedule leaves) and DOT export of the
// composed net for Graphviz rendering.
#include <iostream>

#include "core/project.hpp"
#include "workload/generator.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sensitivity.hpp"
#include "tpn/dot.hpp"

int main() {
  using namespace ezrt;

  // The system definition lives in the workload library
  // (workload::uav_autopilot_specification) so the checked-in spec under
  // examples/specs/, the CLI tests and this example all share one source.
  spec::Specification system = workload::uav_autopilot_specification();

  // The complete search mode (no FT_P priority filter), the mode the
  // multi-processor tests and CI job run this set in. The default search
  // schedules it too (docs/multiprocessor.md §7).
  sched::SchedulerOptions complete_search;
  complete_search.pruning = sched::PruningMode::kNone;
  core::Project project(system, builder::BuildOptions{}, complete_search);
  if (auto status = project.schedule(); !status.ok()) {
    std::cerr << "scheduling failed: " << status.error() << "\n";
    return 1;
  }
  std::cout << "UAV autopilot scheduled: "
            << project.outcome().trace.size() << " firings, "
            << project.outcome().stats.states_visited
            << " states visited\n\n";

  auto table = project.table();
  const auto metrics =
      runtime::compute_metrics(project.specification(), table.value());
  std::cout << runtime::format_metrics(project.specification(), metrics)
            << "\n"
            << runtime::render_gantt(project.specification(), table.value())
            << "\n";
  std::cout << "validation: " << project.validate().value().summary()
            << "\n\n";

  // How much WCET headroom does the schedule leave?
  runtime::SensitivityOptions sensitivity_options;
  sensitivity_options.scheduler = complete_search;
  const runtime::SensitivityReport sensitivity =
      runtime::analyze_sensitivity(project.specification(),
                                   sensitivity_options);
  std::cout << "WCET sensitivity: all budgets can scale to x"
            << sensitivity.max_scaling_permille / 1000.0
            << " before infeasibility; per-task headroom:\n";
  for (const runtime::TaskHeadroom& h : sensitivity.headroom) {
    std::cout << "  " << project.specification().task(h.task).name << ": +"
              << h.extra_wcet << " units\n";
  }

  // Graphviz rendering of the composed model.
  const std::string dot = tpn::write_dot(project.model().net);
  std::cout << "\nDOT export: " << dot.size()
            << " bytes (pipe into `dot -Tsvg` to render)\n";
  return 0;
}
