// The ezRealtime facade (paper Fig 6).
//
// Project ties the pipeline together behind one object:
//
//   Project project(spec);                  // or Project::from_ezspec(xml)
//   project.build();                        // spec -> TPN (building blocks)
//   project.schedule();                     // DFS over the TLTS
//   project.table();                        // Fig 8 schedule table
//   project.validate();                     // independent timing oracle
//   project.generate_code({...});           // scheduled C sources
//   project.export_pnml();                  // ISO 15909-2 interchange
//
// Each stage caches its artifact; later stages trigger the earlier ones on
// demand, so `Project(spec).generate_code()` is the one-call quickstart.
#pragma once

#include <optional>
#include <string>

#include "base/result.hpp"
#include "builder/tpn_builder.hpp"
#include "codegen/c_generator.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "spec/specification.hpp"

namespace ezrt::obs {
class Tracer;
}  // namespace ezrt::obs

namespace ezrt::core {

class Project {
 public:
  explicit Project(spec::Specification specification,
                   builder::BuildOptions build_options = {},
                   sched::SchedulerOptions scheduler_options = {});

  /// Loads a specification from an ez-spec XML document (Fig 7 dialect).
  [[nodiscard]] static Result<Project> from_ezspec(
      std::string_view document);

  [[nodiscard]] const spec::Specification& specification() const {
    return spec_;
  }

  /// Translates the specification into its TPN (idempotent).
  [[nodiscard]] Status build();

  /// Whether build() has produced a model.
  [[nodiscard]] bool built() const { return model_.has_value(); }
  [[nodiscard]] const builder::BuiltModel& model() const;

  /// Runs the pre-runtime scheduler; kInfeasible when the DFS exhausts the
  /// (pruned) state space without reaching M_F.
  [[nodiscard]] Status schedule();
  [[nodiscard]] bool scheduled() const { return outcome_.has_value(); }
  [[nodiscard]] const sched::SearchOutcome& outcome() const;

  /// The extracted schedule table (schedules on demand).
  [[nodiscard]] Result<sched::ScheduleTable> table();

  /// Independent validation of the extracted table.
  [[nodiscard]] Result<runtime::ValidationReport> validate();

  /// Scheduled C code for the configured target.
  [[nodiscard]] Result<codegen::GeneratedCode> generate_code(
      const codegen::CodegenOptions& options = {});

  /// PNML document of the built net.
  [[nodiscard]] Result<std::string> export_pnml();

  /// ez-spec document of the specification.
  [[nodiscard]] Result<std::string> export_ezspec() const;

  /// Mirrors every pipeline stage this facade runs (TPN build, search,
  /// table extraction, validation, codegen, PNML export) as a wall-clock
  /// span on `tracer`, and hands the tracer to the search engines for
  /// their internal spans. Must outlive the Project; null = off.
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Mutable scheduler options, for callers that decide observability
  /// wiring (progress sink, telemetry collection) after construction.
  /// Changes take effect for stages that have not run yet.
  [[nodiscard]] sched::SchedulerOptions& scheduler_options() {
    return scheduler_options_;
  }
  [[nodiscard]] const builder::BuildOptions& build_options() const {
    return build_options_;
  }

 private:
  spec::Specification spec_;
  builder::BuildOptions build_options_;
  sched::SchedulerOptions scheduler_options_;
  std::optional<builder::BuiltModel> model_;
  std::optional<sched::SearchOutcome> outcome_;
  std::optional<sched::ScheduleTable> table_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace ezrt::core
