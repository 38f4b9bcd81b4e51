// Output checks shared by the workloads (README.md, "Output checks").
#pragma once

#include <string>

#include "builder/tpn_builder.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"

namespace perfbench {

/// Replays a feasible trace through the checked firing rule and confirms
/// it ends in the final marking. Empty string = passed.
inline std::string replay_error(const ezrt::builder::BuiltModel& model,
                                const ezrt::sched::Trace& trace) {
  ezrt::sched::DfsScheduler scheduler(model.net);
  auto final_state = scheduler.replay(trace);
  if (!final_state.ok()) {
    return "replay: " + final_state.error().to_string();
  }
  if (!ezrt::tpn::is_final_marking(model.net, final_state.value().marking())) {
    return "replay: trace does not reach the final marking";
  }
  return {};
}

/// Extracts and validates the schedule table of a feasible trace, then
/// replays the trace. Empty string = passed.
inline std::string feasible_error(const ezrt::spec::Specification& spec,
                                  const ezrt::builder::BuiltModel& model,
                                  const ezrt::sched::Trace& trace) {
  auto table = ezrt::sched::extract_schedule(spec, model, trace);
  if (!table.ok()) {
    return "extract_schedule: " + table.error().to_string();
  }
  const auto report = ezrt::runtime::validate_schedule(spec, table.value());
  if (!report.ok()) {
    return "validate_schedule: " + report.summary();
  }
  return replay_error(model, trace);
}

inline char verdict_letter(ezrt::sched::SearchStatus status) {
  switch (status) {
    case ezrt::sched::SearchStatus::kFeasible:
      return 'F';
    case ezrt::sched::SearchStatus::kInfeasible:
      return 'I';
    default:
      return '?';
  }
}

}  // namespace perfbench
