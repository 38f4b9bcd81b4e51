// Machine-readable run report (docs/observability.md).
//
// One JSON document per pipeline run: model summary, scheduler options,
// verdict, search-effort statistics, the optional per-worker/per-shard
// telemetry breakdown, schedule metrics for feasible models, pipeline
// stage timings and an always-empty `counters` object (kept so every
// schema-v5 report keeps its bytes). The shape is pinned by
// docs/schemas/report.schema.json and validated in CI, so downstream
// tooling (tools/bench_compare.py --report, dashboards) can rely on it.
#pragma once

#include <string>

#include "core/project.hpp"

namespace ezrt::obs {
class Tracer;
struct Explanation;
}  // namespace ezrt::obs

namespace ezrt::sched {
struct ReachabilityResult;
}  // namespace ezrt::sched

namespace ezrt::core {

/// Optional v5 sections and emission modes.
struct RunReportExtras {
  /// Verdict provenance (`ezrt explain`, docs/explain.md): emitted as the
  /// "explanation" section.
  const obs::Explanation* explanation = nullptr;
  /// Reachability verdicts (`ezrt reach --report`): "reachability".
  const sched::ReachabilityResult* reachability = nullptr;
  /// Byte-deterministic emission: zero the wall-clock fields
  /// (elapsed_ms, parallel_verdict_ms) and omit the stage spans and the
  /// telemetry breakdown — so two runs of the same spec under the same
  /// options produce identical bytes (the `ezrt explain --report`
  /// contract, docs/explain.md §4).
  bool deterministic = false;
};

/// Serializes the report for `project`'s current pipeline state. Stages
/// that have not run are omitted (the report of a failed run still
/// carries everything up to the failure); `tracer` (optional) supplies
/// the wall-clock stage spans. Non-const because reading the schedule
/// table of a feasible project may extract it on demand.
[[nodiscard]] std::string run_report_json(
    Project& project, const obs::Tracer* tracer = nullptr,
    const RunReportExtras* extras = nullptr);

}  // namespace ezrt::core
