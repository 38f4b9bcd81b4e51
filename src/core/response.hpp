// Serve response envelope (docs/serve.md) and the tool-wide exit-code
// contract.
//
// `ezrt serve` answers every request with one JSON document: a small
// envelope (status, CLI-equivalent code, cache/degradation provenance,
// queue/service timing) wrapping the existing run report (schema v5) for
// completed searches. The envelope lives next to run_report so the two
// schemas evolve together, and so the exit-code mapping — which scripts
// branch on for the CLI and which the envelope mirrors in its "code"
// field — has exactly one definition.
#pragma once

#include <cstdint>
#include <string>

#include "base/result.hpp"
#include "sched/dfs.hpp"

namespace ezrt::core {

// Documented exit codes (docs/robustness.md, `ezrt help`). Scripts and CI
// branch on these, so the mapping is part of the tool's contract:
//   0   success (feasible schedule, valid spec, clean simulation)
//   1   runtime failure (I/O, unsupported feature, internal error; in
//       the CLI also a simulation that missed a deadline or a replay
//       that diverged)
//   2   infeasible — a definitive domain answer, not an error
//   3   a configured budget tripped (state, wall-clock or memory limit);
//       the serve envelope also uses it for shed (`overloaded`) requests
//   4   invalid input (malformed document, inconsistent spec, bad flags,
//       bad frame)
//   130 cancelled (128 + SIGINT; SIGTERM exits the 130-family code 143)
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitInfeasible = 2;
inline constexpr int kExitLimit = 3;
inline constexpr int kExitInvalidInput = 4;
inline constexpr int kExitCancelled = 130;

/// Maps an error to its documented exit code.
[[nodiscard]] int exit_code_for(const Error& error);

/// Maps a search verdict to its documented exit code (the `ezrt schedule`
/// / `ezrt explain` contract; the serve envelope's "code" field uses the
/// same mapping so socket clients can branch identically).
[[nodiscard]] int exit_code_for(sched::SearchStatus status);

/// One serve response envelope (schema "ezrt-serve-response" v1,
/// docs/schemas/serve.schema.json).
struct ServeResponseInfo {
  /// Echo of the request's "id" (empty when the request had none or was
  /// too malformed to carry one).
  std::string id;
  /// "ok" (report attached), "overloaded" (shed by admission control),
  /// "invalid" (malformed frame/envelope/spec), "error" (internal),
  /// "shutting-down" (received while draining).
  std::string status = "ok";
  /// CLI-equivalent exit code (kExit* above).
  int code = kExitOk;
  /// Search verdict string for "ok" responses (sched::to_string).
  std::string verdict;
  /// Diagnostic for non-"ok" responses.
  std::string error;
  /// Cache provenance of an "ok" response: "miss" (this request ran the
  /// search), "hit" (served from the schedule cache), "coalesced"
  /// (single-flight: joined an identical in-flight search), "none"
  /// (control operations).
  std::string cache = "none";
  /// True when admission control downgraded an exhaustive request to the
  /// guided engine under overload (docs/serve.md §4).
  bool degraded = false;
  std::uint64_t queue_ms = 0;    ///< admission -> worker pickup
  std::uint64_t service_ms = 0;  ///< worker pickup -> result
  /// Backoff hint for "overloaded" responses (0 = none).
  std::uint64_t retry_after_ms = 0;
};

/// Serializes the envelope; `report_json` (optional) is the embedded
/// schema-v5 run report for completed searches, `stats_json` (optional)
/// the server-stats object for `stats` operations. Both are pre-rendered
/// JSON spliced verbatim.
[[nodiscard]] std::string serve_response_json(
    const ServeResponseInfo& info, const std::string* report_json = nullptr,
    const std::string* stats_json = nullptr);

}  // namespace ezrt::core
