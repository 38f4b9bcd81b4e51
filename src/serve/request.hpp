// Serve request envelope: parse, validate, canonicalize, digest
// (docs/serve.md §2–3).
//
// A request carries the ez-spec document *inline* (the server never
// touches the filesystem on behalf of a client) plus the served rows of
// the run-option table (core/run_options.hpp), the options that can
// change the verdict. Parsing is strict — unknown options are rejected
// rather than ignored, so a typo'd "max_staets" fails loudly instead of
// silently running unbounded — and preparation re-serializes the parsed
// spec through pnml::write_ezspec, so the cache digest covers canonical
// bytes, not client formatting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.hpp"
#include "builder/tpn_builder.hpp"
#include "core/run_options.hpp"
#include "sched/dfs.hpp"
#include "serve/cache.hpp"
#include "serve/json_in.hpp"
#include "spec/specification.hpp"

namespace ezrt::serve {

/// One parsed request envelope (schema "ezrt-serve-request" v1).
struct ServeRequest {
  std::string id;              ///< echoed back; optional
  std::string op = "schedule";  ///< "schedule" | "ping" | "stats"
  std::string spec_text;       ///< inline ez-spec XML ("schedule" only)
  /// Per-request deadline budget in ms (queue time counts against it);
  /// 0 = use the server default.
  std::uint64_t budget_ms = 0;

  /// The served run options, resolved (core::resolve).
  core::RunOptions options;

  /// Eligible for graceful degradation (docs/serve.md §4): an exhaustive
  /// first-feasible search, which is exactly the shape whose cost the
  /// bestfirst+classes downgrade collapses.
  [[nodiscard]] bool exhaustive() const {
    const sched::SchedulerOptions& s = options.scheduler;
    return s.pruning == sched::PruningMode::kNone &&
           s.objective == sched::Objective::kFirstFeasible &&
           s.search_engine == sched::SearchEngine::kDfs;
  }
};

/// Validates a parsed JSON document against the request schema.
[[nodiscard]] Result<ServeRequest> parse_request(const JsonValue& root);

/// A request made runnable: parsed+canonicalized spec, engine options and
/// the content digest the cache keys on.
struct PreparedRequest {
  spec::Specification specification;
  builder::BuildOptions build;
  sched::SchedulerOptions scheduler;
  std::string canonical_spec;  ///< pnml::write_ezspec of `specification`
  Digest digest;
};

/// Parses the inline spec, applies the sync-budget override,
/// re-serializes to canonical bytes and digests (canonical bytes, option
/// fingerprint). Fails with kParseError / kValidationError on bad specs.
[[nodiscard]] Result<PreparedRequest> prepare_request(const ServeRequest& r);

/// The alias-index key (docs/serve.md §3): the same digest over the spec
/// bytes as received instead of the canonical ones. Equal raw digests
/// canonicalize to equal PreparedRequest::digest values.
[[nodiscard]] Digest raw_digest(const ServeRequest& r);

/// The option words folded into the digest: one per served row of the
/// run-option table.
[[nodiscard]] std::vector<std::uint64_t> option_fingerprint(
    const ServeRequest& r);

}  // namespace ezrt::serve
