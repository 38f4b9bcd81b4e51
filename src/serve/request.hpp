// Serve request envelope: parse, validate, canonicalize, digest
// (docs/serve.md §2–3).
//
// A request carries the ez-spec document *inline* (the server never
// touches the filesystem on behalf of a client) plus the subset of the
// CLI's search options that can change the verdict. Parsing is strict —
// unknown options are rejected rather than ignored, so a typo'd
// "max_staets" fails loudly instead of silently running unbounded — and
// preparation re-serializes the parsed spec through pnml::write_ezspec,
// so the cache digest covers canonical bytes, not client formatting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.hpp"
#include "builder/tpn_builder.hpp"
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

  // Verdict-relevant search options (mirrors the CLI surface).
  bool complete = false;
  std::string optimize;  ///< "", "makespan", "switches"
  sched::SearchEngine engine = sched::SearchEngine::kDfs;
  sched::StateClassMode state_classes = sched::StateClassMode::kAuto;
  std::uint64_t max_states = sched::SchedulerOptions{}.max_states;
  std::uint32_t threads = 0;
  std::uint32_t beam_width = 8;
  bool widen = false;
  bool paper_blocks = false;
  bool has_sync_budget = false;
  std::uint32_t sync_budget = 0;

  /// Eligible for graceful degradation (docs/serve.md §4): an exhaustive
  /// first-feasible search, which is exactly the shape whose cost the
  /// bestfirst+classes downgrade collapses.
  [[nodiscard]] bool exhaustive() const {
    return complete && optimize.empty() &&
           engine == sched::SearchEngine::kDfs;
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

/// The option words folded into the digest. Exposed for tests: every
/// field that can change the report must move at least one word.
[[nodiscard]] std::vector<std::uint64_t> option_fingerprint(
    const ServeRequest& r);

}  // namespace ezrt::serve
