#include "serve/request.hpp"

#include <utility>

#include "pnml/ezspec_io.hpp"

namespace ezrt::serve {
namespace {

Result<std::uint64_t> require_uint(const JsonValue& v, const char* name) {
  if (v.kind != JsonValue::Kind::kNumber || !v.is_uint) {
    return make_error(ErrorCode::kInvalidArgument,
                      std::string("request option '") + name +
                          "' must be a non-negative integer");
  }
  return v.uint_value;
}

Result<bool> require_bool(const JsonValue& v, const char* name) {
  if (v.kind != JsonValue::Kind::kBool) {
    return make_error(ErrorCode::kInvalidArgument,
                      std::string("request option '") + name +
                          "' must be a boolean");
  }
  return v.boolean;
}

Status parse_options(const JsonValue& options, ServeRequest& out) {
  if (!options.is_object()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request 'options' must be an object");
  }
  for (const auto& [name, value] : options.object) {
    if (name == "complete") {
      auto v = require_bool(value, "complete");
      if (!v.ok()) return v.error();
      out.complete = v.value();
    } else if (name == "optimize") {
      if (!value.is_string() ||
          (value.string != "makespan" && value.string != "switches")) {
        return make_error(ErrorCode::kInvalidArgument,
                          "option 'optimize' expects makespan|switches");
      }
      out.optimize = value.string;
      out.complete = true;  // optimizing objectives imply complete (CLI rule)
    } else if (name == "engine") {
      if (value.is_string() && value.string == "dfs") {
        out.engine = sched::SearchEngine::kDfs;
      } else if (value.is_string() && value.string == "bestfirst") {
        out.engine = sched::SearchEngine::kBestFirst;
      } else if (value.is_string() && value.string == "beam") {
        out.engine = sched::SearchEngine::kBeam;
      } else {
        return make_error(ErrorCode::kInvalidArgument,
                          "option 'engine' expects dfs|bestfirst|beam");
      }
    } else if (name == "state_classes") {
      if (value.is_string() && value.string == "auto") {
        out.state_classes = sched::StateClassMode::kAuto;
      } else if (value.is_string() && value.string == "on") {
        out.state_classes = sched::StateClassMode::kOn;
      } else if (value.is_string() && value.string == "off") {
        out.state_classes = sched::StateClassMode::kOff;
      } else {
        return make_error(ErrorCode::kInvalidArgument,
                          "option 'state_classes' expects auto|on|off");
      }
    } else if (name == "max_states") {
      auto v = require_uint(value, "max_states");
      if (!v.ok()) return v.error();
      out.max_states = v.value();
    } else if (name == "threads") {
      auto v = require_uint(value, "threads");
      if (!v.ok()) return v.error();
      out.threads = static_cast<std::uint32_t>(v.value());
    } else if (name == "beam_width") {
      auto v = require_uint(value, "beam_width");
      if (!v.ok()) return v.error();
      if (v.value() == 0) {
        return make_error(ErrorCode::kInvalidArgument,
                          "option 'beam_width' expects a positive width");
      }
      out.beam_width = static_cast<std::uint32_t>(v.value());
    } else if (name == "widen") {
      auto v = require_bool(value, "widen");
      if (!v.ok()) return v.error();
      out.widen = v.value();
    } else if (name == "paper_blocks") {
      auto v = require_bool(value, "paper_blocks");
      if (!v.ok()) return v.error();
      out.paper_blocks = v.value();
    } else if (name == "sync_budget") {
      auto v = require_uint(value, "sync_budget");
      if (!v.ok()) return v.error();
      out.has_sync_budget = true;
      out.sync_budget = static_cast<std::uint32_t>(v.value());
    } else {
      // Strict: silently ignoring a typo'd limit would run unbudgeted.
      return make_error(ErrorCode::kInvalidArgument,
                        "unknown request option '" + name + "'");
    }
  }
  return {};
}

}  // namespace

Result<ServeRequest> parse_request(const JsonValue& root) {
  if (!root.is_object()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request must be a JSON object");
  }
  if (const JsonValue* schema = root.find("schema");
      schema != nullptr &&
      (!schema->is_string() || schema->string != "ezrt-serve-request")) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request 'schema' must be \"ezrt-serve-request\"");
  }
  if (const JsonValue* version = root.find("version");
      version != nullptr && (!version->is_uint || version->uint_value != 1)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unsupported request version (want 1)");
  }
  ServeRequest out;
  if (const JsonValue* id = root.find("id"); id != nullptr) {
    if (!id->is_string()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'id' must be a string");
    }
    out.id = id->string;
  }
  if (const JsonValue* op = root.find("op"); op != nullptr) {
    if (!op->is_string() || (op->string != "schedule" &&
                             op->string != "ping" && op->string != "stats")) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'op' expects schedule|ping|stats");
    }
    out.op = op->string;
  }
  if (const JsonValue* budget = root.find("budget_ms"); budget != nullptr) {
    auto v = require_uint(*budget, "budget_ms");
    if (!v.ok()) return v.error();
    out.budget_ms = v.value();
  }
  if (const JsonValue* options = root.find("options"); options != nullptr) {
    if (auto status = parse_options(*options, out); !status.ok()) {
      return status.error();
    }
  }
  if (out.op == "schedule") {
    const JsonValue* spec = root.find("spec");
    if (spec == nullptr || !spec->is_string() || spec->string.empty()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "schedule request needs a non-empty 'spec' string "
                        "(inline ez-spec XML)");
    }
    out.spec_text = spec->string;
  }
  return out;
}

std::vector<std::uint64_t> option_fingerprint(const ServeRequest& r) {
  // One word per verdict-relevant knob, position-tagged by the fixed
  // order below. budget_ms and id are deliberately absent: they shape
  // admission, not the result.
  std::uint64_t objective = 0;
  if (r.optimize == "makespan") {
    objective = 1;
  } else if (r.optimize == "switches") {
    objective = 2;
  }
  return {
      r.complete ? 1u : 0u,
      objective,
      static_cast<std::uint64_t>(r.engine),
      static_cast<std::uint64_t>(r.state_classes),
      r.max_states,
      r.threads,
      r.beam_width,
      r.widen ? 1u : 0u,
      r.paper_blocks ? 1u : 0u,
      r.has_sync_budget ? 1u : 0u,
      r.sync_budget,
  };
}

Digest raw_digest(const ServeRequest& r) {
  return compute_digest(r.spec_text, option_fingerprint(r));
}

Result<PreparedRequest> prepare_request(const ServeRequest& r) {
  auto parsed = pnml::read_ezspec(r.spec_text);
  if (!parsed.ok()) {
    return parsed.error();
  }
  PreparedRequest out;
  out.specification = std::move(parsed).value();
  if (r.has_sync_budget) {
    out.specification.set_sync_budget(r.sync_budget);
  }
  if (r.paper_blocks) {
    out.build.style = builder::BlockStyle::kPaper;
  }
  sched::SchedulerOptions& s = out.scheduler;
  if (r.complete) {
    s.pruning = sched::PruningMode::kNone;
  }
  if (r.optimize == "makespan") {
    s.objective = sched::Objective::kMinimizeMakespan;
  } else if (r.optimize == "switches") {
    s.objective = sched::Objective::kMinimizeSwitches;
  }
  s.search_engine = r.engine;
  s.state_classes = r.state_classes;
  s.max_states = r.max_states;
  s.threads = r.threads;
  s.beam_width = r.beam_width;
  s.widen = r.widen;
  // Thread-count verdict determinism is non-negotiable for a cache keyed
  // on (spec, options): without it, which of kFeasible/kLimitReached wins
  // a bounded parallel race would be frozen into the cache.
  if (s.threads > 0) {
    s.deterministic = true;
  }
  auto canonical = pnml::write_ezspec(out.specification);
  if (!canonical.ok()) {
    return canonical.error();
  }
  out.canonical_spec = std::move(canonical).value();
  const std::vector<std::uint64_t> fingerprint = option_fingerprint(r);
  out.digest = compute_digest(out.canonical_spec, fingerprint);
  return out;
}

}  // namespace ezrt::serve
