#include "serve/request.hpp"

#include <algorithm>
#include <utility>

#include "pnml/ezspec_io.hpp"

namespace ezrt::serve {
namespace {

Status parse_options(const JsonValue& options, core::RunOptions& out) {
  if (!options.is_object()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request 'options' must be an object");
  }
  const auto rows = core::run_options();
  for (const auto& [name, value] : options.object) {
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return r.served && r.name == name;
    });
    if (row == rows.end()) {
      // Strict: silently ignoring a typo'd limit would run unbudgeted.
      return make_error(ErrorCode::kInvalidArgument,
                        "unknown request option '" + name + "'");
    }
    const std::string label = "option '" + name + "'";
    Status status = core::invalid_value(*row, label);
    if (row->kind == core::OptionKind::kChoice && value.is_string()) {
      status = core::set_text(out, *row, value.string, label);
    } else if (row->kind == core::OptionKind::kSwitch &&
               value.kind == JsonValue::Kind::kBool) {
      status = core::set_word(out, *row, value.boolean ? 1 : 0, label);
    } else if (row->kind == core::OptionKind::kInteger && value.is_uint) {
      status = core::set_word(out, *row, value.uint_value, label);
    }
    if (!status.ok()) {
      return status;
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
    if (!budget->is_uint) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'budget_ms' must be a non-negative integer");
    }
    out.budget_ms = budget->uint_value;
  }
  if (const JsonValue* options = root.find("options"); options != nullptr) {
    if (auto status = parse_options(*options, out.options); !status.ok()) {
      return status.error();
    }
  }
  core::resolve(out.options);
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
  // budget_ms and id are deliberately absent: they shape admission, not
  // the result.
  return core::served_words(r.options);
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
  r.options.apply_to(out.specification);
  out.build = r.options.build;
  out.scheduler = r.options.scheduler;
  // Thread-count verdict determinism is non-negotiable for a cache keyed
  // on (spec, options): without it, which of kFeasible/kLimitReached wins
  // a bounded parallel race would be frozen into the cache.
  if (out.scheduler.threads > 0) {
    out.scheduler.deterministic = true;
  }
  auto canonical = pnml::write_ezspec(out.specification);
  if (!canonical.ok()) {
    return canonical.error();
  }
  out.canonical_spec = std::move(canonical).value();
  out.digest = compute_digest(out.canonical_spec, option_fingerprint(r));
  return out;
}

}  // namespace ezrt::serve
