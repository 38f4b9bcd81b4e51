// Minimal JSON reader for the serve protocol (docs/serve.md §2).
//
// The repo deliberately has no DOM-style JSON dependency — the run report
// and traces only ever *emit* JSON (obs::JsonWriter). The socket server is
// the first component that must *accept* JSON from untrusted peers, so
// this is a small recursive-descent parser tuned for that job: strict
// (RFC 8259 grammar, no comments/trailing commas), bounded (nesting depth
// capped so a hostile `[[[[...` frame cannot blow the stack — the frame
// layer already bounds total bytes), and loss-aware (integers that fit
// uint64 keep an exact representation next to the double, so budgets and
// limits round-trip without floating-point surprises).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/result.hpp"

namespace ezrt::serve {

/// Maximum container nesting accepted by parse_json. Anything a sane
/// client sends is < 10 deep; the cap exists to bound recursion on
/// adversarial input.
inline constexpr int kMaxJsonDepth = 64;

/// One parsed JSON value. Object members keep insertion order (the
/// canonical digest never hashes raw request JSON, so ordering is purely
/// cosmetic, but deterministic iteration keeps tests simple).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact value when the literal was a non-negative integer that fits
  /// uint64 (is_uint tells you whether to trust it over `number`).
  std::uint64_t uint_value = 0;
  bool is_uint = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) {
      return nullptr;
    }
    for (const auto& [name, value] : object) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

/// Parses exactly one JSON document covering the whole input (trailing
/// non-whitespace is an error). Failures are kParseError with a byte
/// offset in the message.
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

}  // namespace ezrt::serve
