// Small string helpers shared by the XML, PNML and codegen layers.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hpp"

namespace ezrt {

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a non-negative decimal integer; rejects trailing garbage.
[[nodiscard]] Result<std::uint64_t> parse_uint(std::string_view s);

/// parse_uint for values that must fit 32 bits: a larger one is rejected,
/// never truncated.
[[nodiscard]] Result<std::uint32_t> parse_uint32(std::string_view s);

/// Parses a decimal integer that may be negative.
[[nodiscard]] Result<std::int64_t> parse_int(std::string_view s);

/// True if `name` is usable as a C identifier (codegen symbol safety).
[[nodiscard]] bool is_c_identifier(std::string_view name);

/// Rewrites an arbitrary name into a valid C identifier (best effort:
/// non-identifier characters become '_', a leading digit gains a prefix).
[[nodiscard]] std::string sanitize_c_identifier(std::string_view name);

/// Replaces every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s,
                                      std::string_view from,
                                      std::string_view to);

/// Builds text in one std::string without a stream: strings and characters
/// are appended as they are, integers in decimal via std::to_chars (the
/// bytes std::ostream writes for them, without its locale and sentry).
class TextBuilder {
 public:
  explicit TextBuilder(std::size_t capacity = 0) { text_.reserve(capacity); }

  TextBuilder& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextBuilder& operator<<(const char* s) {
    return *this << std::string_view(s);
  }
  TextBuilder& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  template <std::integral Int>
    requires(!std::same_as<Int, char> && !std::same_as<Int, bool>)
  TextBuilder& operator<<(Int value) {
    char digits[24];
    text_.append(digits,
                 std::to_chars(digits, digits + sizeof digits, value).ptr);
    return *this;
  }
  /// A bool would convert to char silently; spell out what it prints.
  TextBuilder& operator<<(bool) = delete;

  /// Hands over the text; the builder is empty afterwards.
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace ezrt
