#include "base/strings.hpp"

#include <cctype>
#include <charconv>
#include <limits>

namespace ezrt {

namespace {
[[nodiscard]] bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

Result<std::uint64_t> parse_uint(std::string_view s) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return make_error(ErrorCode::kParseError,
                      "not a non-negative integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<std::uint32_t> parse_uint32(std::string_view s) {
  auto value = parse_uint(s);
  if (!value.ok()) {
    return value.error();
  }
  if (value.value() > std::numeric_limits<std::uint32_t>::max()) {
    return make_error(ErrorCode::kParseError,
                      "not a non-negative 32-bit integer: '" +
                          std::string(trim(s)) + "'");
  }
  return static_cast<std::uint32_t>(value.value());
}

Result<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return make_error(ErrorCode::kParseError,
                      "not an integer: '" + std::string(s) + "'");
  }
  return value;
}

bool is_c_identifier(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string sanitize_c_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    out.push_back(
        (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 't');
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) {
    return std::string(s);
  }
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

}  // namespace ezrt
