#include "serve/json_in.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace ezrt::serve {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    skip_ws();
    JsonValue root;
    if (auto status = parse_value(root, 0); !status.ok()) {
      return status.error();
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing data after JSON document");
    }
    return root;
  }

 private:
  [[nodiscard]] Error fail(const std::string& what) const {
    return make_error(ErrorCode::kParseError,
                      "json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  Status parse_value(JsonValue& out, int depth) {
    if (depth > kMaxJsonDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    skip_ws();
    if (eof()) {
      return fail("unexpected end of input");
    }
    switch (peek()) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        if (!consume_literal("true")) {
          return fail("invalid literal");
        }
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return {};
      case 'f':
        if (!consume_literal("false")) {
          return fail("invalid literal");
        }
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return {};
      case 'n':
        if (!consume_literal("null")) {
          return fail("invalid literal");
        }
        out.kind = JsonValue::Kind::kNull;
        return {};
      default:
        return parse_number(out);
    }
  }

  Status parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return {};
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (auto status = parse_string(key); !status.ok()) {
        return status;
      }
      skip_ws();
      if (eof() || peek() != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      if (auto status = parse_value(value, depth + 1); !status.ok()) {
        return status;
      }
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eof()) {
        return fail("unterminated object");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return {};
      }
      return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return {};
    }
    while (true) {
      JsonValue value;
      if (auto status = parse_value(value, depth + 1); !status.ok()) {
        return status;
      }
      out.array.push_back(std::move(value));
      skip_ws();
      if (eof()) {
        return fail("unterminated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return {};
      }
      return fail("expected ',' or ']' in array");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      std::size_t end = pos_;
      while (end < text_.size()) {
        const unsigned char b = static_cast<unsigned char>(text_[end]);
        if (b == '"' || b == '\\' || b < 0x20) {
          break;
        }
        ++end;
      }
      out.append(text_.substr(pos_, end - pos_));
      pos_ = end;
      if (eof()) {
        return fail("unterminated string");
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (c < 0x20) {
        return fail("unescaped control character in string");
      }
      ++pos_;  // '\\'
      if (eof()) {
        return fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t code = 0;
          if (auto status = parse_hex4(code); !status.ok()) {
            return status;
          }
          // Combine a surrogate pair when one follows; a lone surrogate
          // degrades to U+FFFD rather than producing invalid UTF-8.
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            std::uint32_t low = 0;
            if (auto status = parse_hex4(low); !status.ok()) {
              return status;
            }
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              code = 0xFFFD;
            }
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            code = 0xFFFD;
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape sequence");
      }
    }
  }

  Status parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return fail("truncated \\u escape");
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape digit");
      }
      out = (out << 4) | digit;
    }
    pos_ += 4;
    return {};
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') {
      ++pos_;
    }
    const std::size_t digits_start = pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (pos_ == digits_start) {
      pos_ = start;
      return fail("invalid value");
    }
    // RFC 8259: no leading zeros on multi-digit integer parts.
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      pos_ = start;
      return fail("leading zero in number");
    }
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac_start = pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
      if (pos_ == frac_start) {
        return fail("missing digits after decimal point");
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) {
        ++pos_;
      }
      const std::size_t exp_start = pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
      if (pos_ == exp_start) {
        return fail("missing digits in exponent");
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    out.kind = JsonValue::Kind::kNumber;
    // strtod over from_chars<double>: libstdc++ shipped integer from_chars
    // long before the floating-point overloads were reliable everywhere.
    out.number = std::strtod(std::string(token).c_str(), nullptr);
    if (integral && token[0] != '-') {
      std::uint64_t exact = 0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), exact);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        out.uint_value = exact;
        out.is_uint = true;
      }
    }
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace ezrt::serve
