#include "xml/parser.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>

namespace ezrt::xml {

namespace {

[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

[[nodiscard]] constexpr bool is_name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

[[nodiscard]] constexpr bool is_name_char(char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// XML 1.0 §2.2 `Char`: the code points a character reference may name.
[[nodiscard]] constexpr bool is_xml_char(std::uint64_t code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

void append_utf8(std::string& out, std::uint64_t code) {
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

/// Appends `raw` to `out` with its entity and character references
/// decoded.
Status decode_into(std::string_view raw, std::string& out) {
  for (std::size_t i = 0;;) {
    const std::size_t amp = raw.find('&', i);
    out.append(raw.substr(i, amp - i));
    if (amp == std::string_view::npos) {
      return Status();
    }
    const std::size_t end = raw.find(';', amp);
    if (end == std::string_view::npos) {
      return make_error(ErrorCode::kParseError,
                        "unterminated entity reference");
    }
    const std::string_view entity = raw.substr(amp + 1, end - amp - 1);
    if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (!entity.empty() && entity[0] == '#') {
      // Exactly a run of digits: no sign, no spaces, no trailing junk.
      const bool hex =
          entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      const std::string_view digits = entity.substr(hex ? 2 : 1);
      std::uint64_t code = 0;
      const auto [stop, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), code,
                          hex ? 16 : 10);
      if (digits.empty() || ec != std::errc() ||
          stop != digits.data() + digits.size()) {
        return make_error(ErrorCode::kParseError,
                          "bad character reference &" + std::string(entity) +
                              ";");
      }
      if (!is_xml_char(code)) {
        return make_error(ErrorCode::kParseError,
                          "character reference out of range");
      }
      append_utf8(out, code);
    } else {
      return make_error(ErrorCode::kParseError,
                        "unknown entity &" + std::string(entity) + ";");
    }
    i = end + 1;
  }
}

/// A byte offset into the input. Diagnostics derive their line and column
/// from the offset when they are built, so scanning only moves the offset.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  [[nodiscard]] bool eof() const { return pos_ >= input_.size(); }
  [[nodiscard]] char peek() const { return input_[pos_]; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool at(std::string_view literal) const {
    return input_.substr(pos_).starts_with(literal);
  }

  [[nodiscard]] bool consume(std::string_view literal) {
    if (!at(literal)) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  void skip_whitespace() {
    while (!eof() && is_space(peek())) {
      ++pos_;
    }
  }

  /// The bytes before the next `delimiter` (all the rest when there is
  /// none); moves to the delimiter, which stays unconsumed.
  [[nodiscard]] std::string_view take_until(std::string_view delimiter) {
    const std::size_t end = std::min(input_.find(delimiter, pos_),
                                     input_.size());
    const std::string_view run = input_.substr(pos_, end - pos_);
    pos_ = end;
    return run;
  }

  /// Moves past the next `delimiter`, or to the end of the input.
  void skip_past(std::string_view delimiter) {
    (void)take_until(delimiter);
    (void)consume(delimiter);
  }

  [[nodiscard]] std::string_view take_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) {
      ++pos_;
    }
    return input_.substr(start, pos_ - start);
  }

  [[nodiscard]] Error error(const std::string& message) const {
    return error_at(pos_, message);
  }

  /// Line = 1 + newlines before `offset`; column = 1 + bytes between the
  /// last of them and `offset`.
  [[nodiscard]] Error error_at(std::size_t offset,
                               const std::string& message) const {
    const std::string_view before = input_.substr(0, offset);
    const auto line = 1 + std::count(before.begin(), before.end(), '\n');
    const std::size_t newline = before.rfind('\n');
    const std::size_t column =
        newline == std::string_view::npos ? offset + 1 : offset - newline;
    return make_error(ErrorCode::kParseError,
                      "XML parse error at line " + std::to_string(line) +
                          ", column " + std::to_string(column) + ": " +
                          message);
  }

 private:
  std::string_view input_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view input) : cur_(input) {}

  Result<Document> parse_document() {
    skip_misc();
    if (cur_.eof() || cur_.peek() != '<') {
      return cur_.error("expected root element");
    }
    auto root = parse_element();
    if (!root.ok()) {
      return root.error();
    }
    skip_misc();
    if (!cur_.eof()) {
      return cur_.error("content after the root element");
    }
    Document doc;
    doc.root = std::move(root).value();
    return doc;
  }

 private:
  /// Skips whitespace, comments, declarations and PIs between elements.
  void skip_misc() {
    for (;;) {
      cur_.skip_whitespace();
      if (cur_.consume("<!--")) {
        cur_.skip_past("-->");
      } else if (cur_.at("<?")) {
        cur_.skip_past("?>");
      } else if (cur_.at("<!DOCTYPE")) {
        cur_.skip_past(">");
      } else {
        return;
      }
    }
  }

  Result<std::string_view> parse_name() {
    if (cur_.eof() || !is_name_start(cur_.peek())) {
      return cur_.error("expected a name");
    }
    return cur_.take_name();
  }

  Result<ElementPtr> parse_element() {
    if (depth_ >= kMaxNestingDepth) {
      return cur_.error("element nesting deeper than " +
                        std::to_string(kMaxNestingDepth) + " levels");
    }
    ++depth_;
    auto element = parse_element_body();
    --depth_;
    return element;
  }

  Result<ElementPtr> parse_element_body() {
    if (!cur_.consume("<")) {
      return cur_.error("expected '<'");
    }
    auto name = parse_name();
    if (!name.ok()) {
      return name.error();
    }
    auto element = std::make_unique<Element>(std::string(name.value()));

    // Attributes.
    for (;;) {
      cur_.skip_whitespace();
      if (cur_.eof()) {
        return cur_.error("unterminated start tag <" + element->name());
      }
      if (cur_.consume("/>")) {
        return element;
      }
      if (cur_.consume(">")) {
        break;
      }
      const std::size_t attr_at = cur_.pos();
      auto attr_name = parse_name();
      if (!attr_name.ok()) {
        return attr_name.error();
      }
      if (element->attribute(attr_name.value())) {
        // XML 1.0 §3.1: an attribute name appears at most once per tag.
        return cur_.error_at(attr_at, "duplicate attribute '" +
                                          std::string(attr_name.value()) +
                                          "' in <" + element->name() + ">");
      }
      cur_.skip_whitespace();
      if (!cur_.consume("=")) {
        return cur_.error("expected '=' after attribute name '" +
                          std::string(attr_name.value()) + "'");
      }
      cur_.skip_whitespace();
      if (cur_.eof() || (cur_.peek() != '"' && cur_.peek() != '\'')) {
        return cur_.error("expected quoted attribute value");
      }
      const std::string_view quote = cur_.peek() == '"' ? "\"" : "'";
      (void)cur_.consume(quote);
      const std::string_view raw = cur_.take_until(quote);
      if (!cur_.consume(quote)) {
        return cur_.error("unterminated attribute value");
      }
      auto value = decode(raw);
      if (!value.ok()) {
        return value.error();
      }
      element->set_attribute(attr_name.value(), value.value());
    }

    // Content.
    for (;;) {
      if (cur_.eof()) {
        return cur_.error("missing end tag </" + element->name() + ">");
      }
      if (cur_.consume("<![CDATA[")) {
        element->append_text(cur_.take_until("]]>"));
        (void)cur_.consume("]]>");
        continue;
      }
      if (cur_.consume("<!--")) {
        cur_.skip_past("-->");
        continue;
      }
      if (cur_.consume("</")) {
        auto end_name = parse_name();
        if (!end_name.ok()) {
          return end_name.error();
        }
        if (end_name.value() != element->name()) {
          return cur_.error("mismatched end tag </" +
                            std::string(end_name.value()) + ">, expected </" +
                            element->name() + ">");
        }
        cur_.skip_whitespace();
        if (!cur_.consume(">")) {
          return cur_.error("malformed end tag");
        }
        return element;
      }
      if (cur_.peek() == '<') {
        auto child = parse_element();
        if (!child.ok()) {
          return child.error();
        }
        element->add_child(std::move(child).value());
        continue;
      }
      // Character data run.
      auto text = decode(cur_.take_until("<"));
      if (!text.ok()) {
        return text.error();
      }
      element->append_text(text.value());
    }
  }

  /// `raw` with its references decoded. A run without `&` (nearly every
  /// run) comes back as it is; others are decoded into `scratch_`.
  Result<std::string_view> decode(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) {
      return raw;
    }
    scratch_.clear();
    if (Status status = decode_into(raw, scratch_); !status.ok()) {
      return status.error();
    }
    return std::string_view(scratch_);
  }

  Cursor cur_;
  std::size_t depth_ = 0;
  std::string scratch_;
};

}  // namespace

Result<std::string> decode_entities(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  if (Status status = decode_into(raw, out); !status.ok()) {
    return status.error();
  }
  return out;
}

Result<Document> parse(std::string_view input) {
  if (input.size() > kMaxInputBytes) {
    return make_error(ErrorCode::kParseError,
                      "XML input of " + std::to_string(input.size()) +
                          " bytes exceeds the " +
                          std::to_string(kMaxInputBytes) + "-byte limit");
  }
  return Parser(input).parse_document();
}

}  // namespace ezrt::xml
