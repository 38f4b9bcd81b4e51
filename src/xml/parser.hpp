// Recursive-descent XML parser for the DOM in dom.hpp.
//
// Supported syntax: XML declaration, comments, CDATA sections, elements
// with attributes (single or double quoted, each name once per tag),
// character data with the five predefined entities plus decimal/hex
// character references. Structural errors carry the line and column of
// the byte offset where they were found.
//
// The parser enforces hard input limits (docs/robustness.md): documents
// larger than kMaxInputBytes and element nesting deeper than
// kMaxNestingDepth are rejected with a clean diagnostic instead of
// exhausting memory or the call stack on hostile input.
#pragma once

#include <cstddef>
#include <string_view>

#include "base/result.hpp"
#include "xml/dom.hpp"

namespace ezrt::xml {

/// Largest document `parse` accepts. Real ez-spec models are a few
/// kilobytes; 64 MiB leaves three orders of magnitude of headroom while
/// bounding a hostile input's memory footprint.
inline constexpr std::size_t kMaxInputBytes = 64u * 1024u * 1024u;

/// Deepest element nesting `parse` accepts. The parser recurses per
/// level, so this bounds stack growth; ez-spec documents nest 3 deep.
inline constexpr std::size_t kMaxNestingDepth = 200;

/// Parses a complete document; input must contain exactly one root element.
[[nodiscard]] Result<Document> parse(std::string_view input);

/// Decodes entity and character references in raw character data. A
/// character reference is exactly a run of decimal digits, or of hex
/// digits after `x`, naming an XML 1.0 §2.2 `Char`.
[[nodiscard]] Result<std::string> decode_entities(std::string_view raw);

}  // namespace ezrt::xml
