// Minimal XML document object model.
//
// This is the substrate under the PNML (ISO/IEC 15909-2) exporter and the
// ez-spec DSL reader (paper Fig 7): elements, attributes, character data and
// comments. It intentionally omits namespaces-as-objects (prefixes are kept
// verbatim in names, which is all PNML interchange needs), DTDs and
// processing instructions other than the XML declaration.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hpp"

namespace ezrt::xml {

class Element;

/// Owning pointer used for child elements.
using ElementPtr = std::unique_ptr<Element>;

/// One name="value" attribute. Order is preserved for stable output.
struct Attribute {
  std::string name;
  std::string value;
};

/// An XML element: name, attributes, text content and child elements.
///
/// Mixed content is simplified: all character data directly inside an
/// element is concatenated into `text()` (PNML's `<text>` leaves are the
/// only text carriers we care about, and they have no element siblings).
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // -- Attributes ---------------------------------------------------------

  /// Sets (or replaces) an attribute.
  Element& set_attribute(std::string_view name, std::string_view value);

  /// Attribute lookup; nullopt when absent.
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view name) const;

  /// Attribute that must exist; error otherwise.
  [[nodiscard]] Result<std::string> require_attribute(
      std::string_view name) const;

  [[nodiscard]] const std::vector<Attribute>& attributes() const {
    return attributes_;
  }

  // -- Text ---------------------------------------------------------------

  [[nodiscard]] const std::string& text() const { return text_; }
  Element& set_text(std::string_view text) {
    text_ = text;
    return *this;
  }
  void append_text(std::string_view chunk) { text_ += chunk; }

  // -- Children -----------------------------------------------------------

  /// Appends a new child element and returns a reference to it.
  Element& add_child(std::string name);
  Element& add_child(ElementPtr child);

  [[nodiscard]] const std::vector<ElementPtr>& children() const {
    return children_;
  }

  /// First child with the given element name, or nullptr.
  [[nodiscard]] const Element* find_child(std::string_view name) const;
  [[nodiscard]] Element* find_child(std::string_view name);

  /// All children with the given element name.
  [[nodiscard]] std::vector<const Element*> find_children(
      std::string_view name) const;

  /// Trimmed text of child `name`'s `<text>` grandchild (the PNML label
  /// convention `<name><text>...</text></name>`), or of the child itself
  /// when it has no `<text>` wrapper. The view is into that element's text.
  [[nodiscard]] std::optional<std::string_view> label_text(
      std::string_view name) const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
  std::string text_;
  std::vector<ElementPtr> children_;
};

/// A parsed document: the root element plus the declaration flag.
struct Document {
  ElementPtr root;
};

}  // namespace ezrt::xml
