#include "xml/dom.hpp"

#include "base/strings.hpp"

namespace ezrt::xml {

Element& Element::set_attribute(std::string_view name,
                                std::string_view value) {
  for (Attribute& a : attributes_) {
    if (a.name == name) {
      a.value = value;
      return *this;
    }
  }
  attributes_.push_back(Attribute{std::string(name), std::string(value)});
  return *this;
}

std::optional<std::string_view> Element::attribute(
    std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) {
      return std::string_view(a.value);
    }
  }
  return std::nullopt;
}

Result<std::string> Element::require_attribute(std::string_view name) const {
  if (auto v = attribute(name)) {
    return std::string(*v);
  }
  return make_error(ErrorCode::kParseError, "<" + name_ +
                                                "> is missing required "
                                                "attribute '" +
                                                std::string(name) + "'");
}

Element& Element::add_child(std::string name) {
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

Element& Element::add_child(ElementPtr child) {
  // The parser appends children one by one; starting at room for 8 skips
  // the 1-2-4 regrowths that ez-spec's 4-10-child elements would pay.
  if (children_.capacity() == 0) {
    children_.reserve(8);
  }
  children_.push_back(std::move(child));
  return *children_.back();
}

const Element* Element::find_child(std::string_view name) const {
  for (const ElementPtr& c : children_) {
    if (c->name() == name) {
      return c.get();
    }
  }
  return nullptr;
}

Element* Element::find_child(std::string_view name) {
  for (ElementPtr& c : children_) {
    if (c->name() == name) {
      return c.get();
    }
  }
  return nullptr;
}

std::vector<const Element*> Element::find_children(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const ElementPtr& c : children_) {
    if (c->name() == name) {
      out.push_back(c.get());
    }
  }
  return out;
}

std::optional<std::string_view> Element::label_text(
    std::string_view name) const {
  const Element* child = find_child(name);
  if (child == nullptr) {
    return std::nullopt;
  }
  if (const Element* text = child->find_child("text")) {
    return trim(text->text());
  }
  return trim(child->text());
}

}  // namespace ezrt::xml
