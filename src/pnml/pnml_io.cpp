#include "pnml/pnml_io.hpp"

#include <map>
#include <optional>
#include <string>

#include "base/strings.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace ezrt::pnml {

namespace {

using tpn::PlaceRole;
using tpn::TimePetriNet;
using tpn::TransitionRole;

// Role <-> string tables reuse tpn::to_string; parsing scans the enum.
[[nodiscard]] std::optional<TransitionRole> transition_role_from(
    std::string_view s) {
  for (int i = 0; i <= static_cast<int>(TransitionRole::kCommunication);
       ++i) {
    const auto role = static_cast<TransitionRole>(i);
    if (s == tpn::to_string(role)) {
      return role;
    }
  }
  return std::nullopt;
}

[[nodiscard]] std::optional<PlaceRole> place_role_from(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(PlaceRole::kPrecedence); ++i) {
    const auto role = static_cast<PlaceRole>(i);
    if (s == tpn::to_string(role)) {
      return role;
    }
  }
  return std::nullopt;
}

void write_label(xml::Element& parent, std::string_view label,
                 std::string_view text) {
  parent.add_child(std::string(label)).add_child("text").set_text(text);
}

xml::Element& write_toolspecific(xml::Element& parent) {
  xml::Element& tool = parent.add_child("toolspecific");
  tool.set_attribute("tool", kToolName);
  tool.set_attribute("version", kToolVersion);
  return tool;
}

/// The ezRealtime toolspecific annotation of a node, if present.
[[nodiscard]] const xml::Element* find_toolspecific(const xml::Element& node) {
  for (const xml::ElementPtr& child : node.children()) {
    if (child->name() == "toolspecific" &&
        child->attribute("tool") == kToolName) {
      return child.get();
    }
  }
  return nullptr;
}

}  // namespace

std::string write_pnml(const TimePetriNet& net) {
  xml::Document doc;
  doc.root = std::make_unique<xml::Element>("pnml");
  doc.root->set_attribute("xmlns", kPnmlNamespace);

  xml::Element& net_el = doc.root->add_child("net");
  net_el.set_attribute("id", net.name().empty() ? "net0" : net.name());
  net_el.set_attribute(
      "type", "http://www.pnml.org/version-2009/grammar/ptnet");
  write_label(net_el, "name", net.name());
  xml::Element& page = net_el.add_child("page");
  page.set_attribute("id", "page0");

  for (PlaceId id : net.place_ids()) {
    const tpn::Place& place = net.place(id);
    xml::Element& el = page.add_child("place");
    el.set_attribute("id", "p" + std::to_string(id.value()));
    write_label(el, "name", place.name);
    if (place.initial_tokens > 0) {
      write_label(el, "initialMarking",
                  std::to_string(place.initial_tokens));
    }
    xml::Element& tool = write_toolspecific(el);
    tool.add_child("role").set_text(tpn::to_string(place.role));
    if (place.task.valid()) {
      tool.add_child("task").set_text(std::to_string(place.task.value()));
    }
  }

  for (TransitionId id : net.transition_ids()) {
    const tpn::Transition& t = net.transition(id);
    xml::Element& el = page.add_child("transition");
    el.set_attribute("id", "t" + std::to_string(id.value()));
    write_label(el, "name", t.name);
    xml::Element& tool = write_toolspecific(el);
    xml::Element& interval = tool.add_child("interval");
    interval.set_attribute("eft", std::to_string(t.interval.eft()));
    interval.set_attribute(
        "lft", t.interval.bounded() ? std::to_string(t.interval.lft())
                                    : std::string("inf"));
    tool.add_child("priority").set_text(std::to_string(t.priority));
    tool.add_child("role").set_text(tpn::to_string(t.role));
    if (t.task.valid()) {
      tool.add_child("task").set_text(std::to_string(t.task.value()));
    }
    if (t.code.has_value()) {
      tool.add_child("code").set_text(std::to_string(*t.code));
    }
  }

  std::size_t arc_id = 0;
  auto write_arc = [&](const std::string& source, const std::string& target,
                       std::uint32_t weight) {
    xml::Element& el = page.add_child("arc");
    el.set_attribute("id", "a" + std::to_string(arc_id++));
    el.set_attribute("source", source);
    el.set_attribute("target", target);
    if (weight != 1) {
      write_label(el, "inscription", std::to_string(weight));
    }
  };
  for (TransitionId id : net.transition_ids()) {
    const std::string t = "t" + std::to_string(id.value());
    for (const tpn::Arc& arc : net.inputs(id)) {
      write_arc("p" + std::to_string(arc.place.value()), t, arc.weight);
    }
    for (const tpn::Arc& arc : net.outputs(id)) {
      write_arc(t, "p" + std::to_string(arc.place.value()), arc.weight);
    }
  }

  return xml::to_string(doc);
}

Result<TimePetriNet> read_pnml(std::string_view document) {
  auto parsed = xml::parse(document);
  if (!parsed.ok()) {
    return parsed.error();
  }
  const xml::Element& root = *parsed.value().root;
  if (root.name() != "pnml") {
    return make_error(ErrorCode::kParseError,
                      "root element is <" + root.name() + ">, not <pnml>");
  }
  const xml::Element* net_el = root.find_child("net");
  if (net_el == nullptr) {
    return make_error(ErrorCode::kParseError, "<pnml> has no <net>");
  }
  const xml::Element* page = net_el->find_child("page");
  if (page == nullptr) {
    return make_error(ErrorCode::kParseError, "<net> has no <page>");
  }

  TimePetriNet net(std::string(net_el->label_text("name").value_or(
      net_el->attribute("id").value_or("net0"))));

  std::map<std::string, PlaceId> place_ids;
  std::map<std::string, TransitionId> transition_ids;

  for (const xml::ElementPtr& child : page->children()) {
    if (child->name() == "place") {
      auto id = child->require_attribute("id");
      if (!id.ok()) {
        return id.error();
      }
      tpn::Place place;
      place.name = child->label_text("name").value_or(id.value());
      if (auto marking = child->label_text("initialMarking")) {
        auto tokens = parse_uint32(*marking);
        if (!tokens.ok()) {
          return tokens.error();
        }
        place.initial_tokens = tokens.value();
      }
      if (const xml::Element* tool = find_toolspecific(*child)) {
        if (auto role = tool->label_text("role")) {
          if (auto parsed_role = place_role_from(*role)) {
            place.role = *parsed_role;
          } else {
            return make_error(ErrorCode::kParseError,
                              "unknown place role '" + std::string(*role) +
                                  "'");
          }
        }
        if (auto task = tool->label_text("task")) {
          auto value = parse_uint32(*task);
          if (!value.ok()) {
            return value.error();
          }
          place.task = TaskId(value.value());
        }
      }
      const auto [slot, fresh] = place_ids.try_emplace(id.value());
      if (!fresh) {
        return make_error(ErrorCode::kParseError,
                          "duplicate place id '" + id.value() + "'");
      }
      slot->second = net.add_place(std::move(place));
    } else if (child->name() == "transition") {
      auto id = child->require_attribute("id");
      if (!id.ok()) {
        return id.error();
      }
      tpn::Transition t;
      t.name = child->label_text("name").value_or(id.value());
      if (const xml::Element* tool = find_toolspecific(*child)) {
        if (const xml::Element* interval = tool->find_child("interval")) {
          auto eft_attr = interval->require_attribute("eft");
          auto lft_attr = interval->require_attribute("lft");
          if (!eft_attr.ok()) {
            return eft_attr.error();
          }
          if (!lft_attr.ok()) {
            return lft_attr.error();
          }
          auto eft = parse_uint(eft_attr.value());
          if (!eft.ok()) {
            return eft.error();
          }
          Time lft = kTimeInfinity;
          if (lft_attr.value() != "inf") {
            auto parsed_lft = parse_uint(lft_attr.value());
            if (!parsed_lft.ok()) {
              return parsed_lft.error();
            }
            lft = parsed_lft.value();
          }
          if (eft.value() > lft) {
            return make_error(ErrorCode::kParseError,
                              "transition '" + t.name +
                                  "': EFT exceeds LFT");
          }
          t.interval = TimeInterval(eft.value(), lft);
        }
        if (auto priority = tool->label_text("priority")) {
          auto value = parse_uint32(*priority);
          if (!value.ok()) {
            return value.error();
          }
          t.priority = value.value();
        }
        if (auto role = tool->label_text("role")) {
          if (auto parsed_role = transition_role_from(*role)) {
            t.role = *parsed_role;
          } else {
            return make_error(ErrorCode::kParseError,
                              "unknown transition role '" +
                                  std::string(*role) + "'");
          }
        }
        if (auto task = tool->label_text("task")) {
          auto value = parse_uint32(*task);
          if (!value.ok()) {
            return value.error();
          }
          t.task = TaskId(value.value());
        }
        if (auto code = tool->label_text("code")) {
          auto value = parse_uint32(*code);
          if (!value.ok()) {
            return value.error();
          }
          t.code = value.value();
        }
      }
      const auto [slot, fresh] = transition_ids.try_emplace(id.value());
      if (!fresh) {
        return make_error(ErrorCode::kParseError,
                          "duplicate transition id '" + id.value() + "'");
      }
      slot->second = net.add_transition(std::move(t));
    }
  }

  // Arcs in a second pass, once both endpoints exist.
  for (const xml::ElementPtr& child : page->children()) {
    if (child->name() != "arc") {
      continue;
    }
    auto source = child->require_attribute("source");
    auto target = child->require_attribute("target");
    if (!source.ok()) {
      return source.error();
    }
    if (!target.ok()) {
      return target.error();
    }
    std::uint32_t weight = 1;
    if (auto inscription = child->label_text("inscription")) {
      auto value = parse_uint32(*inscription);
      if (!value.ok()) {
        return value.error();
      }
      weight = value.value();
    }
    const bool place_to_transition = place_ids.contains(source.value());
    if (place_to_transition) {
      if (!transition_ids.contains(target.value())) {
        return make_error(ErrorCode::kParseError,
                          "arc target '" + target.value() + "' not found");
      }
      net.add_input(transition_ids[target.value()],
                    place_ids[source.value()], weight);
    } else {
      if (!transition_ids.contains(source.value()) ||
          !place_ids.contains(target.value())) {
        return make_error(ErrorCode::kParseError,
                          "arc endpoints '" + source.value() + "' -> '" +
                              target.value() + "' not found");
      }
      net.add_output(transition_ids[source.value()],
                     place_ids[target.value()], weight);
    }
  }

  if (auto status = net.validate(); !status.ok()) {
    return status.error();
  }
  return net;
}

}  // namespace ezrt::pnml
