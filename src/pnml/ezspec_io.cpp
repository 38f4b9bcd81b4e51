#include "pnml/ezspec_io.hpp"

#include <limits>
#include <optional>
#include <string>

#include "base/name_table.hpp"
#include "base/strings.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace ezrt::pnml {

namespace {

using spec::SchedulingType;
using spec::Specification;

/// "#id1 #id2" reference-list attribute values.
[[nodiscard]] std::string make_ref_list(
    const std::vector<std::string>& identifiers) {
  std::string out;
  for (const std::string& id : identifiers) {
    if (!out.empty()) {
      out += ' ';
    }
    out += '#';
    out += id;
  }
  return out;
}

/// Calls `visit(identifier)` for each "#identifier" of a reference-list
/// attribute value (none when the attribute is absent); stops at the first
/// error, its own or `visit`'s.
template <typename Visit>
[[nodiscard]] Status for_each_ref(std::optional<std::string_view> value,
                                  Visit&& visit) {
  for (std::size_t start = 0; value.has_value();) {
    const std::size_t space = value->find(' ', start);
    const std::string_view ref = trim(value->substr(start, space - start));
    if (!ref.empty()) {
      if (ref.front() != '#') {
        return make_error(ErrorCode::kParseError,
                          "reference '" + std::string(ref) +
                              "' does not start with '#'");
      }
      if (Status status = visit(ref.substr(1)); !status.ok()) {
        return status;
      }
    }
    if (space == std::string_view::npos) {
      break;
    }
    start = space + 1;
  }
  return Status();
}

void add_field(xml::Element& parent, std::string_view name, Time value) {
  parent.add_child(std::string(name)).set_text(std::to_string(value));
}

[[nodiscard]] Result<Time> field(const xml::Element& el,
                                 std::string_view name, Time fallback,
                                 bool required) {
  const xml::Element* child = el.find_child(name);
  if (child == nullptr) {
    if (required) {
      return make_error(ErrorCode::kParseError,
                        "<" + el.name() + "> is missing <" +
                            std::string(name) + ">");
    }
    return fallback;
  }
  return parse_uint(child->text());
}

}  // namespace

Result<std::string> write_ezspec(const Specification& specification) {
  // Mint identifiers on a copy so references are expressible.
  Specification s = specification;
  if (auto status = s.validate(); !status.ok()) {
    return status.error();
  }

  xml::Document doc;
  doc.root = std::make_unique<xml::Element>("rt:ez-spec");
  doc.root->set_attribute("xmlns:rt", kEzSpecNamespace);
  doc.root->set_attribute("name", s.name());
  doc.root->set_attribute("dispOveh",
                          s.dispatcher_overhead() ? "true" : "false");
  if (s.sync_budget() > 0) {
    doc.root->set_attribute("syncBudget", std::to_string(s.sync_budget()));
  }

  for (ProcessorId id : s.processor_ids()) {
    const spec::Processor& p = s.processor(id);
    xml::Element& el = doc.root->add_child("Processor");
    el.set_attribute("identifier", p.identifier);
    el.add_child("name").set_text(p.name);
  }

  for (TaskId id : s.task_ids()) {
    const spec::Task& t = s.task(id);
    xml::Element& el = doc.root->add_child("Task");
    el.set_attribute("identifier", t.identifier);
    if (!t.precedes.empty()) {
      std::vector<std::string> refs;
      for (TaskId other : t.precedes) {
        refs.push_back(s.task(other).identifier);
      }
      el.set_attribute("precedesTasks", make_ref_list(refs));
    }
    if (!t.excludes.empty()) {
      std::vector<std::string> refs;
      for (TaskId other : t.excludes) {
        refs.push_back(s.task(other).identifier);
      }
      el.set_attribute("excludesTasks", make_ref_list(refs));
    }
    if (!t.precedes_msgs.empty()) {
      std::vector<std::string> refs;
      for (MessageId msg : t.precedes_msgs) {
        refs.push_back(s.message(msg).identifier);
      }
      el.set_attribute("precedesMsgs", make_ref_list(refs));
    }
    el.add_child("processor")
        .set_text(s.processor(t.processor).identifier);
    el.add_child("name").set_text(t.name);
    add_field(el, "period", t.timing.period);
    add_field(el, "phase", t.timing.phase);
    add_field(el, "release", t.timing.release);
    add_field(el, "power", t.energy);
    el.add_child("schedulingMode")
        .set_text(t.scheduling == SchedulingType::kPreemptive ? "P" : "NP");
    add_field(el, "computing", t.timing.computation);
    add_field(el, "deadline", t.timing.deadline);
    if (t.code.has_value()) {
      el.add_child("code").set_text(t.code->content);
    }
  }

  for (MessageId id : s.message_ids()) {
    const spec::Message& m = s.message(id);
    xml::Element& el = doc.root->add_child("Message");
    el.set_attribute("identifier", m.identifier);
    el.set_attribute("precedes", "#" + s.task(m.receiver).identifier);
    el.add_child("name").set_text(m.name);
    el.add_child("bus").set_text(m.bus);
    add_field(el, "grantBus", m.grant_bus);
    add_field(el, "communication", m.communication);
  }

  return xml::to_string(doc);
}

Result<Specification> read_ezspec(std::string_view document) {
  auto parsed = xml::parse(document);
  if (!parsed.ok()) {
    return parsed.error();
  }
  const xml::Element& root = *parsed.value().root;
  if (root.name() != "rt:ez-spec" && root.name() != "ez-spec") {
    return make_error(ErrorCode::kParseError,
                      "root element is <" + root.name() +
                          ">, not <rt:ez-spec>");
  }

  Specification s(std::string(root.attribute("name").value_or("untitled")));
  s.set_dispatcher_overhead(root.attribute("dispOveh") == "true");
  if (auto budget = root.attribute("syncBudget")) {
    auto parsed_budget = parse_uint32(*budget);
    if (!parsed_budget.ok()) {
      return make_error(ErrorCode::kParseError,
                        "syncBudget is not a non-negative 32-bit integer");
    }
    s.set_sync_budget(parsed_budget.value());
  }

  // Identifier -> id value, keyed by views of the DOM's attribute values.
  const std::vector<xml::ElementPtr>& children = root.children();
  NameTable processors_by_id(children.size());
  NameTable tasks_by_id(children.size());
  NameTable messages_by_id(children.size());

  // Pass 1: processors, then tasks and messages (attributes only).
  for (const xml::ElementPtr& child : children) {
    if (child->name() != "Processor") {
      continue;
    }
    const auto id = child->attribute("identifier");
    if (!id.has_value()) {
      return child->require_attribute("identifier").error();
    }
    spec::Processor p;
    p.identifier = *id;
    p.name = child->label_text("name").value_or(*id);
    const ProcessorId proc_id = s.add_processor(std::move(p));
    if (!processors_by_id.insert(*id, proc_id.value())) {
      return make_error(ErrorCode::kParseError,
                        "duplicate processor identifier '" +
                            std::string(*id) + "'");
    }
  }

  for (const xml::ElementPtr& child : children) {
    if (child->name() == "Task") {
      spec::Task t;
      const std::string_view identifier =
          child->attribute("identifier").value_or("");
      t.identifier = identifier;
      auto name = child->label_text("name");
      if (!name.has_value()) {
        return make_error(ErrorCode::kParseError, "<Task> without <name>");
      }
      t.name = *name;

      auto period = field(*child, "period", 0, /*required=*/true);
      auto computing = field(*child, "computing", 0, /*required=*/true);
      auto deadline = field(*child, "deadline", 0, /*required=*/true);
      auto phase = field(*child, "phase", 0, /*required=*/false);
      auto release = field(*child, "release", 0, /*required=*/false);
      auto power = field(*child, "power", 0, /*required=*/false);
      for (const auto* r : {&period, &computing, &deadline, &phase, &release,
                            &power}) {
        if (!r->ok()) {
          return r->error();
        }
      }
      t.timing.period = period.value();
      t.timing.computation = computing.value();
      t.timing.deadline = deadline.value();
      t.timing.phase = phase.value();
      t.timing.release = release.value();
      if (power.value() > std::numeric_limits<std::uint32_t>::max()) {
        return make_error(ErrorCode::kParseError,
                          "task '" + t.name +
                              "': power is not a non-negative 32-bit integer");
      }
      t.energy = static_cast<std::uint32_t>(power.value());

      const std::string_view mode =
          child->label_text("schedulingMode").value_or("NP");
      if (mode == "P" || mode == "preemptive") {
        t.scheduling = SchedulingType::kPreemptive;
      } else if (mode == "NP" || mode == "nonPreemptive") {
        t.scheduling = SchedulingType::kNonPreemptive;
      } else {
        return make_error(ErrorCode::kParseError,
                          "task '" + t.name + "': unknown schedulingMode '" +
                              std::string(mode) + "'");
      }

      if (auto proc = child->label_text("processor")) {
        const auto found = processors_by_id.find(*proc);
        if (!found.has_value()) {
          return make_error(ErrorCode::kParseError,
                            "task '" + t.name +
                                "' references unknown processor '" +
                                std::string(*proc) + "'");
        }
        t.processor = ProcessorId(*found);
      }
      if (const xml::Element* code = child->find_child("code")) {
        spec::SourceCode source;
        source.content = code->text();
        t.code = std::move(source);
      }

      const TaskId task_id = s.add_task(std::move(t));
      if (!identifier.empty() &&
          !tasks_by_id.insert(identifier, task_id.value())) {
        return make_error(ErrorCode::kParseError,
                          "duplicate task identifier '" +
                              std::string(identifier) + "'");
      }
    } else if (child->name() == "Message") {
      spec::Message m;
      const std::string_view identifier =
          child->attribute("identifier").value_or("");
      m.identifier = identifier;
      m.name = child->label_text("name").value_or(identifier);
      m.bus = child->label_text("bus").value_or("bus0");
      auto grant = field(*child, "grantBus", 0, /*required=*/false);
      auto comm = field(*child, "communication", 0, /*required=*/false);
      if (!grant.ok()) {
        return grant.error();
      }
      if (!comm.ok()) {
        return comm.error();
      }
      m.grant_bus = grant.value();
      m.communication = comm.value();
      const MessageId msg_id = s.add_message(std::move(m));
      if (!identifier.empty() &&
          !messages_by_id.insert(identifier, msg_id.value())) {
        return make_error(ErrorCode::kParseError,
                          "duplicate message identifier '" +
                              std::string(identifier) + "'");
      }
    }
  }

  // Pass 2: resolve reference attributes. Tasks were added in document
  // order, so the k-th <Task> is TaskId(k).
  std::vector<std::pair<TaskId, MessageId>> pending_senders;
  std::vector<std::pair<MessageId, TaskId>> pending_receivers;
  std::uint32_t task_cursor = 0;
  for (const xml::ElementPtr& child : children) {
    if (child->name() == "Task") {
      const TaskId self(task_cursor++);
      // Relates this task to the one `ref` names; naming itself is a
      // relation the metamodel cannot hold.
      const auto relate = [&](std::string_view ref, const char* relation,
                              void (Specification::*add)(TaskId, TaskId)) {
        const auto found = tasks_by_id.find(ref);
        if (!found.has_value()) {
          return Status(make_error(
              ErrorCode::kParseError,
              "unknown task reference '#" + std::string(ref) + "'"));
        }
        if (TaskId(*found) == self) {
          return Status(make_error(ErrorCode::kParseError,
                                   "task '" + s.task(self).name + "': bad " +
                                       relation + " target"));
        }
        (s.*add)(self, TaskId(*found));
        return Status();
      };
      const auto precede = [&](std::string_view ref) {
        return relate(ref, "precedence", &Specification::add_precedence);
      };
      const auto exclude = [&](std::string_view ref) {
        return relate(ref, "exclusion", &Specification::add_exclusion);
      };
      const auto send = [&](std::string_view ref) -> Status {
        const auto msg = messages_by_id.find(ref);
        if (!msg.has_value()) {
          return make_error(ErrorCode::kParseError,
                            "unknown message reference '#" +
                                std::string(ref) + "'");
        }
        // The receiver comes from the message.
        pending_senders.emplace_back(self, MessageId(*msg));
        return Status();
      };
      Status status = for_each_ref(child->attribute("precedesTasks"), precede);
      if (status.ok()) {
        status = for_each_ref(child->attribute("excludesTasks"), exclude);
      }
      if (status.ok()) {
        status = for_each_ref(child->attribute("precedesMsgs"), send);
      }
      if (!status.ok()) {
        return status.error();
      }
    } else if (child->name() == "Message") {
      const auto id_attr = child->attribute("identifier");
      const auto msg = id_attr ? messages_by_id.find(*id_attr) : std::nullopt;
      if (!msg.has_value()) {
        continue;
      }
      if (auto ref = child->attribute("precedes")) {
        std::size_t count = 0;
        std::optional<std::uint32_t> receiver;
        const auto receive = [&](std::string_view task) {
          receiver = tasks_by_id.find(task);
          ++count;
          return Status();
        };
        if (Status status = for_each_ref(ref, receive); !status.ok()) {
          return status.error();
        }
        if (count != 1 || !receiver.has_value()) {
          return make_error(ErrorCode::kParseError,
                            "message 'precedes' must reference exactly one "
                            "known task");
        }
        pending_receivers.emplace_back(MessageId(*msg), TaskId(*receiver));
      }
    }
  }

  // Connect messages now both ends are known.
  for (const auto& [msg, receiver] : pending_receivers) {
    TaskId sender;
    for (const auto& [task, m] : pending_senders) {
      if (m == msg) {
        sender = task;
        break;
      }
    }
    if (!sender.valid()) {
      return make_error(ErrorCode::kParseError,
                        "message '" + s.message(msg).name +
                            "' has a receiver but no sending task lists it "
                            "in precedesMsgs");
    }
    s.connect_message(sender, msg, receiver);
  }

  if (auto status = s.validate(); !status.ok()) {
    return status.error();
  }
  return s;
}

}  // namespace ezrt::pnml
