#include "spec/specification.hpp"

#include <algorithm>

#include "base/assert.hpp"
#include "base/math.hpp"
#include "base/name_table.hpp"

namespace ezrt::spec {

const char* to_string(SchedulingType type) {
  switch (type) {
    case SchedulingType::kNonPreemptive:
      return "non-preemptive";
    case SchedulingType::kPreemptive:
      return "preemptive";
  }
  return "unknown";
}

ProcessorId Specification::add_processor(Processor processor) {
  return processors_.push_back(std::move(processor));
}

ProcessorId Specification::add_processor(std::string name) {
  return add_processor(Processor{std::move(name), ""});
}

TaskId Specification::add_task(Task task) {
  if (!task.processor.valid() && !processors_.empty()) {
    task.processor = ProcessorId(0);
  }
  return tasks_.push_back(std::move(task));
}

TaskId Specification::add_task(std::string name, TimingConstraints timing,
                               SchedulingType scheduling) {
  Task t;
  t.name = std::move(name);
  t.timing = timing;
  t.scheduling = scheduling;
  return add_task(std::move(t));
}

MessageId Specification::add_message(Message message) {
  return messages_.push_back(std::move(message));
}

void Specification::add_precedence(TaskId before, TaskId after) {
  EZRT_CHECK(before.value() < tasks_.size() && after.value() < tasks_.size(),
             "precedence references an unknown task");
  EZRT_CHECK(before != after, "a task cannot precede itself");
  std::vector<TaskId>& out = tasks_[before].precedes;
  if (std::find(out.begin(), out.end(), after) == out.end()) {
    out.push_back(after);
  }
}

void Specification::add_exclusion(TaskId a, TaskId b) {
  EZRT_CHECK(a.value() < tasks_.size() && b.value() < tasks_.size(),
             "exclusion references an unknown task");
  EZRT_CHECK(a != b, "a task cannot exclude itself");
  auto link = [this](TaskId from, TaskId to) {
    std::vector<TaskId>& out = tasks_[from].excludes;
    if (std::find(out.begin(), out.end(), to) == out.end()) {
      out.push_back(to);
    }
  };
  // Symmetric by definition: A EXCLUDES B implies B EXCLUDES A (§3.2).
  link(a, b);
  link(b, a);
}

void Specification::set_task_code(TaskId task, std::string content) {
  EZRT_CHECK(task.value() < tasks_.size(), "unknown task");
  SourceCode code;
  code.content = std::move(content);
  tasks_[task].code = std::move(code);
}

void Specification::connect_message(TaskId sender, MessageId message,
                                    TaskId receiver) {
  EZRT_CHECK(sender.value() < tasks_.size(), "unknown sender task");
  EZRT_CHECK(receiver.value() < tasks_.size(), "unknown receiver task");
  EZRT_CHECK(message.value() < messages_.size(), "unknown message");
  messages_[message].sender = sender;
  messages_[message].receiver = receiver;
  std::vector<MessageId>& out = tasks_[sender].precedes_msgs;
  if (std::find(out.begin(), out.end(), message) == out.end()) {
    out.push_back(message);
  }
}

std::optional<TaskId> Specification::find_task(std::string_view name) const {
  for (TaskId id : tasks_.ids()) {
    if (tasks_[id].name == name) {
      return id;
    }
  }
  return std::nullopt;
}

Result<Time> Specification::schedule_period() const {
  std::vector<Time> periods;
  periods.reserve(tasks_.size());
  for (const Task& t : tasks_) {
    periods.push_back(t.timing.period);
  }
  return ezrt::schedule_period(periods);
}

Result<Time> Specification::instance_count(TaskId id) const {
  auto ps = schedule_period();
  if (!ps.ok()) {
    return ps;
  }
  const Time period = tasks_[id].timing.period;
  EZRT_ASSERT(period > 0 && ps.value() % period == 0,
              "schedule period must be a multiple of every task period");
  return ps.value() / period;
}

Result<Time> Specification::total_instances() const {
  auto ps = schedule_period();
  if (!ps.ok()) {
    return ps;
  }
  Time total = 0;
  for (const Task& t : tasks_) {
    total += ps.value() / t.timing.period;
  }
  return total;
}

double Specification::utilization() const {
  double u = 0.0;
  for (const Task& t : tasks_) {
    if (t.timing.period > 0) {
      u += static_cast<double>(t.timing.computation) /
           static_cast<double>(t.timing.period);
    }
  }
  return u;
}

double Specification::utilization(ProcessorId proc) const {
  double u = 0.0;
  for (const Task& t : tasks_) {
    if (t.processor == proc && t.timing.period > 0) {
      u += static_cast<double>(t.timing.computation) /
           static_cast<double>(t.timing.period);
    }
  }
  return u;
}

std::string Specification::mint_identifier(const NameTable& taken) {
  std::string id;
  do {
    id = "ez" + std::to_string(next_identifier_++);
  } while (taken.find(id).has_value());
  return id;
}

Status Specification::validate() {
  if (tasks_.empty()) {
    return make_error(ErrorCode::kValidationError,
                      "specification has no tasks");
  }
  if (processors_.empty()) {
    return make_error(ErrorCode::kValidationError,
                      "specification has no processors");
  }

  // Relation lists are sets; canonicalize their order so serialization is
  // deterministic regardless of declaration order (round-trip fixpoint).
  for (Task& t : tasks_) {
    std::sort(t.precedes.begin(), t.precedes.end());
    std::sort(t.excludes.begin(), t.excludes.end());
    std::sort(t.precedes_msgs.begin(), t.precedes_msgs.end());
  }

  // Identifier minting + name uniqueness. Tasks, processors and messages
  // each have their own namespace of names and of identifiers; a minted
  // identifier skips those its kind already uses, so a document that
  // identifies only some of its tasks still round-trips.
  const std::size_t most =
      std::max({tasks_.size(), processors_.size(), messages_.size()});
  NameTable names(most);
  NameTable taken(most);
  const auto collect_identifiers = [&taken](const auto& items) {
    taken.clear();
    for (const auto& item : items) {
      if (!item.identifier.empty()) {
        taken.insert(item.identifier, 0);
      }
    }
  };
  collect_identifiers(tasks_);
  for (Task& t : tasks_) {
    if (t.identifier.empty()) {
      t.identifier = mint_identifier(taken);
    }
    if (t.name.empty()) {
      return make_error(ErrorCode::kValidationError, "task with empty name");
    }
    if (!names.insert(t.name, 0)) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate task name '" + t.name + "'");
    }
  }
  names.clear();
  collect_identifiers(processors_);
  for (Processor& p : processors_) {
    if (p.identifier.empty()) {
      p.identifier = mint_identifier(taken);
    }
    if (p.name.empty()) {
      return make_error(ErrorCode::kValidationError,
                        "processor with empty name");
    }
    if (!names.insert(p.name, 0)) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate processor name '" + p.name + "'");
    }
  }
  names.clear();
  collect_identifiers(messages_);
  for (Message& m : messages_) {
    if (m.identifier.empty()) {
      m.identifier = mint_identifier(taken);
    }
    if (m.name.empty()) {
      return make_error(ErrorCode::kValidationError,
                        "message with empty name");
    }
    if (!names.insert(m.name, 0)) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate message name '" + m.name + "'");
    }
  }

  // Per-task timing constraints (§3.2: c <= d <= p, non-empty release
  // window r <= d - c, and the computation must be positive).
  for (const Task& t : tasks_) {
    const TimingConstraints& c = t.timing;
    if (c.computation == 0) {
      return make_error(ErrorCode::kValidationError,
                        "task '" + t.name + "': computation time must be >= 1");
    }
    if (c.period == 0) {
      return make_error(ErrorCode::kValidationError,
                        "task '" + t.name + "': period must be >= 1");
    }
    if (!(c.computation <= c.deadline && c.deadline <= c.period)) {
      return make_error(ErrorCode::kValidationError,
                        "task '" + t.name +
                            "': requires c <= d <= p (got c=" +
                            std::to_string(c.computation) +
                            ", d=" + std::to_string(c.deadline) +
                            ", p=" + std::to_string(c.period) + ")");
    }
    if (c.release + c.computation > c.deadline) {
      return make_error(ErrorCode::kValidationError,
                        "task '" + t.name +
                            "': release window [r, d-c] is empty (r=" +
                            std::to_string(c.release) + " > d-c=" +
                            std::to_string(c.deadline - c.computation) + ")");
    }
    if (!t.processor.valid() ||
        t.processor.value() >= processors_.size()) {
      return make_error(ErrorCode::kValidationError,
                        "task '" + t.name +
                            "' is not assigned to a known processor");
    }
  }

  // Relation sanity. Exclusion symmetry is established by add_exclusion;
  // re-check here to guard specs deserialized from documents.
  for (TaskId id : tasks_.ids()) {
    const Task& t = tasks_[id];
    for (TaskId other : t.precedes) {
      if (other.value() >= tasks_.size() || other == id) {
        return make_error(ErrorCode::kValidationError,
                          "task '" + t.name + "': bad precedence target");
      }
    }
    for (TaskId other : t.excludes) {
      if (other.value() >= tasks_.size() || other == id) {
        return make_error(ErrorCode::kValidationError,
                          "task '" + t.name + "': bad exclusion target");
      }
      const std::vector<TaskId>& back = tasks_[other].excludes;
      if (std::find(back.begin(), back.end(), id) == back.end()) {
        return make_error(ErrorCode::kValidationError,
                          "exclusion between '" + t.name + "' and '" +
                              tasks_[other].name + "' is not symmetric");
      }
    }
  }

  // Precedence acyclicity (a cycle can never be scheduled): iterative
  // three-color DFS over the precedence edges.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(tasks_.size(), Color::kWhite);
  std::vector<std::pair<TaskId, std::size_t>> stack;
  for (TaskId root : tasks_.ids()) {
    if (color[root.value()] != Color::kWhite) {
      continue;
    }
    stack.emplace_back(root, 0);
    color[root.value()] = Color::kGray;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      const std::vector<TaskId>& next = tasks_[node].precedes;
      if (edge == next.size()) {
        color[node.value()] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const TaskId child = next[edge++];
      if (color[child.value()] == Color::kGray) {
        return make_error(ErrorCode::kValidationError,
                          "precedence cycle through task '" +
                              tasks_[child].name + "'");
      }
      if (color[child.value()] == Color::kWhite) {
        color[child.value()] = Color::kGray;
        stack.emplace_back(child, 0);
      }
    }
  }

  // Messages.
  for (const Message& m : messages_) {
    if (!m.sender.valid() || !m.receiver.valid()) {
      return make_error(ErrorCode::kValidationError,
                        "message '" + m.name +
                            "' is not connected to a sender and a receiver");
    }
    if (m.sender == m.receiver) {
      return make_error(ErrorCode::kValidationError,
                        "message '" + m.name + "' loops back to its sender");
    }
    if (m.bus.empty()) {
      return make_error(ErrorCode::kValidationError,
                        "message '" + m.name + "' names no bus");
    }
  }

  return Status();
}

}  // namespace ezrt::spec
