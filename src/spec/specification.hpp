// The specification aggregate (EzRTSpecC): tasks, processors, messages,
// inter-task relations, and the derived quantities pre-runtime scheduling
// needs (schedule period, instance counts).
#pragma once

#include <string>
#include <vector>

#include "base/ids.hpp"
#include "base/result.hpp"
#include "spec/model.hpp"

namespace ezrt {
class NameTable;
}  // namespace ezrt

namespace ezrt::spec {

class Specification {
 public:
  Specification() = default;
  explicit Specification(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// EzRTSpecC.dispOveh — whether generated code should account for
  /// dispatcher overhead (carried through to codegen).
  [[nodiscard]] bool dispatcher_overhead() const {
    return dispatcher_overhead_;
  }
  void set_dispatcher_overhead(bool v) { dispatcher_overhead_ = v; }

  /// Bounded pool of shared synchronization resources (K). While a task
  /// holds an exclusion lock or a message transfer occupies the bus, one
  /// pool token is consumed; schedules that would need more than K
  /// concurrently held synchronization resources are infeasible. 0 means
  /// unbounded (the paper's default — no pool place is built).
  [[nodiscard]] std::uint32_t sync_budget() const { return sync_budget_; }
  void set_sync_budget(std::uint32_t k) { sync_budget_ = k; }

  // -- Construction -------------------------------------------------------

  ProcessorId add_processor(Processor processor);
  ProcessorId add_processor(std::string name);

  /// Adds a task; if `task.processor` is invalid it is assigned to the
  /// first processor (the paper's mono-processor default).
  TaskId add_task(Task task);

  /// Convenience for the common case.
  TaskId add_task(std::string name, TimingConstraints timing,
                  SchedulingType scheduling = SchedulingType::kNonPreemptive);

  MessageId add_message(Message message);

  /// Declares `before` PRECEDES `after` (§3.2).
  void add_precedence(TaskId before, TaskId after);

  /// Declares `a` EXCLUDES `b`; the relation is symmetric (§3.2) and the
  /// closure is materialized immediately.
  void add_exclusion(TaskId a, TaskId b);

  /// Binds behavioral C source to a task.
  void set_task_code(TaskId task, std::string content);

  /// Routes a message: sender -> message -> receiver.
  void connect_message(TaskId sender, MessageId message, TaskId receiver);

  // -- Access -------------------------------------------------------------

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t processor_count() const {
    return processors_.size();
  }
  [[nodiscard]] std::size_t message_count() const { return messages_.size(); }

  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[id]; }
  [[nodiscard]] Task& task(TaskId id) { return tasks_[id]; }
  [[nodiscard]] const Processor& processor(ProcessorId id) const {
    return processors_[id];
  }
  [[nodiscard]] const Message& message(MessageId id) const {
    return messages_[id];
  }

  [[nodiscard]] auto task_ids() const { return tasks_.ids(); }
  [[nodiscard]] auto processor_ids() const { return processors_.ids(); }
  [[nodiscard]] auto message_ids() const { return messages_.ids(); }

  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const;

  // -- Derived quantities --------------------------------------------------

  /// PS = lcm of all task periods (§3.3); error on overflow/empty set.
  [[nodiscard]] Result<Time> schedule_period() const;

  /// N(t_i) = PS / p_i — instances of the task inside the schedule period.
  [[nodiscard]] Result<Time> instance_count(TaskId id) const;

  /// Sum of N(t_i) over all tasks (the paper's "782 task instances").
  [[nodiscard]] Result<Time> total_instances() const;

  /// Processor utilization sum(c_i / p_i); > 1.0 is trivially infeasible on
  /// one processor.
  [[nodiscard]] double utilization() const;

  /// Utilization restricted to tasks assigned to `proc`; > 1.0 makes the
  /// partition trivially infeasible regardless of the other processors.
  [[nodiscard]] double utilization(ProcessorId proc) const;

  /// Semantic validation (§3.2 constraints):
  ///   * at least one task and one processor;
  ///   * unique, non-empty task/processor/message names;
  ///   * c >= 1 and c <= d <= p per task;
  ///   * r + c <= d (the release window [r, d-c] must be non-empty);
  ///   * relations reference existing, distinct tasks;
  ///   * exclusion is symmetric (enforced by construction, re-checked);
  ///   * precedence is acyclic;
  ///   * messages have a sender and a receiver, and do not self-loop.
  /// Fills in missing identifiers ("ez<n>") before checking.
  [[nodiscard]] Status validate();

 private:
  std::string name_ = "untitled";
  bool dispatcher_overhead_ = false;
  std::uint32_t sync_budget_ = 0;
  IdVector<TaskId, Task> tasks_;
  IdVector<ProcessorId, Processor> processors_;
  IdVector<MessageId, Message> messages_;
  std::uint64_t next_identifier_ = 1;

  /// The next "ez<n>" identifier that `taken` does not hold.
  [[nodiscard]] std::string mint_identifier(const NameTable& taken);
};

}  // namespace ezrt::spec
