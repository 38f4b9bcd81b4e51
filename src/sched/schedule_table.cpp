#include "sched/schedule_table.hpp"

#include <algorithm>
#include <optional>

#include "base/strings.hpp"

namespace ezrt::sched {

namespace {

/// Per-task extraction cursor.
struct TaskCursor {
  std::uint32_t releases = 0;  ///< instances released so far
  std::optional<ScheduleItem> open;  ///< growing segment, not yet emitted
  bool instance_had_segment = false;  ///< current instance already ran once
};

/// What a firing of one transition means to the table, derived from the
/// transition's role and arcs on its first firing of a call (`message`
/// comes from the builder's handles up front).
struct Effect {
  /// Synchronization resources taken (+) or given back (-): the weights of
  /// its arcs from and to bus and exclusion-lock places, which covers every
  /// block style without role special cases.
  std::int64_t sync_delta = 0;
  std::int32_t message = -1;  ///< transfer it grants or completes, if any
  TaskId task;                ///< owning task (invalid: fork/join)
  bool releases = false;      ///< releases an instance of `task`
  bool starts = false;        ///< acquires the processor for `task`
  bool derived = false;  ///< sync_delta, task, releases and starts are set
};

void derive(const builder::BuiltModel& model, TransitionId id,
            Effect& effect) {
  const tpn::TimePetriNet& net = model.net;
  const auto is_resource = [&](const tpn::Arc& arc) {
    const tpn::PlaceRole role = net.place(arc.place).role;
    return role == tpn::PlaceRole::kBus ||
           role == tpn::PlaceRole::kExclusionLock;
  };
  for (const tpn::Arc& arc : net.inputs(id)) {
    effect.sync_delta += is_resource(arc) ? arc.weight : 0;
  }
  for (const tpn::Arc& arc : net.outputs(id)) {
    effect.sync_delta -= is_resource(arc) ? arc.weight : 0;
  }
  const tpn::Transition& t = net.transition(id);
  if (t.task.valid()) {
    // Which firing acquires the processor depends on the task's structure:
    // the grant stage when it exists, otherwise the fused release.
    const bool compact_style = !model.task_net(t.task).grant.valid();
    effect.task = t.task;
    effect.releases = t.role == tpn::TransitionRole::kRelease;
    effect.starts = t.role == tpn::TransitionRole::kGrant ||
                    (compact_style && effect.releases);
  }
  effect.derived = true;
}

}  // namespace

std::vector<ScheduleItem> ScheduleTable::items_for(ProcessorId proc) const {
  std::vector<ScheduleItem> out;
  for (const ScheduleItem& item : items) {
    if (item.processor == proc) {
      out.push_back(item);
    }
  }
  return out;
}

Result<ScheduleTable> extract_schedule(const spec::Specification& spec,
                                       const builder::BuiltModel& model,
                                       const Trace& trace) {
  ScheduleTable table;
  table.schedule_period = model.schedule_period;
  table.processor_count = std::max<std::size_t>(1, spec.processor_count());
  table.sync_budget = model.sync_budget;

  std::vector<TaskCursor> cursors(spec.task_count());
  std::vector<Effect> effects(model.net.transition_count());
  for (std::size_t m = 0; m < model.message_nets.size(); ++m) {
    effects[model.message_nets[m].acquire.value()].message =
        static_cast<std::int32_t>(m);
    effects[model.message_nets[m].release.value()].message =
        static_cast<std::int32_t>(m);
  }
  // Bus timeline + sync high-water bookkeeping: the held counter tracks
  // bus and exclusion-lock tokens.
  std::vector<std::optional<Time>> open_transfer(model.message_nets.size());
  std::int64_t sync_held = 0;

  auto close_segment = [&](TaskCursor& cursor) {
    if (cursor.open.has_value()) {
      table.items.push_back(*cursor.open);
      cursor.open.reset();
    }
  };

  for (const FiringEvent& event : trace) {
    Effect& effect = effects[event.transition.value()];
    if (!effect.derived) {
      derive(model, event.transition, effect);
    }
    sync_held += effect.sync_delta;
    if (sync_held > 0) {
      table.sync_high_water = std::max(
          table.sync_high_water, static_cast<std::uint32_t>(sync_held));
    }
    if (effect.message >= 0) {
      const auto m = static_cast<std::size_t>(effect.message);
      if (event.transition == model.message_nets[m].acquire) {
        open_transfer[m] = event.at;
      } else if (open_transfer[m].has_value()) {
        const spec::Message& msg = spec.message(MessageId(
            static_cast<std::uint32_t>(m)));
        BusSegment seg;
        seg.start = *open_transfer[m];
        seg.duration = event.at - *open_transfer[m];
        seg.message = MessageId(static_cast<std::uint32_t>(m));
        seg.from = spec.task(msg.sender).processor;
        seg.to = spec.task(msg.receiver).processor;
        table.bus_timeline.push_back(seg);
        open_transfer[m].reset();
      }
    }
    if (!effect.releases && !effect.starts) {
      continue;  // fork/join infrastructure or a stage past the start
    }
    TaskCursor& cursor = cursors[effect.task.value()];
    if (effect.releases) {
      ++cursor.releases;
      cursor.instance_had_segment = false;
    }
    if (!effect.starts) {
      continue;
    }
    const spec::Task& task = spec.task(effect.task);
    if (cursor.releases == 0) {
      return make_error(ErrorCode::kInternal,
                        "trace fires '" +
                            model.net.transition(event.transition).name +
                            "' before any release of task '" + task.name +
                            "'");
    }

    const std::uint32_t instance = cursor.releases - 1;
    const Time chunk = task.scheduling == spec::SchedulingType::kPreemptive
                           ? 1
                           : task.timing.computation;

    if (cursor.open.has_value() && cursor.open->instance == instance &&
        cursor.open->start + cursor.open->duration == event.at) {
      // Contiguous chunk: extend the open segment.
      cursor.open->duration += chunk;
      continue;
    }

    close_segment(cursor);
    ScheduleItem item;
    item.start = event.at;
    item.task = effect.task;
    item.instance = instance;
    item.duration = chunk;
    item.processor = task.processor;
    // Fig 8 flag semantics: true when the instance ran before and this row
    // resumes it after a preemption.
    item.preempted = cursor.instance_had_segment;
    cursor.open = item;
    cursor.instance_had_segment = true;
  }

  for (TaskCursor& cursor : cursors) {
    close_segment(cursor);
  }

  std::stable_sort(table.items.begin(), table.items.end(),
                   [](const ScheduleItem& a, const ScheduleItem& b) {
                     return a.start < b.start;
                   });
  for (const ScheduleItem& item : table.items) {
    table.makespan = std::max(table.makespan, item.start + item.duration);
  }
  std::stable_sort(table.bus_timeline.begin(), table.bus_timeline.end(),
                   [](const BusSegment& a, const BusSegment& b) {
                     return a.start < b.start;
                   });
  return table;
}

namespace {

void append_table(TextBuilder& os, const std::vector<ScheduleItem>& items,
                  std::string_view symbol, const spec::Specification& spec) {
  os << "struct ScheduleItem " << symbol << "[" << items.size()
     << "] = {\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ScheduleItem& item = items[i];
    const spec::Task& task = spec.task(item.task);
    os << "  {" << item.start << ", " << (item.preempted ? "true " : "false")
       << ", " << item.task.value() + 1 << ", (int *)" << task.name << "}";
    os << (i + 1 < items.size() ? "," : " ");
    os << " /* " << task.name << "#" << item.instance + 1
       << (item.preempted ? " resumes" : " starts") << ", runs "
       << item.duration << " */\n";
  }
  os << "};\n";
}

}  // namespace

std::string to_string(const ScheduleTable& table,
                      const spec::Specification& spec) {
  TextBuilder os(256 + 96 * table.items.size());
  if (table.processor_count <= 1) {
    append_table(os, table.items, "scheduleTable", spec);
    return os.take();
  }
  // Multi-processor tables print one dispatch table per core plus the bus
  // timeline — the same shape codegen emits (docs/multiprocessor.md).
  for (std::size_t p = 0; p < table.processor_count; ++p) {
    const ProcessorId pid(static_cast<std::uint32_t>(p));
    const std::string name = p < spec.processor_count()
                                 ? spec.processor(pid).name
                                 : "cpu" + std::to_string(p);
    os << "/* processor " << p << ": " << name << " */\n";
    append_table(os, table.items_for(pid),
                 "scheduleTable_p" + std::to_string(p), spec);
  }
  if (!table.bus_timeline.empty()) {
    os << "/* bus timeline */\n";
    for (const BusSegment& seg : table.bus_timeline) {
      const std::string msg = seg.message.value() < spec.message_count()
                                  ? spec.message(seg.message).name
                                  : "?";
      os << "  [" << seg.start << ", " << seg.start + seg.duration << ") "
         << msg << " on '"
         << (seg.message.value() < spec.message_count()
                 ? spec.message(seg.message).bus
                 : "?")
         << "' cpu" << seg.from.value() << " -> cpu" << seg.to.value()
         << "\n";
    }
  }
  if (table.sync_budget > 0) {
    os << "/* sync pool: high-water " << table.sync_high_water << " of K="
       << table.sync_budget << " */\n";
  }
  return os.take();
}

}  // namespace ezrt::sched
