#include "runtime/validator.hpp"

#include <algorithm>
#include <numeric>
#include <span>

namespace ezrt::runtime {

namespace {

/// A stable counting sort of the indices 0..n-1 by a small key: group g
/// lists the indices with key g in index order. An index whose key is not
/// below the group count is left out.
class Groups {
 public:
  template <typename Key>
  Groups(std::size_t groups, std::size_t n, Key key) : first_(groups + 1, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (const std::size_t g = key(i); g < groups) {
        ++first_[g + 1];
      }
    }
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    order_.resize(first_.back());
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (const std::size_t g = key(i); g < groups) {
        order_[next[g]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  [[nodiscard]] std::span<std::uint32_t> operator[](std::size_t g) {
    return {order_.data() + first_[g], order_.data() + first_[g + 1]};
  }

 private:
  std::vector<std::uint32_t> first_;  ///< group g is [first_[g], first_[g+1])
  std::vector<std::uint32_t> order_;
};

/// Orders a group by start time as std::sort orders it, so a tie between
/// equal starts falls the same way for the same input sequence; a group
/// whose starts already strictly increase is left as it is.
template <typename Start>
void sort_by_start(std::span<std::uint32_t> group, Start start) {
  const auto earlier = [&](std::uint32_t a, std::uint32_t b) {
    return start(a) < start(b);
  };
  if (std::adjacent_find(group.begin(), group.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return !earlier(a, b);
                         }) != group.end()) {
    std::sort(group.begin(), group.end(), earlier);
  }
}

/// One task instance, gathered from the table: its segments are `count`
/// entries of the per-task segment order from `first`, in table order.
struct Instance {
  std::uint32_t number = 0;  ///< 0-based instance index
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Time start = 0;  ///< of the first segment (table order)
  Time end = 0;    ///< of the last segment (table order)
  Time total = 0;  ///< time executed over all segments
};

}  // namespace

std::string ValidationReport::summary() const {
  if (ok()) {
    return "schedule valid (" + std::to_string(instances_checked) +
           " instances, " + std::to_string(segments_checked) + " segments)";
  }
  std::string out = std::to_string(violations.size()) + " violation(s):";
  for (const std::string& v : violations) {
    out += "\n  - ";
    out += v;
  }
  return out;
}

ValidationReport validate_schedule(const spec::Specification& spec,
                                   const sched::ScheduleTable& table) {
  ValidationReport report;
  auto violate = [&report](std::string message) {
    report.violations.push_back(std::move(message));
  };
  const std::vector<sched::ScheduleItem>& items = table.items;
  const std::size_t task_count = spec.task_count();
  const auto known = [&](TaskId task) {
    return task.valid() && task.value() < task_count;
  };

  for (const sched::ScheduleItem& item : items) {
    ++report.segments_checked;
    if (!known(item.task)) {
      violate("segment references an unknown task");
      continue;
    }
    if (item.duration == 0) {
      violate("task '" + spec.task(item.task).name +
              "' has a zero-length segment at t=" +
              std::to_string(item.start));
    }
  }

  // Group segments per task, then per instance, keeping table order within
  // an instance: instances[inst_first[t], inst_first[t + 1]) are task t's,
  // by instance number.
  Groups by_task(task_count, items.size(), [&](std::size_t i) {
    return known(items[i].task) ? std::size_t{items[i].task.value()}
                                : task_count;
  });
  std::vector<Instance> instances;
  instances.reserve(items.size());
  std::vector<std::uint32_t> inst_first(task_count + 1, 0);
  for (std::size_t t = 0; t < task_count; ++t) {
    inst_first[t] = static_cast<std::uint32_t>(instances.size());
    const std::span<std::uint32_t> segs = by_task[t];
    const auto by_number = [&](std::uint32_t a, std::uint32_t b) {
      return items[a].instance < items[b].instance;
    };
    if (!std::is_sorted(segs.begin(), segs.end(), by_number)) {
      std::stable_sort(segs.begin(), segs.end(), by_number);
    }
    for (std::uint32_t j = 0; j < segs.size(); ++j) {
      const sched::ScheduleItem& seg = items[segs[j]];
      if (j == 0 || seg.instance != instances.back().number) {
        instances.push_back(Instance{seg.instance, j, 0, seg.start, 0, 0});
      }
      Instance& inst = instances.back();
      ++inst.count;
      inst.end = seg.start + seg.duration;
      inst.total += seg.duration;
    }
  }
  inst_first[task_count] = static_cast<std::uint32_t>(instances.size());
  // Task t's entries of a per-instance array.
  const auto of_task = [&](const auto& per_instance, TaskId t) {
    const std::uint32_t first = inst_first[t.value()];
    return std::span(per_instance.data() + first,
                     inst_first[t.value() + 1] - first);
  };
  const auto label = [&](const spec::Task& task, const Instance& inst) {
    return task.name + "#" + std::to_string(inst.number + 1);
  };

  // Completeness: exactly N(t_i) instances per task, contiguous indices.
  const Time ps = table.schedule_period;
  for (TaskId id : spec.task_ids()) {
    const spec::Task& task = spec.task(id);
    if (ps == 0 || ps % task.timing.period != 0) {
      violate("schedule period " + std::to_string(ps) +
              " is not a multiple of task '" + task.name + "' period");
      continue;
    }
    const Time expected = ps / task.timing.period;
    const std::span<const Instance> own = of_task(instances, id);
    std::size_t j = 0;
    for (Time k = 0; k < expected; ++k) {
      while (j < own.size() && own[j].number < k) {
        ++j;
      }
      if (j == own.size() || own[j].number != k) {
        violate("task '" + task.name + "' instance " + std::to_string(k + 1) +
                " never executes");
      }
    }
  }

  // Per-instance contracts.
  for (TaskId id : spec.task_ids()) {
    const spec::Task& task = spec.task(id);
    const spec::TimingConstraints& c = task.timing;
    const std::span<std::uint32_t> segs = by_task[id.value()];
    for (const Instance& inst : of_task(instances, id)) {
      ++report.instances_checked;
      const Time arrival = c.phase + static_cast<Time>(inst.number) * c.period;
      if (inst.total != c.computation) {
        violate(label(task, inst) + ": executes " +
                std::to_string(inst.total) + " units, WCET is " +
                std::to_string(c.computation));
      }
      if (inst.start < arrival + c.release) {
        violate(label(task, inst) + ": starts at " +
                std::to_string(inst.start) + ", release is " +
                std::to_string(arrival + c.release));
      }
      if (inst.end > arrival + c.deadline) {
        violate(label(task, inst) + ": completes at " +
                std::to_string(inst.end) + ", deadline is " +
                std::to_string(arrival + c.deadline));
      }
      if (task.scheduling == spec::SchedulingType::kNonPreemptive &&
          inst.count != 1) {
        violate(label(task, inst) + ": non-preemptive task split into " +
                std::to_string(inst.count) + " segments");
      }
      for (std::uint32_t i = 0; i < inst.count; ++i) {
        const bool expected_flag = i > 0;
        const bool flag = items[segs[inst.first + i]].preempted;
        if (flag != expected_flag) {
          violate(label(task, inst) + ": segment " + std::to_string(i + 1) +
                  " carries preempted=" + (flag ? "true" : "false") +
                  ", expected " + (expected_flag ? "true" : "false"));
        }
      }
    }
  }

  // Processor exclusivity: sort segments per processor and sweep.
  {
    const std::size_t procs = spec.processor_count();
    Groups by_proc(procs, items.size(), [&](std::size_t i) {
      return known(items[i].task)
                 ? std::size_t{spec.task(items[i].task).processor.value()}
                 : procs;
    });
    for (std::size_t p = 0; p < procs; ++p) {
      const std::span<std::uint32_t> segs = by_proc[p];
      sort_by_start(segs, [&](std::uint32_t i) { return items[i].start; });
      for (std::size_t i = 1; i < segs.size(); ++i) {
        const sched::ScheduleItem& prev = items[segs[i - 1]];
        const sched::ScheduleItem& cur = items[segs[i]];
        if (prev.start + prev.duration > cur.start) {
          violate("processor '" +
                  spec.processor(ProcessorId(static_cast<std::uint32_t>(p)))
                      .name +
                  "': segments of '" + spec.task(prev.task).name + "' and '" +
                  spec.task(cur.task).name + "' overlap at t=" +
                  std::to_string(cur.start));
        }
      }
    }
  }

  // Per task, its instances' start and finish times in ascending order:
  // the k-th start and the k-th finish that precedence checks pair up.
  std::vector<Time> sorted_starts(instances.size());
  std::vector<Time> sorted_ends(instances.size());
  for (std::size_t t = 0; t < task_count; ++t) {
    const std::uint32_t b = inst_first[t];
    const std::uint32_t e = inst_first[t + 1];
    for (std::uint32_t j = b; j < e; ++j) {
      sorted_starts[j] = instances[j].start;
      sorted_ends[j] = instances[j].end;
    }
    std::sort(sorted_starts.begin() + b, sorted_starts.begin() + e);
    std::sort(sorted_ends.begin() + b, sorted_ends.begin() + e);
  }

  // Precedence: k-th successor start after k-th predecessor finish.
  for (TaskId before : spec.task_ids()) {
    for (TaskId after : spec.task(before).precedes) {
      const std::span<const Time> finishes = of_task(sorted_ends, before);
      const std::span<const Time> starts = of_task(sorted_starts, after);
      for (std::size_t k = 0; k < starts.size(); ++k) {
        if (k >= finishes.size()) {
          violate("precedence " + spec.task(before).name + " -> " +
                  spec.task(after).name + ": successor instance " +
                  std::to_string(k + 1) + " has no matching predecessor");
          break;
        }
        if (starts[k] < finishes[k]) {
          violate("precedence " + spec.task(before).name + " -> " +
                  spec.task(after).name + ": start " +
                  std::to_string(starts[k]) + " before predecessor finish " +
                  std::to_string(finishes[k]));
        }
      }
    }
  }

  // Core assignment: a row that names a processor must name the one its
  // task is pinned to. Rows without an assignment (hand-built tables from
  // before processors were first-class) are exempt.
  for (const sched::ScheduleItem& item : items) {
    if (!item.processor.valid() || !known(item.task)) {
      continue;
    }
    if (item.processor != spec.task(item.task).processor) {
      violate("task '" + spec.task(item.task).name + "' segment at t=" +
              std::to_string(item.start) + " runs on processor " +
              std::to_string(item.processor.value()) +
              ", the task is pinned to " +
              std::to_string(spec.task(item.task).processor.value()));
    }
  }

  // Bus serialization: transfers on the same bus never overlap. Buses are
  // checked in name order.
  const std::vector<sched::BusSegment>& timeline = table.bus_timeline;
  const std::size_t message_count = spec.message_count();
  const auto transfer_start = [&](std::uint32_t s) {
    return timeline[s].start;
  };
  {
    for (const sched::BusSegment& seg : timeline) {
      if (seg.message.value() >= message_count) {
        violate("bus segment at t=" + std::to_string(seg.start) +
                " references an unknown message");
      }
    }
    std::vector<std::string_view> buses;  // distinct names, sorted
    for (MessageId mid : spec.message_ids()) {
      buses.push_back(spec.message(mid).bus);
    }
    std::sort(buses.begin(), buses.end());
    buses.erase(std::unique(buses.begin(), buses.end()), buses.end());
    Groups by_bus(buses.size(), timeline.size(),
                  [&](std::size_t s) -> std::size_t {
                    const MessageId m = timeline[s].message;
                    return m.value() < message_count
                               ? std::lower_bound(buses.begin(), buses.end(),
                                                  spec.message(m).bus) -
                                     buses.begin()
                               : buses.size();
                  });
    for (std::size_t b = 0; b < buses.size(); ++b) {
      const std::span<std::uint32_t> segs = by_bus[b];
      sort_by_start(segs, transfer_start);
      for (std::size_t i = 1; i < segs.size(); ++i) {
        const sched::BusSegment& prev = timeline[segs[i - 1]];
        const sched::BusSegment& cur = timeline[segs[i]];
        if (prev.start + prev.duration > cur.start) {
          violate("bus '" + spec.message(prev.message).bus +
                  "': transfers of '" + spec.message(prev.message).name +
                  "' and '" + spec.message(cur.message).name +
                  "' overlap at t=" + std::to_string(cur.start));
        }
      }
    }
  }

  // Cross-core message precedence: the k-th transfer of a message starts
  // after the k-th sender finish, and the k-th receiver instance starts
  // after the k-th transfer completes. Only checked when the table carries
  // a bus timeline (extracted tables always do when messages exist).
  if (!timeline.empty()) {
    Groups by_message(message_count, timeline.size(), [&](std::size_t s) {
      return std::size_t{timeline[s].message.value()};  // kInvalid: left out
    });
    for (MessageId mid : spec.message_ids()) {
      const spec::Message& msg = spec.message(mid);
      const std::span<std::uint32_t> transfers = by_message[mid.value()];
      sort_by_start(transfers, transfer_start);
      const std::span<const Time> sender_finishes =
          of_task(sorted_ends, msg.sender);
      const std::span<const Time> receiver_starts =
          of_task(sorted_starts, msg.receiver);
      for (std::size_t k = 0; k < receiver_starts.size(); ++k) {
        if (k >= transfers.size()) {
          violate("message '" + msg.name + "': receiver instance " +
                  std::to_string(k + 1) + " has no matching bus transfer");
          break;
        }
        const sched::BusSegment& xfer = timeline[transfers[k]];
        const Time xfer_end = xfer.start + xfer.duration;
        if (receiver_starts[k] < xfer_end) {
          violate("message '" + msg.name + "': receiver starts at " +
                  std::to_string(receiver_starts[k]) +
                  " before the transfer completes at " +
                  std::to_string(xfer_end));
        }
      }
      for (std::size_t k = 0;
           k < transfers.size() && k < sender_finishes.size(); ++k) {
        const Time xfer_start = timeline[transfers[k]].start;
        if (xfer_start < sender_finishes[k]) {
          violate("message '" + msg.name + "': transfer starts at " +
                  std::to_string(xfer_start) +
                  " before the sender finishes at " +
                  std::to_string(sender_finishes[k]));
        }
      }
    }
  }

  // Shared-synchronization budget: the trace-derived high-water mark must
  // fit the pool the net was built with.
  if (table.sync_budget > 0 && table.sync_high_water > table.sync_budget) {
    violate("sync budget: " + std::to_string(table.sync_high_water) +
            " synchronization resources held at once, budget K=" +
            std::to_string(table.sync_budget));
  }

  // Exclusion: instance spans of excluded tasks never overlap (the lock is
  // held from first dispatch to completion).
  for (TaskId a : spec.task_ids()) {
    for (TaskId b : spec.task(a).excludes) {
      if (a.value() >= b.value()) {
        continue;
      }
      for (const Instance& ra : of_task(instances, a)) {
        for (const Instance& rb : of_task(instances, b)) {
          const bool disjoint = ra.end <= rb.start || rb.end <= ra.start;
          if (!disjoint) {
            violate("exclusion " + spec.task(a).name + " <-> " +
                    spec.task(b).name + ": spans [" +
                    std::to_string(ra.start) + "," + std::to_string(ra.end) +
                    ") and [" + std::to_string(rb.start) + "," +
                    std::to_string(rb.end) + ") interleave");
          }
        }
      }
    }
  }

  return report;
}

}  // namespace ezrt::runtime
