#include "codegen/c_generator.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "base/strings.hpp"

namespace ezrt::codegen {

namespace {

using spec::Specification;
using spec::Task;

/// What the emitters of one generate() call share: the specification and
/// each task's sanitized C identifier, computed once. The entry point of
/// task t is "task_" + ident(t); its table comments name ident(t).
struct Context {
  const Specification& spec;
  std::vector<std::string> idents;  ///< by task id

  [[nodiscard]] const std::string& ident(TaskId id) const {
    return idents[id.value()];
  }
};

/// The first task, in id order, whose identifier an earlier task already
/// maps to; invalid when every identifier is distinct.
[[nodiscard]] TaskId first_colliding_task(
    const std::vector<std::string>& idents) {
  std::vector<std::uint32_t> order(idents.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::tie(idents[a], a) < std::tie(idents[b], b);
  });
  // Within a run of equal identifiers every task after the first collides;
  // the earliest of those in id order is the one a left-to-right scan meets.
  TaskId first;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (idents[order[i]] == idents[order[i - 1]] &&
        (!first.valid() || order[i] < first.value())) {
      first = TaskId(order[i]);
    }
  }
  return first;
}

/// Room reserved per table row: one row with short task names is ~50 bytes.
constexpr std::size_t kRowBytes = 64;

/// A struct ScheduleItem array, formatted like the paper's Fig 8 including
/// the start/preempt commentary. `symbol`/`size_macro` name the emitted
/// array (the mono-processor table and each per-core table share the
/// format).
void append_table(TextBuilder& os, const Context& ctx,
                  const std::vector<sched::ScheduleItem>& items,
                  std::string_view symbol, std::string_view size_macro) {
  os << "const struct ScheduleItem " << symbol << "[" << size_macro
     << "] = {\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const sched::ScheduleItem& item = items[i];
    const std::string& ident = ctx.ident(item.task);
    os << "  {" << item.start << "ul, " << (item.preempted ? '1' : '0')
       << ", " << item.task.value() + 1 << ", task_" << ident << "}"
       << (i + 1 < items.size() ? ',' : ' ') << " /* " << ident
       << item.instance + 1
       << (item.preempted ? " resumes */\n" : " starts */\n");
  }
  os << "};\n";
}

[[nodiscard]] std::string emit_header(const Context& ctx,
                                      const sched::ScheduleTable& table) {
  const Specification& spec = ctx.spec;
  TextBuilder os(1024 + 96 * spec.task_count());
  os << "/* Generated by ezRealtime — scheduled code for '" << spec.name()
     << "'.\n"
     << " * Schedule period (hyper-period): " << table.schedule_period
     << " time units, " << table.items.size() << " dispatch points.\n"
     << " * DO NOT EDIT: regenerate from the specification instead. */\n"
     << "#ifndef EZRT_SCHEDULE_H\n"
     << "#define EZRT_SCHEDULE_H\n\n"
     << "#define SCHEDULE_SIZE " << table.items.size() << "\n"
     << "#define SCHEDULE_PERIOD " << table.schedule_period << "ul\n\n"
     << "/* One execution part of one task instance (paper Fig 8). */\n"
     << "struct ScheduleItem {\n"
     << "  unsigned long start;  /* dispatch time within the period   */\n"
     << "  int preempted;        /* 1: resume a saved context         */\n"
     << "  int task_id;          /* 1-based task identifier           */\n"
     << "  void (*task)(void);   /* task entry point                  */\n"
     << "};\n\n"
     << "extern const struct ScheduleItem scheduleTable[SCHEDULE_SIZE];\n\n";
  for (TaskId id : spec.task_ids()) {
    const spec::TimingConstraints& c = spec.task(id).timing;
    os << "void task_" << ctx.ident(id) << "(void); /* WCET "
       << c.computation << ", deadline " << c.deadline << ", period "
       << c.period << " */\n";
  }
  os << "\n#endif /* EZRT_SCHEDULE_H */\n";
  return os.take();
}

[[nodiscard]] std::string emit_tasks(const Context& ctx,
                                     const CodegenOptions& options) {
  const Specification& spec = ctx.spec;
  TextBuilder os(256 + 160 * spec.task_count());
  os << "/* Task bodies: behavioral specification spliced from the model\n"
     << " * (SourceCodeC contents). Generated by ezRealtime. */\n"
     << "#include \"schedule.h\"\n\n";
  for (TaskId id : spec.task_ids()) {
    const Task& task = spec.task(id);
    os << "/* " << task.name << ": "
       << spec::to_string(task.scheduling) << ", c="
       << task.timing.computation << " d=" << task.timing.deadline << " p="
       << task.timing.period << " */\n";
    os << "void task_" << ctx.ident(id) << "(void)\n{\n";
    if (options.include_user_code && task.code.has_value() &&
        !task.code->content.empty()) {
      // Indent each line of the user code one level (an empty line or a
      // trailing newline yields an indented empty line); it is emitted
      // verbatim otherwise.
      const std::string_view code = task.code->content;
      for (std::size_t start = 0;;) {
        const std::size_t end = code.find('\n', start);
        os << "  " << code.substr(start, end - start) << "\n";
        if (end == std::string_view::npos) {
          break;
        }
        start = end + 1;
      }
    } else {
      os << "  /* TODO: behavioral code for " << task.name
         << " was not specified */\n";
    }
    os << "}\n\n";
  }
  return os.take();
}

/// Bare-metal dispatcher: timer ISR walks the table; the port header
/// supplies SAVE_CONTEXT/RESTORE_CONTEXT/PROGRAM_TIMER/IDLE. `sym` and
/// `size_macro` name the table the ISR walks; `core_note` is an extra
/// header-comment line for per-processor images (empty for mono).
[[nodiscard]] std::string emit_baremetal_core(
    const Context& ctx, const std::vector<sched::ScheduleItem>& items,
    std::string_view sym, std::string_view size_macro,
    std::string_view core_note) {
  TextBuilder os(2560 + kRowBytes * items.size());
  os << "/* Pre-runtime dispatcher (bare-metal backend).\n"
     << " * Generated by ezRealtime for '" << ctx.spec.name() << "'.\n"
     << core_note << " *\n"
     << " * The port header must define:\n"
     << " *   SAVE_CONTEXT(slot)     — save CPU state of the running task\n"
     << " *   RESTORE_CONTEXT(slot)  — resume a previously saved task\n"
     << " *   PROGRAM_TIMER(ticks)   — one-shot timer to the next dispatch\n"
     << " *   TIMER_ISR              — ISR attribute/vector declaration\n"
     << " *   IDLE()                 — platform idle/sleep instruction\n"
     << " */\n"
     << "#include \"schedule.h\"\n"
     << "#include \"port.h\"\n\n";
  if (ctx.spec.dispatcher_overhead()) {
    os << "/* EzRTSpecC.dispOveh: account dispatcher latency when\n"
       << " * programming the timer. Calibrate per platform. */\n"
       << "#define DISPATCH_OVERHEAD_TICKS 1\n\n";
  }
  append_table(os, ctx, items, sym, size_macro);
  os << "\n"
     << "static unsigned int currentItem = 0u;\n"
     << "static unsigned long cycleBase = 0ul; /* start of current period */\n"
     << "\n"
     << "/* Timer interrupt: dispatch the next schedule-table entry.\n"
     << " * Timer programming, context saving, context restoring and task\n"
     << " * calling are the controls the paper lists (section 4.4.2). */\n"
     << "TIMER_ISR void dispatcher(void)\n"
     << "{\n"
     << "  const struct ScheduleItem *item = &" << sym << "[currentItem];\n"
     << "  if (item->preempted) {\n"
     << "    SAVE_CONTEXT(item->task_id); /* of the task being preempted */\n"
     << "  }\n"
     << "\n"
     << "  /* Program the timer for the following entry before running. */\n"
     << "  {\n"
     << "    unsigned int next = currentItem + 1u;\n"
     << "    unsigned long now = cycleBase + item->start;\n"
     << "    unsigned long target;\n"
     << "    if (next == " << size_macro << ") {\n"
     << "      next = 0u;\n"
     << "      cycleBase += SCHEDULE_PERIOD;\n"
     << "    }\n"
     << "    target = cycleBase + " << sym << "[next].start;\n"
     << "    PROGRAM_TIMER(target - now);\n"
     << "    currentItem = next;\n"
     << "  }\n"
     << "\n"
     << "  if (item->preempted) {\n"
     << "    RESTORE_CONTEXT(item->task_id);\n"
     << "  } else {\n"
     << "    item->task();\n"
     << "  }\n"
     << "}\n"
     << "\n"
     << "int main(void)\n"
     << "{\n"
     << "  PROGRAM_TIMER(" << sym << "[0].start);\n"
     << "  for (;;) {\n"
     << "    IDLE();\n"
     << "  }\n"
     << "}\n";
  return os.take();
}

/// Host-simulation backend: same dispatcher walk, virtual clock, built-in
/// deadline checking. Returns the number of missed instances from main().
[[nodiscard]] std::string emit_hostsim_core(
    const Context& ctx, const std::vector<sched::ScheduleItem>& items,
    std::string_view sym, std::string_view size_macro,
    std::string_view core_note) {
  const Specification& spec = ctx.spec;
  TextBuilder os(3072 + 96 * spec.task_count() + kRowBytes * items.size());
  os << "/* Pre-runtime dispatcher (host-simulation backend).\n"
     << " * Generated by ezRealtime for '" << spec.name() << "'.\n"
     << core_note
     << " * Executes one schedule period against a virtual clock and\n"
     << " * verifies every task instance against its deadline; the exit\n"
     << " * code is the number of misses (0 = timely). */\n"
     << "#include <stdio.h>\n"
     << "#include \"schedule.h\"\n\n"
     << "#define TASK_COUNT " << spec.task_count() << "\n\n"
     << "struct TaskParams {\n"
     << "  const char *name;\n"
     << "  unsigned long phase, release, wcet, deadline, period;\n"
     << "};\n\n"
     << "static const struct TaskParams taskParams[TASK_COUNT] = {\n";
  for (TaskId id : spec.task_ids()) {
    const Task& t = spec.task(id);
    os << "  {\"" << t.name << "\", " << t.timing.phase << "ul, "
       << t.timing.release << "ul, " << t.timing.computation << "ul, "
       << t.timing.deadline << "ul, " << t.timing.period << "ul},\n";
  }
  os << "};\n\n";
  append_table(os, ctx, items, sym, size_macro);
  os << "\n"
     << "static unsigned long executed[TASK_COUNT];  /* of open instance */\n"
     << "static unsigned long instances[TASK_COUNT]; /* started so far   */\n"
     << "static unsigned long misses = 0ul;\n\n"
     << "static void complete(int t, unsigned long at)\n"
     << "{\n"
     << "  const struct TaskParams *p = &taskParams[t];\n"
     << "  unsigned long arrival = p->phase + (instances[t] - 1ul) * "
        "p->period;\n"
     << "  int ok = at <= arrival + p->deadline;\n"
     << "  printf(\"%-8s #%lu finish=%lu deadline=%lu %s\\n\", p->name,\n"
     << "         instances[t], at, arrival + p->deadline,\n"
     << "         ok ? \"OK\" : \"MISS\");\n"
     << "  if (!ok) {\n"
     << "    ++misses;\n"
     << "  }\n"
     << "  executed[t] = 0ul;\n"
     << "}\n\n"
     << "int main(void)\n"
     << "{\n"
     << "  unsigned int i;\n"
     << "  for (i = 0u; i < " << size_macro << "; ++i) {\n"
     << "    const struct ScheduleItem *item = &" << sym << "[i];\n"
     << "    int t = item->task_id - 1;\n"
     << "    unsigned long until = (i + 1u < " << size_macro << ")\n"
     << "        ? " << sym << "[i + 1u].start\n"
     << "        : (unsigned long)-1; /* last entry runs to completion */\n"
     << "    unsigned long slice;\n"
     << "    if (!item->preempted) {\n"
     << "      ++instances[t];\n"
     << "      item->task(); /* behavioral code runs at dispatch */\n"
     << "    }\n"
     << "    /* Run until the next timer interrupt or until the WCET is\n"
     << "     * exhausted, whichever comes first. */\n"
     << "    slice = taskParams[t].wcet - executed[t];\n"
     << "    if (until - item->start < slice) {\n"
     << "      slice = until - item->start;\n"
     << "    }\n"
     << "    executed[t] += slice;\n"
     << "    if (executed[t] == taskParams[t].wcet) {\n"
     << "      complete(t, item->start + slice);\n"
     << "    }\n"
     << "  }\n"
     << "  printf(\"schedule period done: %lu misses\\n\", misses);\n"
     << "  return (int)misses;\n"
     << "}\n";
  return os.take();
}

/// Multi-processor schedule.h: shared ScheduleItem layout, one table per
/// processor (each core gets its own image built from its own
/// dispatcher_p<i>.c), and stub declarations for inter-processor messages.
/// `per_core` holds each processor's rows.
[[nodiscard]] std::string emit_header_multi(
    const Context& ctx, const sched::ScheduleTable& table,
    const std::vector<std::vector<sched::ScheduleItem>>& per_core) {
  const Specification& spec = ctx.spec;
  TextBuilder os(1024 + 160 * spec.processor_count() +
                 96 * spec.task_count() + 192 * spec.message_count());
  os << "/* Generated by ezRealtime — scheduled code for '" << spec.name()
     << "' (" << spec.processor_count() << " processors).\n"
     << " * Schedule period (hyper-period): " << table.schedule_period
     << " time units, " << table.items.size()
     << " dispatch points across all cores.\n"
     << " * DO NOT EDIT: regenerate from the specification instead. */\n"
     << "#ifndef EZRT_SCHEDULE_H\n"
     << "#define EZRT_SCHEDULE_H\n\n"
     << "#define SCHEDULE_PERIOD " << table.schedule_period << "ul\n"
     << "#define PROCESSOR_COUNT " << spec.processor_count() << "\n\n"
     << "/* One execution part of one task instance (paper Fig 8). */\n"
     << "struct ScheduleItem {\n"
     << "  unsigned long start;  /* dispatch time within the period   */\n"
     << "  int preempted;        /* 1: resume a saved context         */\n"
     << "  int task_id;          /* 1-based task identifier           */\n"
     << "  void (*task)(void);   /* task entry point                  */\n"
     << "};\n\n";
  for (ProcessorId pid : spec.processor_ids()) {
    const std::uint32_t core = pid.value();
    const std::size_t rows = per_core[core].size();
    os << "/* Core " << core << ": '" << spec.processor(pid).name << "' — "
       << rows << " dispatch points. */\n"
       << "#define SCHEDULE_SIZE_P" << core << " " << rows << "\n";
    if (rows > 0) {
      os << "extern const struct ScheduleItem scheduleTable_p" << core
         << "[SCHEDULE_SIZE_P" << core << "];\n";
    }
    os << "\n";
  }
  for (TaskId id : spec.task_ids()) {
    const Task& t = spec.task(id);
    os << "void task_" << ctx.ident(id) << "(void); /* core "
       << t.processor.value() << ", WCET " << t.timing.computation
       << ", deadline " << t.timing.deadline << ", period "
       << t.timing.period << " */\n";
  }
  if (spec.message_count() > 0) {
    os << "\n/* Inter-processor message stubs (messages.c): hook points for\n"
       << " * the platform bus driver. The schedule already reserves the\n"
       << " * bus window for every transfer, so the stubs never block. */\n";
    for (MessageId mid : spec.message_ids()) {
      const spec::Message& m = spec.message(mid);
      const std::string ident = sanitize_c_identifier(m.name);
      os << "void msg_send_" << ident << "(void); /* core "
         << spec.task(m.sender).processor.value() << " -> core "
         << spec.task(m.receiver).processor.value() << " on '" << m.bus
         << "' */\n"
         << "void msg_recv_" << ident << "(void);\n";
    }
  }
  os << "\n#endif /* EZRT_SCHEDULE_H */\n";
  return os.take();
}

/// messages.c: one send/receive stub pair per inter-processor message,
/// with the statically reserved bus windows documented alongside.
[[nodiscard]] std::string emit_messages(const Specification& spec,
                                        const sched::ScheduleTable& table) {
  TextBuilder os(512 + 384 * spec.message_count() +
                 24 * table.bus_timeline.size());
  os << "/* Inter-processor message stubs for '" << spec.name() << "'.\n"
     << " * The pre-runtime schedule reserves a bus window for every\n"
     << " * transfer (listed below), so these stubs are plain hook points\n"
     << " * for the platform's bus driver: no arbitration or blocking is\n"
     << " * needed at run time. Generated by ezRealtime. */\n"
     << "#include \"schedule.h\"\n";
  for (MessageId mid : spec.message_ids()) {
    const spec::Message& m = spec.message(mid);
    const spec::Task& sender = spec.task(m.sender);
    const spec::Task& receiver = spec.task(m.receiver);
    os << "\n/* " << m.name << ": '" << sender.name << "' (core "
       << sender.processor.value() << ") -> '" << receiver.name
       << "' (core " << receiver.processor.value() << ") on bus '" << m.bus
       << "'.\n * Reserved windows:";
    bool any = false;
    for (const sched::BusSegment& seg : table.bus_timeline) {
      if (seg.message == mid) {
        os << (any ? "," : "") << " [" << seg.start << ","
           << seg.start + seg.duration << ")";
        any = true;
      }
    }
    if (!any) {
      os << " none in this hyper-period";
    }
    const std::string ident = sanitize_c_identifier(m.name);
    os << " */\n"
       << "void msg_send_" << ident << "(void)\n"
       << "{\n"
       << "  /* EZRT_PORT_TODO: enqueue the payload of '" << m.name
       << "' on bus '" << m.bus << "'. */\n"
       << "}\n\n"
       << "void msg_recv_" << ident << "(void)\n"
       << "{\n"
       << "  /* EZRT_PORT_TODO: dequeue '" << m.name
       << "' delivered over bus '" << m.bus << "'. */\n"
       << "}\n";
  }
  return os.take();
}

}  // namespace

const char* to_string(Target target) {
  switch (target) {
    case Target::kBareMetal:
      return "bare-metal";
    case Target::kHostSim:
      return "host-sim";
  }
  return "unknown";
}

Result<GeneratedCode> generate(const Specification& spec,
                               const sched::ScheduleTable& table,
                               const CodegenOptions& options) {
  if (table.items.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot generate code from an empty schedule table");
  }
  Context ctx{spec, {}};
  ctx.idents.reserve(spec.task_count());
  for (TaskId id : spec.task_ids()) {
    ctx.idents.push_back(sanitize_c_identifier(spec.task(id).name));
  }
  // Distinct tasks must map to distinct C symbols.
  if (const TaskId clash = first_colliding_task(ctx.idents); clash.valid()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "task names '" + spec.task(clash).name +
                          "' collide after C-identifier sanitizing");
  }

  GeneratedCode code;
  if (spec.processor_count() > 1) {
    // Multi-processor synthesis: one dispatcher image per core, each
    // walking its own table, plus stubs for the bus-scheduled messages.
    std::vector<std::vector<sched::ScheduleItem>> per_core(
        spec.processor_count());
    for (const sched::ScheduleItem& item : table.items) {
      if (item.processor.value() < per_core.size()) {
        per_core[item.processor.value()].push_back(item);
      }
    }
    code.files.push_back(
        GeneratedFile{"schedule.h", emit_header_multi(ctx, table, per_core)});
    code.files.push_back(GeneratedFile{"tasks.c", emit_tasks(ctx, options)});
    if (spec.message_count() > 0) {
      code.files.push_back(
          GeneratedFile{"messages.c", emit_messages(spec, table)});
    }
    for (ProcessorId pid : spec.processor_ids()) {
      const std::vector<sched::ScheduleItem>& items = per_core[pid.value()];
      if (items.empty()) {
        continue;  // no work pinned to this core, no image to build
      }
      const std::string core = std::to_string(pid.value());
      const std::string sym = "scheduleTable_p" + core;
      const std::string size_macro = "SCHEDULE_SIZE_P" + core;
      const std::string note = " * Processor " + core + ": '" +
                               spec.processor(pid).name +
                               "' — build one image per core.\n";
      code.files.push_back(GeneratedFile{
          "dispatcher_p" + core + ".c",
          options.target == Target::kBareMetal
              ? emit_baremetal_core(ctx, items, sym, size_macro, note)
              : emit_hostsim_core(ctx, items, sym, size_macro, note)});
    }
    if (options.target == Target::kBareMetal) {
      code.files.push_back(GeneratedFile{
          "port.h", generate_port_header(options.mcu, options.timer_hz)});
    }
    return code;
  }
  code.files.push_back(GeneratedFile{"schedule.h", emit_header(ctx, table)});
  code.files.push_back(GeneratedFile{"tasks.c", emit_tasks(ctx, options)});
  switch (options.target) {
    case Target::kBareMetal:
      code.files.push_back(GeneratedFile{
          "dispatcher.c", emit_baremetal_core(ctx, table.items,
                                              "scheduleTable",
                                              "SCHEDULE_SIZE", "")});
      code.files.push_back(GeneratedFile{
          "port.h", generate_port_header(options.mcu, options.timer_hz)});
      break;
    case Target::kHostSim:
      code.files.push_back(GeneratedFile{
          "dispatcher.c", emit_hostsim_core(ctx, table.items,
                                            "scheduleTable", "SCHEDULE_SIZE",
                                            "")});
      break;
  }
  return code;
}

}  // namespace ezrt::codegen
