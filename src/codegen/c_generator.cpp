#include "codegen/c_generator.hpp"

#include <set>
#include <sstream>

#include "base/strings.hpp"

namespace ezrt::codegen {

namespace {

using spec::Specification;
using spec::Task;

[[nodiscard]] std::string task_symbol(const Task& task) {
  return "task_" + sanitize_c_identifier(task.name);
}

[[nodiscard]] std::string msg_send_symbol(const spec::Message& msg) {
  return "msg_send_" + sanitize_c_identifier(msg.name);
}

[[nodiscard]] std::string msg_recv_symbol(const spec::Message& msg) {
  return "msg_recv_" + sanitize_c_identifier(msg.name);
}

/// A struct ScheduleItem array, formatted like the paper's Fig 8 including
/// the start/preempt commentary. `symbol`/`size_macro` name the emitted
/// array (the mono-processor table and each per-core table share the
/// format).
[[nodiscard]] std::string emit_table_named(
    const Specification& spec, const std::vector<sched::ScheduleItem>& items,
    const std::string& symbol, const std::string& size_macro) {
  std::ostringstream os;
  os << "const struct ScheduleItem " << symbol << "[" << size_macro
     << "] = {\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const sched::ScheduleItem& item = items[i];
    const Task& task = spec.task(item.task);
    os << "  {" << item.start << "ul, " << (item.preempted ? 1 : 0) << ", "
       << item.task.value() + 1 << ", " << task_symbol(task) << "}"
       << (i + 1 < items.size() ? "," : " ") << " /* "
       << sanitize_c_identifier(task.name) << item.instance + 1
       << (item.preempted ? " resumes" : " starts") << " */\n";
  }
  os << "};\n";
  return os.str();
}

[[nodiscard]] std::string emit_header(const Specification& spec,
                                      const sched::ScheduleTable& table) {
  std::ostringstream os;
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
    os << "void " << task_symbol(spec.task(id)) << "(void); /* WCET "
       << spec.task(id).timing.computation << ", deadline "
       << spec.task(id).timing.deadline << ", period "
       << spec.task(id).timing.period << " */\n";
  }
  os << "\n#endif /* EZRT_SCHEDULE_H */\n";
  return os.str();
}

[[nodiscard]] std::string emit_tasks(const Specification& spec,
                                     const CodegenOptions& options) {
  std::ostringstream os;
  os << "/* Task bodies: behavioral specification spliced from the model\n"
     << " * (SourceCodeC contents). Generated by ezRealtime. */\n"
     << "#include \"schedule.h\"\n\n";
  for (TaskId id : spec.task_ids()) {
    const Task& task = spec.task(id);
    os << "/* " << task.name << ": "
       << spec::to_string(task.scheduling) << ", c="
       << task.timing.computation << " d=" << task.timing.deadline << " p="
       << task.timing.period << " */\n";
    os << "void " << task_symbol(task) << "(void)\n{\n";
    if (options.include_user_code && task.code.has_value() &&
        !task.code->content.empty()) {
      // Indent the user code one level; it is emitted verbatim otherwise.
      for (const std::string& line : split(task.code->content, '\n')) {
        os << "  " << line << "\n";
      }
    } else {
      os << "  /* TODO: behavioral code for " << task.name
         << " was not specified */\n";
    }
    os << "}\n\n";
  }
  return os.str();
}

/// Bare-metal dispatcher: timer ISR walks the table; the port header
/// supplies SAVE_CONTEXT/RESTORE_CONTEXT/PROGRAM_TIMER/IDLE. `sym` and
/// `size_macro` name the table the ISR walks; `core_note` is an extra
/// header-comment line for per-processor images (empty for mono).
[[nodiscard]] std::string emit_baremetal_core(
    const Specification& spec, const std::vector<sched::ScheduleItem>& items,
    const std::string& sym, const std::string& size_macro,
    const std::string& core_note) {
  std::ostringstream os;
  os << "/* Pre-runtime dispatcher (bare-metal backend).\n"
     << " * Generated by ezRealtime for '" << spec.name() << "'.\n"
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
  if (spec.dispatcher_overhead()) {
    os << "/* EzRTSpecC.dispOveh: account dispatcher latency when\n"
       << " * programming the timer. Calibrate per platform. */\n"
       << "#define DISPATCH_OVERHEAD_TICKS 1\n\n";
  }
  os << emit_table_named(spec, items, sym, size_macro) << "\n"
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
  return os.str();
}

[[nodiscard]] std::string emit_baremetal_dispatcher(
    const Specification& spec, const sched::ScheduleTable& table) {
  return emit_baremetal_core(spec, table.items, "scheduleTable",
                             "SCHEDULE_SIZE", "");
}

/// Host-simulation backend: same dispatcher walk, virtual clock, built-in
/// deadline checking. Returns the number of missed instances from main().
[[nodiscard]] std::string emit_hostsim_core(
    const Specification& spec, const std::vector<sched::ScheduleItem>& items,
    const std::string& sym, const std::string& size_macro,
    const std::string& core_note) {
  std::ostringstream os;
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
  os << "};\n\n"
     << emit_table_named(spec, items, sym, size_macro) << "\n"
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
  return os.str();
}

[[nodiscard]] std::string emit_hostsim_dispatcher(
    const Specification& spec, const sched::ScheduleTable& table) {
  return emit_hostsim_core(spec, table.items, "scheduleTable",
                           "SCHEDULE_SIZE", "");
}

/// Multi-processor schedule.h: shared ScheduleItem layout, one table per
/// processor (each core gets its own image built from its own
/// dispatcher_p<i>.c), and stub declarations for inter-processor messages.
[[nodiscard]] std::string emit_header_multi(
    const Specification& spec, const sched::ScheduleTable& table) {
  std::ostringstream os;
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
    const std::size_t core = pid.value();
    const std::vector<sched::ScheduleItem> items = table.items_for(pid);
    os << "/* Core " << core << ": '" << spec.processor(pid).name << "' — "
       << items.size() << " dispatch points. */\n"
       << "#define SCHEDULE_SIZE_P" << core << " " << items.size() << "\n";
    if (!items.empty()) {
      os << "extern const struct ScheduleItem scheduleTable_p" << core
         << "[SCHEDULE_SIZE_P" << core << "];\n";
    }
    os << "\n";
  }
  for (TaskId id : spec.task_ids()) {
    const Task& t = spec.task(id);
    os << "void " << task_symbol(t) << "(void); /* core "
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
      os << "void " << msg_send_symbol(m) << "(void); /* core "
         << spec.task(m.sender).processor.value() << " -> core "
         << spec.task(m.receiver).processor.value() << " on '" << m.bus
         << "' */\n"
         << "void " << msg_recv_symbol(m) << "(void);\n";
    }
  }
  os << "\n#endif /* EZRT_SCHEDULE_H */\n";
  return os.str();
}

/// messages.c: one send/receive stub pair per inter-processor message,
/// with the statically reserved bus windows documented alongside.
[[nodiscard]] std::string emit_messages(const Specification& spec,
                                        const sched::ScheduleTable& table) {
  std::ostringstream os;
  os << "/* Inter-processor message stubs for '" << spec.name() << "'.\n"
     << " * The pre-runtime schedule reserves a bus window for every\n"
     << " * transfer (listed below), so these stubs are plain hook points\n"
     << " * for the platform's bus driver: no arbitration or blocking is\n"
     << " * needed at run time. Generated by ezRealtime. */\n"
     << "#include \"schedule.h\"\n";
  for (MessageId mid : spec.message_ids()) {
    const spec::Message& m = spec.message(mid);
    os << "\n/* " << m.name << ": '" << spec.task(m.sender).name
       << "' (core " << spec.task(m.sender).processor.value() << ") -> '"
       << spec.task(m.receiver).name << "' (core "
       << spec.task(m.receiver).processor.value() << ") on bus '" << m.bus
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
    os << " */\n"
       << "void " << msg_send_symbol(m) << "(void)\n"
       << "{\n"
       << "  /* EZRT_PORT_TODO: enqueue the payload of '" << m.name
       << "' on bus '" << m.bus << "'. */\n"
       << "}\n\n"
       << "void " << msg_recv_symbol(m) << "(void)\n"
       << "{\n"
       << "  /* EZRT_PORT_TODO: dequeue '" << m.name
       << "' delivered over bus '" << m.bus << "'. */\n"
       << "}\n";
  }
  return os.str();
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
  // Distinct tasks must map to distinct C symbols.
  std::set<std::string> symbols;
  for (TaskId id : spec.task_ids()) {
    if (!symbols.insert(task_symbol(spec.task(id))).second) {
      return make_error(ErrorCode::kInvalidArgument,
                        "task names '" + spec.task(id).name +
                            "' collide after C-identifier sanitizing");
    }
  }

  GeneratedCode code;
  if (spec.processor_count() > 1) {
    // Multi-processor synthesis: one dispatcher image per core, each
    // walking its own table, plus stubs for the bus-scheduled messages.
    code.files.push_back(GeneratedFile{"schedule.h",
                                       emit_header_multi(spec, table)});
    code.files.push_back(
        GeneratedFile{"tasks.c", emit_tasks(spec, options)});
    if (spec.message_count() > 0) {
      code.files.push_back(
          GeneratedFile{"messages.c", emit_messages(spec, table)});
    }
    for (ProcessorId pid : spec.processor_ids()) {
      const std::vector<sched::ScheduleItem> items = table.items_for(pid);
      if (items.empty()) {
        continue;  // no work pinned to this core, no image to build
      }
      const std::string core = std::to_string(pid.value());
      const std::string sym = "scheduleTable_p" + core;
      const std::string size_macro = "SCHEDULE_SIZE_P" + core;
      const std::string note = " * Processor " + core + ": '" +
                               spec.processor(pid).name +
                               "' — build one image per core.\n";
      const std::string file = "dispatcher_p" + core + ".c";
      switch (options.target) {
        case Target::kBareMetal:
          code.files.push_back(GeneratedFile{
              file, emit_baremetal_core(spec, items, sym, size_macro,
                                        note)});
          break;
        case Target::kHostSim:
          code.files.push_back(GeneratedFile{
              file,
              emit_hostsim_core(spec, items, sym, size_macro, note)});
          break;
      }
    }
    if (options.target == Target::kBareMetal) {
      code.files.push_back(GeneratedFile{
          "port.h", generate_port_header(options.mcu, options.timer_hz)});
    }
    return code;
  }
  code.files.push_back(GeneratedFile{"schedule.h",
                                     emit_header(spec, table)});
  code.files.push_back(GeneratedFile{"tasks.c", emit_tasks(spec, options)});
  switch (options.target) {
    case Target::kBareMetal:
      code.files.push_back(GeneratedFile{
          "dispatcher.c", emit_baremetal_dispatcher(spec, table)});
      code.files.push_back(GeneratedFile{
          "port.h", generate_port_header(options.mcu, options.timer_hz)});
      break;
    case Target::kHostSim:
      code.files.push_back(GeneratedFile{
          "dispatcher.c", emit_hostsim_dispatcher(spec, table)});
      break;
  }
  return code;
}

}  // namespace ezrt::codegen
