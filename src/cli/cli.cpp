#include "cli/cli.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/cancel.hpp"
#include "base/strings.hpp"
#include "obs/explain.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "pnml/ezspec_io.hpp"
#include "tpn/dot.hpp"

#include "core/project.hpp"
#include "core/run_options.hpp"
#include "core/run_report.hpp"
#include "runtime/cyclic.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/admission.hpp"
#include "runtime/latency.hpp"
#include "runtime/metrics.hpp"
#include "runtime/online_sched.hpp"
#include "sched/reachability.hpp"
#include "sched/trace_io.hpp"
#include "serve/server.hpp"
#include "tpn/state_class.hpp"
#include "workload/generator.hpp"

namespace ezrt::cli {

namespace {

// Documented exit codes (docs/robustness.md, `ezrt help`). Scripts and CI
// branch on these, so the mapping is part of the tool's contract:
//   0   success (feasible schedule, valid spec, clean simulation)
//   1   runtime failure (I/O, unsupported feature, internal error,
//       simulation detected deadline misses, replay diverged)
//   2   infeasible — a definitive domain answer, not an error
//   3   a configured budget tripped (state, wall-clock or memory limit)
//   4   invalid input (malformed document, inconsistent spec, bad flags)
//   130 cancelled (128 + SIGINT, the shell convention for ^C)
constexpr int kOk = 0;
constexpr int kFailure = 1;
constexpr int kInfeasibleExit = 2;
constexpr int kLimitExit = 3;
constexpr int kInvalidInput = 4;
constexpr int kCancelledExit = 130;

[[nodiscard]] int exit_code_for(const Error& error) {
  switch (error.code()) {
    case ErrorCode::kInfeasible:
      return kInfeasibleExit;
    case ErrorCode::kLimitExceeded:
      return kLimitExit;
    case ErrorCode::kCancelled:
      return kCancelledExit;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kParseError:
    case ErrorCode::kValidationError:
      return kInvalidInput;
    case ErrorCode::kUnsupported:
    case ErrorCode::kIoError:
    case ErrorCode::kInternal:
      return kFailure;
  }
  return kFailure;
}

/// Prints the error and maps it to its documented exit code.
[[nodiscard]] int fail(std::ostream& err, const Error& error) {
  err << "error: " << error << "\n";
  return exit_code_for(error);
}

/// Parsed command line: positionals plus --flag[=value] options.
class Args {
 public:
  /// Parses argv[1..] against the flags command argv[0] declares:
  /// `run_options` adds every run-option flag (core/run_options.hpp),
  /// `flags` lists its own, space-separated, with a trailing '=' on those
  /// that take a value. An undeclared flag is an error that names it.
  [[nodiscard]] static Result<Args> parse(const std::vector<std::string>& argv,
                                          bool run_options,
                                          std::string_view flags) {
    Args args;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      const std::string& arg = argv[i];
      if (arg != "-o" && arg.rfind("--", 0) != 0) {
        args.positional_.push_back(arg);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg == "-o" ? "output" : arg.substr(2, eq - 2);
      const std::optional<bool> wants_value =
          takes_value(name, run_options, flags);
      if (!wants_value.has_value()) {
        return make_error(ErrorCode::kInvalidArgument,
                          "ezrt " + argv[0] + ": unknown flag '" +
                              arg.substr(0, eq) + "'");
      }
      if (eq != std::string::npos) {
        args.options_[name] = arg.substr(eq + 1);
      } else if (*wants_value && i + 1 < argv.size() &&
                 argv[i + 1].rfind("--", 0) != 0) {
        args.options_[name] = argv[++i];
      } else {
        args.options_[name] = "";
      }
    }
    return args;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return options_.contains(name);
  }
  [[nodiscard]] std::optional<std::string> value(
      const std::string& name) const {
    auto it = options_.find(name);
    if (it == options_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  /// Whether the declared flag `name` takes a value; nullopt when it is
  /// not declared.
  [[nodiscard]] static std::optional<bool> takes_value(
      std::string_view name, bool run_options, std::string_view flags) {
    if (run_options) {
      for (const core::RunOption& row : core::run_options()) {
        if (core::cli_flag(row) == name) {
          return row.kind != core::OptionKind::kSwitch;
        }
      }
    }
    for (std::size_t pos = 0; pos < flags.size();) {
      const std::size_t end = std::min(flags.find(' ', pos), flags.size());
      std::string_view flag = flags.substr(pos, end - pos);
      const bool value = flag.ends_with('=');
      if (value) {
        flag.remove_suffix(1);
      }
      if (flag == name) {
        return value;
      }
      pos = end + 1;
    }
    return std::nullopt;
  }
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

/// Reads the integer flag `name`, if given, into `field`: at least `min`
/// and at most what `field` holds. False after printing the error.
template <typename T>
[[nodiscard]] bool read_uint(const Args& args, const std::string& name,
                             T& field, std::ostream& err,
                             std::uint64_t min = 0) {
  const auto text = args.value(name);
  if (!text.has_value()) {
    return true;
  }
  auto parsed = core::parse_integer(*text, min, std::numeric_limits<T>::max(),
                                    "--" + name);
  if (!parsed.ok()) {
    err << "error: " << parsed.error() << "\n";
    return false;
  }
  field = static_cast<T>(parsed.value());
  return true;
}

[[nodiscard]] Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kIoError, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[nodiscard]] Status write_file(const std::filesystem::path& path,
                                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return make_error(ErrorCode::kIoError,
                      "cannot write '" + path.string() + "'");
  }
  out << content;
  return Status();
}

/// Loads the project from the spec file named by the first positional.
/// `tracer` (optional) records the spec-parse stage span; `cancel`
/// (optional) is plumbed into the scheduler's resource guards.
[[nodiscard]] Result<core::Project> load_project(
    const Args& args, obs::Tracer* tracer = nullptr,
    const base::CancelToken* cancel = nullptr) {
  if (args.positional().empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "missing <spec.xml> argument");
  }
  auto document = read_file(args.positional()[0]);
  if (!document.ok()) {
    return document.error();
  }
  core::RunOptions options;
  for (const core::RunOption& row : core::run_options()) {
    const std::string flag = core::cli_flag(row);
    if (auto text = args.value(flag)) {
      if (auto status = core::set_text(options, row, *text, "--" + flag);
          !status.ok()) {
        return status.error();
      }
    }
  }
  core::resolve(options);
  options.scheduler.cancel = cancel;
  auto parsed = [&] {
    obs::Span span(tracer, "spec-parse", "pipeline");
    return pnml::read_ezspec(document.value());
  }();
  if (!parsed.ok()) {
    return parsed.error();
  }
  spec::Specification specification = std::move(parsed).value();
  options.apply_to(specification);
  return core::Project(std::move(specification), options.build,
                       options.scheduler);
}

/// The `--progress[=MS]` heartbeat: the sink a search publishes into and
/// the reporter that prints it on stderr, so stdout stays parseable.
struct Progress {
  obs::ProgressSink sink;
  std::optional<obs::ProgressReporter> reporter;

  /// Starts the reporter when the flag is given; returns the sink to hand
  /// the search (null without the flag).
  [[nodiscard]] Result<obs::ProgressSink*> start(const Args& args,
                                                 std::ostream& err) {
    const auto value = args.value("progress");
    if (!value.has_value()) {
      return nullptr;
    }
    std::uint64_t interval_ms = 1000;
    if (!value->empty()) {
      auto parsed = core::parse_integer(
          *value, 0, std::numeric_limits<std::uint32_t>::max(), "--progress");
      if (!parsed.ok()) {
        return parsed.error();
      }
      interval_ms = parsed.value();
    }
    reporter.emplace(sink, err, std::chrono::milliseconds(interval_ms));
    return &sink;
  }
  void stop() {
    if (reporter.has_value()) {
      reporter->stop();
    }
  }
};

int cmd_info(const Args& args, std::ostream& out, std::ostream& err,
             const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const spec::Specification& s = project.value().specification();
  out << "specification: " << s.name() << "\n"
      << "  processors: " << s.processor_count() << "\n"
      << "  tasks:      " << s.task_count() << "\n"
      << "  messages:   " << s.message_count() << "\n"
      << "  utilization: " << s.utilization() << "\n"
      << "  sync budget: " << s.sync_budget() << "\n";
  if (auto ps = s.schedule_period(); ps.ok()) {
    out << "  schedule period: " << ps.value() << "\n"
        << "  task instances:  " << s.total_instances().value() << "\n";
  }
  if (s.processor_count() > 1) {
    out << "  processors (name utilization):\n";
    for (ProcessorId id : s.processor_ids()) {
      out << "    " << s.processor(id).name << " " << s.utilization(id)
          << "\n";
    }
  }
  if (s.message_count() > 0) {
    // Routing: which bus each cross-core channel crosses, and its cost.
    out << "  messages (name sender -> [bus] -> receiver, grant+comm):\n";
    for (MessageId id : s.message_ids()) {
      const spec::Message& m = s.message(id);
      const std::string sender =
          m.sender.valid() ? s.task(m.sender).name : "?";
      const std::string receiver =
          m.receiver.valid() ? s.task(m.receiver).name : "?";
      out << "    " << m.name << " " << sender << " -> [" << m.bus
          << "] -> " << receiver << ", " << m.grant_bus << "+"
          << m.communication << "\n";
    }
  }
  out << "  tasks (name c d p ph r mode):\n";
  for (TaskId id : s.task_ids()) {
    const spec::Task& t = s.task(id);
    out << "    " << t.name << " " << t.timing.computation << " "
        << t.timing.deadline << " " << t.timing.period << " "
        << t.timing.phase << " " << t.timing.release << " "
        << (t.scheduling == spec::SchedulingType::kPreemptive ? "P" : "NP")
        << "\n";
  }
  out << "  analytic schedulability pre-checks:\n"
      << runtime::format_admission(runtime::check_admission(s));
  return kOk;
}

int cmd_validate(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  out << "specification is valid\n";
  return kOk;
}

int cmd_schedule(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken* cancel) {
  const auto report_path = args.value("report");
  const auto trace_out_path = args.value("trace-out");
  obs::Tracer tracer;
  obs::Tracer* const tracer_ptr =
      report_path.has_value() || trace_out_path.has_value() ? &tracer
                                                            : nullptr;
  auto project = load_project(args, tracer_ptr, cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(tracer_ptr);
  if (report_path.has_value()) {
    // Reports carry the per-worker/per-shard breakdown; collection runs
    // after the verdict and never perturbs the search.
    p.scheduler_options().collect_telemetry = true;
  }

  Progress progress;
  auto sink = progress.start(args, err);
  if (!sink.ok()) {
    return fail(err, sink.error());
  }
  p.scheduler_options().progress = sink.value();

  const Status status = p.schedule();
  progress.stop();

  // Report and Chrome trace are written on success *and* failure: the
  // effort spent proving infeasibility is exactly what one wants to
  // inspect afterwards. Run after the table/trace outputs so their
  // pipeline spans land in the report.
  auto write_observability = [&]() -> Status {
    if (report_path.has_value()) {
      if (auto s = write_file(*report_path, core::run_report_json(p, tracer_ptr));
          !s.ok()) {
        return s;
      }
      out << "report written to " << *report_path << "\n";
    }
    if (trace_out_path.has_value()) {
      if (auto s = obs::write_trace_file(tracer, *trace_out_path); !s.ok()) {
        return s;
      }
      out << "trace written to " << *trace_out_path << "\n";
    }
    return Status();
  };

  if (!status.ok()) {
    err << "error: " << status.error() << "\n";
    if (p.scheduled()) {
      err << "  states visited: " << p.outcome().stats.states_visited
          << ", backtracks: " << p.outcome().stats.backtracks << "\n";
    }
    // The report is still written with the partial search statistics —
    // a cancelled or budget-limited run leaves a full audit trail.
    if (auto s = write_observability(); !s.ok()) {
      err << "error: " << s.error() << "\n";
    }
    return exit_code_for(status.error());
  }
  const sched::SearchStats& stats = p.outcome().stats;
  out << "feasible schedule: " << p.outcome().trace.size() << " firings, "
      << stats.states_visited << " states, " << stats.elapsed_ms << " ms\n";
  if (p.outcome().parallel_verdict_ms > 0.0) {
    out << "deterministic: " << p.outcome().parallel_verdict_ms
        << " ms parallel verdict + " << stats.elapsed_ms
        << " ms serial trace re-derivation\n";
  }
  out << "search effort: pruned deadline=" << stats.pruned_deadline
      << " revisited=" << stats.pruned_visited
      << " priority=" << stats.pruned_priority << ", peak visited "
      << stats.peak_visited_bytes << " bytes\n";
  if (args.has("optimize")) {
    out << "optimized: best cost " << p.outcome().best_cost << " over "
        << p.outcome().solutions_found << " schedule(s) considered\n";
  }
  auto table = p.table();
  if (!table.ok()) {
    return fail(err, table.error());
  }
  out << sched::to_string(table.value(), p.specification());
  if (auto trace_path = args.value("trace")) {
    const std::string document =
        sched::write_trace(p.model().net, p.outcome().trace);
    if (auto status2 = write_file(*trace_path, document); !status2.ok()) {
      return fail(err, status2.error());
    }
    out << "trace written to " << *trace_path << "\n";
  }
  if (auto s = write_observability(); !s.ok()) {
    return fail(err, s.error());
  }
  return kOk;
}

/// Exit code for the explain command: mirrors the verdict the
/// explanation was built for, so scripts can branch identically on
/// `ezrt schedule` and `ezrt explain`.
[[nodiscard]] int exit_code_for(sched::SearchStatus status) {
  switch (status) {
    case sched::SearchStatus::kFeasible:
      return kOk;
    case sched::SearchStatus::kInfeasible:
      return kInfeasibleExit;
    case sched::SearchStatus::kLimitReached:
    case sched::SearchStatus::kTimeLimit:
    case sched::SearchStatus::kMemoryLimit:
      return kLimitExit;
    case sched::SearchStatus::kCancelled:
      return kCancelledExit;
  }
  return kFailure;
}

int cmd_explain(const Args& args, std::ostream& out, std::ostream& err,
                const base::CancelToken* cancel) {
  const auto report_path = args.value("report");
  auto project = load_project(args, nullptr, cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  // The provenance contract (docs/explain.md §4): attribution counters on,
  // thread-count-independent outcome, and byte-deterministic report
  // emission — the same spec and options always produce the same bytes.
  p.scheduler_options().collect_attribution = true;
  p.scheduler_options().deterministic = true;
  if (p.scheduler_options().wall_limit_ms != 0) {
    // One budget for the whole explanation, not per search: without the
    // absolute deadline, every culprit-minimization probe would restart
    // the relative wall limit at its own t0 and `--wall-limit 100` could
    // legally burn 100 ms × probes (docs/robustness.md).
    p.scheduler_options().deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(p.scheduler_options().wall_limit_ms);
  }

  obs::ExplainOptions explain_options;
  if (args.has("no-minimize")) {
    explain_options.minimize = false;
  }
  if (!read_uint(args, "sync-cap", explain_options.sync_budget_cap, err, 1)) {
    return kInvalidInput;
  }

  // Layer 1 first: a violated necessary condition explains infeasibility
  // without any search, so trivially-doomed specs answer in microseconds.
  obs::Explanation explanation;
  if (obs::certificates_prove_infeasible(
          obs::analytic_certificates(p.specification()))) {
    explain_options.scheduler = p.scheduler_options();
    explanation = obs::build_explanation(p.specification(), nullptr, nullptr,
                                         nullptr, explain_options);
  } else {
    const Status status = p.schedule();
    if (!p.scheduled()) {
      // The pipeline failed before a verdict (parse/validate/build); there
      // is nothing to explain.
      return fail(err, status.error());
    }
    explain_options.scheduler = p.scheduler_options();
    Result<sched::ScheduleTable> table = make_error(
        ErrorCode::kInternal, "no schedule");
    const sched::ScheduleTable* table_ptr = nullptr;
    if (p.outcome().status == sched::SearchStatus::kFeasible) {
      table = p.table();
      if (table.ok()) {
        table_ptr = &table.value();
      }
    }
    explanation = obs::build_explanation(p.specification(), &p.model().net,
                                         &p.outcome(), table_ptr,
                                         explain_options);
  }

  out << obs::render_explanation(explanation);
  if (report_path.has_value()) {
    core::RunReportExtras extras;
    extras.explanation = &explanation;
    extras.deterministic = true;
    if (auto s = write_file(*report_path,
                            core::run_report_json(p, nullptr, &extras));
        !s.ok()) {
      return fail(err, s.error());
    }
    out << "report written to " << *report_path << "\n";
  }
  return exit_code_for(explanation.status);
}

int cmd_codegen(const Args& args, std::ostream& out, std::ostream& err,
                const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const auto dir = args.value("output");
  if (!dir.has_value()) {
    err << "error: codegen requires -o <dir>\n";
    return kInvalidInput;
  }
  codegen::CodegenOptions options;
  if (auto target = args.value("target")) {
    if (*target == "bare-metal") {
      options.target = codegen::Target::kBareMetal;
    } else if (*target == "host-sim") {
      options.target = codegen::Target::kHostSim;
    } else {
      err << "error: unknown target '" << *target << "'\n";
      return kInvalidInput;
    }
  }
  if (auto mcu = args.value("mcu")) {
    auto family = codegen::mcu_family_from_string(*mcu);
    if (!family.ok()) {
      err << "error: " << family.error() << "\n";
      return kInvalidInput;
    }
    options.mcu = family.value();
  }
  if (!read_uint(args, "timer-hz", options.timer_hz, err)) {
    return kInvalidInput;
  }
  auto code = project.value().generate_code(options);
  if (!code.ok()) {
    return fail(err, code.error());
  }
  std::filesystem::create_directories(*dir);
  for (const codegen::GeneratedFile& file : code.value().files) {
    if (auto status =
            write_file(std::filesystem::path(*dir) / file.name,
                       file.content);
        !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << (std::filesystem::path(*dir) / file.name).string()
        << "\n";
  }
  return kOk;
}

int cmd_export_dot(const Args& args, std::ostream& out, std::ostream& err,
                   const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  if (auto status = project.value().build(); !status.ok()) {
    return fail(err, status.error());
  }
  tpn::DotOptions options;
  options.show_priorities = args.has("priorities");
  const std::string dot =
      tpn::write_dot(project.value().model().net, options);
  if (auto path = args.value("output")) {
    if (auto status = write_file(*path, dot); !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << *path << "\n";
  } else {
    out << dot;
  }
  return kOk;
}

int cmd_export_pnml(const Args& args, std::ostream& out, std::ostream& err,
                    const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  auto document = project.value().export_pnml();
  if (!document.ok()) {
    return fail(err, document.error());
  }
  if (auto path = args.value("output")) {
    if (auto status = write_file(*path, document.value()); !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << *path << "\n";
  } else {
    out << document.value();
  }
  return kOk;
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  const auto trace_out_path = args.value("trace-out");
  obs::Tracer tracer;
  obs::Tracer* const tracer_ptr =
      trace_out_path.has_value() ? &tracer : nullptr;
  auto project = load_project(args, tracer_ptr);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(tracer_ptr);
  auto table = p.table();
  if (!table.ok()) {
    return fail(err, table.error());
  }
  runtime::DispatchSimOptions sim_options;
  sim_options.tracer = tracer_ptr;
  const runtime::DispatcherRun run = runtime::simulate_dispatcher(
      p.specification(), table.value(), sim_options);
  out << "dispatcher run: " << run.outcomes.size() << " instances, "
      << run.context_saves << " saves, " << run.context_restores
      << " restores, "
      << (run.all_deadlines_met ? "all deadlines met" : "DEADLINES MISSED")
      << "\n\n";
  const runtime::ScheduleMetrics metrics =
      runtime::compute_metrics(p.specification(), table.value());
  out << runtime::format_metrics(p.specification(), metrics) << "\n";
  out << runtime::render_gantt(p.specification(), table.value()) << "\n";
  const auto latencies =
      runtime::analyze_latency(p.specification(), table.value());
  if (!latencies.empty()) {
    out << "end-to-end chain latency:\n"
        << runtime::format_latency(p.specification(), latencies) << "\n";
  }
  if (trace_out_path.has_value()) {
    if (auto status = obs::write_trace_file(tracer, *trace_out_path);
        !status.ok()) {
      return fail(err, status.error());
    }
    out << "trace written to " << *trace_out_path << "\n";
  }

  if (auto cycles = args.value("cycles")) {
    auto parsed = parse_uint(*cycles);
    if (!parsed.ok()) {
      err << "error: " << parsed.error() << "\n";
      return kInvalidInput;
    }
    const runtime::CyclicCheck check =
        runtime::check_repeatable(p.specification(), table.value());
    if (!check.repeatable) {
      err << "schedule is not repeatable:\n";
      for (const std::string& reason : check.reasons) {
        err << "  - " << reason << "\n";
      }
      return kFailure;
    }
    const runtime::CyclicRun cyclic = runtime::simulate_cyclic(
        p.specification(), table.value(), parsed.value());
    out << "cyclic run over " << cyclic.cycles << " schedule periods: "
        << cyclic.instances_completed << " instances, "
        << cyclic.deadline_misses << " misses, "
        << cyclic.context_switches << " context switches, busy "
        << cyclic.total_busy << " / idle " << cyclic.total_idle << "\n";
    return cyclic.ok && run.ok() ? kOk : kFailure;
  }
  return run.ok() ? kOk : kFailure;
}

int cmd_workload(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  workload::WorkloadConfig config;
  if (!read_uint(args, "tasks", config.tasks, err) ||
      !read_uint(args, "seed", config.seed, err) ||
      !read_uint(args, "precedence", config.precedence_edges, err) ||
      !read_uint(args, "exclusion", config.exclusion_pairs, err) ||
      !read_uint(args, "processors", config.processors, err) ||
      !read_uint(args, "messages", config.messages, err) ||
      !read_uint(args, "sync-budget", config.sync_budget, err)) {
    return kInvalidInput;
  }
  if (auto value = args.value("placement")) {
    if (*value == "partitioned") {
      config.placement = workload::Placement::kPartitioned;
    } else if (*value == "global") {
      config.placement = workload::Placement::kGlobal;
    } else {
      err << "error: --placement expects partitioned|global\n";
      return kInvalidInput;
    }
  }
  if (auto value = args.value("utilization")) {
    try {
      config.utilization = std::stod(*value);
    } catch (const std::exception&) {
      err << "error: --utilization expects a number\n";
      return kInvalidInput;
    }
  }
  if (auto value = args.value("preemptive")) {
    try {
      config.preemptive_fraction = std::stod(*value);
    } catch (const std::exception&) {
      err << "error: --preemptive expects a fraction\n";
      return kInvalidInput;
    }
  }
  auto generated = workload::generate(config);
  if (!generated.ok()) {
    return fail(err, generated.error());
  }
  auto document = pnml::write_ezspec(generated.value());
  if (!document.ok()) {
    return fail(err, document.error());
  }
  if (auto path = args.value("output")) {
    if (auto status = write_file(*path, document.value()); !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << *path << " (" << generated.value().task_count()
        << " tasks, U = " << generated.value().utilization() << ")\n";
  } else {
    out << document.value();
  }
  return kOk;
}

int cmd_baseline(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const spec::Specification& s = project.value().specification();
  out << "policy    schedulable  misses  preemptions  dispatches\n";
  for (const auto policy :
       {runtime::OnlinePolicy::kEdf, runtime::OnlinePolicy::kDeadlineMonotonic,
        runtime::OnlinePolicy::kRateMonotonic,
        runtime::OnlinePolicy::kEdfNonPreemptive}) {
    const runtime::OnlineResult r = runtime::simulate_online(s, policy);
    char line[96];
    std::snprintf(line, sizeof(line), "%-9s %-12s %6llu %12llu %11llu\n",
                  runtime::to_string(policy), r.schedulable ? "yes" : "no",
                  static_cast<unsigned long long>(r.deadline_misses),
                  static_cast<unsigned long long>(r.preemptions),
                  static_cast<unsigned long long>(r.dispatches));
    out << line;
  }
  return kOk;
}

int cmd_replay(const Args& args, std::ostream& out, std::ostream& err,
               const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  if (args.positional().size() < 2) {
    err << "error: replay requires <spec.xml> <trace-file>\n";
    return kInvalidInput;
  }
  core::Project& p = project.value();
  if (auto status = p.build(); !status.ok()) {
    return fail(err, status.error());
  }
  auto document = read_file(args.positional()[1]);
  if (!document.ok()) {
    return fail(err, document.error());
  }
  auto trace = sched::read_trace(p.model().net, document.value());
  if (!trace.ok()) {
    return fail(err, trace.error());
  }
  sched::DfsScheduler scheduler(p.model().net);
  auto final_state = scheduler.replay(trace.value());
  if (!final_state.ok()) {
    err << "replay FAILED: " << final_state.error() << "\n";
    return exit_code_for(final_state.error());
  }
  const bool reaches_goal =
      tpn::is_final_marking(p.model().net, final_state.value().marking());
  out << "replayed " << trace.value().size() << " firings; final marking "
      << (reaches_goal ? "reaches" : "DOES NOT reach") << " M_F\n";
  return reaches_goal ? kOk : kFailure;
}

int cmd_reach(const Args& args, std::ostream& out, std::ostream& err,
              const base::CancelToken* cancel) {
  const auto report_path = args.value("report");
  const auto trace_out_path = args.value("trace-out");
  obs::Tracer tracer;
  obs::Tracer* const tracer_ptr =
      report_path.has_value() || trace_out_path.has_value() ? &tracer
                                                            : nullptr;
  auto project = load_project(args, tracer_ptr, cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(tracer_ptr);
  if (auto status = p.build(); !status.ok()) {
    return fail(err, status.error());
  }
  // The state budget and resource guards are run options, parsed with
  // the rest by load_project.
  const sched::SchedulerOptions& limits = p.scheduler_options();
  sched::ReachabilityOptions options;
  options.cancel = cancel;
  options.max_states = limits.max_states;
  options.wall_limit_ms = limits.wall_limit_ms;
  options.memory_limit_bytes = limits.memory_limit_bytes;
  Progress progress;
  auto sink = progress.start(args, err);
  if (!sink.ok()) {
    return fail(err, sink.error());
  }
  options.progress = sink.value();
  if (args.has("classes")) {
    // Dense-time analysis via the state-class graph (Berthomieu-Diaz).
    tpn::ClassGraphOptions class_options;
    class_options.max_classes = options.max_states;
    const tpn::ClassGraphResult result =
        tpn::build_class_graph(p.model().net, class_options);
    out << "state-class graph ("
        << (result.complete ? "complete" : "bounded") << ", dense time):\n"
        << "  classes explored:  " << result.classes_explored << "\n"
        << "  edges:             " << result.edges << "\n"
        << "  distinct markings: " << result.distinct_markings << "\n"
        << "  final reachable:   "
        << (result.final_reachable ? "yes" : "no") << "\n"
        << "  miss reachable:    "
        << (result.miss_reachable ? "yes" : "no") << "\n";
    return kOk;
  }
  const sched::ReachabilityResult result = [&] {
    obs::Span span(tracer_ptr, "reachability", "pipeline");
    return sched::explore(p.model().net, options);
  }();
  progress.stop();
  // Report and Chrome trace are written for every stop reason: a
  // budget-limited exploration leaves the same audit trail as a complete
  // one (mirrors `ezrt schedule --report`).
  if (report_path.has_value()) {
    core::RunReportExtras extras;
    extras.reachability = &result;
    if (auto s = write_file(*report_path,
                            core::run_report_json(p, tracer_ptr, &extras));
        !s.ok()) {
      return fail(err, s.error());
    }
    out << "report written to " << *report_path << "\n";
  }
  if (trace_out_path.has_value()) {
    if (auto s = obs::write_trace_file(tracer, *trace_out_path); !s.ok()) {
      return fail(err, s.error());
    }
    out << "trace written to " << *trace_out_path << "\n";
  }
  out << "reachability ("
      << (result.complete ? "complete" : sched::to_string(result.stop))
      << "):\n"
      << "  states explored:  " << result.states_explored << "\n"
      << "  final reachable:  " << (result.final_reachable ? "yes" : "no")
      << "\n"
      << "  miss reachable:   " << (result.miss_reachable ? "yes" : "no")
      << "\n"
      << "  deadlock found:   " << (result.deadlock_found ? "yes" : "no")
      << "\n"
      << "  place bound:      " << result.bound << "\n";
  // A bounded-but-finished analysis is the documented default mode (exit
  // 0); only a tripped wall/memory guard or a cancellation escalates.
  switch (result.stop) {
    case sched::ReachabilityStop::kTimeLimit:
    case sched::ReachabilityStop::kMemoryLimit:
      return kLimitExit;
    case sched::ReachabilityStop::kCancelled:
      return kCancelledExit;
    case sched::ReachabilityStop::kComplete:
    case sched::ReachabilityStop::kStateBudget:
      break;
  }
  return kOk;
}

int cmd_robust(const Args& args, std::ostream& out, std::ostream& err,
               const base::CancelToken* cancel) {
  // Campaign parameters. The defaults exercise every fault kind and
  // every recovery policy over a 16x intensity range.
  auto fault_specs = runtime::parse_fault_specs(
      args.value("faults").value_or("wcet:0.3,drift:0.2,burst:0.1,fail:0.1"));
  if (!fault_specs.ok()) {
    return fail(err, fault_specs.error());
  }
  runtime::CampaignOptions campaign;
  campaign.cancel = cancel;
  if (auto list = args.value("intensities")) {
    campaign.intensities.clear();
    std::size_t pos = 0;
    while (pos <= list->size()) {
      const std::size_t comma = std::min(list->find(',', pos), list->size());
      const std::string entry = list->substr(pos, comma - pos);
      pos = comma + 1;
      try {
        std::size_t used = 0;
        const double v = std::stod(entry, &used);
        if (used != entry.size() || !(v > 0.0)) {
          throw std::invalid_argument(entry);
        }
        campaign.intensities.push_back(v);
      } catch (const std::exception&) {
        err << "error: --intensities expects positive numbers, got '"
            << entry << "'\n";
        return kInvalidInput;
      }
      if (comma == list->size()) {
        break;
      }
    }
    if (campaign.intensities.empty()) {
      err << "error: --intensities is empty\n";
      return kInvalidInput;
    }
  }
  if (!read_uint(args, "trials", campaign.trials, err, 1) ||
      !read_uint(args, "seed", campaign.seed, err)) {
    return kInvalidInput;
  }
  if (auto list = args.value("policies")) {
    campaign.policies.clear();
    std::size_t pos = 0;
    while (pos <= list->size()) {
      const std::size_t comma = std::min(list->find(',', pos), list->size());
      auto policy = runtime::parse_recovery_policy(
          std::string_view(*list).substr(pos, comma - pos));
      if (!policy.ok()) {
        return fail(err, policy.error());
      }
      campaign.policies.push_back(policy.value());
      pos = comma + 1;
      if (comma == list->size()) {
        break;
      }
    }
    if (campaign.policies.empty()) {
      err << "error: --policies is empty\n";
      return kInvalidInput;
    }
  }

  const auto report_path = args.value("report");
  const auto trace_out_path = args.value("trace-out");
  obs::Tracer tracer;
  obs::Tracer* const tracer_ptr =
      trace_out_path.has_value() ? &tracer : nullptr;
  campaign.tracer = tracer_ptr;

  auto project = load_project(args, tracer_ptr, cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(tracer_ptr);

  // --progress covers the synthesis phase (the search is where a campaign
  // can stall); the trial sweep afterwards is bounded work.
  Progress progress;
  auto sink = progress.start(args, err);
  if (!sink.ok()) {
    return fail(err, sink.error());
  }
  p.scheduler_options().progress = sink.value();

  auto table = p.table();  // synthesizes the schedule on demand
  progress.stop();
  if (!table.ok()) {
    return fail(err, table.error());
  }

  const runtime::ResilienceReport report = runtime::run_campaign(
      p.specification(), table.value(), fault_specs.value(), campaign);

  out << "resilience campaign: " << report.spec_name << ", seed "
      << report.seed << ", " << report.intensities.size()
      << " intensities x " << report.trials << " trials x "
      << campaign.policies.size() << " policies"
      << (report.cancelled ? " (cancelled)" : "") << "\n\n"
      << runtime::format_resilience(report);

  if (report_path.has_value()) {
    if (auto s = write_file(*report_path,
                            runtime::resilience_report_json(report));
        !s.ok()) {
      return fail(err, s.error());
    }
    out << "\nreport written to " << *report_path << "\n";
  }
  if (trace_out_path.has_value()) {
    if (auto s = obs::write_trace_file(tracer, *trace_out_path); !s.ok()) {
      return fail(err, s.error());
    }
    out << "trace written to " << *trace_out_path << "\n";
  }
  return report.cancelled ? kCancelledExit : kOk;
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err,
              const base::CancelToken* cancel) {
  serve::ServerOptions options;
  options.endpoint = args.value("socket").value_or("tcp:127.0.0.1:7420");
  if (!read_uint(args, "workers", options.workers, err, 1) ||
      !read_uint(args, "queue-depth", options.queue_depth, err, 1) ||
      !read_uint(args, "cache-entries", options.cache_entries, err) ||
      !read_uint(args, "budget", options.default_budget_ms, err, 1) ||
      !read_uint(args, "degrade-queue", options.degrade_queue, err) ||
      !read_uint(args, "degrade-max-states", options.degrade_max_states, err,
                 1)) {
    return kInvalidInput;
  }
  if (auto bytes = args.value("max-request-bytes")) {
    auto parsed = core::parse_bytes(*bytes);
    if (!parsed.ok() || parsed.value() == 0 ||
        parsed.value() > serve::kMaxFrameBytes) {
      err << "error: --max-request-bytes expects 1.." "64m\n";
      return kInvalidInput;
    }
    options.max_request_bytes = static_cast<std::uint32_t>(parsed.value());
  }

  serve::Server server(std::move(options));
  if (auto status = server.start(); !status.ok()) {
    return fail(err, status.error());
  }
  out << "serving on " << server.endpoint() << " ("
      << "workers, queue, cache: " << args.value("workers").value_or("2")
      << ", " << args.value("queue-depth").value_or("32") << ", "
      << args.value("cache-entries").value_or("128") << ")\n"
      << "SIGINT/SIGTERM drain in-flight requests before exit\n";
  out.flush();
  while (!(cancel != nullptr && cancel->requested())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  out << "draining...\n";
  out.flush();
  server.shutdown();
  server.wait();
  const serve::ServerStats stats = server.stats();
  out << "drained: " << stats.requests << " requests, " << stats.ok
      << " ok, " << stats.sheds << " shed, " << stats.degrades
      << " degraded, " << stats.invalid << " invalid, cache "
      << stats.cache.hits << " hits (" << stats.cache.alias_hits
      << " by alias) / " << stats.cache.misses
      << " misses / " << stats.cache.coalesced << " coalesced\n";
  return kCancelledExit;
}

/// One `ezrt` command and the flags it declares. A command that loads a
/// project also accepts every run-option flag; `flags` lists its own, as
/// Args::parse reads them.
struct Command {
  std::string_view name;
  int (*run)(const Args&, std::ostream&, std::ostream&,
             const base::CancelToken*);
  bool run_options;
  std::string_view flags;
};

constexpr Command kCommands[] = {
    {"info", cmd_info, true, ""},
    {"validate", cmd_validate, true, ""},
    {"schedule", cmd_schedule, true, "report= trace-out= trace= progress"},
    {"explain", cmd_explain, true, "report= no-minimize sync-cap="},
    {"codegen", cmd_codegen, true, "output= target= mcu= timer-hz="},
    {"export-pnml", cmd_export_pnml, true, "output="},
    {"export-dot", cmd_export_dot, true, "output= priorities"},
    {"simulate", cmd_simulate, true, "trace-out= cycles="},
    {"baseline", cmd_baseline, true, ""},
    {"workload", cmd_workload, false,
     "output= tasks= utilization= seed= preemptive= precedence= exclusion= "
     "processors= placement= messages= sync-budget="},
    {"replay", cmd_replay, true, ""},
    {"reach", cmd_reach, true, "report= trace-out= progress classes"},
    {"robust", cmd_robust, true,
     "faults= intensities= trials= seed= policies= report= trace-out= "
     "progress"},
    {"serve", cmd_serve, false,
     "socket= workers= queue-depth= cache-entries= budget= degrade-queue= "
     "degrade-max-states= max-request-bytes="},
};

}  // namespace

std::string usage() {
  return
      "ezrt — pre-runtime schedule synthesis for embedded hard real-time "
      "systems\n"
      "\n"
      "usage: ezrt <command> <spec.xml> [options]\n"
      "\n"
      "commands:\n"
      "  info         show derived quantities (hyper-period, instances, U)\n"
      "  validate     check the specification against the metamodel rules\n"
      "  schedule     synthesize a schedule and print the table\n"
      "               [--complete] [--paper-blocks] [--max-states N]\n"
      "               [--wall-limit MS] [--mem-limit BYTES[k|m|g]] hard\n"
      "               resource guards (docs/robustness.md)\n"
      "               [--trace FILE] [--optimize makespan|switches]\n"
      "               [--threads N] parallel search (0 = serial engine)\n"
      "               [--deterministic] thread-count-independent outcome\n"
      "               [--engine dfs|bestfirst|beam] exploration order\n"
      "               (docs/search.md); [--beam-width K] [--widen]\n"
      "               [--state-classes auto|on|off] class-keyed visited\n"
      "               set + doom pruning (auto: on for exhaustive runs)\n"
      "               [--report FILE] machine-readable run report (JSON)\n"
      "               [--trace-out FILE] Chrome trace of the pipeline\n"
      "               [--progress[=MS]] heartbeat on stderr (default 1000)\n"
      "               [--sync-budget K] override the shared-sync pool\n"
      "               (docs/multiprocessor.md); multi-processor specs\n"
      "               print one table per core plus the bus timeline\n"
      "  explain      verdict provenance (docs/explain.md): analytic\n"
      "               certificates, per-task/per-resource blame, 1-minimal\n"
      "               infeasible culprit sets, sync-budget lower bound and\n"
      "               WCET slack; exit code mirrors the verdict\n"
      "               [--no-minimize] skip the culprit/slack re-runs\n"
      "               [--sync-cap K] bound for the budget search (default "
      "64)\n"
      "               [--report FILE] schema-v5 JSON, byte-deterministic\n"
      "               (accepts all `schedule` search options)\n"
      "  codegen      emit the scheduled C program  -o DIR\n"
      "               [--target host-sim|bare-metal] [--mcu "
      "generic|8051|arm9|m68k|x86]\n"
      "               [--timer-hz N]\n"
      "  export-pnml  write the composed time Petri net  [-o FILE]\n"
      "  export-dot   Graphviz rendering of the net  [-o FILE] "
      "[--priorities]\n"
      "  simulate     run the dispatcher simulation, metrics and Gantt\n"
      "               [--cycles N] also checks steady-state repetition\n"
      "               [--trace-out FILE] Chrome trace (virtual-time track)\n"
      "  workload     generate a random task set  [-o FILE] [--tasks N]\n"
      "               [--utilization U] [--seed S] [--preemptive F]\n"
      "               [--precedence N] [--exclusion N]\n"
      "               [--processors P] [--placement partitioned|global]\n"
      "               [--messages N] cross-core channels [--sync-budget K]\n"
      "  baseline     compare on-line EDF/DM/RM/NP-EDF on the same tasks\n"
      "  replay       audit a stored firing schedule: replay <spec> "
      "<trace>\n"
      "  reach        bounded reachability / property check "
      "[--max-states N]\n"
      "               [--wall-limit MS] [--mem-limit BYTES[k|m|g]]\n"
      "               [--report FILE] run report with a \"reachability\"\n"
      "               section [--trace-out FILE] [--progress[=MS]]\n"
      "  robust       fault-injection campaign over the synthesized "
      "schedule\n"
      "               [--faults SPEC] e.g. wcet:0.3,drift:0.2,burst:0.1,"
      "fail:0.1\n"
      "               [--intensities LIST] scale sweep (default "
      "0.25,0.5,1,2,4)\n"
      "               [--trials N] trials per intensity (default 3)\n"
      "               [--seed S] deterministic fault materialization\n"
      "               [--policies LIST] abort,skip-instance,"
      "retry-next-slot,fallback-online\n"
      "               [--report FILE] resilience report (JSON) "
      "[--trace-out FILE]\n"
      "               [--progress[=MS]] heartbeat for the synthesis phase\n"
      "  serve        scheduling-as-a-service socket server "
      "(docs/serve.md):\n"
      "               length-prefixed JSON frames, content-addressed\n"
      "               schedule cache with single-flight dedup, deadline-\n"
      "               aware admission control, graceful degradation\n"
      "               [--socket unix:PATH|tcp:HOST:PORT] (default\n"
      "               tcp:127.0.0.1:7420; tcp:HOST:0 picks a free port)\n"
      "               [--workers N] [--queue-depth N] [--cache-entries N]\n"
      "               [--budget MS] default per-request budget\n"
      "               [--degrade-queue N] [--degrade-max-states N]\n"
      "               [--max-request-bytes BYTES[k|m|g]] frame cap "
      "(<=64m)\n"
      "  help         this text\n"
      "\n"
      "exit codes: 0 success/feasible, 1 runtime failure, 2 infeasible,\n"
      "            3 state/wall/memory budget hit, 4 invalid input or "
      "usage,\n"
      "            130-family cancelled by signal (130 SIGINT, 143 "
      "SIGTERM)\n";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err, const base::CancelToken* cancel) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? kInvalidInput : kOk;
  }
  for (const Command& command : kCommands) {
    if (command.name == args[0]) {
      auto parsed = Args::parse(args, command.run_options, command.flags);
      if (!parsed.ok()) {
        return fail(err, parsed.error());
      }
      return command.run(parsed.value(), out, err, cancel);
    }
  }
  err << "error: unknown command '" << args[0] << "'\n" << usage();
  return kInvalidInput;
}

}  // namespace ezrt::cli
