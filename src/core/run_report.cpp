#include "core/run_report.hpp"

#include <string_view>

#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "sched/reachability.hpp"

namespace ezrt::core {

namespace {

using obs::JsonWriter;

[[nodiscard]] std::string_view to_string(sched::PruningMode mode) {
  switch (mode) {
    case sched::PruningMode::kNone:
      return "none";
    case sched::PruningMode::kPriorityFilter:
      return "priority-filter";
  }
  return "unknown";
}

[[nodiscard]] std::string_view to_string(sched::FiringTimePolicy policy) {
  switch (policy) {
    case sched::FiringTimePolicy::kEarliest:
      return "earliest";
    case sched::FiringTimePolicy::kAllInDomain:
      return "all-in-domain";
  }
  return "unknown";
}

[[nodiscard]] std::string_view to_string(sched::Objective objective) {
  switch (objective) {
    case sched::Objective::kFirstFeasible:
      return "first-feasible";
    case sched::Objective::kMinimizeMakespan:
      return "minimize-makespan";
    case sched::Objective::kMinimizeSwitches:
      return "minimize-switches";
  }
  return "unknown";
}

[[nodiscard]] std::string_view to_string(sched::SuccessorEngine engine) {
  switch (engine) {
    case sched::SuccessorEngine::kIncremental:
      return "incremental";
    case sched::SuccessorEngine::kReference:
      return "reference";
  }
  return "unknown";
}

void write_model(JsonWriter& w, Project& project) {
  const spec::Specification& spec = project.specification();
  w.key("model").begin_object();
  w.member("name", std::string_view(spec.name()));
  w.member("tasks", static_cast<std::uint64_t>(spec.task_count()));
  w.member("processors", static_cast<std::uint64_t>(spec.processor_count()));
  w.member("messages", static_cast<std::uint64_t>(spec.message_count()));
  w.member("sync_budget", static_cast<std::uint64_t>(spec.sync_budget()));
  w.member("utilization", spec.utilization());
  if (auto period = spec.schedule_period(); period.ok()) {
    w.member("schedule_period", period.value());
  }
  if (auto instances = spec.total_instances(); instances.ok()) {
    w.member("total_instances", instances.value());
  }
  if (project.built()) {
    const builder::BuiltModel& model = project.model();
    w.member("places", static_cast<std::uint64_t>(model.net.place_count()));
    w.member("transitions",
             static_cast<std::uint64_t>(model.net.transition_count()));
  }
  w.end_object();
}

void write_options(JsonWriter& w, Project& project) {
  const sched::SchedulerOptions& opt = project.scheduler_options();
  w.key("options").begin_object();
  w.member("pruning", to_string(opt.pruning));
  w.member("firing_times", to_string(opt.firing_times));
  w.member("partial_order_reduction", opt.partial_order_reduction);
  w.member("objective", to_string(opt.objective));
  w.member("engine", to_string(opt.engine));
  // Guided search + state classes (schema v3, docs/search.md). "engine"
  // above predates v3 and names the *successor* engine; the exploration
  // strategy is "search_engine".
  w.member("search_engine",
           std::string_view(sched::to_string(opt.search_engine)));
  w.member("beam_width", opt.beam_width);
  w.member("widen", opt.widen);
  w.member("state_classes",
           std::string_view(sched::to_string(opt.state_classes)));
  w.member("state_classes_enabled", sched::state_classes_enabled(opt));
  w.member("max_states", opt.max_states);
  // Resource guards (schema v2, docs/robustness.md).
  w.member("wall_limit_ms", opt.wall_limit_ms);
  w.member("memory_limit_bytes", opt.memory_limit_bytes);
  w.member("cancellable", opt.cancel != nullptr);
  w.member("threads", opt.threads);
  w.member("deterministic", opt.deterministic);
  w.member("collect_telemetry", opt.collect_telemetry);
  w.member("collect_attribution", opt.collect_attribution);
  w.member("block_style", builder::to_string(project.build_options().style));
  w.end_object();
}

void write_search_stats(JsonWriter& w, const sched::SearchStats& s,
                        bool deterministic = false) {
  w.member("states_visited", s.states_visited);
  w.member("transitions_fired", s.transitions_fired);
  w.member("backtracks", s.backtracks);
  w.member("pruned_deadline", s.pruned_deadline);
  w.member("pruned_visited", s.pruned_visited);
  w.member("pruned_priority", s.pruned_priority);
  // Schema v3: state-class and guided-engine effort counters.
  w.member("pruned_doomed", s.pruned_doomed);
  w.member("classes_merged", s.classes_merged);
  w.member("heuristic_evals", s.heuristic_evals);
  w.member("beam_dropped", s.beam_dropped);
  w.member("max_depth", s.max_depth);
  w.member("peak_visited_bytes", s.peak_visited_bytes);
  w.member("elapsed_ms", deterministic ? std::uint64_t{0} : s.elapsed_ms);
}

void write_reachability(JsonWriter& w, const sched::ReachabilityResult& r) {
  w.key("reachability").begin_object();
  w.member("states_explored", r.states_explored);
  w.member("transitions_fired", r.transitions_fired);
  w.member("complete", r.complete);
  w.member("stop", std::string_view(sched::to_string(r.stop)));
  w.member("final_reachable", r.final_reachable);
  w.member("miss_reachable", r.miss_reachable);
  w.member("deadlock_found", r.deadlock_found);
  w.member("bound", r.bound);
  w.member("peak_frontier", r.peak_frontier);
  w.end_object();
}

void write_telemetry(JsonWriter& w, const sched::SearchTelemetry& t) {
  w.key("telemetry").begin_object();
  w.member("reduction_singletons", t.reduction_singletons);
  w.key("workers").begin_array();
  for (const sched::WorkerTelemetry& worker : t.workers) {
    w.begin_object();
    w.member("worker", worker.worker);
    w.member("expansions", worker.expansions);
    w.member("donations", worker.donations);
    w.member("steals", worker.steals);
    w.member("idle_transitions", worker.idle_transitions);
    w.member("reduction_singletons", worker.reduction_singletons);
    write_search_stats(w, worker.stats);
    w.end_object();
  }
  w.end_array();
  w.key("shards").begin_array();
  for (const sched::ShardTelemetry& shard : t.shards) {
    w.begin_object();
    w.member("slots", shard.slots);
    w.member("occupied", shard.occupied);
    w.member("load_factor", shard.load_factor);
    w.member("probe_max", shard.probe_max);
    w.member("probe_mean", shard.probe_mean);
    w.key("probe_hist").begin_array();
    for (std::uint64_t n : shard.probe_hist) {
      w.value(n);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_schedule(JsonWriter& w, Project& project) {
  auto table = project.table();
  if (!table.ok()) {
    return;
  }
  const spec::Specification& spec = project.specification();
  const runtime::ScheduleMetrics metrics =
      runtime::compute_metrics(spec, table.value());
  w.key("schedule").begin_object();
  w.member("entries",
           static_cast<std::uint64_t>(table.value().items.size()));
  w.member("schedule_period", table.value().schedule_period);
  w.member("makespan", table.value().makespan);
  w.member("busy_time", metrics.busy_time);
  w.member("idle_time", metrics.idle_time);
  w.member("utilization", metrics.utilization);
  w.member("total_energy", metrics.total_energy);
  w.member("total_preemptions", metrics.total_preemptions);
  // Schema v4: per-processor utilization, bus contention, K-pool usage.
  w.key("processors").begin_array();
  for (const runtime::ProcessorMetrics& proc : metrics.processors) {
    w.begin_object();
    const std::string name =
        proc.processor.value() < spec.processor_count()
            ? spec.processor(proc.processor).name
            : "cpu" + std::to_string(proc.processor.value());
    w.member("processor", std::string_view(name));
    w.member("tasks", proc.tasks);
    w.member("segments", proc.segments);
    w.member("busy_time", proc.busy_time);
    w.member("idle_time", proc.idle_time);
    w.member("utilization", proc.utilization);
    w.end_object();
  }
  w.end_array();
  w.key("bus").begin_object();
  w.member("transfers", metrics.bus_transfers);
  w.member("busy_time", metrics.bus_busy_time);
  w.member("utilization", metrics.bus_utilization);
  w.end_object();
  w.key("sync").begin_object();
  w.member("budget", metrics.sync_budget);
  w.member("high_water", metrics.sync_high_water);
  w.end_object();
  w.key("tasks").begin_array();
  for (const runtime::TaskMetrics& task : metrics.tasks) {
    w.begin_object();
    w.member("task", std::string_view(spec.task(task.task).name));
    w.member("instances", task.instances);
    w.member("worst_response", task.worst_response);
    w.member("best_response", task.best_response);
    w.member("mean_response", task.mean_response);
    w.member("start_jitter", task.start_jitter);
    w.member("worst_slack", task.worst_slack);
    w.member("preemptions", task.preemptions);
    w.member("energy", task.energy);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_stages(JsonWriter& w, const obs::Tracer& tracer) {
  w.key("stages").begin_array();
  for (const obs::Tracer::Event& event : tracer.events()) {
    if (event.ph != 'X' || event.track != obs::kTrackPipeline) {
      continue;
    }
    w.begin_object();
    w.member("name", std::string_view(event.name));
    w.member("category", std::string_view(event.cat));
    w.member("start_us", event.ts);
    w.member("duration_us", event.dur);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string run_report_json(Project& project, const obs::Tracer* tracer,
                            const RunReportExtras* extras) {
  const bool deterministic = extras != nullptr && extras->deterministic;
  JsonWriter w;
  w.begin_object();
  w.member("schema", "ezrt-run-report");
  // v2: guard options (wall_limit_ms/memory_limit_bytes/cancellable) and
  // the guard verdict statuses (time-limit/memory-limit/cancelled).
  // v3: guided-search options (search_engine/beam_width/widen/
  // state_classes/state_classes_enabled) and the class/heuristic effort
  // counters (pruned_doomed/classes_merged/heuristic_evals/beam_dropped).
  // v4: multi-processor breakdown under "schedule" — per-processor
  // utilization ("processors"), bus contention ("bus") and the shared
  // K-pool high-water mark ("sync"); "model" gains "sync_budget".
  // v5: verdict provenance — the optional "explanation" section (`ezrt
  // explain`, docs/explain.md), the optional "reachability" section
  // (`ezrt reach --report`), and the byte-deterministic emission mode
  // (wall-clock fields zeroed, stages/telemetry omitted, counters empty).
  w.member("version", 5);
  write_model(w, project);
  write_options(w, project);

  if (project.scheduled()) {
    const sched::SearchOutcome& outcome = project.outcome();
    w.key("verdict").begin_object();
    w.member("status", sched::to_string(outcome.status));
    w.member("feasible",
             outcome.status == sched::SearchStatus::kFeasible);
    w.member("firings", static_cast<std::uint64_t>(outcome.trace.size()));
    w.member("best_cost", outcome.best_cost);
    w.member("solutions_found", outcome.solutions_found);
    w.end_object();

    w.key("search").begin_object();
    write_search_stats(w, outcome.stats, deterministic);
    w.member("parallel_verdict_ms",
             deterministic ? std::uint64_t{0} : outcome.parallel_verdict_ms);
    w.end_object();

    if (outcome.telemetry.collected && !deterministic) {
      write_telemetry(w, outcome.telemetry);
    }
    if (outcome.status == sched::SearchStatus::kFeasible) {
      write_schedule(w, project);
    }
  }

  if (extras != nullptr && extras->reachability != nullptr) {
    write_reachability(w, *extras->reachability);
  }
  if (extras != nullptr && extras->explanation != nullptr) {
    w.key("explanation");
    obs::write_explanation(w, *extras->explanation);
  }

  if (tracer != nullptr && !deterministic) {
    write_stages(w, *tracer);
  }

  w.key("counters");
  if (deterministic) {
    // The process-wide registry accumulates across everything that ran in
    // the process (including explain's probe re-runs); freeze it empty so
    // the report stays byte-identical across reruns and builds.
    w.begin_object();
    w.end_object();
  } else {
    obs::Registry::global().write_json(w);
  }
  w.end_object();
  return w.take();
}

}  // namespace ezrt::core
