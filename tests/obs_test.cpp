// Tests for the observability layer (docs/observability.md): the JSON
// writer, the Chrome trace_event tracer, the progress heartbeat, the
// machine-readable run report — and, most importantly, the differential
// guarantee that telemetry is write-only: a serial search with every sink
// enabled returns the same verdict, trace and statistics, bit for bit, as
// one with none.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "builder/tpn_builder.hpp"
#include "core/project.hpp"
#include "core/run_report.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "sched/dfs.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonWriter, ObjectAndArrayShape) {
  obs::JsonWriter w;
  w.begin_object()
      .member("name", "ezrt")
      .member("count", std::uint64_t{42})
      .member("ratio", 0.5)
      .member("on", true)
      .key("list")
      .begin_array();
  w.value(std::uint64_t{1}).value(std::uint64_t{2});
  w.end_array().end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"ezrt\",\"count\":42,\"ratio\":0.5,"
            "\"on\":true,\"list\":[1,2]}");
}

TEST(JsonWriter, EscapesStrings) {
  obs::JsonWriter w;
  w.begin_object().member("s", "a\"b\\c\nd\te\x01" "f").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriter, NonFiniteDoublesDegradeToZero) {
  obs::JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .end_array();
  EXPECT_EQ(w.str(), "[0,0]");
}

TEST(JsonWriter, EveryOutputParses) {
  // The whole document must be machine-readable; a quick structural
  // self-check on a nested document with the raw() splice.
  obs::JsonWriter inner;
  inner.begin_object().member("k", std::int64_t{-3}).end_object();
  obs::JsonWriter w;
  w.begin_object().key("spliced").raw(inner.str()).end_object();
  EXPECT_EQ(w.str(), "{\"spliced\":{\"k\":-3}}");
}

// -------------------------------------------------------------- tracer --

TEST(Tracer, EmitsChromeTraceDocument) {
  obs::Tracer tracer;
  {
    obs::Span span(&tracer, "stage-a", "pipeline");
    span.set_args("{\"n\":1}");
  }
  tracer.instant("marker", "pipeline");
  tracer.instant_at("dispatch", "dispatch", 40, "{}", obs::kTrackVirtual);
  const std::vector<obs::Tracer::Event> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"stage-a\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("ezrt dispatcher (virtual time)"), std::string::npos);
}

TEST(Tracer, NullTracerSpanIsANoop) {
  obs::Span span(nullptr, "ignored", "pipeline");
  span.set_args("{}");
  // Destructor must not crash; nothing to assert beyond surviving.
}

// ------------------------------------------------------------ progress --

TEST(Progress, ReporterPrintsHeartbeatAndFinalLine) {
  obs::ProgressSink sink;
  std::ostringstream os;
  {
    obs::ProgressReporter reporter(sink, os,
                                   std::chrono::milliseconds(10));
    sink.publish(640, 1000, 25, 12);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  const std::string log = os.str();
  EXPECT_NE(log.find("[progress]"), std::string::npos);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_NE(log.find("states=640"), std::string::npos);
    EXPECT_NE(log.find("fired=1000"), std::string::npos);
  }
}

TEST(Progress, StopIsIdempotentAndAlwaysLeavesOneLine) {
  obs::ProgressSink sink;
  std::ostringstream os;
  obs::ProgressReporter reporter(sink, os, std::chrono::seconds(60));
  reporter.stop();
  reporter.stop();
  EXPECT_NE(os.str().find("[progress]"), std::string::npos);
}

// ------------------------------------------------- search differential --

[[nodiscard]] builder::BuiltModel mine_pump_model() {
  auto model = builder::build_tpn(workload::mine_pump_specification());
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

void expect_stats_equal(const sched::SearchStats& a,
                        const sched::SearchStats& b) {
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions_fired, b.transitions_fired);
  EXPECT_EQ(a.backtracks, b.backtracks);
  EXPECT_EQ(a.pruned_deadline, b.pruned_deadline);
  EXPECT_EQ(a.pruned_visited, b.pruned_visited);
  EXPECT_EQ(a.pruned_priority, b.pruned_priority);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.peak_visited_bytes, b.peak_visited_bytes);
}

void expect_traces_identical(const sched::Trace& a, const sched::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].transition, b[i].transition);
    EXPECT_EQ(a[i].delay, b[i].delay);
    EXPECT_EQ(a[i].at, b[i].at);
  }
}

// The acceptance bar for the whole observability layer: a serial search
// with telemetry collection, a progress sink and a tracer attached is
// bit-for-bit identical — verdict, trace, every SearchStats counter — to
// the bare search. Only wall-clock fields may differ.
TEST(SearchDifferential, SerialTelemetryDoesNotPerturbTheSearch) {
  const builder::BuiltModel model = mine_pump_model();

  sched::SchedulerOptions bare;
  const sched::SearchOutcome plain =
      sched::DfsScheduler(model.net, bare).search();

  sched::SchedulerOptions instrumented;
  instrumented.collect_telemetry = true;
  obs::ProgressSink sink;
  obs::Tracer tracer;
  instrumented.progress = &sink;
  instrumented.tracer = &tracer;
  const sched::SearchOutcome observed =
      sched::DfsScheduler(model.net, instrumented).search();

  EXPECT_EQ(plain.status, observed.status);
  expect_traces_identical(plain.trace, observed.trace);
  expect_stats_equal(plain.stats, observed.stats);

  EXPECT_FALSE(plain.telemetry.collected);
  ASSERT_TRUE(observed.telemetry.collected);
  ASSERT_EQ(observed.telemetry.workers.size(), 1u);
  const sched::WorkerTelemetry& worker = observed.telemetry.workers[0];
  EXPECT_EQ(worker.worker, 0u);
  EXPECT_GT(worker.expansions, 0u);
  expect_stats_equal(worker.stats, observed.stats);
  EXPECT_TRUE(observed.telemetry.shards.empty());  // serial: no shards
  EXPECT_GT(observed.stats.peak_visited_bytes, 0u);

  if constexpr (obs::kTelemetryEnabled) {
    // The final unmasked publish leaves exact totals in the sink.
    EXPECT_EQ(sink.states.load(), observed.stats.states_visited);
    EXPECT_EQ(sink.transitions.load(), observed.stats.transitions_fired);
  }
}

TEST(SearchDifferential, PeakVisitedBytesIsDeterministic) {
  const builder::BuiltModel model = mine_pump_model();
  sched::SchedulerOptions options;
  const std::uint64_t first =
      sched::DfsScheduler(model.net, options).search()
          .stats.peak_visited_bytes;
  const std::uint64_t second =
      sched::DfsScheduler(model.net, options).search()
          .stats.peak_visited_bytes;
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
}

// ---------------------------------------------------- parallel telemetry --

TEST(ParallelTelemetry, WorkerAndShardBreakdownsAreConsistent) {
  const builder::BuiltModel model = mine_pump_model();
  sched::SchedulerOptions options;
  options.threads = 4;
  options.collect_telemetry = true;
  obs::ProgressSink sink;
  options.progress = &sink;
  const sched::SearchOutcome outcome =
      sched::DfsScheduler(model.net, options).search();
  EXPECT_EQ(outcome.status, sched::SearchStatus::kFeasible);

  ASSERT_TRUE(outcome.telemetry.collected);
  ASSERT_EQ(outcome.telemetry.workers.size(), 4u);
  std::uint64_t fired = 0;
  std::uint64_t expansions = 0;
  for (std::size_t i = 0; i < outcome.telemetry.workers.size(); ++i) {
    const sched::WorkerTelemetry& w = outcome.telemetry.workers[i];
    EXPECT_EQ(w.worker, i);
    fired += w.stats.transitions_fired;
    expansions += w.expansions;
  }
  EXPECT_EQ(fired, outcome.stats.transitions_fired);
  EXPECT_GT(expansions, 0u);

  ASSERT_FALSE(outcome.telemetry.shards.empty());
  std::uint64_t occupied = 0;
  for (const sched::ShardTelemetry& shard : outcome.telemetry.shards) {
    occupied += shard.occupied;
    ASSERT_EQ(shard.probe_hist.size(), 9u);
    std::uint64_t hist_total = 0;
    for (std::uint64_t n : shard.probe_hist) {
      hist_total += n;
    }
    EXPECT_EQ(hist_total, shard.occupied);
    EXPECT_LE(shard.load_factor, 0.71);
  }
  // Every admitted state is exactly one visited-set entry.
  EXPECT_EQ(occupied, outcome.stats.states_visited);
  EXPECT_GE(outcome.stats.peak_visited_bytes,
            occupied * 2 * sizeof(std::uint64_t));
}

TEST(ParallelTelemetry, DeterministicRunReportsBothPhases) {
  const builder::BuiltModel model = mine_pump_model();
  sched::SchedulerOptions options;
  options.threads = 2;
  options.deterministic = true;
  const sched::SearchOutcome outcome =
      sched::DfsScheduler(model.net, options).search();
  EXPECT_EQ(outcome.status, sched::SearchStatus::kFeasible);
  // Feasible + deterministic re-derives serially: both phase timings are
  // reported, and the serial phase's stats match a bare serial run.
  EXPECT_GT(outcome.parallel_verdict_ms, 0.0);
  const sched::SearchOutcome serial =
      sched::DfsScheduler(model.net, {}).search();
  expect_traces_identical(serial.trace, outcome.trace);
  expect_stats_equal(serial.stats, outcome.stats);
}

// --------------------------------------------------- dispatcher tracing --

TEST(DispatcherTracing, EmitsVirtualTimeSegments) {
  const spec::Specification spec = workload::mine_pump_specification();
  auto model = builder::build_tpn(spec);
  ASSERT_TRUE(model.ok());
  const sched::SearchOutcome outcome =
      sched::DfsScheduler(model.value().net, {}).search();
  ASSERT_EQ(outcome.status, sched::SearchStatus::kFeasible);
  auto table =
      sched::extract_schedule(spec, model.value(), outcome.trace);
  ASSERT_TRUE(table.ok());

  runtime::DispatchSimOptions with_tracer;
  obs::Tracer tracer;
  with_tracer.tracer = &tracer;
  const runtime::DispatcherRun traced =
      runtime::simulate_dispatcher(spec, table.value(), with_tracer);
  const runtime::DispatcherRun bare =
      runtime::simulate_dispatcher(spec, table.value());

  // The tracer is an observer: run results are unchanged.
  EXPECT_EQ(traced.ok(), bare.ok());
  EXPECT_EQ(traced.events.size(), bare.events.size());
  EXPECT_EQ(traced.context_saves, bare.context_saves);
  EXPECT_EQ(traced.busy_time, bare.busy_time);

  std::uint64_t segment_time = 0;
  std::uint64_t preempts = 0;
  for (const obs::Tracer::Event& event : tracer.events()) {
    EXPECT_EQ(event.track, obs::kTrackVirtual);
    if (event.ph == 'X') {
      segment_time += event.dur;
    } else if (event.name == "preempt") {
      ++preempts;
    }
  }
  // Executed segments on the virtual track account for exactly the
  // dispatcher's busy time, and every context save leaves an instant.
  EXPECT_EQ(segment_time, bare.busy_time);
  EXPECT_EQ(preempts, bare.context_saves);
}

// ----------------------------------------------------------- run report --

TEST(RunReport, FeasibleProjectReportIsComplete) {
  core::Project project(workload::mine_pump_specification());
  obs::Tracer tracer;
  project.set_tracer(&tracer);
  project.scheduler_options().collect_telemetry = true;
  ASSERT_TRUE(project.schedule().ok());
  const std::string report = core::run_report_json(project, &tracer);
  EXPECT_NE(report.find("\"schema\":\"ezrt-run-report\""),
            std::string::npos);
  EXPECT_NE(report.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(report.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(report.find("\"schedule\""), std::string::npos);
  EXPECT_NE(report.find("\"stages\""), std::string::npos);
  EXPECT_NE(report.find("\"search\""), std::string::npos);
  EXPECT_NE(report.find("\"tpn-build\""), std::string::npos);
}

TEST(RunReport, InfeasibleProjectStillCarriesSearchStats) {
  workload::WorkloadConfig config;
  config.tasks = 5;
  config.utilization = 0.5;
  config.seed = 3;  // known-infeasible under the default period pool
  auto generated = workload::generate(config);
  ASSERT_TRUE(generated.ok());
  core::Project project(std::move(generated).value());
  const Status status = project.schedule();
  ASSERT_FALSE(status.ok());
  const std::string report = core::run_report_json(project);
  EXPECT_NE(report.find("\"feasible\":false"), std::string::npos);
  EXPECT_NE(report.find("\"states_visited\""), std::string::npos);
  EXPECT_EQ(report.find("\"schedule\""), std::string::npos);
}

}  // namespace
}  // namespace ezrt
