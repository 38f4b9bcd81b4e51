// Multi-processor end-to-end tests (docs/multiprocessor.md): the UAV
// dual-processor case study through spec → TPN → search → schedule table →
// validator → dispatcher co-simulation → codegen, the K sync-budget
// feasibility flip, engine/thread verdict parity, and the multi-processor
// workload generator scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "builder/tpn_builder.hpp"
#include "codegen/c_generator.hpp"
#include "pnml/ezspec_io.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/metrics.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

/// The complete search mode (no FT_P), which most UAV tests below use.
/// The default search schedules the set too (see
/// UavDefaultSearchCountsAndSyncFlip).
[[nodiscard]] sched::SchedulerOptions complete_options() {
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 400'000;
  return options;
}

struct UavFixture {
  spec::Specification spec;
  builder::BuiltModel model;
  sched::SearchOutcome outcome;
  sched::ScheduleTable table;
};

[[nodiscard]] UavFixture schedule_uav(std::uint32_t sync_budget = 0) {
  UavFixture f;
  f.spec = workload::uav_autopilot_specification();
  f.spec.set_sync_budget(sync_budget);
  EXPECT_TRUE(f.spec.validate().ok());
  auto model = builder::build_tpn(f.spec);
  EXPECT_TRUE(model.ok()) << model.error();
  f.model = std::move(model.value());
  const sched::DfsScheduler scheduler(f.model.net, complete_options());
  f.outcome = scheduler.search();
  if (f.outcome.status == sched::SearchStatus::kFeasible) {
    auto table = sched::extract_schedule(f.spec, f.model, f.outcome.trace);
    EXPECT_TRUE(table.ok()) << table.error();
    f.table = std::move(table.value());
  }
  return f;
}

// -- UAV end-to-end ----------------------------------------------------------

TEST(MultiProc, UavSchedulesOnTwoProcessors) {
  UavFixture f = schedule_uav();
  ASSERT_EQ(f.outcome.status, sched::SearchStatus::kFeasible);

  // Per-processor dispatch tables: the sensor CPU runs imu+fusion (2
  // instances each over the 20-unit hyper-period), the control CPU the
  // remaining four tasks (trajectory is preemptive, so it may split).
  EXPECT_EQ(f.table.processor_count, 2u);
  EXPECT_EQ(f.table.items_for(ProcessorId(0)).size(), 4u);
  EXPECT_EQ(f.table.items_for(ProcessorId(1)).size(), 7u);
  for (const sched::ScheduleItem& item : f.table.items_for(ProcessorId(0))) {
    EXPECT_EQ(f.spec.task(item.task).processor, ProcessorId(0));
  }

  // The attitude estimate crosses the CAN bus once per 10-unit period:
  // two transfers of `communication = 2` inside the hyper-period.
  ASSERT_EQ(f.table.bus_timeline.size(), 2u);
  for (const sched::BusSegment& seg : f.table.bus_timeline) {
    EXPECT_EQ(f.spec.message(seg.message).name, "attitude_estimate");
    EXPECT_EQ(seg.duration, 2);
    EXPECT_EQ(seg.from, ProcessorId(0));
    EXPECT_EQ(seg.to, ProcessorId(1));
  }

  // Independent validator accepts the multi-processor table (including
  // cross-core message precedence).
  const runtime::ValidationReport report =
      runtime::validate_schedule(f.spec, f.table);
  EXPECT_TRUE(report.ok()) << report.summary();

  // Dispatcher co-simulation: both cores and the bus replay cleanly.
  const runtime::DispatcherRun run =
      runtime::simulate_dispatcher(f.spec, f.table);
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "deadline missed"
                                               : run.faults.front());
  ASSERT_EQ(run.core_busy.size(), 2u);
  EXPECT_EQ(run.core_busy[0], 10);  // imu 2x2 + fusion 2x3
  EXPECT_EQ(run.core_busy[1], 14);  // trajectory 6 + attitude 4 + esc 2 +
                                    // telemetry 2
  EXPECT_EQ(run.bus_busy_time, 4);  // two transfers of 2

  // Metrics expose the same per-core and bus numbers the v4 run report
  // carries.
  const runtime::ScheduleMetrics metrics =
      runtime::compute_metrics(f.spec, f.table);
  ASSERT_EQ(metrics.processors.size(), 2u);
  EXPECT_EQ(metrics.processors[0].busy_time, 10);
  EXPECT_EQ(metrics.processors[1].busy_time, 14);
  EXPECT_EQ(metrics.bus_transfers, 2u);
  EXPECT_EQ(metrics.bus_busy_time, 4);
}

TEST(MultiProc, BusReleaseWithoutAcquireOpensNoSegment) {
  UavFixture f = schedule_uav();
  ASSERT_EQ(f.outcome.status, sched::SearchStatus::kFeasible);
  // Drop the first bus grant: its release then closes no open transfer
  // and must not invent a segment; the second transfer still pairs up.
  sched::Trace trace = f.outcome.trace;
  const TransitionId acquire = f.model.message_nets[0].acquire;
  const auto grant =
      std::find_if(trace.begin(), trace.end(), [&](const auto& event) {
        return event.transition == acquire;
      });
  ASSERT_NE(grant, trace.end());
  trace.erase(grant);
  auto table = sched::extract_schedule(f.spec, f.model, trace);
  ASSERT_TRUE(table.ok()) << table.error();
  ASSERT_EQ(table.value().bus_timeline.size(), 1u);
  EXPECT_EQ(table.value().bus_timeline[0].start,
            f.table.bus_timeline[1].start);
  EXPECT_EQ(table.value().bus_timeline[0].duration, 2);
}

TEST(MultiProc, UavTableRendersPerCoreTablesAndBusTimeline) {
  UavFixture f = schedule_uav();
  ASSERT_EQ(f.outcome.status, sched::SearchStatus::kFeasible);
  const std::string text = sched::to_string(f.table, f.spec);
  EXPECT_NE(text.find("/* processor 0: sensor-cpu */"), std::string::npos);
  EXPECT_NE(text.find("scheduleTable_p0[4]"), std::string::npos);
  EXPECT_NE(text.find("scheduleTable_p1[7]"), std::string::npos);
  EXPECT_NE(text.find("/* bus timeline */"), std::string::npos);
  EXPECT_NE(text.find("attitude_estimate on 'can0' cpu0 -> cpu1"),
            std::string::npos);
  // Unbounded sync pool: no high-water annotation.
  EXPECT_EQ(text.find("/* sync pool:"), std::string::npos);
}

// -- K sync-budget feasibility flip ------------------------------------------

TEST(MultiProc, UavSyncBudgetGovernsFeasibility) {
  // The schedule needs the bus and the trajectory/telemetry exclusion
  // lock held concurrently at least once: high-water 2. K = 2 admits it.
  UavFixture with_budget = schedule_uav(2);
  ASSERT_EQ(with_budget.outcome.status, sched::SearchStatus::kFeasible);
  EXPECT_EQ(with_budget.table.sync_budget, 2u);
  EXPECT_EQ(with_budget.table.sync_high_water, 2u);
  const std::string text =
      sched::to_string(with_budget.table, with_budget.spec);
  EXPECT_NE(text.find("/* sync pool: high-water 2 of K=2 */"),
            std::string::npos);

  // Shrinking K below the high-water mark makes every schedule
  // over-synchronized: the exhaustive search proves infeasibility.
  UavFixture starved = schedule_uav(1);
  EXPECT_EQ(starved.outcome.status, sched::SearchStatus::kInfeasible);
}

TEST(MultiProc, UavDefaultSearchCountsAndSyncFlip) {
  // The pipeline's default search (dfs, FT_P, POR, concrete keys) finds
  // the UAV schedule in one dive; the CI search-perf gate pins the same
  // counts from the checked-in spec.
  spec::Specification s = workload::uav_autopilot_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok()) << model.error();
  const sched::SearchOutcome feasible =
      sched::DfsScheduler(model.value().net, sched::SchedulerOptions{})
          .search();
  ASSERT_EQ(feasible.status, sched::SearchStatus::kFeasible);
  EXPECT_EQ(feasible.trace.size(), 64u);
  EXPECT_EQ(feasible.stats.transitions_fired, 64u);
  EXPECT_EQ(feasible.stats.states_visited, 65u);
  EXPECT_EQ(feasible.stats.pruned_priority, 23u);
  EXPECT_EQ(feasible.stats.backtracks, 0u);
  auto table = sched::extract_schedule(s, model.value(), feasible.trace);
  ASSERT_TRUE(table.ok()) << table.error();
  EXPECT_EQ(table.value().sync_high_water, 2u);

  // K = 1 flips the verdict without the complete search mode.
  s.set_sync_budget(1);
  auto starved_model = builder::build_tpn(s);
  ASSERT_TRUE(starved_model.ok()) << starved_model.error();
  const sched::SearchOutcome starved =
      sched::DfsScheduler(starved_model.value().net,
                          sched::SchedulerOptions{})
          .search();
  EXPECT_EQ(starved.status, sched::SearchStatus::kInfeasible);
  EXPECT_EQ(starved.stats.states_visited, 116u);
}

// -- Engine / thread verdict parity ------------------------------------------

TEST(MultiProc, UavVerdictAgreesAcrossEnginesAndThreads) {
  spec::Specification s = workload::uav_autopilot_specification();
  ASSERT_TRUE(s.validate().ok());
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok()) << model.error();

  const sched::DfsScheduler oracle(model.value().net, complete_options());
  const sched::SearchOutcome reference = oracle.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kFeasible);

  struct Variant {
    const char* name;
    sched::SearchEngine engine;
    sched::StateClassMode classes;
    std::uint32_t threads;
  };
  const Variant kVariants[] = {
      {"dfs/off/1t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOff, 1},
      {"dfs/off/2t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOff, 2},
      {"dfs/off/4t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOff, 4},
      {"dfs/off/8t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOff, 8},
      {"dfs/on/1t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOn, 1},
      {"dfs/on/4t", sched::SearchEngine::kDfs,
       sched::StateClassMode::kOn, 4},
      {"bestfirst/off", sched::SearchEngine::kBestFirst,
       sched::StateClassMode::kOff, 0},
      {"bestfirst/on", sched::SearchEngine::kBestFirst,
       sched::StateClassMode::kOn, 0},
      {"beam/off", sched::SearchEngine::kBeam,
       sched::StateClassMode::kOff, 0},
      {"beam/on", sched::SearchEngine::kBeam,
       sched::StateClassMode::kOn, 0},
  };
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(v.name);
    sched::SchedulerOptions options = complete_options();
    options.search_engine = v.engine;
    options.state_classes = v.classes;
    options.threads = v.threads;
    options.widen = true;  // keep fixed-width beam sound
    const sched::DfsScheduler scheduler(model.value().net, options);
    const sched::SearchOutcome out = scheduler.search();
    ASSERT_EQ(out.status, reference.status);

    // Any feasible trace must survive the full downstream pipeline.
    auto final_state = oracle.replay(out.trace);
    ASSERT_TRUE(final_state.ok()) << final_state.error();
    EXPECT_TRUE(
        tpn::is_final_marking(model.value().net,
                              final_state.value().marking()));
    auto table = sched::extract_schedule(s, model.value(), out.trace);
    ASSERT_TRUE(table.ok()) << table.error();
    EXPECT_TRUE(runtime::validate_schedule(s, table.value()).ok());
    EXPECT_TRUE(runtime::simulate_dispatcher(s, table.value()).ok());
  }
}

// -- Codegen -----------------------------------------------------------------

TEST(MultiProc, CodegenEmitsPerCoreDispatchersAndMessageStubs) {
  UavFixture f = schedule_uav();
  ASSERT_EQ(f.outcome.status, sched::SearchStatus::kFeasible);

  codegen::CodegenOptions options;
  options.target = codegen::Target::kBareMetal;
  auto code = codegen::generate(f.spec, f.table, options);
  ASSERT_TRUE(code.ok()) << code.error();

  const codegen::GeneratedFile* header = code.value().find("schedule.h");
  ASSERT_NE(header, nullptr);
  EXPECT_NE(header->content.find("PROCESSOR_COUNT"), std::string::npos);
  EXPECT_NE(header->content.find("SCHEDULE_SIZE_P0"), std::string::npos);
  EXPECT_NE(header->content.find("SCHEDULE_SIZE_P1"), std::string::npos);
  EXPECT_NE(header->content.find("msg_send_attitude_estimate"),
            std::string::npos);

  const codegen::GeneratedFile* d0 = code.value().find("dispatcher_p0.c");
  const codegen::GeneratedFile* d1 = code.value().find("dispatcher_p1.c");
  ASSERT_NE(d0, nullptr);
  ASSERT_NE(d1, nullptr);
  EXPECT_NE(d0->content.find("scheduleTable_p0"), std::string::npos);
  EXPECT_NE(d1->content.find("scheduleTable_p1"), std::string::npos);
  EXPECT_EQ(d0->content.find("scheduleTable_p1"), std::string::npos);

  const codegen::GeneratedFile* messages = code.value().find("messages.c");
  ASSERT_NE(messages, nullptr);
  EXPECT_NE(messages->content.find("msg_send_attitude_estimate"),
            std::string::npos);
  EXPECT_NE(messages->content.find("msg_recv_attitude_estimate"),
            std::string::npos);
  EXPECT_NE(code.value().find("port.h"), nullptr);
}

// -- Spec round-trip ---------------------------------------------------------

TEST(MultiProc, UavSpecRoundTripsThroughEzspec) {
  spec::Specification original = workload::uav_autopilot_specification();
  original.set_sync_budget(2);
  auto doc = pnml::write_ezspec(original);
  ASSERT_TRUE(doc.ok()) << doc.error();
  auto parsed = pnml::read_ezspec(doc.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();

  EXPECT_EQ(parsed.value().processor_count(), 2u);
  EXPECT_EQ(parsed.value().task_count(), 6u);
  EXPECT_EQ(parsed.value().message_count(), 1u);
  EXPECT_EQ(parsed.value().sync_budget(), 2u);
  const spec::Message& msg = parsed.value().message(MessageId(0));
  EXPECT_EQ(msg.name, "attitude_estimate");
  EXPECT_EQ(msg.bus, "can0");
  EXPECT_EQ(msg.communication, 2);

  // Idempotent: re-serializing the parsed spec is byte-identical.
  auto doc2 = pnml::write_ezspec(parsed.value());
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc.value(), doc2.value());
}

// -- Workload generator scenarios --------------------------------------------

TEST(MultiProcWorkload, GenerationIsByteDeterministic) {
  const workload::Placement kPlacements[] = {
      workload::Placement::kPartitioned, workload::Placement::kGlobal};
  for (const workload::Placement placement : kPlacements) {
    for (const bool harmonic : {true, false}) {
      for (const std::uint32_t processors : {2u, 3u, 4u}) {
        SCOPED_TRACE("placement " +
                     std::to_string(static_cast<int>(placement)) +
                     " harmonic " + std::to_string(harmonic) + " procs " +
                     std::to_string(processors));
        const workload::WorkloadConfig config = workload::multiproc_scenario(
            placement, harmonic, processors, 42);
        auto a = workload::generate(config);
        auto b = workload::generate(config);
        ASSERT_TRUE(a.ok()) << a.error();
        ASSERT_TRUE(b.ok()) << b.error();
        EXPECT_EQ(a.value().processor_count(), processors);
        EXPECT_EQ(pnml::write_ezspec(a.value()).value(),
                  pnml::write_ezspec(b.value()).value());
      }
    }
  }
}

TEST(MultiProcWorkload, PartitionedPlacementKeepsPrecedenceOnCore) {
  const workload::WorkloadConfig config = workload::multiproc_scenario(
      workload::Placement::kPartitioned, true, 4, 7);
  auto s = workload::generate(config);
  ASSERT_TRUE(s.ok()) << s.error();
  EXPECT_EQ(s.value().message_count(), 0u);
  bool multiple_cores_used = false;
  for (const TaskId id : s.value().task_ids()) {
    const spec::Task& task = s.value().task(id);
    if (task.processor != s.value().task(TaskId(0)).processor) {
      multiple_cores_used = true;
    }
    for (const TaskId after : task.precedes) {
      EXPECT_EQ(s.value().task(after).processor, task.processor)
          << task.name << " precedes a task on another core";
    }
  }
  EXPECT_TRUE(multiple_cores_used);
}

TEST(MultiProcWorkload, GlobalScenarioCouplesCoresOverTheBus) {
  // Seeds are fixed; at least one of the attempted seeds must yield a
  // cross-core message pairing (the generator bounds its attempts).
  bool saw_messages = false;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const workload::WorkloadConfig config = workload::multiproc_scenario(
        workload::Placement::kGlobal, true, 3, seed);
    auto s = workload::generate(config);
    ASSERT_TRUE(s.ok()) << s.error();
    EXPECT_EQ(s.value().sync_budget(), 2u);
    for (const MessageId id : s.value().message_ids()) {
      saw_messages = true;
      const spec::Message& msg = s.value().message(id);
      EXPECT_EQ(msg.bus, "bus0");
      EXPECT_GE(msg.communication, 1);
      // Every generated message genuinely crosses cores.
      EXPECT_NE(s.value().task(msg.sender).processor,
                s.value().task(msg.receiver).processor);
      // Same-period pairing keeps the 1:1 instance semantics.
      EXPECT_EQ(s.value().task(msg.sender).timing.period,
                s.value().task(msg.receiver).timing.period);
    }
  }
  EXPECT_TRUE(saw_messages);
}

TEST(MultiProcWorkload, InvalidConfigurationsAreRejected) {
  workload::WorkloadConfig config;
  config.processors = 0;
  EXPECT_FALSE(workload::generate(config).ok());

  config = workload::WorkloadConfig{};
  config.messages = 1;  // messages need at least two processors
  EXPECT_FALSE(workload::generate(config).ok());

  config = workload::WorkloadConfig{};
  config.processors = 2;
  config.utilization = 2.5;  // bound is (0, processors]
  EXPECT_FALSE(workload::generate(config).ok());
  config.utilization = 1.8;
  EXPECT_TRUE(workload::generate(config).ok());
}

}  // namespace
}  // namespace ezrt
