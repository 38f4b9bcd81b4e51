// Tests for the parallel TLTS search engine (docs/semantics.md §8).
//
// The parallel engine must be *indistinguishable* from the serial one at
// the verdict level, and every feasible trace it returns must survive the
// full downstream pipeline. Layers:
//
//   * differential sweep — generated workloads (feasible and infeasible
//     families) searched serially and at 1/2/4/8 threads must agree on the
//     verdict; on exhausted (infeasible) instances the engines must also
//     agree on the *distinct state count*, since both explore exactly the
//     reachable set of the same pruned successor graph;
//   * trace validity — every parallel-produced schedule passes replay (P2),
//     the independent validator (P1) and the dispatcher simulator (P3);
//   * determinism — with SchedulerOptions::deterministic, verdict and trace
//     are identical across thread counts on the mine-pump, precedence
//     (Fig 3) and exclusion (Fig 4) example models;
//   * trace_io round-trip — a parallel-produced trace survives save/load
//     with replay equivalence (the pipeline edge P1–P10 don't exercise);
//   * visited set — exactly-once admission under thread contention for
//     the lock-free CasVisitedSet (docs/concurrency.md), including the
//     exact size after quiescence;
//   * work sharing — steal/donation telemetry of the donation queue is
//     internally consistent and the distinct-state count stays
//     thread-count independent on an exhausted instance;
//   * donation queue — on real threads, the idle-count termination takes
//     every donated item exactly once, shutdown releases waiting workers
//     and destroys queued items, and a guarded wait times out while a
//     peer is still busy.
//
// Built twice by tests/CMakeLists.txt: the plain binary runs a small sweep
// for local iteration, and the `parallel_stress_test` binary (ctest label
// "stress", EZRT_STRESS_SWEEP) runs the full 200-model sweep and more
// donation-queue rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "base/hash.hpp"
#include "builder/tpn_builder.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/donation_queue.hpp"
#include "sched/schedule_table.hpp"
#include "sched/trace_io.hpp"
#include "sched/visited_set.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

#ifdef EZRT_STRESS_SWEEP
constexpr std::uint64_t kSweepModels = 200;
constexpr int kQueueRounds = 400;
#else
constexpr std::uint64_t kSweepModels = 32;
constexpr int kQueueRounds = 40;
#endif

constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8};

/// Interleaved feasible-leaning (low utilization) and infeasible-leaning
/// (high utilization, exclusion-constrained) workload families, all
/// reproducible from the sweep index.
[[nodiscard]] workload::WorkloadConfig sweep_config(std::uint64_t i) {
  workload::WorkloadConfig c;
  c.seed = 1000 + i;
  c.tasks = 3 + static_cast<std::uint32_t>(i % 4);  // 3..6
  const bool tight = (i % 2) == 1;
  c.utilization = tight ? 0.75 + 0.025 * static_cast<double>(i % 8)
                        : 0.30 + 0.05 * static_cast<double>(i % 5);
  c.preemptive_fraction = 0.5 * static_cast<double>(i % 3);
  c.precedence_edges = static_cast<std::uint32_t>(i % 3);
  c.exclusion_pairs = tight ? static_cast<std::uint32_t>((i / 2) % 2) : 0;
  c.period_pool = {40, 80, 160};
  return c;
}

[[nodiscard]] sched::SchedulerOptions sweep_options(std::uint32_t threads) {
  sched::SchedulerOptions options;
  options.max_states = 400'000;
  options.threads = threads;
  return options;
}

void expect_traces_equal(const sched::Trace& a, const sched::Trace& b,
                         const tpn::TimePetriNet& net) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].transition, b[i].transition)
        << "firing " << i << ": " << net.transition(a[i].transition).name
        << " vs " << net.transition(b[i].transition).name;
    EXPECT_EQ(a[i].delay, b[i].delay) << "firing " << i;
    EXPECT_EQ(a[i].at, b[i].at) << "firing " << i;
  }
}

/// Full downstream pipeline check on a feasible trace: replay under the
/// timed semantics into M_F (P2), the independent schedule validator (P1)
/// and the dispatcher simulator (P3).
void expect_trace_valid(const spec::Specification& s,
                        const builder::BuiltModel& model,
                        const sched::DfsScheduler& scheduler,
                        const sched::Trace& trace) {
  auto final_state = scheduler.replay(trace);
  ASSERT_TRUE(final_state.ok()) << final_state.error();
  EXPECT_TRUE(tpn::is_final_marking(model.net, final_state.value().marking()));

  auto table = sched::extract_schedule(s, model, trace);
  ASSERT_TRUE(table.ok()) << table.error();
  const runtime::ValidationReport report =
      runtime::validate_schedule(s, table.value());
  EXPECT_TRUE(report.ok()) << report.summary();

  const runtime::DispatcherRun run =
      runtime::simulate_dispatcher(s, table.value());
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "deadline missed"
                                               : run.faults.front());
}

// -- Differential sweep ------------------------------------------------------

TEST(ParallelDifferential, SweepAgreesWithSerialAtAllThreadCounts) {
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t limited = 0;
  for (std::uint64_t i = 0; i < kSweepModels; ++i) {
    SCOPED_TRACE("sweep model " + std::to_string(i));
    auto s = workload::generate(sweep_config(i));
    ASSERT_TRUE(s.ok());
    auto model = builder::build_tpn(s.value());
    ASSERT_TRUE(model.ok());

    const sched::DfsScheduler serial(model.value().net, sweep_options(0));
    const sched::SearchOutcome reference = serial.search();
    if (reference.status == sched::SearchStatus::kLimitReached) {
      // A bounded-budget verdict is scheduling-order dependent by nature;
      // the sweep parameters make this rare.
      ++limited;
      continue;
    }
    (reference.status == sched::SearchStatus::kFeasible ? feasible
                                                        : infeasible)++;

    for (std::uint32_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const sched::DfsScheduler parallel(model.value().net,
                                         sweep_options(threads));
      const sched::SearchOutcome out = parallel.search();
      ASSERT_EQ(out.status, reference.status);
      if (out.status == sched::SearchStatus::kFeasible) {
        expect_trace_valid(s.value(), model.value(), serial, out.trace);
      } else {
        // Exhausted searches explore exactly the reachable set of the
        // shared pruned successor graph — the distinct-state count is an
        // engine invariant, not a statistic.
        EXPECT_EQ(out.stats.states_visited,
                  reference.stats.states_visited);
      }
    }
  }
  // The sweep must genuinely exercise both verdict families.
  EXPECT_GT(feasible, kSweepModels / 8);
  EXPECT_GT(infeasible, kSweepModels / 8);
  EXPECT_LT(limited, kSweepModels / 4);
}

// -- Determinism across thread counts ---------------------------------------

[[nodiscard]] spec::Specification precedence_spec() {
  // Paper Fig 3: T1 PRECEDES T2, both period 250.
  spec::Specification s("fig3");
  s.add_processor("cpu");
  s.add_task("T1", spec::TimingConstraints{0, 0, 15, 100, 250});
  s.add_task("T2", spec::TimingConstraints{0, 0, 20, 150, 250});
  s.add_precedence(TaskId(0), TaskId(1));
  return s;
}

[[nodiscard]] spec::Specification exclusion_spec() {
  // Paper Fig 4: preemptive T0 EXCLUDES T2.
  spec::Specification s("fig4");
  s.add_processor("cpu");
  s.add_task("T0", spec::TimingConstraints{0, 0, 10, 100, 250},
             spec::SchedulingType::kPreemptive);
  s.add_task("T2", spec::TimingConstraints{0, 0, 20, 150, 250},
             spec::SchedulingType::kPreemptive);
  s.add_exclusion(TaskId(0), TaskId(1));
  return s;
}

class ParallelDeterminism
    : public testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] static spec::Specification spec_for(std::string_view name) {
    if (name == "mine_pump") {
      return workload::mine_pump_specification();
    }
    if (name == "precedence") {
      return precedence_spec();
    }
    return exclusion_spec();
  }
};

TEST_P(ParallelDeterminism, VerdictAndTraceIndependentOfThreadCount) {
  const spec::Specification s = spec_for(GetParam());
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions serial_options;
  const sched::DfsScheduler serial(model.value().net, serial_options);
  const sched::SearchOutcome reference = serial.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kFeasible);

  for (std::uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    sched::SchedulerOptions options;
    options.threads = threads;
    options.deterministic = true;
    const sched::DfsScheduler scheduler(model.value().net, options);
    const sched::SearchOutcome out = scheduler.search();
    ASSERT_EQ(out.status, reference.status);
    // The deterministic toggle pins the trace to the serial engine's, so
    // any two runs at any thread counts agree transitively.
    expect_traces_equal(out.trace, reference.trace, model.value().net);
  }
}

INSTANTIATE_TEST_SUITE_P(ExampleModels, ParallelDeterminism,
                         testing::Values("mine_pump", "precedence",
                                         "exclusion"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// -- Nondeterministic mode still yields *valid* traces -----------------------

TEST(ParallelSearch, FirstPastThePostTraceIsValid) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  for (std::uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    sched::SchedulerOptions options;
    options.threads = threads;
    const sched::DfsScheduler scheduler(model.value().net, options);
    const sched::SearchOutcome out = scheduler.search();
    ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
    expect_trace_valid(s, model.value(), scheduler, out.trace);
  }
}

TEST(ParallelSearch, RespectsStateBudget) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  sched::SchedulerOptions options;
  options.threads = 4;
  options.max_states = 50;  // far below the mine pump's ~3.3k-state path
  const sched::SearchOutcome out =
      sched::DfsScheduler(model.value().net, options).search();
  EXPECT_EQ(out.status, sched::SearchStatus::kLimitReached);
}

TEST(ParallelSearch, OptimizingObjectivesFallBackToSerial) {
  // The parallel engine covers first-feasible only; an optimizing search
  // with threads set must still return the serial branch-and-bound result.
  const spec::Specification s = precedence_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  sched::SchedulerOptions serial_options;
  serial_options.pruning = sched::PruningMode::kNone;
  serial_options.objective = sched::Objective::kMinimizeMakespan;
  const auto reference =
      sched::DfsScheduler(model.value().net, serial_options).search();
  sched::SchedulerOptions threaded = serial_options;
  threaded.threads = 8;
  const auto out =
      sched::DfsScheduler(model.value().net, threaded).search();
  ASSERT_EQ(out.status, reference.status);
  EXPECT_EQ(out.best_cost, reference.best_cost);
  expect_traces_equal(out.trace, reference.trace, model.value().net);
}

// -- trace_io round-trip on a parallel-produced schedule ---------------------

TEST(ParallelTraceIo, RoundTripPreservesReplay) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());
  sched::SchedulerOptions options;
  options.threads = 4;
  const sched::DfsScheduler scheduler(model.value().net, options);
  const sched::SearchOutcome out = scheduler.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);

  const std::string document =
      sched::write_trace(model.value().net, out.trace);
  auto restored = sched::read_trace(model.value().net, document);
  ASSERT_TRUE(restored.ok()) << restored.error();
  expect_traces_equal(restored.value(), out.trace, model.value().net);

  // Replay equivalence: the restored trace reaches the same final state.
  auto replayed_original = scheduler.replay(out.trace);
  auto replayed_restored = scheduler.replay(restored.value());
  ASSERT_TRUE(replayed_original.ok());
  ASSERT_TRUE(replayed_restored.ok());
  EXPECT_TRUE(replayed_original.value().same_timed_state(
      replayed_restored.value()));
  EXPECT_EQ(replayed_original.value().elapsed(),
            replayed_restored.value().elapsed());
}

// -- CasVisitedSet -----------------------------------------------------------

TEST(CasVisitedSet, ExactlyOnceUnderContention) {
  constexpr std::uint64_t kDigests = 20'000;
  constexpr std::uint32_t kThreads = 8;
  sched::CasVisitedSet set(16, kThreads);
  std::vector<std::uint64_t> admitted(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kDigests; ++i) {
        const std::uint64_t k = (i + w * (kDigests / kThreads)) % kDigests;
        const tpn::StateDigest d{hash_cell(k, 1, kHashSeed),
                                 hash_cell(k, 2, kHashSeed)};
        if (set.insert(d, w)) {
          ++admitted[w];
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::uint64_t total = 0;
  for (std::uint64_t a : admitted) {
    total += a;
  }
  EXPECT_EQ(total, kDigests);
  EXPECT_EQ(set.size(), kDigests);
}

TEST(CasVisitedSet, DuplicateAndZeroWordDigests) {
  sched::CasVisitedSet set(4, 1);
  const tpn::StateDigest d{0x1234, 0x5678};
  EXPECT_TRUE(set.insert(d, 0));
  EXPECT_FALSE(set.insert(d, 0));
  // Digests with a zero word can't ride the two-word publish protocol
  // (zero means "empty"/"unpublished" in a slot) and take the mutexed
  // side path; they must still be exactly-once and queryable.
  const tpn::StateDigest za{0, 0xabcd};
  const tpn::StateDigest zb{0xabcd, 0};
  const tpn::StateDigest zz{0, 0};
  for (const tpn::StateDigest& z : {za, zb, zz}) {
    EXPECT_TRUE(set.insert(z, 0));
    EXPECT_FALSE(set.insert(z, 0));
    EXPECT_TRUE(set.contains(z));
  }
  EXPECT_EQ(set.size(), 4u);
}

TEST(CasVisitedSet, GrowsPastInitialCapacityWithoutLoss) {
  sched::CasVisitedSet set(1, 1);  // single shard: forces epoch grows
  constexpr std::uint64_t kDigests = 50'000;
  for (std::uint64_t i = 0; i < kDigests; ++i) {
    const tpn::StateDigest d{hash_cell(i, 7, kHashSeed),
                             hash_cell(i, 9, kHashSeed)};
    ASSERT_TRUE(set.insert(d, 0));
  }
  EXPECT_GT(set.growths(), 0u);
  for (std::uint64_t i = 0; i < kDigests; i += 97) {
    const tpn::StateDigest d{hash_cell(i, 7, kHashSeed),
                             hash_cell(i, 9, kHashSeed)};
    EXPECT_FALSE(set.insert(d, 0));
    EXPECT_TRUE(set.contains(d));
  }
  EXPECT_EQ(set.size(), kDigests);
}

// -- Work-sharing telemetry --------------------------------------------------

TEST(ParallelSearch, WorkSharingTelemetryConsistentAcrossThreadCounts) {
  // An exhausted (infeasible) instance makes the engine explore the whole
  // reachable set, so the distinct-state count is an invariant across
  // thread counts — any hand-off that lost or duplicated a work item
  // during the idle-count countdown would break the equality. The
  // telemetry cross-checks the queue's accounting: every stolen item (one
  // taken from another worker's donation) was previously donated.
  auto s = workload::generate(sweep_config(1));  // tight: infeasible-leaning
  ASSERT_TRUE(s.ok());
  auto model = builder::build_tpn(s.value());
  ASSERT_TRUE(model.ok());

  const sched::DfsScheduler serial(model.value().net, sweep_options(0));
  const sched::SearchOutcome reference = serial.search();
  ASSERT_NE(reference.status, sched::SearchStatus::kLimitReached);

  for (std::uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    sched::SchedulerOptions options = sweep_options(threads);
    options.collect_telemetry = true;
    const sched::DfsScheduler scheduler(model.value().net, options);
    const sched::SearchOutcome out = scheduler.search();
    ASSERT_EQ(out.status, reference.status);
    if (out.status != sched::SearchStatus::kFeasible) {
      EXPECT_EQ(out.stats.states_visited, reference.stats.states_visited);
    }

    ASSERT_TRUE(out.telemetry.collected);
    ASSERT_EQ(out.telemetry.workers.size(), threads);
    std::uint64_t donations = 0;
    std::uint64_t steals = 0;
    for (const sched::WorkerTelemetry& w : out.telemetry.workers) {
      donations += w.donations;
      steals += w.steals;
    }
    EXPECT_LE(steals, donations + 1);
    if (threads == 1) {
      EXPECT_EQ(steals, 0u);  // nobody to steal from
    }
  }
}

// -- Donation queue ----------------------------------------------------------

using IntQueue = sched::DonationQueue<int>;

/// The termination oracle on real threads. Worker 0 donates kSeeds items;
/// whichever worker takes an original item re-donates a derivative
/// (item + kSeeds) once. Every worker must see kDone, every item must be
/// taken exactly once, the queue must end empty, and each worker's steal
/// count must match the items it took from another donor. Returns the
/// round's total steals.
std::uint64_t termination_round(std::uint32_t workers,
                                std::chrono::milliseconds poll) {
  constexpr int kSeeds = 16;
  IntQueue queue(workers);
  std::vector<std::vector<int>> taken(workers);
  std::vector<int> saw_done(workers, 0);
  std::atomic<std::uint32_t> started{0};
  std::vector<std::thread> threads;
  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    threads.emplace_back([&, tid] {
      // Start together, or worker 0 drains its own donations before its
      // peers are even scheduled.
      started.fetch_add(1);
      while (started.load() < workers) {
        std::this_thread::yield();
      }
      if (tid == 0) {
        for (int i = 0; i < kSeeds; ++i) {
          queue.push(0, i);
        }
      }
      int item = 0;
      for (;;) {
        const IntQueue::Acquire r = queue.acquire(tid, item, poll);
        if (r == IntQueue::Acquire::kDone) {
          saw_done[tid] = 1;
          return;
        }
        if (r == IntQueue::Acquire::kTimeout) {
          continue;
        }
        taken[tid].push_back(item);
        if (item < kSeeds) {
          queue.push(tid, item + kSeeds);
        }
        std::this_thread::yield();  // "process" the item
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<std::uint32_t> donor(2 * kSeeds, 0);  // seeds: worker 0
  std::vector<int> all;
  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    EXPECT_EQ(saw_done[tid], 1) << "worker " << tid;
    for (int item : taken[tid]) {
      all.push_back(item);
      if (item < kSeeds) {
        donor[item + kSeeds] = tid;
      }
    }
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), 2u * kSeeds);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int>(i)) << "item lost or taken twice";
  }
  EXPECT_EQ(queue.pending(), 0u);

  std::uint64_t steals = 0;
  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    std::uint64_t expected = 0;
    for (int item : taken[tid]) {
      expected += donor[item] != tid ? 1 : 0;
    }
    EXPECT_EQ(queue.stats(tid).steals, expected) << "worker " << tid;
    EXPECT_GE(queue.stats(tid).idle_transitions, 1u) << "worker " << tid;
    steals += queue.stats(tid).steals;
  }
  return steals;
}

TEST(DonationQueue, TerminationTakesEveryItemExactlyOnce) {
  std::uint64_t steals = 0;
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    for (int round = 0; round < kQueueRounds; ++round) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " round " +
                   std::to_string(round));
      // Odd rounds poll, so workers also leave and re-enter the idle
      // count through kTimeout during the countdown.
      steals += termination_round(workers,
                                  std::chrono::milliseconds(round % 2));
      if (HasFailure()) {
        return;
      }
    }
  }
  // The rounds must hand items across workers, not only let worker 0
  // drain its own donations.
  EXPECT_GT(steals, 0u);
}

TEST(DonationQueue, ShutdownWakesWaitersAndDestroysQueuedItems) {
  using Queue = sched::DonationQueue<std::shared_ptr<int>>;
  const auto token = std::make_shared<int>(0);
  {
    std::atomic<std::uint32_t> idle{0};
    Queue queue(3, [&](std::uint32_t n) { idle.store(n); });
    // Worker 0 stays busy, so the idle count never reaches 3: only
    // shutdown() can release workers 1 and 2 from their unbounded waits.
    std::vector<Queue::Acquire> results(3, Queue::Acquire::kItem);
    std::vector<std::thread> waiters;
    for (std::uint32_t tid = 1; tid < 3; ++tid) {
      waiters.emplace_back([&, tid] {
        std::shared_ptr<int> item;
        results[tid] = queue.acquire(tid, item, std::chrono::milliseconds(0));
      });
    }
    while (idle.load() < 2) {
      std::this_thread::yield();
    }
    queue.shutdown();
    for (std::thread& t : waiters) {
      t.join();
    }
    EXPECT_EQ(results[1], Queue::Acquire::kDone);
    EXPECT_EQ(results[2], Queue::Acquire::kDone);

    // Donations racing the stop stay queued and are never handed out.
    for (int i = 0; i < 4; ++i) {
      queue.push(0, token);
    }
    EXPECT_EQ(queue.pending(), 4u);
    std::shared_ptr<int> item;
    EXPECT_EQ(queue.acquire(0, item, std::chrono::milliseconds(0)),
              Queue::Acquire::kDone);
    EXPECT_EQ(item, nullptr);
    EXPECT_EQ(token.use_count(), 5);
  }
  EXPECT_EQ(token.use_count(), 1);  // the queued items died with the queue
}

TEST(DonationQueue, GuardedWaitTimesOutWhileAPeerIsBusy) {
  const auto poll = std::chrono::milliseconds(5);
  int item = -1;

  IntQueue solo(1);  // a lone worker over an empty queue is the last idle
  EXPECT_EQ(solo.acquire(0, item, poll), IntQueue::Acquire::kDone);

  std::atomic<std::uint32_t> idle{0};
  IntQueue queue(2, [&](std::uint32_t n) { idle.store(n); });
  // Worker 1 is busy, so worker 0's wait cannot end the search.
  EXPECT_EQ(queue.acquire(0, item, poll), IntQueue::Acquire::kTimeout);
  EXPECT_EQ(queue.stats(0).idle_transitions, 1u);
  EXPECT_EQ(idle.load(), 0u);  // the timed-out worker left the idle count

  queue.push(1, 7);
  ASSERT_EQ(queue.acquire(0, item, poll), IntQueue::Acquire::kItem);
  EXPECT_EQ(item, 7);
  EXPECT_EQ(queue.stats(0).steals, 1u);  // donated by worker 1
  queue.push(0, 8);
  ASSERT_EQ(queue.acquire(0, item, poll), IntQueue::Acquire::kItem);
  EXPECT_EQ(item, 8);
  EXPECT_EQ(queue.stats(0).steals, 1u);  // its own donation is no steal

  // Once the peer waits too, worker 0's next wait ends the search for both.
  IntQueue::Acquire peer = IntQueue::Acquire::kItem;
  std::thread waiter([&] {
    int got = 0;
    peer = queue.acquire(1, got, std::chrono::milliseconds(0));
  });
  while (idle.load() < 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(queue.acquire(0, item, poll), IntQueue::Acquire::kDone);
  waiter.join();
  EXPECT_EQ(peer, IntQueue::Acquire::kDone);
}

}  // namespace
}  // namespace ezrt
