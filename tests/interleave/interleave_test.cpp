// Lincheck-style interleaving tests for the lock-free visited table
// (sched/lockfree_table.hpp).
//
// This TU is compiled with EZRT_INTERLEAVE_HOOKS, so the table under
// test carries a schedule-control step before every linearization-relevant
// atomic, and the StepScheduler (scheduler.hpp) decides which thread
// moves at each step. Exhaustive enumeration covers every schedule of the
// small-bound scenarios; PCT campaigns sample the larger ones; and the
// kBrokenBlindStore mutation check proves the harness actually detects
// protocol violations (a harness that cannot fail is not evidence).
//
// Every scenario checks against a sequential oracle: per-key insert must
// return true exactly once, every inserted key must survive a grow, and
// the donation queue must hand out every pushed item exactly once before
// it declares termination. The queue is mutex-guarded, so each of its
// operations is atomic and the pool scenarios place their steps at
// operation boundaries; a worker that waits on the empty queue is
// released by the scheduler's stall fallback. tests/parallel_test.cpp
// drives the same queue on real threads with 2, 4 and 8 workers.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scheduler.hpp"
#include "sched/donation_queue.hpp"
#include "sched/lockfree_table.hpp"

namespace ezrt {
namespace {

using sched::BasicLockFreeDigestTable;
using sched::ClaimProtocol;
using sched::DonationQueue;
using sched::LockFreeDigestTable;
using testing::ExhaustResult;
using testing::RunOutcome;
using testing::Scenario;
using testing::ScheduleOptions;
using testing::StepScheduler;

// ------------------------------------------------------------ CAS table --

/// N threads race to insert the same key; the oracle demands exactly one
/// winner. Templated over the claim protocol so the same scenario doubles
/// as the mutation check against the deliberately broken variant.
template <ClaimProtocol kProtocol>
class SameKeyInsertScenario final : public Scenario {
 public:
  void reset() override {
    table_ = std::make_unique<BasicLockFreeDigestTable<kProtocol>>(8, 2);
    results_ = {false, false};
  }
  [[nodiscard]] std::size_t threads() const override { return 2; }
  void body(std::size_t tid) override {
    results_[tid] = table_->insert(0x1234abcdu, 0x9876fedcu,
                                   static_cast<std::uint32_t>(tid));
  }
  bool check(std::string* why) override {
    const int winners = (results_[0] ? 1 : 0) + (results_[1] ? 1 : 0);
    if (winners != 1) {
      *why = "insert returned true " + std::to_string(winners) +
             " times for one key";
      return false;
    }
    if (!table_->contains(0x1234abcdu, 0x9876fedcu)) {
      *why = "key not found after insert";
      return false;
    }
    if (table_->size() != 1) {
      *why = "size " + std::to_string(table_->size()) + " != 1";
      return false;
    }
    return true;
  }

 private:
  std::unique_ptr<BasicLockFreeDigestTable<kProtocol>> table_;
  std::array<bool, 2> results_{};
};

TEST(InterleaveTable, SameKeyInsertIsExactlyOnceExhaustively) {
  SameKeyInsertScenario<ClaimProtocol::kCas> scenario;
  // The space is ~17k schedules (the loser's publish-wait spin branches on
  // every iteration); the budget leaves headroom so the check stays
  // genuinely exhaustive.
  const ExhaustResult result = testing::exhaust(scenario, 500, 25000);
  EXPECT_FALSE(result.found_failure) << result.failure.failure;
  EXPECT_FALSE(result.budget_exhausted)
      << "scenario too large for exhaustive enumeration: "
      << result.schedules << " schedules";
  // The two-thread claim race has genuinely distinct interleavings.
  EXPECT_GT(result.schedules, 10u);
}

/// The mutation check: the blind-store variant replaces the claim CAS
/// with a check-then-act pair. The harness must find the schedule where
/// both threads observe the empty slot and both report a fresh insert —
/// and the minimizer must hand back a smaller schedule that still fails.
TEST(InterleaveTable, MutationCheckCatchesBlindStoreClaim) {
  SameKeyInsertScenario<ClaimProtocol::kBrokenBlindStore> scenario;
  const ExhaustResult result = testing::exhaust(scenario, 500, 5000);
  ASSERT_TRUE(result.found_failure)
      << "harness failed to detect the seeded claim-protocol bug in "
      << result.schedules << " schedules";
  EXPECT_NE(result.failure.failure.find("true 2 times"), std::string::npos)
      << result.failure.failure;

  const std::vector<int> minimized =
      testing::minimize(scenario, result.failing_schedule, 500);
  ASSERT_FALSE(minimized.empty());
  // Minimization must preserve the failure...
  ScheduleOptions replay;
  replay.policy = ScheduleOptions::Policy::kFixed;
  replay.fixed = minimized;
  replay.max_steps = 500;
  EXPECT_FALSE(StepScheduler(replay).drive(scenario).ok);
  // ...and never add context switches or steps.
  EXPECT_LE(testing::context_switches(minimized),
            testing::context_switches(result.failing_schedule));
  EXPECT_LE(minimized.size(), result.failing_schedule.size());
}

/// Two threads insert distinct keys and probe each other's; afterwards
/// both must be present exactly once. Exercises the publish-wait path
/// (probe hits a claimed-unpublished slot) under every schedule.
class DistinctKeysScenario final : public Scenario {
 public:
  void reset() override {
    table_ = std::make_unique<LockFreeDigestTable>(8, 2);
    inserted_ = {false, false};
    seen_peer_ = {false, false};
  }
  [[nodiscard]] std::size_t threads() const override { return 2; }
  void body(std::size_t tid) override {
    const std::uint64_t a = kKeys[tid][0];
    const std::uint64_t b = kKeys[tid][1];
    inserted_[tid] = table_->insert(a, b, static_cast<std::uint32_t>(tid));
    const std::size_t peer = 1 - tid;
    seen_peer_[tid] = table_->contains(kKeys[peer][0], kKeys[peer][1]);
  }
  bool check(std::string* why) override {
    if (!inserted_[0] || !inserted_[1]) {
      *why = "distinct keys must both insert fresh";
      return false;
    }
    for (const auto& key : kKeys) {
      if (!table_->contains(key[0], key[1])) {
        *why = "a key vanished after quiescence";
        return false;
      }
    }
    if (table_->size() != 2) {
      *why = "size " + std::to_string(table_->size()) + " != 2";
      return false;
    }
    return true;  // seen_peer_ is schedule-dependent: any value is legal
  }

 private:
  static constexpr std::uint64_t kKeys[2][2] = {{0x11u, 0x22u},
                                                {0x33u, 0x44u}};
  std::unique_ptr<LockFreeDigestTable> table_;
  std::array<bool, 2> inserted_{};
  std::array<bool, 2> seen_peer_{};
};

TEST(InterleaveTable, DistinctKeysAndProbesExhaustively) {
  DistinctKeysScenario scenario;
  const ExhaustResult result = testing::exhaust(scenario, 500, 20000);
  EXPECT_FALSE(result.found_failure) << result.failure.failure;
  EXPECT_FALSE(result.budget_exhausted)
      << result.schedules << " schedules without covering the space";
}

/// Concurrent inserts across the epoch-based grow: the table starts at 8
/// slots with the growth margin already nearly consumed, so the two
/// racing inserts force the freeze/drain/migrate/install sequence to
/// interleave with a claim in every possible order.
class GrowRaceScenario final : public Scenario {
 public:
  void reset() override {
    table_ = std::make_unique<LockFreeDigestTable>(8, 2);
    // Three seeded keys put the next insert over the margin
    // ((count + 1 + max_threads) * 10 >= slots * 7).
    for (std::uint64_t k = 1; k <= 3; ++k) {
      table_->insert(k, k + 100, 0);
    }
    results_ = {false, false};
  }
  [[nodiscard]] std::size_t threads() const override { return 2; }
  void body(std::size_t tid) override {
    results_[tid] = table_->insert(10 + tid, 200 + tid,
                                   static_cast<std::uint32_t>(tid));
  }
  bool check(std::string* why) override {
    if (!results_[0] || !results_[1]) {
      *why = "a distinct insert lost across the grow";
      return false;
    }
    for (std::uint64_t k = 1; k <= 3; ++k) {
      if (!table_->contains(k, k + 100)) {
        *why = "pre-grow key " + std::to_string(k) + " lost in migration";
        return false;
      }
    }
    for (std::uint64_t tid = 0; tid < 2; ++tid) {
      if (!table_->contains(10 + tid, 200 + tid)) {
        *why = "concurrent key lost across the grow";
        return false;
      }
    }
    if (table_->size() != 5) {
      *why = "size " + std::to_string(table_->size()) + " != 5";
      return false;
    }
    if (table_->growths() == 0) {
      *why = "scenario failed to trigger a grow";
      return false;
    }
    return true;
  }

 private:
  std::unique_ptr<LockFreeDigestTable> table_;
  std::array<bool, 2> results_{};
};

TEST(InterleaveTable, EpochGrowKeepsEveryKeyExhaustively) {
  GrowRaceScenario scenario;
  const ExhaustResult result = testing::exhaust(scenario, 2000, 20000);
  EXPECT_FALSE(result.found_failure) << result.failure.failure;
  // The grow scenario's space is larger; a capped-but-clean sweep still
  // covers every schedule up to the budget.
  if (result.budget_exhausted) {
    EXPECT_EQ(result.schedules, 20000u);
  }
}

TEST(InterleaveTable, EpochGrowSurvivesPctCampaign) {
  GrowRaceScenario scenario;
  const ExhaustResult result = testing::pct_campaign(scenario, 64, 0x9e3779b9u);
  EXPECT_FALSE(result.found_failure) << result.failure.failure;
}

// ----------------------------------------------------------------- pool --

/// The termination protocol of the donation queue: worker 0 pushes three
/// items, and whichever worker takes an original item re-donates a
/// derivative once. Every schedule must end with both workers seeing
/// kDone and every item taken exactly once.
class PoolTerminationScenario final : public Scenario {
 public:
  using Queue = DonationQueue<int>;

  void reset() override {
    queue_ = std::make_unique<Queue>(2);
    taken_ = {};
    saw_done_ = {false, false};
    stolen_items_ = 0;
  }
  [[nodiscard]] std::size_t threads() const override { return 2; }
  void body(std::size_t tid) override {
    const auto worker = static_cast<std::uint32_t>(tid);
    if (tid == 0) {
      for (int i = 0; i < 3; ++i) {
        EZRT_STEP("pool.push");
        queue_->push(0, i);
      }
    }
    int item = 0;
    for (;;) {
      EZRT_STEP("pool.acquire");
      // An unbounded wait, as in a search without a resource guard. The
      // waiter sits outside every step, so the stall fallback grants the
      // peer, whose push or own empty acquire must wake it.
      const auto r = queue_->acquire(worker, item,
                                     std::chrono::milliseconds(0));
      if (r == Queue::Acquire::kDone) {
        saw_done_[tid] = true;
        return;
      }
      taken_[tid].push_back(item);
      if (item >= 100) {
        continue;  // re-donated item: process without re-sharing
      }
      // Re-donate a derivative item once, from whichever worker holds it:
      // if the peer took it during the countdown, the push now comes from
      // that peer — exactly the handoff the protocol must absorb.
      EZRT_STEP("pool.push");
      queue_->push(worker, item + 100);
    }
  }
  bool check(std::string* why) override {
    // Originals are donated by worker 0, each derivative by the worker
    // that took its original.
    std::map<int, std::uint32_t> donor = {{0, 0}, {1, 0}, {2, 0}};
    std::map<int, int> times;
    for (std::uint32_t tid = 0; tid < 2; ++tid) {
      if (!saw_done_[tid]) {
        *why = "worker " + std::to_string(tid) + " returned without kDone";
        return false;
      }
      for (int item : taken_[tid]) {
        ++times[item];
        if (item < 100) {
          donor[item + 100] = tid;
        }
      }
    }
    for (int item : {0, 1, 2, 100, 101, 102}) {
      if (times[item] != 1) {
        *why = "item " + std::to_string(item) + " taken " +
               std::to_string(times[item]) + " times";
        return false;
      }
    }
    if (times.size() != 6) {
      *why = "an item nobody pushed was taken";
      return false;
    }
    if (queue_->pending() != 0) {
      *why = "queue finished with items pending";
      return false;
    }
    std::uint64_t expected_steals = 0;
    for (std::uint32_t tid = 0; tid < 2; ++tid) {
      for (int item : taken_[tid]) {
        expected_steals += donor[item] != tid ? 1 : 0;
      }
    }
    stolen_items_ = queue_->stats(0).steals + queue_->stats(1).steals;
    if (stolen_items_ != expected_steals) {
      *why = "steal count " + std::to_string(stolen_items_) +
             " != items taken from another donor " +
             std::to_string(expected_steals);
      return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t stolen_items() const { return stolen_items_; }

 private:
  std::unique_ptr<Queue> queue_;
  std::array<std::vector<int>, 2> taken_;
  std::array<bool, 2> saw_done_{};
  std::uint64_t stolen_items_ = 0;
};

TEST(InterleavePool, TerminationLosesNoWorkUnderSeededSchedules) {
  PoolTerminationScenario scenario;
  std::uint64_t rounds_with_steals = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ScheduleOptions opts;
    opts.policy = ScheduleOptions::Policy::kPct;
    opts.seed = seed;
    opts.max_steps = 5000;
    const RunOutcome out = StepScheduler(opts).drive(scenario);
    ASSERT_TRUE(out.ok) << "seed " << seed << ": " << out.failure;
    rounds_with_steals += scenario.stolen_items() > 0 ? 1 : 0;
  }
  // The campaign must actually hand items across workers during the idle
  // countdown, not just let worker 0 drain its own donations.
  EXPECT_GT(rounds_with_steals, 0u);
}

TEST(InterleavePool, TerminationLosesNoWorkUnderRandomSchedules) {
  PoolTerminationScenario scenario;
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    ScheduleOptions opts;
    opts.policy = ScheduleOptions::Policy::kRandom;
    opts.seed = seed;
    opts.max_steps = 5000;
    const RunOutcome out = StepScheduler(opts).drive(scenario);
    ASSERT_TRUE(out.ok) << "seed " << seed << ": " << out.failure;
  }
}

}  // namespace
}  // namespace ezrt
