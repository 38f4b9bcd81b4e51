// Blame attribution (docs/explain.md): per-place and per-task prune
// counters the engines record at deadline and doom-certificate prune
// points, feeding the `ezrt explain` verdict-provenance report.
//
// These are plain per-instance integers in the Expander::Counters idiom,
// recorded in every build, so explain reports stay byte-identical between
// telemetry-on and EZRT_NO_TELEMETRY builds, and the parallel engine can keep one recorder per worker and merge them
// after the join exactly like SearchStats. Disabled recorders cost one
// predicted branch per prune.
#pragma once

#include <cstdint>
#include <vector>

#include "tpn/marking.hpp"
#include "tpn/net.hpp"

namespace ezrt::sched {

/// Deterministic prune-attribution counters. Place-indexed vectors are
/// sized to the net's place count, the task-indexed one to the largest
/// TaskId the net mentions plus one; all empty until a recorder ran.
struct AttributionCounters {
  /// True when an engine ran with SchedulerOptions::collect_attribution.
  bool collected = false;
  /// deadline_hits[p]: deadline prunes in which miss place p (kMissPending
  /// or kMissed) was marked — the per-task deadline-watchdog hit count.
  std::vector<std::uint64_t> deadline_hits;
  /// contention[p]: prunes at which resource place p (processor, bus,
  /// exclusion lock, sync pool) held no token — the resource was fully
  /// claimed elsewhere at the moment the branch died.
  std::vector<std::uint64_t> contention;
  /// doomed_hits[t]: doom-certificate prunes attributed to task t via the
  /// certificate's watchdog transition (StateClassifier::Eval).
  std::vector<std::uint64_t> doomed_hits;
  /// Doom certificates with no task identity (role-free nets).
  std::uint64_t doomed_unattributed = 0;

  /// Element-wise sum, resizing as needed; used by the parallel engine to
  /// fold per-worker recorders after the join.
  void merge(const AttributionCounters& other);
};

/// Recorder bound to one validated net. Construction precomputes the
/// resource place list from roles (the miss places come from the net's
/// role index); when `enabled` is false every record call returns on the
/// first branch.
class AttributionRecorder {
 public:
  AttributionRecorder() = default;
  AttributionRecorder(const tpn::TimePetriNet& net, bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Called at a deadline prune with the pruned marking: counts every
  /// marked miss place and every empty resource place.
  void record_deadline(const tpn::Marking& m);

  /// Called at a doom-certificate prune with the certificate's watchdog
  /// transition (or -1) and the pruned marking.
  void record_doomed(std::int32_t watchdog_transition, const tpn::Marking& m);

  [[nodiscard]] const AttributionCounters& counters() const {
    return counters_;
  }

  /// Moves the accumulated counters out (into SearchOutcome::attribution).
  [[nodiscard]] AttributionCounters take() { return std::move(counters_); }

 private:
  void record_contention(const tpn::Marking& m);

  const tpn::TimePetriNet* net_ = nullptr;
  bool enabled_ = false;
  std::vector<PlaceId> resource_places_;
  AttributionCounters counters_;
};

}  // namespace ezrt::sched
