// Structural and role-based analyses over a TPN.
//
// These are read-only helpers shared by the scheduler (conflict detection
// for partial-order reduction, undesirable-state detection for pruning) and
// the reporting layer (net statistics).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "base/assert.hpp"
#include "tpn/marking.hpp"
#include "tpn/net.hpp"

namespace ezrt::tpn {

/// Aggregate size of a net — used by the block-cost benchmarks.
struct NetStats {
  std::size_t places = 0;
  std::size_t transitions = 0;
  std::size_t arcs = 0;
  std::size_t initial_tokens = 0;
};

[[nodiscard]] NetStats stats(const TimePetriNet& net);

/// True if no other transition shares an input place with t, i.e. firing t
/// can never disable anything else. Such transitions are safe candidates
/// for partial-order reduction.
[[nodiscard]] bool structurally_conflict_free(const TimePetriNet& net,
                                              TransitionId t);

/// The task whose deadline-checking block is marked, for diagnostics.
/// Returns an invalid TaskId when no miss is marked. Like the two tests
/// below it reads the validated net's role index (O(miss places)).
[[nodiscard]] inline TaskId missed_task(const TimePetriNet& net,
                                        const Marking& m) {
  EZRT_CHECK(net.validated(), "role tests require a validated net");
  for (PlaceId p : net.miss_places()) {
    if (m[p] > 0) {
      return net.place(p).task;
    }
  }
  return TaskId();
}

/// True if the marking covers any miss-pending or missed place — the
/// "undesirable state" of the deadline-checking block (§3.3.1d); the
/// scheduler prunes these branches immediately.
[[nodiscard]] inline bool has_deadline_miss(const TimePetriNet& net,
                                            const Marking& m) {
  return missed_task(net, m).valid();
}

/// True if the marking is a goal marking M_F: the join block's end place
/// carries a token (§3.3.1b — m(pend) = 1 signals a feasible schedule).
[[nodiscard]] inline bool is_final_marking(const TimePetriNet& net,
                                           const Marking& m) {
  EZRT_CHECK(net.validated(), "role tests require a validated net");
  for (PlaceId p : net.end_places()) {
    if (m[p] > 0) {
      return true;
    }
  }
  return false;
}

/// Human-readable marking dump (only non-empty places), for diagnostics.
[[nodiscard]] std::string describe_marking(const TimePetriNet& net,
                                           const Marking& m);

}  // namespace ezrt::tpn
