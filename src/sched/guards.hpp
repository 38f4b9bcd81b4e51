// Hard resource guards for the search engines (docs/robustness.md).
//
// The paper's synthesis either proves feasibility or exhausts the state
// space — but a production scheduler service must also bound *itself*: a
// hostile or merely huge model must not run the tool out of wall-clock
// time or memory, and an operator must be able to interrupt a search and
// still get a report. ResourceGuard packages the three ceilings from
// SchedulerOptions (wall_limit_ms, memory_limit_bytes, cancel) behind one
// masked check that both engines call from their admission hot loops:
//
//   * cancellation is a single relaxed atomic load, checked on every call;
//   * the wall clock is read only every kWallMask + 1 calls;
//   * the memory estimate (a callable, typically visited-set bytes plus
//     the states and frames a worker holds) is evaluated only every
//     kMemoryMask + 1 calls.
//
// With no ceiling configured, armed() is false and the engines skip the
// guard entirely, so the unguarded hot path pays one predictable branch
// (the BM_Scaling_TaskCount overhead bound in BENCH_search.json covers
// this). Guard verdicts are inherently wall-clock- and scheduling-
// dependent: a run that trips kTimeLimit on one machine may finish on
// another, so none of them participate in the determinism contract
// (docs/semantics.md §8).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "base/cancel.hpp"
#include "sched/dfs.hpp"
#include "tpn/semantics.hpp"

namespace ezrt::sched {

class ResourceGuard {
 public:
  /// Wall clock is read every kWallMask + 1 masked checks.
  static constexpr std::uint64_t kWallMask = 255;
  /// The memory estimate runs every kMemoryMask + 1 masked checks.
  static constexpr std::uint64_t kMemoryMask = 1023;

  ResourceGuard(const SchedulerOptions& options,
                std::chrono::steady_clock::time_point t0)
      : cancel_(options.cancel),
        memory_limit_(options.memory_limit_bytes),
        has_wall_(options.wall_limit_ms != 0 ||
                  options.deadline !=
                      std::chrono::steady_clock::time_point{}),
        deadline_(std::chrono::steady_clock::time_point::max()) {
    // Two wall ceilings compose: the per-search relative limit anchored at
    // this engine's t0, and the caller-fixed absolute deadline that spans
    // search sequences (SchedulerOptions::deadline). Earlier wins.
    if (options.wall_limit_ms != 0) {
      deadline_ = t0 + std::chrono::milliseconds(options.wall_limit_ms);
    }
    if (options.deadline != std::chrono::steady_clock::time_point{} &&
        options.deadline < deadline_) {
      deadline_ = options.deadline;
    }
  }

  /// False when no ceiling is configured — callers hoist this so the
  /// unguarded hot loop pays a single branch.
  [[nodiscard]] bool armed() const {
    return cancel_ != nullptr || has_wall_ || memory_limit_ != 0;
  }

  /// Masked hot-loop check. `n` is any per-caller monotone counter that
  /// ticks once per call (the engines use fired transitions, which tick
  /// even when every child is being pruned). Returns the terminating
  /// verdict, or nullopt to keep searching.
  template <typename MemoryFn>
  [[nodiscard]] std::optional<SearchStatus> check(
      std::uint64_t n, MemoryFn&& memory_bytes) const {
    if (cancel_ != nullptr && cancel_->requested()) {
      return SearchStatus::kCancelled;
    }
    if (has_wall_ && (n & kWallMask) == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      return SearchStatus::kTimeLimit;
    }
    if (memory_limit_ != 0 && (n & kMemoryMask) == 0 &&
        memory_bytes() > memory_limit_) {
      return SearchStatus::kMemoryLimit;
    }
    return std::nullopt;
  }

  /// Unmasked check for cold paths (a parked worker waking from its wait
  /// timeout): every armed ceiling is evaluated.
  template <typename MemoryFn>
  [[nodiscard]] std::optional<SearchStatus> check_now(
      MemoryFn&& memory_bytes) const {
    if (cancel_ != nullptr && cancel_->requested()) {
      return SearchStatus::kCancelled;
    }
    if (has_wall_ && std::chrono::steady_clock::now() >= deadline_) {
      return SearchStatus::kTimeLimit;
    }
    if (memory_limit_ != 0 && memory_bytes() > memory_limit_) {
      return SearchStatus::kMemoryLimit;
    }
    return std::nullopt;
  }

 private:
  const base::CancelToken* cancel_;
  std::uint64_t memory_limit_;
  bool has_wall_;
  std::chrono::steady_clock::time_point deadline_;
};

/// Estimated heap bytes of one search state for the given net: its
/// marking, clock vector and enabled bitset plus a candidate buffer. The
/// memory guard charges it for every state a worker owns, live or pooled,
/// and `sizeof(Frame)` (the vector headers included) for every frame a
/// frontier stores (run_stack stores a chain of spent frames as one); the
/// visited set (the asymptotically dominant term) is accounted exactly
/// by the engines.
[[nodiscard]] inline std::uint64_t estimated_state_bytes(
    const tpn::TimePetriNet& net) {
  const std::uint64_t places = net.place_count();
  const std::uint64_t transitions = net.transition_count();
  return places * sizeof(std::uint32_t) +    // marking tokens
         transitions * sizeof(Time) +        // transition clocks
         ((transitions + 63) / 64) * 8 +     // enabled bitset words
         transitions * sizeof(std::uint64_t);  // candidate buffer (approx)
}

}  // namespace ezrt::sched
