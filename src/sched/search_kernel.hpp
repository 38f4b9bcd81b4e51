// The admission step every search engine shares (docs/search.md,
// "Admission step and frontiers"): the work done on each fired successor
// before it joins the frontier,
//
//   fire -> guard -> miss -> [class keys: memo -> goal -> doom -> key
//        -> corridor] -> visited claim -> count + progress
//        -> [concrete keys: goal] -> state budget -> expand
//
// is SearchWorker::admit. An engine is only the frontier that picks which
// admitted state expands next: a stack (serial DFS, each parallel worker
// with a pool around it, and branch-and-bound with its cost bound), a
// heap (best-first) or a level vector (beam, and `reach` with no width
// bound). The order depends only on the key mode, never on the engine, so
// counts agree across engines. The visited table follows the objective:
// the first-feasible engines key one CasVisitedSet (the serial ones with
// one shard and one thread slot, the parallel engine sharded per thread),
// and the optimizing objectives claim keys in a BestCostTable.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/progress.hpp"
#include "sched/dfs.hpp"
#include "sched/expansion.hpp"
#include "sched/guards.hpp"
#include "sched/visited_set.hpp"
#include "tpn/state_class.hpp"

namespace ezrt::sched {

/// Forced-corridor step ceiling per admitted state. A corridor that spins
/// past it (a zero-delay forced cycle in a hand-built net) admits the
/// current interior as a decision state, so the visited set regains
/// termination; builder-produced nets never get near it.
inline constexpr std::uint32_t kCorridorCap = 1u << 16;

/// One publisher's view of a progress sink (obs/progress.hpp): every
/// (kPublishMask + 1)-th admitted state it stores the gauges and adds the
/// counters' growth since its last publish, so the workers of one search
/// can feed one sink. Write-only, so statistics never depend on a sink.
struct ProgressCursor {
  obs::ProgressSink* sink = nullptr;
  std::uint64_t fired = 0;
  std::uint64_t pruned = 0;

  void publish(std::uint64_t states, std::uint64_t fired_now,
               std::uint64_t pruned_now, std::uint64_t depth) {
    if (sink == nullptr || (states & obs::ProgressSink::kPublishMask) != 0) {
      return;
    }
    if constexpr (obs::kTelemetryEnabled) {
      sink->states.store(states, std::memory_order_relaxed);
      sink->transitions.fetch_add(fired_now - fired,
                                  std::memory_order_relaxed);
      sink->pruned.fetch_add(pruned_now - pruned, std::memory_order_relaxed);
      sink->depth.store(depth, std::memory_order_relaxed);
    }
    fired = fired_now;
    pruned = pruned_now;
  }
};

/// A frontier entry: an admitted state and its expansion. Once its last
/// candidate is fired the frame is spent: the child took its state and
/// buffer (SearchWorker::admit), and it keeps only its trace links.
/// On run_stack's stack a child whose parent is spent takes the parent's
/// place, so one frame stands for a chain of admitted states: it keeps
/// the chain's first `edge_at`, the events of the whole chain and its
/// length in `frames`.
struct Frame {
  tpn::State state;
  std::vector<Candidate> candidates;
  std::size_t edge_at = 0;   ///< where the entering events start
  std::uint32_t next = 0;    ///< next untried candidate
  std::uint32_t events = 0;  ///< entering events: one, or a corridor
  std::uint32_t parent = 0;  ///< arena index of the parent (heap, level)
  std::uint32_t frames = 1;  ///< admitted states this stack frame stands for
  std::uint64_t depth = 1;   ///< admitted states from s0 through this one
};

/// A subtree root for run_stack: an admitted frame and the firing path
/// from s0 that reached it.
struct WorkItem {
  Frame frame;
  Trace prefix;
};

enum class Admit : std::uint8_t {
  kPruned,    ///< the successor was cut; keep searching
  kAdmitted,  ///< the child frame joins the frontier
  kFinal,     ///< goal, state budget or guard: SearchWorker::status says
};

class SearchWorker;

/// What the workers of one search share: read-only after construction
/// except the visited table and the admitted-state counter.
class SearchShared {
 public:
  /// `threads` is SchedulerOptions::threads for the parallel engine and 0
  /// for the serial ones, which get one shard and one thread slot.
  /// `ranked` engines (best-first, beam) order states by the classifier's
  /// evaluation, so every admitted state carries it in SearchWorker::eval.
  SearchShared(const tpn::TimePetriNet& net, const SchedulerOptions& options,
               const GoalPredicate& goal, std::uint32_t threads,
               bool ranked = false);

  /// The goal test: the caller's predicate, or by default the final
  /// marking M_F, read from the net's role index.
  [[nodiscard]] bool is_goal(const tpn::Marking& m) const {
    return goal ? goal(m) : tpn::is_final_marking(net, m);
  }

  /// Folds the workers' statistics, attribution and telemetry into `out`,
  /// stamps the wall clock and publishes the exact totals. The table
  /// footprint is the larger of the live table and `retired_bytes` (the
  /// tables of earlier beam passes). Call after the workers stopped.
  void fold(SearchOutcome& out, std::span<SearchWorker* const> workers,
            std::uint64_t retired_bytes = 0) const;

  const tpn::TimePetriNet& net;
  const SchedulerOptions& options;
  const GoalPredicate& goal;
  const tpn::Semantics semantics;
  const bool classes_on;
  const bool ranked;
  /// Built only when class keys or a ranked engine read it.
  const std::optional<tpn::StateClassifier> classifier;
  /// s0 marks a miss place. Otherwise no admitted state does, and only a
  /// firing that outputs into a miss place can mark one (admit).
  const bool miss_at_s0;
  const std::uint32_t threads;
  const std::chrono::steady_clock::time_point t0;
  const ResourceGuard guard;
  /// What the memory guard charges for each state a worker owns, live or
  /// pooled (estimated_state_bytes).
  const std::uint64_t state_bytes;
  /// The visited table: `visited` for the first-feasible objective
  /// (re-emplaced per beam pass), `costs` for the optimizing ones.
  std::optional<CasVisitedSet> visited;
  std::optional<BestCostTable> costs;
  std::atomic<std::uint64_t> states{0};  ///< admitted, across workers

  [[nodiscard]] std::uint64_t table_bytes() const {
    return costs ? costs->memory_bytes() : visited->memory_bytes();
  }
};

/// One worker's memo of corridor interiors (docs/search.md §3.1): the
/// concrete digests of the single-candidate states a corridor chase
/// passed through on its way to a visited claim. Chasing from such a
/// state again is deterministic and ends at that claim, which now fails,
/// so a chased state found here is cut as a visited prune without
/// re-firing the corridor. Open addressing over 16-byte slots: it starts
/// at kMinSlots, doubles at 3/4 load up to kMaxSlots and then stops
/// recording (a digest it does not hold only costs the re-chase). Keys
/// are concrete digests, never capped class keys: capping merges states
/// whose continuations differ (docs/search.md §3.2).
class CorridorMemo {
 public:
  [[nodiscard]] bool contains(tpn::StateDigest d) const {
    if (slots_.empty() || (d.a | d.b) == 0) {
      return false;  // (0, 0) marks an empty slot and is never recorded
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = d.a & mask;; i = (i + 1) & mask) {
      if (slots_[i].a == d.a && slots_[i].b == d.b) {
        return true;
      }
      if ((slots_[i].a | slots_[i].b) == 0) {
        return false;
      }
    }
  }

  void insert(tpn::StateDigest d);

  /// Forgets every corridor; required whenever the visited table the
  /// recorded claims went to is replaced.
  void clear() {
    slots_ = {};
    count_ = 0;
  }

  [[nodiscard]] std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(tpn::StateDigest);
  }

 private:
  static constexpr std::size_t kMinSlots = 256;       ///< 4 KiB
  static constexpr std::size_t kMaxSlots = 1u << 16;  ///< 1 MiB

  std::vector<tpn::StateDigest> slots_;
  std::size_t count_ = 0;
};

/// One thread's share of a search: its expander, counters and scratch.
class alignas(64) SearchWorker {
 public:
  SearchWorker(SearchShared& shared, std::uint32_t tid);
  SearchWorker(const SearchWorker&) = delete;
  SearchWorker& operator=(const SearchWorker&) = delete;

  /// Admits s0 into `root`; kFinal when s0 is already the goal or
  /// spends the state budget.
  Admit admit_root(Frame& root);

  /// The admission step: fires `parent`'s next untried candidate and,
  /// unless that is pruned or ends the search, fills `child` (which
  /// arrives empty) with the successor's state, expansion and depth. The
  /// entering events are left in `edge` for the frontier to place.
  /// `frames` is the frontier's frame count, for the memory guard.
  ///
  /// Where the successor is written: while `parent` has other untried
  /// candidates, into a state recycled from the pools, copy-assigned from
  /// the parent. Firing the last one spends `parent`: the child takes its
  /// state and candidate buffer and fires in place.
  Admit admit(Frame& parent, std::size_t frames, Frame& child);

  /// Depth-first search of the subtree rooted at `item`; `between(item)`
  /// runs before every step and false abandons the subtree. Returns the
  /// status of a step that ended the search (`trace` holds a kFeasible
  /// schedule), or nullopt once the subtree is exhausted or abandoned.
  template <typename Between>
  std::optional<SearchStatus> run_stack(WorkItem& item, Between&& between);

  /// item.prefix + the first `path_len` path events + `edge`.
  [[nodiscard]] Trace trace_to(const WorkItem& item,
                               std::size_t path_len) const {
    Trace t = item.prefix;
    t.insert(t.end(), path.begin(),
             path.begin() + static_cast<std::ptrdiff_t>(path_len));
    t.insert(t.end(), edge.begin(), edge.end());
    return t;
  }

  /// Masked resource-guard poll, ticked by this worker's fired count.
  template <typename MemoryFn>
  [[nodiscard]] std::optional<SearchStatus> poll_guard(MemoryFn&& memory) {
    if (!guarded_) {
      return std::nullopt;
    }
    return shared.guard.check(stats.transitions_fired, memory);
  }

  void publish(std::uint64_t states, std::uint64_t depth) {
    progress_.publish(states, stats.transitions_fired,
                      stats.pruned_deadline + stats.pruned_visited, depth);
  }

  /// Hands the state and buffer of a popped, pruned, expanded or dropped
  /// frame back to the pools; the frame keeps its trace links. A spent
  /// frame handed both on already and holds an empty placeholder State
  /// (no marking) and an unallocated buffer, so nothing of it is pooled.
  void retire(Frame&& f) {
    if (f.state.marking().size() != 0) {
      state_pool_.push_back(std::move(f.state));
    }
    if (f.candidates.capacity() != 0) {
      candidate_pool_.push_back(std::move(f.candidates));
    }
  }

  SearchShared& shared;
  const std::uint32_t tid;
  Expander expander;
  SearchStats stats;
  AttributionRecorder attribution;  ///< folded like `stats`
  tpn::StateClassifier::Scratch scratch;
  /// The last admitted state's evaluation (in ranked engines, or with
  /// class keys, which evaluate every chased state for the doom test).
  tpn::StateClassifier::Eval eval;
  std::vector<FiringEvent> edge;  ///< events entering the last admission
  std::vector<Frame> stack;       ///< run_stack's frontier (chains collapsed)
  Trace path;                     ///< events entering stack frames 1..n
  Trace trace;                    ///< the schedule run_stack found
  SearchStatus status = SearchStatus::kInfeasible;  ///< of the last kFinal
  std::uint64_t donations = 0;  ///< items shared by the parallel engine
  /// Set by an optimizing frontier before each admission: the successor's
  /// path cost, and a salt folded into its key for state the marking and
  /// clocks do not hold (branch-and-bound's running task per core).
  std::uint64_t cost = 0;
  std::uint64_t salt = 0;
  /// This worker's corridor memo. Clear it whenever shared.visited is
  /// replaced: its cuts point at claims in that table.
  CorridorMemo memo;

 private:
  Admit conclude(SearchStatus s) {
    status = s;
    return Admit::kFinal;
  }

  [[nodiscard]] bool budget_spent(std::uint64_t admitted) const {
    return shared.options.max_states != 0 &&
           admitted >= shared.options.max_states;
  }

  /// The visited step: true when `key` is admitted. The cost path stays
  /// out of line so the set path compiles as it would without it.
  bool claim(tpn::StateDigest key) {
    if (shared.costs) [[unlikely]] {
      return claim_cheaper(key);
    }
    return shared.visited->insert(key, tid);
  }
  [[gnu::noinline]] bool claim_cheaper(tpn::StateDigest key);

  void memoize_corridor() {
    for (const tpn::StateDigest& d : corridor_) {
      memo.insert(d);
    }
  }

  template <typename T>
  static T take(std::vector<T>& pool) {
    T v;
    if (!pool.empty()) {
      v = std::move(pool.back());
      pool.pop_back();
    }
    return v;
  }

  const bool guarded_;
  ProgressCursor progress_;
  /// States this worker created (admit_root's s0 and every copy the
  /// state pool could not serve): the memory guard's count of the states
  /// it owns, live or pooled.
  std::uint64_t states_owned_ = 0;
  std::vector<tpn::State> state_pool_;
  std::vector<std::vector<Candidate>> candidate_pool_;
  /// Concrete digests of the current corridor's interior states.
  std::vector<tpn::StateDigest> corridor_;
};

template <typename Between>
std::optional<SearchStatus> SearchWorker::run_stack(WorkItem& item,
                                                    Between&& between) {
  stack.clear();
  path.clear();
  stack.push_back(std::move(item.frame));
  while (!stack.empty()) {
    if (!between(item)) {
      return std::nullopt;
    }
    Frame& top = stack.back();
    if (top.next >= top.candidates.size()) {
      path.resize(top.edge_at);
      stats.backtracks += top.frames;  // one per admitted state it stands for
      retire(std::move(top));
      stack.pop_back();
      continue;
    }
    Frame child;
    const Admit r = admit(top, stack.size(), child);
    if (r == Admit::kAdmitted) {
      const auto events = static_cast<std::uint32_t>(edge.size());
      path.insert(path.end(), edge.begin(), edge.end());
      if (top.next >= top.candidates.size()) {
        // The parent is spent: the child takes its place, so only frames
        // with untried candidates stay stored, and the prefix
        // edge_at + events still ends at the frame's state.
        child.edge_at = top.edge_at;
        child.events = top.events + events;
        child.frames = top.frames + 1;
        top = std::move(child);
      } else {
        child.edge_at = path.size() - events;
        child.events = events;
        stack.push_back(std::move(child));
      }
      continue;
    }
    retire(std::move(child));
    if (r == Admit::kFinal) {
      if (status == SearchStatus::kFeasible) {
        trace = trace_to(item, path.size());
      }
      return status;
    }
  }
  return std::nullopt;
}

}  // namespace ezrt::sched
