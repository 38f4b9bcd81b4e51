#include "sched/guided.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "sched/search_kernel.hpp"

namespace ezrt::sched {

namespace {

/// Frontier ordering key: primary f = elapsed + remaining-work bound
/// (admissible, so best-first stays complete). An admissible h leaves
/// large equal-f plateaus (every state on an optimal schedule shares the
/// same f), so the tie-breaks decide the practical cost: smaller h first
/// (deeper along the schedule, the standard A* plateau rule), then the
/// tightest deadline slack (urgency), then LIFO insertion order — which
/// walks a plateau depth-first instead of flooding it breadth-first.
struct Entry {
  Time f = 0;
  Time h = 0;
  Time slack = 0;
  std::uint32_t node = 0;
};

struct EntryWorse {
  bool operator()(const Entry& a, const Entry& b) const {
    // The node order is reversed: the newest admission expands first.
    return std::tie(a.h, a.f, a.slack, b.node) >
           std::tie(b.h, b.f, b.slack, a.node);
  }
};

/// The heap and level frontiers over the shared admission step. Admitted
/// frames live in an append-only arena with parent links; their entering
/// events sit in one flat vector, so a goal's trace is rebuilt by walking
/// the parents. A frame that was expanded or dropped from the beam hands
/// its state back to the worker's pool and keeps only those links.
class GuidedSearch {
 public:
  GuidedSearch(const tpn::TimePetriNet& net, const SchedulerOptions& options,
               const GoalPredicate& goal)
      : shared_(net, options, goal, 0, /*ranked=*/true), w_(shared_, 0) {}

  SearchOutcome run() {
    SearchOutcome out;
    out.status = shared_.options.search_engine == SearchEngine::kBestFirst
                     ? best_first()
                     : beam();
    out.trace = std::move(trace_);  // set by a goal only
    shared_.fold(out, std::array{&w_}, peak_bytes_);
    return out;
  }

 private:
  /// Frontier entry of the state admitted last (evaluated in `w_.eval`).
  [[nodiscard]] Entry entry(std::uint32_t node) const {
    const Time h = w_.eval.remaining_work;
    return Entry{nodes_[node].state.elapsed() + h, h, w_.eval.min_slack,
                 node};
  }

  /// Starts a fresh arena at s0; false when s0 ends the search (the goal
  /// or the state budget, in w_.status).
  bool admit_root() {
    nodes_.assign(1, Frame{});
    edges_.clear();
    return w_.admit_root(nodes_[0]) == Admit::kAdmitted;
  }

  /// Admits every candidate of node `idx`, handing each admitted child's
  /// entry to `push`. Returns the final status of an admission that ended
  /// the search (the goal's trace is in trace_), nullopt otherwise.
  template <typename Push>
  std::optional<SearchStatus> expand(std::uint32_t idx, Push&& push) {
    while (nodes_[idx].next < nodes_[idx].candidates.size()) {
      Frame child;
      const Admit r = w_.admit(nodes_[idx], nodes_.size(), child);
      if (r == Admit::kPruned) {
        w_.retire(std::move(child));
        continue;
      }
      if (r == Admit::kFinal) {
        if (w_.status == SearchStatus::kFeasible) {
          set_goal_trace(idx);
        }
        return w_.status;
      }
      child.parent = idx;
      child.edge_at = edges_.size();
      child.events = static_cast<std::uint32_t>(w_.edge.size());
      edges_.insert(edges_.end(), w_.edge.begin(), w_.edge.end());
      nodes_.push_back(std::move(child));
      push(entry(static_cast<std::uint32_t>(nodes_.size() - 1)));
    }
    // An expanded node keeps only its trace links (parent and edge). Its
    // last child took its state and buffer; a dead end's go to the pools.
    w_.retire(std::move(nodes_[idx]));
    return std::nullopt;
  }

  /// Root-to-goal trace: ancestor edges via parent links (node 0 is s0,
  /// with no edge), then the in-flight edge that reached the goal.
  void set_goal_trace(std::uint32_t parent) {
    std::vector<std::uint32_t> chain;
    for (std::uint32_t i = parent; i != 0; i = nodes_[i].parent) {
      chain.push_back(i);
    }
    trace_.clear();
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const auto from = edges_.begin() +
                        static_cast<std::ptrdiff_t>(nodes_[*it].edge_at);
      trace_.insert(trace_.end(), from, from + nodes_[*it].events);
    }
    trace_.insert(trace_.end(), w_.edge.begin(), w_.edge.end());
  }

  SearchStatus best_first() {
    if (!admit_root()) {
      return w_.status;
    }
    std::priority_queue<Entry, std::vector<Entry>, EntryWorse> open;
    open.push(entry(0));
    while (!open.empty()) {
      const std::uint32_t idx = open.top().node;
      open.pop();
      if (auto status = expand(idx, [&](Entry e) { open.push(e); })) {
        return *status;
      }
    }
    // Frontier exhausted with an admissible, non-pruning order: every
    // reachable class was expanded, so infeasibility is proven.
    return SearchStatus::kInfeasible;
  }

  /// Fixed-width passes over a fresh arena and table; with widening the
  /// width doubles after every pass that dropped states without a goal.
  SearchStatus beam() {
    std::uint32_t width =
        std::max<std::uint32_t>(1, shared_.options.beam_width);
    for (;;) {
      if (!admit_root()) {
        return w_.status;
      }
      bool dropped = false;
      std::vector<Entry> level{entry(0)};
      std::vector<Entry> scored;
      while (!level.empty()) {
        scored.clear();
        for (const Entry& e : level) {
          if (auto status =
                  expand(e.node, [&](Entry x) { scored.push_back(x); })) {
            return *status;
          }
        }
        std::sort(scored.begin(), scored.end(),
                  [](const Entry& a, const Entry& b) {
                    return EntryWorse{}(b, a);  // best (lowest key) first
                  });
        if (scored.size() > width) {
          w_.stats.beam_dropped += scored.size() - width;
          dropped = true;
          for (std::size_t i = width; i < scored.size(); ++i) {
            w_.retire(std::move(nodes_[scored[i].node]));
          }
          scored.resize(width);
        }
        level.swap(scored);
      }
      if (!dropped) {
        // The width never bound, so the pass explored every reachable
        // class: a sound exhaustive verdict even without widening.
        return SearchStatus::kInfeasible;
      }
      if (!shared_.options.widen) {
        // Inconclusive: states were dropped and no goal appeared. Never
        // report kInfeasible from an incomplete exploration.
        return SearchStatus::kLimitReached;
      }
      width = width > (1u << 30) ? 0xffffffffu : width * 2;
      peak_bytes_ = std::max(peak_bytes_, shared_.visited->memory_bytes());
      shared_.visited.emplace(1, 1);
      w_.memo.clear();
    }
  }

  SearchShared shared_;
  SearchWorker w_;
  std::vector<Frame> nodes_;
  std::vector<FiringEvent> edges_;
  Trace trace_;
  std::uint64_t peak_bytes_ = 0;  ///< of the tables earlier passes retired
};

}  // namespace

SearchOutcome guided_search(const tpn::TimePetriNet& net,
                            const SchedulerOptions& options,
                            const GoalPredicate& goal) {
  EZRT_CHECK(options.search_engine != SearchEngine::kDfs,
             "guided_search requires a guided engine");
  EZRT_CHECK(options.objective == Objective::kFirstFeasible,
             "guided engines cover the first-feasible objective only");
  return GuidedSearch(net, options, goal).run();
}

}  // namespace ezrt::sched
