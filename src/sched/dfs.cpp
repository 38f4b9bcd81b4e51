#include "sched/dfs.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/hash.hpp"
#include "sched/guided.hpp"
#include "sched/parallel.hpp"
#include "sched/search_kernel.hpp"

namespace ezrt::sched {

namespace {

/// Branch-and-bound over the same expansion: explore exhaustively, keep
/// the cheapest schedule, prune branches whose monotone partial cost
/// already reaches the incumbent. Cost edges:
///   kMinimizeMakespan — the firing delay (partial cost = elapsed);
///   kMinimizeSwitches — 1 whenever a compute firing belongs to a
///     different task than the previous compute firing on the same
///     processor (per-core context switches).
/// A stack frontier over the shared admission step, whose best-cost table
/// readmits a state reached more cheaply. For switches every core's
/// previous-compute task salts the state key: equal (m,c) with different
/// running tasks have different futures.
SearchOutcome branch_and_bound(const tpn::TimePetriNet& net,
                               const SchedulerOptions& options,
                               const GoalPredicate& goal) {
  SearchShared shared(net, options, goal, 0);
  SearchWorker w(shared, 0);
  SearchOutcome out;
  const bool switches = options.objective == Objective::kMinimizeSwitches;

  // Per-transition processor index for the switches cost: each compute
  // transition returns its processor place on completion in every block
  // style, so the kProcessor place among its outputs identifies the core.
  // Role-free nets collapse to a single pseudo-core (index 0).
  std::vector<std::uint32_t> proc_of(net.transition_count(), 0);
  std::size_t proc_count = 1;
  if (switches) {
    std::vector<std::int32_t> place_proc(net.place_count(), -1);
    std::size_t next_proc = 0;
    for (TransitionId t : net.transition_ids()) {
      if (net.transition(t).role != tpn::TransitionRole::kCompute) {
        continue;
      }
      for (const tpn::Arc& arc : net.outputs(t)) {
        if (net.place(arc.place).role == tpn::PlaceRole::kProcessor) {
          std::int32_t& idx = place_proc[arc.place.value()];
          if (idx < 0) {
            idx = static_cast<std::int32_t>(next_proc++);
          }
          proc_of[t.value()] = static_cast<std::uint32_t>(idx);
        }
      }
    }
    proc_count = std::max<std::size_t>(1, next_proc);
  }

  struct BbFrame : Frame {
    std::uint64_t cost = 0;
    /// Previous compute firing's task per core (empty unless switches),
    /// and its Zobrist hash: one cell per core that ran a task.
    std::vector<TaskId> last_compute;
    std::uint64_t salt = 0;
  };
  auto cell = [](std::uint32_t core, TaskId task) {
    return task.valid() ? hash_cell(core, task.value(), kHashSeed) : 0;
  };

  std::vector<BbFrame> stack(1);
  Trace path;  // events entering stack frames 1..n
  Trace best_trace;
  std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
  // A guard verdict or the state budget; either way the incumbent found
  // so far (if any) is still returned.
  std::optional<SearchStatus> stop;
  if (switches) {
    stack[0].last_compute.assign(proc_count, TaskId());
  }
  if (w.admit_root(stack[0]) == Admit::kFinal) {
    if (w.status == SearchStatus::kFeasible) {
      best_cost = 0;
      out.solutions_found = 1;
    } else {
      stop = w.status;
    }
    stack.clear();
  }

  while (!stack.empty()) {
    BbFrame& top = stack.back();
    if (top.next >= top.candidates.size()) {
      path.resize(top.edge_at);
      w.retire(std::move(top));
      stack.pop_back();
      ++w.stats.backtracks;
      continue;
    }
    const Candidate cand = top.candidates[top.next];
    const TransitionId t = cand.fireable.transition;
    BbFrame child{{}, top.cost, top.last_compute, top.salt};
    if (!switches) {
      child.cost += cand.delay;
    } else if (net.transition(t).role == tpn::TransitionRole::kCompute) {
      const TaskId task = net.transition(t).task;
      const std::uint32_t core = proc_of[t.value()];
      TaskId& last = child.last_compute[core];
      child.cost += task == last ? 0 : 1;
      child.salt ^= cell(core, last) ^ cell(core, task);
      last = task;
    }
    if (child.cost >= best_cost) {
      ++top.next;
      continue;  // cannot improve the incumbent
    }
    w.cost = child.cost;
    w.salt = child.salt;
    const Admit r = w.admit(top, stack.size(), child);
    if (r == Admit::kAdmitted) {
      child.edge_at = path.size();
      path.insert(path.end(), w.edge.begin(), w.edge.end());
      stack.push_back(std::move(child));
      continue;
    }
    w.retire(std::move(child));
    if (r == Admit::kFinal) {
      if (w.status != SearchStatus::kFeasible) {
        stop = w.status;
        break;
      }
      best_cost = child.cost;
      best_trace = path;
      best_trace.insert(best_trace.end(), w.edge.begin(), w.edge.end());
      ++out.solutions_found;
    }
  }

  out.status = stop.value_or(SearchStatus::kInfeasible);
  if (out.solutions_found > 0) {
    out.status = SearchStatus::kFeasible;
    out.trace = std::move(best_trace);
    out.best_cost = best_cost;
  }
  shared.fold(out, std::array{&w});
  return out;
}

}  // namespace

const char* to_string(SearchStatus status) {
  switch (status) {
    case SearchStatus::kFeasible:
      return "feasible";
    case SearchStatus::kInfeasible:
      return "infeasible";
    case SearchStatus::kLimitReached:
      return "limit-reached";
    case SearchStatus::kTimeLimit:
      return "time-limit";
    case SearchStatus::kMemoryLimit:
      return "memory-limit";
    case SearchStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* to_string(SearchEngine engine) {
  switch (engine) {
    case SearchEngine::kDfs:
      return "dfs";
    case SearchEngine::kBestFirst:
      return "bestfirst";
    case SearchEngine::kBeam:
      return "beam";
  }
  return "unknown";
}

const char* to_string(StateClassMode mode) {
  switch (mode) {
    case StateClassMode::kAuto:
      return "auto";
    case StateClassMode::kOn:
      return "on";
    case StateClassMode::kOff:
      return "off";
  }
  return "unknown";
}

bool state_classes_enabled(const SchedulerOptions& options) {
  // The abstraction preserves goal reachability, not cost structure or
  // bounded-exploration effort counts, so it applies to kFirstFeasible
  // searches only; kAuto further restricts it to truly exhaustive runs
  // (complete pruning, unbounded state budget), where the verdict is the
  // deliverable and the order-of-magnitude state collapse pays.
  if (options.objective != Objective::kFirstFeasible) {
    return false;
  }
  switch (options.state_classes) {
    case StateClassMode::kOn:
      return true;
    case StateClassMode::kOff:
      return false;
    case StateClassMode::kAuto:
      return options.pruning == PruningMode::kNone &&
             options.max_states == 0;
  }
  return false;
}

DfsScheduler::DfsScheduler(const tpn::TimePetriNet& net,
                           SchedulerOptions options)
    : net_(&net), semantics_(net), options_(options) {
  EZRT_CHECK(net.validated(), "DfsScheduler requires a validated net");
}

SearchOutcome DfsScheduler::search() const {
  // Optimizing objectives keep a serial incumbent (a shared one would
  // serialize parallel workers anyway).
  if (options_.objective != Objective::kFirstFeasible) {
    return branch_and_bound(*net_, options_, goal_);
  }
  // A priority queue or beam level is a global order — sharding it would
  // re-serialize the workers on the queue lock — so these stay serial.
  if (options_.search_engine != SearchEngine::kDfs) {
    return guided_search(*net_, options_, goal_);
  }
  if (options_.threads > 0) {
    return parallel_search(*net_, options_, goal_);
  }
  // Serial DFS is the parallel worker's stack loop without a pool.
  SearchShared shared(*net_, options_, goal_, 0);
  SearchWorker w(shared, 0);
  SearchOutcome out;
  WorkItem root;
  out.status = w.admit_root(root.frame) == Admit::kFinal
                   ? w.status
                   : w.run_stack(root, [](const WorkItem&) { return true; })
                         .value_or(SearchStatus::kInfeasible);
  out.trace = std::move(w.trace);  // set by a goal only
  shared.fold(out, std::array{&w});
  return out;
}

Result<tpn::State> DfsScheduler::replay(const Trace& trace) const {
  tpn::State s = tpn::State::initial(*net_);
  for (const FiringEvent& event : trace) {
    auto next = semantics_.try_fire(s, event.transition, event.delay);
    if (!next.ok()) {
      return next.error();
    }
    s = std::move(next).value();
    if (s.elapsed() != event.at) {
      return make_error(ErrorCode::kInvalidArgument,
                        "trace timestamp mismatch at transition '" +
                            net_->transition(event.transition).name +
                            "': recorded " + std::to_string(event.at) +
                            ", replayed " + std::to_string(s.elapsed()));
    }
  }
  return s;
}

}  // namespace ezrt::sched
