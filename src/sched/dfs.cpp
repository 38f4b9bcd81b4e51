#include "sched/dfs.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/hash.hpp"
#include "sched/fingerprint.hpp"
#include "sched/guided.hpp"
#include "sched/parallel.hpp"
#include "sched/search_kernel.hpp"

namespace ezrt::sched {

namespace {

using tpn::State;

/// Branch-and-bound over the same expansion: explore exhaustively, keep
/// the cheapest schedule, prune branches whose monotone partial cost
/// already reaches the incumbent. Cost edges:
///   kMinimizeMakespan — the firing delay (partial cost = elapsed);
///   kMinimizeSwitches — 1 whenever a compute firing belongs to a
///     different task than the previous compute firing on the same
///     processor (per-core context switches).
/// Its table keeps the best cost per state and readmits a state reached
/// more cheaply, which a set cannot express, so it has its own loop around
/// the shared guard, miss test, progress and fold. For switches every
/// core's previous-compute task is part of the state key: equal (m,c)
/// with different running tasks have different futures.
SearchOutcome branch_and_bound(const tpn::TimePetriNet& net,
                               const SchedulerOptions& options,
                               const GoalPredicate& goal) {
  SearchShared shared(net, options, goal, 0);
  SearchWorker w(shared, 0);
  SearchStats& stats = w.stats;
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
    /// Previous compute firing's task per core (empty unless switches).
    std::vector<TaskId> last_compute;
  };

  std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash> best_seen;
  auto table_bytes = [&] {
    return node_container_bytes(best_seen,
                                sizeof(Fingerprint) + sizeof(std::uint64_t));
  };
  std::vector<BbFrame> stack;
  Trace current;
  Trace best_trace;
  std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();

  auto key_of = [&](const State& s, const std::vector<TaskId>& last) {
    Fingerprint f = fingerprint(s);
    for (TaskId l : last) {
      f.b = hash_mix(f.b, l.valid() ? l.value() + 1 : 0);
    }
    return f;
  };

  BbFrame root;
  root.state = State::initial(net);
  w.expander.expand(root.state, root.candidates);
  if (switches) {
    root.last_compute.assign(proc_count, TaskId());
  }
  best_seen.emplace(key_of(root.state, root.last_compute), 0);
  stats.states_visited = 1;
  if (goal(std::as_const(root.state).marking())) {
    best_cost = 0;
    out.solutions_found = 1;
  } else {
    stack.push_back(std::move(root));
  }

  // A guard verdict or the state budget; either way the incumbent found
  // so far (if any) is still returned.
  std::optional<SearchStatus> stop;
  while (!stack.empty()) {
    BbFrame& frame = stack.back();
    stats.max_depth = std::max<std::uint64_t>(stats.max_depth, stack.size());
    if (frame.next >= frame.candidates.size()) {
      w.retire(std::move(frame.candidates));
      stack.pop_back();
      if (!current.empty()) {
        current.pop_back();
      }
      ++stats.backtracks;
      continue;
    }
    const Candidate cand = frame.candidates[frame.next++];
    const tpn::Transition& fired = net.transition(cand.fireable.transition);

    std::uint64_t edge_cost = cand.delay;
    std::vector<TaskId> last_compute = frame.last_compute;
    if (switches) {
      edge_cost = 0;
      if (fired.role == tpn::TransitionRole::kCompute) {
        const std::uint32_t core = proc_of[cand.fireable.transition.value()];
        edge_cost = fired.task == last_compute[core] ? 0 : 1;
        last_compute[core] = fired.task;
      }
    }
    const std::uint64_t cost = frame.cost + edge_cost;
    if (cost >= best_cost) {
      continue;  // cannot improve the incumbent
    }

    State next = w.expander.fire(frame.state, cand);
    ++stats.transitions_fired;
    stop = w.poll_guard(
        [&] { return table_bytes() + stack.size() * shared.frame_bytes; });
    if (stop.has_value()) {
      break;
    }
    if (shared.has_miss(std::as_const(next).marking())) {
      ++stats.pruned_deadline;
      w.attribution.record_deadline(std::as_const(next).marking());
      continue;
    }
    auto [it, inserted] =
        best_seen.try_emplace(key_of(next, last_compute), cost);
    if (!inserted) {
      if (it->second <= cost) {
        ++stats.pruned_visited;
        continue;
      }
      it->second = cost;  // re-admitted more cheaply: re-expanded
    }
    ++stats.states_visited;
    w.publish(stats.states_visited, stack.size());

    current.push_back(FiringEvent{cand.fireable.transition, cand.delay,
                                  next.elapsed()});
    if (goal(std::as_const(next).marking())) {
      best_cost = cost;
      best_trace = current;
      ++out.solutions_found;
      current.pop_back();
      continue;
    }
    if (options.max_states != 0 && stats.states_visited >= options.max_states) {
      stop = SearchStatus::kLimitReached;
      break;
    }
    BbFrame child{{std::move(next), w.buffer()}, cost,
                  std::move(last_compute)};
    w.expander.expand(child.state, child.candidates);
    stack.push_back(std::move(child));
  }

  out.status = stop.value_or(SearchStatus::kInfeasible);
  if (out.solutions_found > 0) {
    out.status = SearchStatus::kFeasible;
    out.trace = std::move(best_trace);
    out.best_cost = best_cost;
  }
  shared.fold(out, std::array{&w}, table_bytes());
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
  goal_ = [this](const tpn::Marking& m) {
    return tpn::is_final_marking(*net_, m);
  };
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
                   ? SearchStatus::kFeasible
                   : w.run_stack(root, [](const WorkItem&) { return true; })
                         .value_or(SearchStatus::kInfeasible);
  out.trace = std::move(w.trace);  // set by a goal only
  shared.fold(out, std::array{&w}, shared.visited->memory_bytes());
  return out;
}

Result<tpn::State> DfsScheduler::replay(const Trace& trace) const {
  State s = State::initial(*net_);
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
