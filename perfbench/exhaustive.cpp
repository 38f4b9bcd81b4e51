// `exhaustive`: `ezrt schedule --complete` verdicts on hard instances,
// one document to one verdict, the engine chosen by a seeded rotation
// (README.md).
#include <algorithm>
#include <array>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "pnml/ezspec_io.hpp"
#include "sched/reachability.hpp"

namespace perfbench {
namespace {

using namespace ezrt;

/// Per-operation wall limit; an operation that trips it fails.
constexpr std::uint64_t kWallLimitMs = 5000;
/// `reach` enumerates the concrete graph, so it only runs on small sets.
constexpr std::size_t kReachMaxTasks = 6;

enum Engine : std::uint8_t { kDfs, kBestFirst, kParallel2, kReach, kEngines };
constexpr std::array<const char*, kEngines> kEngineNames = {
    "dfs", "bestfirst", "parallel2", "reach"};

struct Names {
  std::uint32_t op, read, build;
  std::array<std::uint32_t, kEngines> engine{};
  explicit Names(SpanLog& log)
      : op(log.intern("op")),
        read(log.intern("pnml.read_ezspec")),
        build(log.intern("builder.build_tpn")) {
    for (std::size_t e = 0; e < kEngines; ++e) {
      engine[e] = log.intern(std::string("sched.") + kEngineNames[e]);
    }
  }
};

struct Op {
  std::optional<spec::Specification> spec;
  std::optional<builder::BuiltModel> model;
  sched::SearchOutcome outcome;
  sched::ReachabilityResult reach;
  std::string error;
  double ns = 0.0;
};

sched::SchedulerOptions options_for(Engine engine, bool telemetry) {
  sched::SchedulerOptions o;
  o.pruning = sched::PruningMode::kNone;
  o.max_states = 0;
  o.wall_limit_ms = kWallLimitMs;
  if (engine == kBestFirst) {
    o.search_engine = sched::SearchEngine::kBestFirst;
  } else if (engine == kParallel2) {
    o.threads = 2;
    o.collect_telemetry = telemetry;
  }
  return o;
}

void execute(const std::string& doc, Engine engine, SpanLog* log,
             const Names& n, std::uint64_t id, Op& r) {
  {
    Scoped s(log, n.read, id);
    auto parsed = pnml::read_ezspec(doc);
    if (!parsed.ok()) {
      r.error = "read_ezspec: " + parsed.error().to_string();
      return;
    }
    r.spec.emplace(std::move(parsed).value());
  }
  {
    Scoped s(log, n.build, id);
    auto built = builder::build_tpn(*r.spec);
    if (!built.ok()) {
      r.error = "build_tpn: " + built.error().to_string();
      return;
    }
    r.model.emplace(std::move(built).value());
  }
  Scoped s(log, n.engine[engine], id);
  if (engine == kReach) {
    sched::ReachabilityOptions o;
    o.wall_limit_ms = kWallLimitMs;
    r.reach = sched::explore(r.model->net, o);
  } else {
    const sched::DfsScheduler scheduler(r.model->net,
                                        options_for(engine, log != nullptr));
    r.outcome = scheduler.search();
  }
}

Op timed(const std::string& doc, Engine engine, SpanLog* log, const Names& n,
         std::uint64_t id) {
  Op r;
  const std::int64_t t0 = now_ns();
  {
    Scoped s(log, n.op, id);
    execute(doc, engine, log, n, id, r);
  }
  r.ns = static_cast<double>(now_ns() - t0);
  return r;
}

/// Checks one verdict against its pin. Empty string = passed.
std::string check(const Op& r, Engine engine, char pinned) {
  if (!r.error.empty()) {
    return r.error;
  }
  if (engine == kReach) {
    if (!r.reach.complete) {
      return std::string("reach stopped: ") + sched::to_string(r.reach.stop);
    }
    if ((r.reach.final_reachable ? 'F' : 'I') != pinned) {
      return std::string("reach final_reachable disagrees with pinned ") +
             pinned;
    }
    return {};
  }
  const char got = verdict_letter(r.outcome.status);
  if (got != pinned) {
    return std::string(kEngineNames[engine]) + " verdict " +
           sched::to_string(r.outcome.status) + ", pinned " + pinned;
  }
  if (got == 'F') {
    return feasible_error(*r.spec, *r.model, r.outcome.trace);
  }
  return {};
}

struct EngineTotals {
  std::uint64_t ops = 0, states = 0, fired = 0, dup = 0, doomed = 0,
                peak = 0, heuristic = 0, steals = 0, idle = 0;
  double imbalance = 0.0;
};

class Exhaustive final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    entries_ = load_workload_corpus(config, "exhaustive.txt");
    docs_.clear();
    pairs_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      docs_.push_back(render(entries_[i], entries_[i].name));
      for (std::uint8_t e = 0; e < kEngines; ++e) {
        if (e != kReach || entries_[i].tasks.size() <= kReachMaxTasks) {
          pairs_.emplace_back(i, static_cast<Engine>(e));
        }
      }
    }
    SpanLog warmup_log;
    const Names names(warmup_log);
    for (std::uint8_t e = 0; e < kEngines; ++e) {
      (void)timed(docs_.front(), static_cast<Engine>(e), nullptr, names, 0);
    }
  }

  Outcome run(const RunConfig& config) override;

 private:
  std::vector<Entry> entries_;
  std::vector<std::string> docs_;
  std::vector<std::pair<std::size_t, Engine>> pairs_;
};

Outcome Exhaustive::run(const RunConfig& config) {
  Outcome out;
  SpanLog log;
  const Names names(log);
  Rng rng(config.seed);
  // Every pass runs each (document, engine) pair once, in a seeded order.
  std::vector<std::pair<std::size_t, Engine>> order = pairs_;

  std::vector<double> latency_ms, traced_ms;
  std::vector<std::int64_t> start_ns;  // when each latency_ms entry began
  double busy_ns = 0.0;
  std::array<EngineTotals, kEngines> totals{};
  std::uint64_t nodes = 0;
  std::size_t full_ops = 0;  // operations of the complete passes
  double full_busy_ns = 0.0;
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
  std::uint64_t id = 0;
  while (now_ns() < stop) {
    rng.shuffle(order);
    bool complete = true;
    for (const auto& [idx, engine] : order) {
      if (now_ns() >= stop) {
        complete = false;
        break;
      }
      host_speed().sample_every(kSpeedIntervalNs);
      ++id;
      start_ns.push_back(now_ns());
      Op r;
      if (config.trace) {
        const bool traced_first = (id & 1) != 0;
        Op first =
            timed(docs_[idx], engine, traced_first ? &log : nullptr, names, id);
        Op second =
            timed(docs_[idx], engine, traced_first ? nullptr : &log, names, id);
        (traced_first ? traced_ms : latency_ms).push_back(first.ns / 1e6);
        (traced_first ? latency_ms : traced_ms).push_back(second.ns / 1e6);
        r = std::move(traced_first ? first : second);
      } else {
        r = timed(docs_[idx], engine, nullptr, names, id);
        latency_ms.push_back(r.ns / 1e6);
      }
      ++out.attempted;
      busy_ns += r.ns;
      if (const std::string error = check(r, engine, entries_[idx].verdict);
          !error.empty()) {
        out.fail(entries_[idx].name + " [" + kEngineNames[engine] +
                 "]: " + error);
        latency_ms.back() = std::numeric_limits<double>::infinity();
        continue;
      }
      EngineTotals& t = totals[engine];
      ++t.ops;
      nodes += r.model->net.place_count() + r.model->net.transition_count();
      if (engine == kReach) {
        t.states += r.reach.states_explored;
        t.fired += r.reach.transitions_fired;
        t.dup += r.reach.transitions_fired + 1 - r.reach.states_explored;
        t.peak += r.reach.peak_frontier;
        continue;
      }
      const sched::SearchStats& s = r.outcome.stats;
      t.states += s.states_visited;
      t.fired += s.transitions_fired;
      t.dup += s.pruned_visited;
      t.doomed += s.pruned_doomed;
      t.peak += s.peak_visited_bytes;
      t.heuristic += s.heuristic_evals;
      const auto& workers = r.outcome.telemetry.workers;
      if (!workers.empty()) {
        std::uint64_t max_exp = 0, sum_exp = 0;
        for (const auto& w : workers) {
          t.steals += w.steals;
          t.idle += w.idle_transitions;
          max_exp = std::max(max_exp, w.expansions);
          sum_exp += w.expansions;
        }
        if (sum_exp > 0) {
          t.imbalance += static_cast<double>(max_exp) *
                         static_cast<double>(workers.size()) /
                         static_cast<double>(sum_exp);
        }
      }
    }
    if (complete) {
      full_ops = latency_ms.size();
      full_busy_ns = busy_ns;
    }
  }

  // A run too short to finish one pass reports everything it did.
  add_pass_metrics(out, latency_ms, start_ns,
                   full_ops ? full_ops : latency_ms.size(),
                   full_ops ? full_busy_ns : busy_ns);

  std::uint64_t all_states = 0, all_fired = 0, all_ops = 0;
  for (std::size_t e = 0; e < kEngines; ++e) {
    const EngineTotals& t = totals[e];
    const std::string p = std::string("sched.") + kEngineNames[e];
    const double ops = t.ops ? static_cast<double>(t.ops) : 1.0;
    const double fired = t.fired ? static_cast<double>(t.fired) : 1.0;
    all_states += t.states;
    all_fired += t.fired;
    all_ops += t.ops;
    out.add_layer(p + ".states", static_cast<double>(t.states) / ops, "count",
                  t.ops);
    out.add_layer(p + ".dup_ratio", static_cast<double>(t.dup) / fired,
                  "ratio", t.ops);
    if (e == kReach) {
      out.add_layer(p + ".peak_frontier", static_cast<double>(t.peak) / ops,
                    "count", t.ops);
      continue;
    }
    out.add_layer(p + ".peak_visited_kb",
                  static_cast<double>(t.peak) / 1024.0 / ops, "KiB", t.ops);
    out.add_layer(p + ".doomed_ratio", static_cast<double>(t.doomed) / fired,
                  "ratio", t.ops);
    if (e == kBestFirst) {
      out.add_layer(p + ".heuristic_evals",
                    static_cast<double>(t.heuristic) / ops, "count", t.ops);
    }
    if (e == kParallel2 && config.trace) {
      out.add_layer(p + ".steals", static_cast<double>(t.steals) / ops,
                    "count", t.ops);
      out.add_layer(p + ".idle", static_cast<double>(t.idle) / ops, "count",
                    t.ops);
      out.add_layer(p + ".imbalance", t.imbalance / ops, "ratio", t.ops);
    }
  }
  const double all_ops_d = all_ops ? static_cast<double>(all_ops) : 1.0;
  out.add_layer("builder.build_tpn.nodes",
                static_cast<double>(nodes) / all_ops_d, "count", all_ops);
  out.add_layer("sched.search.states",
                static_cast<double>(all_states) / all_ops_d, "count", all_ops);
  out.add_layer("sched.search.fired_per_state",
                all_states ? static_cast<double>(all_fired) /
                                 static_cast<double>(all_states)
                           : 0.0,
                "ratio", all_ops);

  if (config.trace) {
    std::vector<std::pair<std::string, std::string>> layers = {
        {"pnml.read_ezspec", "pnml.read_ezspec"},
        {"builder.build_tpn", "builder.build_tpn"}};
    for (std::size_t e = 0; e < kEngines; ++e) {
      layers.emplace_back(std::string("sched.") + kEngineNames[e],
                          std::string("sched.") + kEngineNames[e]);
    }
    add_layer_times(out, log, "op", layers);
    const auto span_totals = log.totals();
    double search_ns = 0.0, op_ns = span_totals.at("op").total_ns;
    std::uint64_t calls = 0;
    for (std::size_t e = 0; e < kEngines; ++e) {
      const auto it =
          span_totals.find(std::string("sched.") + kEngineNames[e]);
      if (it == span_totals.end()) {
        continue;
      }
      search_ns += it->second.self_ns;
      calls += it->second.calls;
      const EngineTotals& t = totals[e];
      out.add_layer(std::string("sched.") + kEngineNames[e] + ".us_per_state",
                    t.states ? it->second.self_ns / 1e3 /
                                   static_cast<double>(t.states)
                             : 0.0,
                    "us", t.ops);
    }
    out.add_layer("sched.search.us",
                  calls ? search_ns / 1e3 / static_cast<double>(calls) : 0.0,
                  "us", calls);
    out.add_layer("sched.search.share", op_ns > 0 ? search_ns / op_ns : 0.0,
                  "ratio", calls);
    out.add_layer("sched.search.us_per_state",
                  all_states ? search_ns / 1e3 / static_cast<double>(all_states)
                             : 0.0,
                  "us", all_ops);
    out.add_layer("trace.overhead_pct",
                  paired_overhead_pct(traced_ms, latency_ms), "%",
                  traced_ms.size());
    log.write_jsonl(config.out_dir + "/spans-exhaustive-" +
                    std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_exhaustive() {
  return std::make_unique<Exhaustive>();
}

}  // namespace perfbench
