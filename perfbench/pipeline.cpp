// `pipeline`: the paper's Fig 6 flow, one ez-spec document in and C code
// out, as `ezrt schedule` / `ezrt codegen` run it (README.md).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "codegen/c_generator.hpp"
#include "pnml/ezspec_io.hpp"

namespace perfbench {
namespace {

using namespace ezrt;

struct Names {
  std::uint32_t op, read, build, search, extract, validate, codegen;
  explicit Names(SpanLog& log)
      : op(log.intern("op")),
        read(log.intern("pnml.read_ezspec")),
        build(log.intern("builder.build_tpn")),
        search(log.intern("sched.search")),
        extract(log.intern("sched.extract_schedule")),
        validate(log.intern("runtime.validate_schedule")),
        codegen(log.intern("codegen.generate")) {}
};

/// Everything one document produced; kept alive past the timed region so
/// the output checks can run on it.
struct Op {
  std::optional<spec::Specification> spec;
  std::optional<builder::BuiltModel> model;
  sched::SearchOutcome outcome;
  std::optional<sched::ScheduleTable> table;
  bool valid = false;
  std::size_t code_bytes = 0;
  std::string error;
  double ns = 0.0;
};

void execute(const std::string& doc, SpanLog* log, const Names& n,
             std::uint64_t id, Op& r) {
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
  {
    Scoped s(log, n.search, id);
    const sched::DfsScheduler scheduler(r.model->net);
    r.outcome = scheduler.search();
  }
  if (r.outcome.status != sched::SearchStatus::kFeasible) {
    return;  // an infeasible verdict ends the operation after the search
  }
  {
    Scoped s(log, n.extract, id);
    auto table = sched::extract_schedule(*r.spec, *r.model, r.outcome.trace);
    if (!table.ok()) {
      r.error = "extract_schedule: " + table.error().to_string();
      return;
    }
    r.table.emplace(std::move(table).value());
  }
  {
    Scoped s(log, n.validate, id);
    const auto report = runtime::validate_schedule(*r.spec, *r.table);
    r.valid = report.ok();
    if (!r.valid) {
      r.error = "validate_schedule: " + report.summary();
      return;
    }
  }
  {
    Scoped s(log, n.codegen, id);
    auto code = codegen::generate(*r.spec, *r.table);
    if (!code.ok()) {
      r.error = "codegen: " + code.error().to_string();
      return;
    }
    for (const auto& file : code.value().files) {
      r.code_bytes += file.content.size();
    }
  }
}

Op timed(const std::string& doc, SpanLog* log, const Names& n,
         std::uint64_t id) {
  Op r;
  const std::int64_t t0 = now_ns();
  {
    Scoped s(log, n.op, id);
    execute(doc, log, n, id, r);
  }
  r.ns = static_cast<double>(now_ns() - t0);
  return r;
}

/// Document name for pass `pass` of corpus row `row`: every document a
/// run sends is distinct in bytes, while its model (and pinned verdict)
/// stays the row's.
std::string doc_name(std::uint64_t pass, const Entry& row) {
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "bench-p%06llu-",
                static_cast<unsigned long long>(pass));
  return prefix + row.name;
}

class Pipeline final : public Workload {
 public:
  void setup(const RunConfig& config) override {
    entries_ = load_workload_corpus(config, "pipeline.txt");
    docs_.clear();
    for (const Entry& e : entries_) {
      docs_.push_back(render(e, doc_name(0, e)));
    }
    SpanLog warmup_log;
    const Names names(warmup_log);
    for (std::size_t i = 0; i < std::min<std::size_t>(16, docs_.size()); ++i) {
      (void)timed(docs_[i], nullptr, names, i);
    }
  }

  Outcome run(const RunConfig& config) override;

 private:
  std::vector<Entry> entries_;
  std::vector<std::string> docs_;
};

Outcome Pipeline::run(const RunConfig& config) {
  Outcome out;
  SpanLog log;
  const Names names(log);
  Rng rng(config.seed);
  std::vector<std::size_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<double> latency_ms, traced_ms;
  std::vector<std::int64_t> start_ns;  // when each latency_ms entry began
  double busy_ns = 0.0;
  std::uint64_t feasible = 0, code_bytes = 0, doc_bytes = 0, nodes = 0,
                states = 0, fired = 0, rows = 0;
  std::size_t full_ops = 0;  // operations of the complete passes
  double full_busy_ns = 0.0;
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
  std::uint64_t id = 0;
  for (std::uint64_t pass = 0; now_ns() < stop; ++pass) {
    rng.shuffle(order);
    bool complete = true;
    for (const std::size_t idx : order) {
      if (now_ns() >= stop) {
        complete = false;
        break;
      }
      host_speed().sample_every(kSpeedIntervalNs);
      const Entry& row = entries_[idx];
      const std::string doc =
          pass == 0 ? docs_[idx] : render(row, doc_name(pass, row));
      ++id;
      start_ns.push_back(now_ns());
      Op r;
      if (config.trace) {
        // Each document runs untraced and traced, in alternating order,
        // so the overhead compares identical inputs.
        const bool traced_first = (id & 1) != 0;
        Op first = timed(doc, traced_first ? &log : nullptr, names, id);
        Op second = timed(doc, traced_first ? nullptr : &log, names, id);
        (traced_first ? traced_ms : latency_ms).push_back(first.ns / 1e6);
        (traced_first ? latency_ms : traced_ms).push_back(second.ns / 1e6);
        r = std::move(traced_first ? second : first);
      } else {
        r = timed(doc, nullptr, names, id);
        latency_ms.push_back(r.ns / 1e6);
      }
      ++out.attempted;
      busy_ns += r.ns;
      doc_bytes += doc.size();

      // Output checks, outside the timed region.
      std::string error = r.error;
      if (error.empty()) {
        const char got = verdict_letter(r.outcome.status);
        if (got != row.verdict) {
          error = std::string("verdict ") + sched::to_string(r.outcome.status) +
                  ", pinned " + row.verdict;
        } else if (got == 'F') {
          error = replay_error(*r.model, r.outcome.trace);
        }
      }
      if (!error.empty()) {
        out.fail(row.name + ": " + error);
        latency_ms.back() = std::numeric_limits<double>::infinity();
        continue;
      }
      nodes += r.model->net.place_count() + r.model->net.transition_count();
      states += r.outcome.stats.states_visited;
      fired += r.outcome.stats.transitions_fired;
      if (r.table) {
        ++feasible;
        rows += r.table->items.size();
        code_bytes += r.code_bytes;
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
  out.add_e2e("code_kb",
              feasible ? static_cast<double>(code_bytes) / 1024.0 /
                             static_cast<double>(feasible)
                       : 0.0,
              "KiB", feasible);

  const std::uint64_t ok = out.attempted - out.failed;
  const double okd = ok ? static_cast<double>(ok) : 1.0;
  out.add_layer("builder.build_tpn.nodes", static_cast<double>(nodes) / okd,
                "count", ok);
  out.add_layer("sched.search.states", static_cast<double>(states) / okd,
                "count", ok);
  out.add_layer("sched.search.fired_per_state",
                states ? static_cast<double>(fired) / static_cast<double>(states)
                       : 0.0,
                "ratio", ok);
  out.add_layer("sched.extract_schedule.rows",
                feasible ? static_cast<double>(rows) /
                               static_cast<double>(feasible)
                         : 0.0,
                "count", feasible);
  out.add_layer("codegen.generate.kb",
                feasible ? static_cast<double>(code_bytes) / 1024.0 /
                               static_cast<double>(feasible)
                         : 0.0,
                "KiB", feasible);
  out.add_layer("feasible_share", ok ? static_cast<double>(feasible) / okd : 0.0,
                "ratio", ok);
  if (config.trace) {
    add_layer_times(out, log,
                    "op", {{"pnml.read_ezspec", "pnml.read_ezspec"},
                           {"builder.build_tpn", "builder.build_tpn"},
                           {"sched.search", "sched.search"},
                           {"sched.extract_schedule", "sched.extract_schedule"},
                           {"runtime.validate_schedule",
                            "runtime.validate_schedule"},
                           {"codegen.generate", "codegen.generate"}});
    const auto totals = log.totals();
    const double read_s = totals.at("pnml.read_ezspec").self_ns / 1e9;
    // The traced runs parse every document once.
    out.add_layer("pnml.read_ezspec.mb_per_s",
                  read_s > 0 ? static_cast<double>(doc_bytes) / 1e6 / read_s
                             : 0.0,
                  "MB/s", totals.at("pnml.read_ezspec").calls);
    const double search_ns = totals.at("sched.search").self_ns;
    out.add_layer("sched.search.us_per_state",
                  states ? search_ns / 1e3 / static_cast<double>(states) : 0.0,
                  "us", ok);
    out.add_layer("trace.overhead_pct",
                  paired_overhead_pct(traced_ms, latency_ms), "%",
                  traced_ms.size());
    log.write_jsonl(config.out_dir + "/spans-pipeline-" +
                    std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_pipeline() {
  return std::make_unique<Pipeline>();
}

}  // namespace perfbench
