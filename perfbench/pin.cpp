// `perfbench pin`: writes a workload's corpus with pinned verdicts.
//
// Task sets come from the library's seeded generator (workload::generate,
// workload::multiproc_scenario) plus the checked-in example models; each
// row is kept only when every engine returns the same definitive verdict
// on the document the benchmark itself renders from the row. The corpus
// files under corpus/ were written this way once; the benchmark never
// regenerates them, so later changes to the generator cannot move its
// inputs.
//
//   perfbench pin --workload pipeline|exhaustive|serve --count N --seed S
//                 --out FILE [--examples DIR]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "pnml/ezspec_io.hpp"
#include "sched/reachability.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using namespace ezrt;

struct Verdicts {
  bool agree = false;
  char verdict = '?';
  double slowest_ms = 0.0;
  std::string detail;
};

/// Runs dfs, bestfirst and parallel2 (and reach when asked) on the
/// rendered document and reports whether they agree.
Verdicts judge(const Entry& row, bool complete, bool with_reach,
               std::uint64_t wall_ms) {
  Verdicts v;
  auto spec = pnml::read_ezspec(render(row, row.name));
  if (!spec.ok()) {
    v.detail = spec.error().to_string();
    return v;
  }
  auto model = builder::build_tpn(spec.value());
  if (!model.ok()) {
    v.detail = model.error().to_string();
    return v;
  }
  std::string letters;
  for (int engine = 0; engine < 3; ++engine) {
    sched::SchedulerOptions o;
    if (complete) {
      o.pruning = sched::PruningMode::kNone;
      o.max_states = 0;
    }
    o.wall_limit_ms = wall_ms;
    if (engine == 1) o.search_engine = sched::SearchEngine::kBestFirst;
    if (engine == 2) o.threads = 2;
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = sched::DfsScheduler(model.value().net, o).search();
    v.slowest_ms = std::max(
        v.slowest_ms, std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    const char letter = verdict_letter(outcome.status);
    letters += letter;
    if (letter == 'F') {
      if (auto error = feasible_error(spec.value(), model.value(),
                                      outcome.trace);
          !error.empty()) {
        v.detail = error;
        return v;
      }
    }
  }
  if (with_reach) {
    sched::ReachabilityOptions o;
    o.wall_limit_ms = wall_ms;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sched::explore(model.value().net, o);
    v.slowest_ms = std::max(
        v.slowest_ms, std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    letters += r.complete ? (r.final_reachable ? 'F' : 'I') : '?';
  }
  v.detail = letters;
  v.verdict = letters.front();
  v.agree = v.verdict != '?' &&
            letters.find_first_not_of(v.verdict) == std::string::npos;
  return v;
}

}  // namespace

int pin_main(int argc, char** argv) {
  std::string workload_name, out_path, examples;
  std::uint64_t count = 0, seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") workload_name = value;
    else if (key == "--out") out_path = value;
    else if (key == "--examples") examples = value;
    else if (key == "--count") count = std::stoull(value);
    else if (key == "--seed") seed = std::stoull(value);
  }
  const bool exhaustive = workload_name == "exhaustive";
  if (out_path.empty() || count == 0 ||
      (workload_name != "pipeline" && workload_name != "serve" && !exhaustive)) {
    std::fprintf(stderr, "usage: perfbench pin --workload W --count N "
                         "--seed S --out FILE [--examples DIR]\n");
    return 2;
  }
  // Exhaustive rows must finish far inside the run-time wall limit on every
  // engine, so no operation of the benchmark trips it.
  const std::uint64_t wall_ms = exhaustive ? 2000 : 0;
  const double keep_below_ms = exhaustive ? 400.0 : 1e18;

  std::vector<Entry> rows;
  std::uint64_t rejected = 0, disagreed = 0;
  if (!examples.empty() && !exhaustive) {
    std::vector<std::filesystem::path> files;
    for (const auto& f : std::filesystem::directory_iterator(examples)) {
      files.push_back(f.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::stringstream text;
      text << in.rdbuf();
      auto spec = pnml::read_ezspec(text.str());
      if (!spec.ok()) {
        std::fprintf(stderr, "pin: %s: %s\n", path.c_str(),
                     spec.error().to_string().c_str());
        return 1;
      }
      Entry row = entry_from_spec(spec.value(), '?');
      row.name = "example-" + path.stem().string();
      const Verdicts v = judge(row, false, false, wall_ms);
      if (!v.agree) {
        std::fprintf(stderr, "pin: engines disagree on %s: %s\n",
                     row.name.c_str(), v.detail.c_str());
        return 1;
      }
      row.verdict = v.verdict;
      rows.push_back(row);
    }
  }

  Rng rng(seed);
  std::uint64_t feasible = 0, infeasible = 0;
  for (std::uint64_t attempt = 0; rows.size() < count; ++attempt) {
    workload::WorkloadConfig cfg;
    cfg.seed = seed * 1'000'003 + attempt;
    std::string kind = "mono";
    if (exhaustive) {
      cfg.tasks = static_cast<std::uint32_t>(6 + rng.below(5));
      cfg.utilization = 0.8 + 0.15 * rng.uniform();
      cfg.exclusion_pairs = 4;
    } else if (workload_name == "serve") {
      cfg.tasks = static_cast<std::uint32_t>(4 + rng.below(21));
      cfg.utilization = 0.3 + 0.3 * rng.uniform();
      cfg.preemptive_fraction = 0.2;
      cfg.precedence_edges = cfg.tasks / 6;
      cfg.exclusion_pairs = cfg.tasks / 8;
    } else if (rng.uniform() < 0.15) {
      const bool global = rng.below(2) == 1;
      cfg = workload::multiproc_scenario(
          global ? workload::Placement::kGlobal
                 : workload::Placement::kPartitioned,
          rng.below(2) == 1, rng.below(2) == 1 ? 4 : 2, cfg.seed);
      kind = global ? "global" : "partitioned";
    } else {
      cfg.tasks = static_cast<std::uint32_t>(6 + rng.below(35));
      cfg.utilization = 0.3 + 0.4 * rng.uniform();
      cfg.preemptive_fraction = 0.2;
      cfg.precedence_edges = cfg.tasks / 5;
      cfg.exclusion_pairs = cfg.tasks / 8;
    }
    auto spec = workload::generate(cfg);
    if (!spec.ok()) {
      ++rejected;
      continue;
    }
    Entry row = entry_from_spec(spec.value(), '?');
    row.name = workload_name.substr(0, 2) + "-" + kind + "-" +
               std::to_string(cfg.tasks) + "t-" + std::to_string(attempt);
    const Verdicts v =
        judge(row, exhaustive, exhaustive && cfg.tasks <= 6, wall_ms);
    if (!v.agree) {
      // A guard or budget verdict is not a disagreement; a definitive
      // split between engines is, and is reported.
      if (v.detail.find_first_not_of("FI") == std::string::npos) {
        ++disagreed;
        std::fprintf(stderr, "pin: engines disagree on %s: %s\n",
                     row.name.c_str(), v.detail.c_str());
      }
      ++rejected;
      continue;
    }
    if (v.slowest_ms > keep_below_ms) {
      ++rejected;
      continue;
    }
    // The exhaustive corpus keeps feasible and infeasible rows balanced.
    if (exhaustive && (v.verdict == 'F' ? feasible : infeasible) >= count / 2) {
      continue;
    }
    (v.verdict == 'F' ? feasible : infeasible) += 1;
    row.verdict = v.verdict;
    rows.push_back(row);
  }
  std::ostringstream header;
  header << "perfbench corpus '" << workload_name << "': " << rows.size()
         << " rows, pinned with `perfbench pin --workload " << workload_name
         << " --count " << count << " --seed " << seed << "`.\n"
         << "Each verdict (F feasible, I infeasible) is the one every engine "
            "returned on the rendered document.\n"
         << "Row: name verdict syncBudget nproc procs... ntasks (name period "
            "phase release c d P|N proc)... nprec (a b)... nexcl (a b)... "
            "nmsg (name sender receiver bus grant comm)...";
  save_corpus(out_path, rows, header.str());
  std::fprintf(stderr,
               "pin: %zu rows (%llu feasible, %llu infeasible), %llu "
               "rejected, %llu disagreements\n",
               rows.size(), static_cast<unsigned long long>(feasible),
               static_cast<unsigned long long>(infeasible),
               static_cast<unsigned long long>(rejected),
               static_cast<unsigned long long>(disagreed));
  return disagreed == 0 ? 0 : 1;
}

}  // namespace perfbench
