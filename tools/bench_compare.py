#!/usr/bin/env python3
"""Run the tracked search benchmarks and maintain BENCH_search.json.

Executes bench_scaling and bench_pipeline_end_to_end in Google Benchmark's
JSON mode, records the results under a label ("before" / "after"), and
prints a comparison table once both labels exist. The trajectory file
BENCH_search.json lives at the repo root so every PR's measured speedup is
reproducible with:

    cmake --build build -t bench_all          # or:
    tools/bench_compare.py --label after

Every benchmark runs REPETITIONS times. A row records the median time in
ms and the median counters over those runs, and the coefficient of
variation of the time. It also records the host it ran on: Google
Benchmark's num_cpus and library_build_type, and the compiler named in
the CMake cache above --bin-dir. The table warns when the two columns of
a row come from different hosts.

The table tags a row "noise" when its speedup differs from 1 by less
than twice the larger cv of its two sides: the spread of the
repetitions cannot tell such a row's change from none, so it reads as
neither a gain nor a loss.

Two runs of the same binaries minutes apart can differ by more than the
change being measured. --interleave BEFORE_BIN_DIR records both labels in
one session instead: for each row it runs the BEFORE_BIN_DIR binary and
the --bin-dir binary one repetition at a time, alternating which goes
first, so drift of the host hits both columns alike:

    tools/bench_compare.py --interleave ../parent/build/bench \
        --filter 'BM_Stage_(Table|Validate|Codegen)/|BM_Pipeline_'

A second mode compares report documents instead of running benchmarks:

    tools/bench_compare.py --report before=base.json --report after=new.json

Two document kinds are accepted and auto-detected by their "schema" field:
`ezrt schedule`/`ezrt explain` run reports ("ezrt-run-report",
docs/observability.md) — search effort, prune breakdown, visited-set load,
verdict provenance — and loadgen summaries ("ezrt-serve-load",
docs/serve.md §7) — throughput, latency percentiles, cache-hit/coalesce/
shed/degrade counters. Both files must be the same kind. This is the A/B
view for changes where wall clock alone is too noisy to interpret.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_FILE = os.path.join(REPO_ROOT, "BENCH_search.json")
TRACKED_BENCHES = ["bench_scaling", "bench_pipeline_end_to_end"]
REPETITIONS = 5


def run_bench(binary, extra_args):
    cmd = [binary, "--benchmark_format=json"] + extra_args
    print(f"[bench_compare] {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    # The bench binaries print a human-readable report before the JSON
    # document; skip to the first line that opens the JSON object.
    text = proc.stdout.decode()
    start = text.find("{")
    if start < 0:
        # --filter matched nothing in this binary: nothing to record.
        return {"benchmarks": []}
    return json.loads(text[start:])


def load_results():
    if os.path.exists(RESULT_FILE):
        with open(RESULT_FILE) as f:
            return json.load(f)
    return {"description": "Tracked search-benchmark trajectory "
                           "(tools/bench_compare.py)", "benchmarks": {}}


# Google Benchmark reports real_time in the row's time_unit (ns unless the
# benchmark sets ->Unit()); the trajectory stores milliseconds.
MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def compiler_of(bin_dir):
    """First line of `--version` of the C++ compiler in the CMake cache of
    the build tree that holds bin_dir, or "unknown"."""
    cache = os.path.join(os.path.dirname(os.path.abspath(bin_dir)),
                         "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True)
                    return out.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


# Fields of a Google Benchmark row that are not user-defined counters.
NOT_COUNTERS = ("name", "run_name", "run_type", "repetitions", "threads",
                "iterations", "real_time", "cpu_time", "time_unit",
                "aggregate_name", "aggregate_unit", "family_index",
                "per_family_instance_index", "repetition_index")


def host_of(report, compiler):
    context = report.get("context", {})
    return {"num_cpus": context.get("num_cpus"),
            "library_build_type": context.get("library_build_type"),
            "compiler": compiler}


def record(results, label, report, compiler):
    """Stores one binary's rows under `label`, each from the median and cv
    aggregates of its REPETITIONS runs."""
    host = host_of(report, compiler)
    aggregates = {}
    iterations = {}
    for row in report.get("benchmarks", []):
        name = row["run_name"]
        if row["run_type"] == "aggregate":
            aggregates.setdefault(name, {})[row["aggregate_name"]] = row
        else:
            # Google Benchmark keeps the first repetition's iteration
            # count for the others; an aggregate row counts repetitions.
            iterations[name] = row["iterations"]
    for name, agg in aggregates.items():
        median = agg["median"]
        results["benchmarks"].setdefault(name, {})[label] = {
            "real_time_ms": median["real_time"]
            * MS_PER_UNIT[median.get("time_unit", "ns")],
            "cv": agg["cv"]["real_time"],
            "repetitions": median["repetitions"],
            "iterations": iterations[name],
            "host": host,
            # User-defined counters (states visited, states/sec, ...).
            "counters": {k: v for k, v in median.items()
                         if k not in NOT_COUNTERS},
        }


def list_rows(binary, extra_args):
    """Names of the rows `binary` would run with `extra_args`' filter."""
    proc = subprocess.run([binary, "--benchmark_list_tests=true"]
                          + extra_args, stdout=subprocess.PIPE, text=True,
                          check=True)
    return [line.strip() for line in proc.stdout.splitlines()
            if line.strip()]


def interleave(results, before_dir, after_dir, extra_args):
    """Records both labels of every tracked row in one session: each of
    REPETITIONS rounds runs the row once per binary, before first in even
    rounds and after first in odd ones. A row stores the median time, the
    cv over the rounds and the median counters, as record() does."""
    compilers = {"before": compiler_of(before_dir),
                 "after": compiler_of(after_dir)}
    dirs = {"before": before_dir, "after": after_dir}
    for bench in TRACKED_BENCHES:
        binaries = {label: os.path.join(d, bench) for label, d in dirs.items()}
        for label, binary in binaries.items():
            if not os.path.exists(binary):
                print(f"[bench_compare] missing {binary} ({label}); build "
                      "first", file=sys.stderr)
                return 1
        for name in list_rows(binaries["after"], extra_args):
            only = [f"--benchmark_filter=^{re.escape(name)}$",
                    "--benchmark_repetitions=1"] + [
                        a for a in extra_args
                        if a.startswith("--benchmark_min_time")]
            samples = {"before": [], "after": []}
            hosts = {}
            for round_index in range(REPETITIONS):
                order = (("before", "after") if round_index % 2 == 0
                         else ("after", "before"))
                for label in order:
                    report = run_bench(binaries[label], only)
                    rows = [r for r in report.get("benchmarks", [])
                            if r.get("run_type") == "iteration"]
                    if rows:
                        samples[label].append(rows[0])
                        hosts[label] = host_of(report, compilers[label])
            for label, rows in samples.items():
                if rows:
                    store_samples(results, label, name, rows, hosts[label])
    return 0


def store_samples(results, label, name, rows, host):
    """One row under `label` from single-repetition runs of it."""
    times = [r["real_time"] * MS_PER_UNIT[r.get("time_unit", "ns")]
             for r in rows]
    mean = statistics.mean(times)
    counters = {}
    for key in rows[0]:
        if key not in NOT_COUNTERS and isinstance(rows[0][key], (int, float)):
            counters[key] = statistics.median(r[key] for r in rows)
    results["benchmarks"].setdefault(name, {})[label] = {
        "real_time_ms": statistics.median(times),
        "cv": statistics.stdev(times) / mean if len(times) > 1 and mean
        else 0.0,
        "repetitions": len(rows),
        "iterations": rows[0]["iterations"],
        "host": host,
        "interleaved": True,
        "counters": counters,
    }


def is_noise(before, after):
    """True when |speedup - 1| is below twice the larger cv of the two
    sides, which the repetitions' spread cannot resolve. Rows without a cv
    on both sides (the loadgen rows) are never tagged."""
    if not (before and after and "cv" in before and "cv" in after):
        return False
    b, a = before["real_time_ms"], after["real_time_ms"]
    if not (b and a):
        return False
    return abs(b / a - 1) < 2 * max(before["cv"], after["cv"])


def print_table(results):
    """One line per row: the median and cv of each side, the speedup (with
    a "noise" tag, is_noise) and the host of each side (legend below). The
    BM_Serve_* rows come from loadgen summaries (tools/loadgen.cpp) and
    carry no cv and no host."""
    rows = []
    hosts = []
    mixed = []
    for name, entry in sorted(results["benchmarks"].items()):
        before = entry.get("before")
        after = entry.get("after")
        b = before["real_time_ms"] if before else None
        a = after["real_time_ms"] if after else None
        speedup = f"{b / a:5.2f}x" if b and a else "    --"
        noise = "noise" if is_noise(before, after) else ""
        fmt = lambda v: f"{v:12.3f}" if v is not None else "          --"
        cv = lambda r: (f"{r['cv'] * 100:6.1f}%" if r and "cv" in r
                        else "     --")
        tags = []
        for side in (before, after):
            host = side.get("host") if side else None
            if host is None:
                tags.append("-")
                continue
            if host not in hosts:
                hosts.append(host)
            tags.append(f"h{hosts.index(host) + 1}")
        if before and after and before.get("host") != after.get("host"):
            mixed.append(name)
        rows.append(f"{name:<44} {fmt(b)} {cv(before)} {fmt(a)} "
                    f"{cv(after)} {speedup} {noise:<5}  {'/'.join(tags)}")
    header = (f"{'benchmark':<44} {'before(ms)':>12} {'cv':>7} "
              f"{'after(ms)':>12} {'cv':>7} {'speedup':>7} {'':<5}  host")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
    print("noise: |speedup - 1| < 2 x the larger cv of the row's sides")
    for i, host in enumerate(hosts):
        print(f"h{i + 1}: {host['num_cpus']} cpus, "
              f"{host['compiler']}, benchmark library "
              f"{host['library_build_type']}")
    if mixed:
        print(f"[bench_compare] warning: {len(mixed)} rows compare runs "
              f"from different hosts: {', '.join(mixed)}", file=sys.stderr)


def serve_load_metrics(report):
    """Flattens one ezrt-serve-load (loadgen --json) document into rows."""
    rows = {}
    for key in ("requests", "concurrency", "elapsed_ms", "throughput_rps",
                "ok", "sent", "retries", "cache_hits", "coalesced",
                "overloaded", "degraded", "invalid", "failures",
                "latency_p50_ms", "latency_p90_ms", "latency_p99_ms"):
        if key in report:
            rows[key] = report[key]
    # Derived ratios: the interesting A/B signals for server changes.
    if report.get("ok"):
        rows["cache_hit_ratio"] = (
            (report.get("cache_hits", 0) + report.get("coalesced", 0))
            / report["ok"])
    if report.get("sent"):
        rows["shed_ratio"] = report.get("overloaded", 0) / report["sent"]
    return rows


def report_metrics(report):
    """Flattens one report document (run report or loadgen summary) into
    comparable rows, dispatching on its "schema" field."""
    if report.get("schema") == "ezrt-serve-load":
        return serve_load_metrics(report)
    if report.get("schema") != "ezrt-run-report":
        raise SystemExit("[bench_compare] not an ezrt-run-report or "
                         "ezrt-serve-load document")
    rows = {}
    search = report.get("search", {})
    for key in ("states_visited", "transitions_fired", "backtracks",
                "max_depth", "peak_visited_bytes", "elapsed_ms",
                "heuristic_evals", "classes_merged", "beam_dropped"):
        if key in search:
            rows[key] = search[key]
    pruned = {k: search.get(f"pruned_{k}", 0)
              for k in ("deadline", "visited", "priority", "doomed")}
    total_pruned = sum(pruned.values())
    for k, v in pruned.items():
        rows[f"pruned_{k}"] = v
    expanded = search.get("states_visited", 0) + total_pruned
    if expanded:
        rows["prune_ratio"] = total_pruned / expanded
    telemetry = report.get("telemetry", {})
    shards = telemetry.get("shards", [])
    if shards:
        slots = sum(s.get("slots", 0) for s in shards)
        occupied = sum(s.get("occupied", 0) for s in shards)
        rows["visited_slots"] = slots
        rows["visited_occupied"] = occupied
        if slots:
            rows["visited_load"] = occupied / slots
        rows["probe_max"] = max(s.get("probe_max", 0) for s in shards)
    workers = telemetry.get("workers", [])
    if len(workers) > 1:
        rows["workers"] = len(workers)
        rows["steals"] = sum(w.get("steals", 0) for w in workers)
        rows["donations"] = sum(w.get("donations", 0) for w in workers)
    # Schema v4: per-processor utilization, bus contention and the shared
    # K-pool high-water mark (docs/multiprocessor.md).
    schedule = report.get("schedule", {})
    for proc in schedule.get("processors", []):
        name = proc.get("processor", "?")
        rows[f"util[{name}]"] = proc.get("utilization", 0)
        rows[f"busy[{name}]"] = proc.get("busy_time", 0)
    bus = schedule.get("bus", {})
    if bus.get("transfers"):
        rows["bus_transfers"] = bus["transfers"]
        rows["bus_busy_time"] = bus.get("busy_time", 0)
        rows["bus_utilization"] = bus.get("utilization", 0)
    sync = schedule.get("sync", {})
    if sync.get("budget"):
        rows["sync_budget"] = sync["budget"]
        rows["sync_high_water"] = sync.get("high_water", 0)
    verdict = report.get("verdict", {})
    if "status" in verdict:
        rows["status"] = verdict["status"]
    # Schema v5: verdict-provenance counters (`ezrt explain --report`,
    # docs/explain.md) — per-task watchdog/doom blame, per-resource
    # contention, the culprit set and the sync-budget lower bound. A/B
    # diffs of these show *where* the search effort moved, not just how
    # much of it there was.
    explanation = report.get("explanation", {})
    if explanation:
        rows["explain_status"] = explanation.get("status", "?")
        attribution = explanation.get("attribution", {})
        for task in attribution.get("tasks", []):
            name = task.get("task", "?")
            rows[f"watchdog[{name}]"] = task.get("watchdog_hits", 0)
            if task.get("doomed_prunes"):
                rows[f"doomed[{name}]"] = task["doomed_prunes"]
        for resource in attribution.get("resources", []):
            name = resource.get("resource", "?")
            rows[f"contention[{name}]"] = resource.get("contention", 0)
        culprits = explanation.get("culprits")
        if culprits:
            rows["culprit_tasks"] = ",".join(culprits.get("tasks", []))
            if culprits.get("sync_budget_culprit"):
                rows["sync_budget_lower_bound"] = culprits.get(
                    "sync_budget_lower_bound", 0)
        for slack in explanation.get("slack", []):
            name = slack.get("task", "?")
            if "wcet_headroom" in slack:
                rows[f"headroom[{name}]"] = slack["wcet_headroom"]
            elif "wcet_reduction_needed" in slack:
                rows[f"reduce[{name}]"] = slack["wcet_reduction_needed"]
        if "max_scaling_permille" in explanation:
            rows["max_scaling_permille"] = explanation[
                "max_scaling_permille"]
    return rows


def compare_reports(labeled_paths):
    columns = []
    for spec in labeled_paths:
        label, sep, path = spec.partition("=")
        if not sep:
            label, path = path or spec, spec
        with open(path) as f:
            columns.append((label, report_metrics(json.load(f))))
    keys = []
    for _, rows in columns:
        for key in rows:
            if key not in keys:
                keys.append(key)
    header = f"{'metric':<22}" + "".join(
        f" {label:>16}" for label, _ in columns)
    print(header)
    print("-" * len(header))
    for key in keys:
        cells = []
        for _, rows in columns:
            v = rows.get(key)
            if v is None:
                cells.append(f" {'--':>16}")
            elif isinstance(v, float):
                cells.append(f" {v:16.4f}")
            else:
                cells.append(f" {v!s:>16}")
        print(f"{key:<22}" + "".join(cells))
    # Relative change column for two-report comparisons.
    if len(columns) == 2:
        a, b = columns[0][1], columns[1][1]
        print()
        for key in keys:
            va, vb = a.get(key), b.get(key)
            if (isinstance(va, (int, float)) and
                    isinstance(vb, (int, float)) and
                    not isinstance(va, bool) and va):
                delta = (vb - va) / va * 100.0
                print(f"{key:<22} {delta:+8.1f}%")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        choices=["before", "after"],
                        help="which column these runs record")
    parser.add_argument("--bin-dir", default=os.path.join(REPO_ROOT, "build",
                                                          "bench"),
                        help="directory containing the benchmark binaries")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex passed through")
    parser.add_argument("--min-time", default="",
                        help="--benchmark_min_time passed through")
    parser.add_argument("--interleave", default="", metavar="BEFORE_BIN_DIR",
                        help="record both labels in one session, "
                             "alternating this directory's binaries "
                             "(before) with --bin-dir's (after) row by row")
    parser.add_argument("--report", action="append", default=[],
                        metavar="LABEL=PATH",
                        help="compare report JSON files instead of running "
                             "benchmarks (repeatable): `ezrt schedule/"
                             "explain --report` run reports or `loadgen "
                             "--json` serve-load summaries")
    args = parser.parse_args()

    if args.report:
        return compare_reports(args.report)

    extra = []
    if args.filter:
        extra.append(f"--benchmark_filter={args.filter}")
    if args.min_time:
        extra.append(f"--benchmark_min_time={args.min_time}")

    results = load_results()
    if args.interleave:
        if interleave(results, args.interleave, args.bin_dir, extra) != 0:
            return 1
    else:
        compiler = compiler_of(args.bin_dir)
        for bench in TRACKED_BENCHES:
            binary = os.path.join(args.bin_dir, bench)
            if not os.path.exists(binary):
                print(f"[bench_compare] missing {binary}; build first",
                      file=sys.stderr)
                return 1
            record(results, args.label,
                   run_bench(binary, extra + [
                       f"--benchmark_repetitions={REPETITIONS}"]),
                   compiler)

    with open(RESULT_FILE, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[bench_compare] wrote {RESULT_FILE}", file=sys.stderr)
    print_table(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
