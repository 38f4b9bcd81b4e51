#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # all three workloads, one table

Run it from the repository root. The benchmark is compiled from ../src into
.bench_build/perfbench on first use. Each workload runs in its own process.
With --workload, the last line of stdout is the result object: correct,
attempted, failed and the BENCHMARK.json metrics of the mode (end_to_end
for --trace 0, per_layer for --trace 1). Every result, with all metrics,
units, sample counts and the host fingerprint, is also written to
.bench_build/perfbench-results/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(".bench_build", "perfbench-results")  # relative to ROOT
WORKLOADS = ["pipeline", "exhaustive", "serve"]
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds the perfbench target; returns the binary."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(BUILD, "perfbench")


def source_fingerprint():
    """Commit when the checkout is a git work tree, and a digest of src/."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, extra):
    """Runs one workload process; returns (exit code, detail dict or None)."""
    os.makedirs(os.path.join(ROOT, RESULTS), exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus-dir", os.path.relpath(os.path.join(HERE, "corpus"), ROOT),
           "--out-dir", RESULTS] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        detail = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    commit, src_digest = source_fingerprint()
    detail["host"].update({"commit": commit, "src_digest": src_digest})
    detail.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace})
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(ROOT, RESULTS, name), "w") as f:
        json.dump(detail, f, indent=1)
    return proc.returncode, detail


def result_line(detail, trace):
    """The result object: BENCHMARK.json's metrics for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    source = detail["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": detail["correct"] and not missing,
            "attempted": detail["attempted"], "failed": detail["failed"],
            "metrics": metrics}, missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--slice", type=int, default=0,
                        help="use only the first N corpus rows (self-test)")
    parser.add_argument("--corpus", default="",
                        help="replacement corpus file (self-test)")
    args = parser.parse_args()
    extra = []
    if args.slice:
        extra += ["--slice", str(args.slice)]
    if args.corpus:
        extra += ["--corpus", os.path.abspath(args.corpus)]

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.workload != "all":
        code, detail = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace, extra)
        if detail is None:
            return code or 1
        line, missing = result_line(detail, args.trace)
        if missing:
            print("perfbench: missing metrics: " + ", ".join(missing),
                  file=sys.stderr)
        print(json.dumps(line))
        return 0 if code == 0 and line["correct"] else 1

    status = 0
    table = []
    for workload in WORKLOADS:
        code, detail = run_one(binary, workload, args.seed, args.seconds,
                               args.trace, extra)
        if detail is None or code != 0 or not detail["correct"]:
            status = 1
        if detail is None:
            continue
        section = detail["per_layer" if args.trace else "end_to_end"]
        for name, m in section.items():
            table.append((workload, name, m["value"], m["unit"], m["samples"]))
    print()
    print(f"{'workload':<11} {'metric':<38} {'value':>16} {'unit':<7} samples")
    for workload, name, value, unit, samples in table:
        print(f"{workload:<11} {name:<38} {value:16.6f} {unit:<7} {samples}")
    return status


if __name__ == "__main__":
    sys.exit(main())
