#!/usr/bin/env python3
"""Self-test of the repository benchmark (see README.md here).

    python3 perfbench/selftest.py

For each workload, runs run.py on a small slice of its corpus in both
modes. It asserts that every BENCHMARK.json metric of the mode prints with
its unit, and that nothing failed. It then runs once more on a corpus copy
with one pinned verdict flipped, and asserts that the check reports it and
the command exits non-zero. Exits 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
SLICES = {"pipeline": 12, "exhaustive": 4, "serve": 8}
SECONDS = "1.5"


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", SECONDS, "--trace",
           str(trace), "--slice", str(SLICES[workload])] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, json.loads(last) if last.startswith("{") else None


def flipped_copy(workload):
    """Copies the workload's corpus slice with the first verdict flipped."""
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(HERE, "corpus", workload + ".txt")) as f:
        rows = [line for line in f if line.strip() and line[0] != "#"]
    rows = rows[:SLICES[workload]]
    name, verdict, rest = rows[0].split(" ", 2)
    rows[0] = " ".join([name, "I" if verdict == "F" else "F", rest])
    path = os.path.join(WORK_DIR, workload + "-flipped.txt")
    with open(path, "w") as f:
        f.writelines(rows)
    return path


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in SLICES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: failed {result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} missing or wrong "
                                    f"unit ({got})")
            if trace == 0 and "failed_share" not in proc.stdout:
                problems.append(f"{label}: failed_share not printed")
            print(f"ok   {label}: {result['attempted']} operations")

        proc, result = run(workload, 0, ["--corpus", flipped_copy(workload)])
        caught = (proc.returncode != 0 and result is not None and
                  result["failed"] > 0 and not result["correct"] and
                  "FAILED" in proc.stdout)
        if not caught:
            problems.append(f"{workload}: a flipped pinned verdict was not "
                            f"caught (exit {proc.returncode}, {result})")
        else:
            print(f"ok   {workload}: flipped verdict caught "
                  f"({result['failed']} failed)")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
