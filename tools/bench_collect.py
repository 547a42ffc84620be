"""Collect the benchmark over fixed seeds into one BENCH_<label>.json.

    python3 tools/bench_collect.py --label baseline

Run it from the root of the tree to measure. For every workload listed
in BENCHMARK.json and every seed, it runs the benchmark command of
BENCHMARK.json once with --trace 0 (the end-to-end metrics) and once
with --trace 1 (the per-layer metrics), for BENCHMARK.json's
run_seconds. It writes BENCH_<label>.json in the current directory with
the median, q1, q3 and n of every metric per workload, the correctness
of every run, and the host: the git commit, os.cpu_count(), the Python
and numpy versions and the median machine.ref_loop_s. It exits with 1
when any run fails or is not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SEEDS = [101, 102, 103, 104, 105]


def summary(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_once(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "trace": trace, "exit": proc.returncode, "correct": False}
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "exit": 0, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "units": {k: m["unit"] for k, m in result["metrics"].items()}}


def git_commit():
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    import numpy

    out = {
        "label": args.label,
        "host": {"commit": git_commit(), "cpu_count": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "seeds": SEEDS,
        "seconds": seconds,
        "workloads": {},
    }
    ok, ref_loop = True, []
    for wl in bench["workloads"]:
        runs = []
        for seed in SEEDS:
            for trace in (0, 1):
                run = run_once(bench["command"], wl["name"], seed, seconds, trace)
                print(f"{wl['name']} seed {seed} trace {trace}: correct={run['correct']}",
                      file=sys.stderr, flush=True)
                ok &= run["correct"] and run.get("failed", 1) == 0
                runs.append(run)
        done = [r for r in runs if "metrics" in r]
        names = sorted({k for r in done for k in r["metrics"]})
        metrics = {}
        for name in names:
            values = [r["metrics"][name] for r in done if name in r["metrics"]]
            unit = next(r["units"][name] for r in done if name in r["metrics"])
            metrics[name] = dict(summary(values), unit=unit)
        ref_loop += [r["metrics"]["machine.ref_loop_s"] for r in done
                     if "machine.ref_loop_s" in r["metrics"]]
        out["workloads"][wl["name"]] = {
            "metrics": metrics,
            "runs": [{k: r.get(k) for k in ("seed", "trace", "exit", "correct",
                                             "attempted", "failed")} for r in runs],
        }
    out["host"]["machine.ref_loop_s"] = statistics.median(ref_loop) if ref_loop else None
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
