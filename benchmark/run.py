"""Benchmark of the adalam library and CLI; run from the repository root.

    python3 benchmark/run.py --workload pair-8k --seed 1 --seconds 20 --trace 0

Each run starts one child interpreter (this file with --child) that
imports adalam from ./src, builds the workload's inputs from --seed,
warms up and checks the outputs, then times rounds of pairs for
--seconds. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pair-8k", "filter-dense", "cli-chain")
WORK_DIR = ".benchwork"
TIME_LIMIT_S = 170.0
# One BLAS thread: on the 2-core host the second core absorbs other load
# instead of sharing the matcher's Gram products.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args) -> int:
    # One CPU for this process and the CLI processes it starts: the two
    # cores run at different speeds, and the reference loop must measure
    # the core the work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from tracing import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    with tracer.span("cli.import"):
        import adalam
    src = os.path.realpath("src")
    if not os.path.realpath(adalam.__file__).startswith(src + os.sep):
        print(f"run.py: imported adalam from {adalam.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        result = workloads.run(args, tracer, workdir)
    finally:
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                os.unlink(os.path.join(workdir, name))
            os.rmdir(workdir)
    if args.trace:
        tracer.dump(os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join("src", "adalam", "__init__.py")):
        print("run.py: ./src/adalam not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.abspath("src")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: no result within {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: the child exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    # Set-up time in reference seconds: scaled by the host slowness probed
    # right after set-up, as the child scales its own timings.
    setup_s = (result.pop("setup_done") - spawned) / result.pop("setup_slowness")
    if not args.trace:
        # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN covers the child
        # and the CLI processes it waited for.
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
