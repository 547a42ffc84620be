"""Self-test of the benchmark's checks, at a small size, in seconds.

    python3 benchmark/selftest.py      # from the repository root

Runs each workload once on small scenes and requires every check to pass
on the real outputs, then corrupts each checked output once (a dropped
index, a swapped idx2, an altered file row, ...) and requires the check
that guards it to fire. Exits non-zero on the first surprise.
"""
from __future__ import annotations

import os
import sys
import types

sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as w  # noqa: E402
from tracing import Tracer  # noqa: E402
from adalam import FilterResult, MatchSet  # noqa: E402

SMALL = {
    "pair-8k": w.SceneSpec(1000, 1000, 5, 40, 300, 32),
    "filter-dense": w.SceneSpec(1000, 1000, 6, 60, 600, 32),
    "cli-chain": w.SceneSpec(1000, 1000, 5, 40, 300, 32),
}
SEED = 1


def fires(label, prefix, fn, *args):
    try:
        fn(*args)
    except checks.CheckError as exc:
        if not str(exc).startswith(prefix):
            sys.exit(f"selftest: {label}: the wrong check fired: {exc}")
        print(f"fires   {label}: {exc}")
        return
    sys.exit(f"selftest: {label}: no check fired")


def passes(label, fn, *args):
    fn(*args)
    print(f"passes  {label}")


def first_round(name, workdir=None):
    wl = w.make_workload(name, SEED, Tracer(False), workdir, SMALL[name])
    wl.setup()
    outs, _, failed = w.play_round(wl, w.HostClock(wl.tracer))
    if failed:
        sys.exit(f"selftest: {name}: {failed} pairs failed")
    passes(f"{name} checks", wl.check, outs)
    passes(f"{name} repeat", wl.check_same, outs)
    return wl, outs


def drop_one(result):
    return FilterResult(np.delete(result.selected, len(result.selected) // 2),
                        result.seed_reports)


def library():
    wl, outs = first_round("pair-8k")
    (ms, res), rest = outs[0], outs[1:]
    rows = np.random.default_rng(SEED).choice(len(wl.scenes[0].k1), w.ORACLE_ROWS,
                                              replace=False)
    idx2 = ms.idx2.copy()
    idx2[[rows[0], rows[1]]] = idx2[[rows[1], rows[0]]]
    swapped = MatchSet(ms.idx1, idx2, ms.dist, ms.ratio)
    fires("swapped idx2", "nn oracle", wl.check, [(swapped, res)] + rest)
    fires("dropped index", "replay union", wl.check, [(ms, drop_one(res))] + rest)
    wl.check(outs)
    fires("dropped index on repeat", "repeat selected",
          wl.check_same, [(ms, drop_one(res))] + rest)

    sc = wl.scenes[0]
    x1, x2 = sc.k1.xy[ms.idx1], sc.k2.xy[ms.idx2]
    r2 = w.compute_radius(wl.spec.size, w.DEFAULTS.area_ratio)
    si, members, outcome = next((s, m, o) for s, m, o in wl.replays[0].accepted
                                if len(o.inlier_member_indices) < len(m))
    a, inl = outcome.model.as_matrix(), outcome.inlier_member_indices
    p = w.DEFAULTS
    args = (r2, p.t_c, p.t_n, p.eps_residual)
    passes("seed inliers", checks.seed_inliers, x1, x2, si, members, a, inl, *args)
    outside = np.setdiff1d(np.arange(len(members)), inl)
    fires("inlier set plus a rejected member", "seed", checks.seed_inliers,
          x1, x2, si, members, a, np.append(inl, outside[-1]), *args)
    fires("perturbed model", "seed", checks.seed_inliers,
          x1, x2, si, members, a * 1.5, inl, *args)
    fires("inliers below t_n", "seed", checks.seed_inliers,
          x1, x2, si, members, a, inl[: p.t_n - 1], *args)
    fires("scale x2 with a dropped index", "scale x2", checks.same_indices,
          "scale x2", res.selected, drop_one(res).selected)

    planted = sc.gt_inlier & (ms.idx2 == sc.matches.idx2)
    hits = np.flatnonzero(planted)
    fires("recall floor", "filter", checks.floors, "filter",
          len(hits) // 2, len(hits) // 2, len(hits), w.MIN_PRECISION, w.MIN_RECALL)
    fires("precision floor", "filter", checks.floors, "filter",
          len(hits), 2 * len(hits), len(hits), w.MIN_PRECISION, w.MIN_RECALL)
    first_round("filter-dense")


def replace_in_file(path, old, new):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))
    return text


def cli():
    workdir = os.path.join(".benchwork", f"selftest-{os.getpid()}")
    try:
        wl, outs = first_round("cli-chain", workdir)
        kept = wl.files["kept"]
        with open(kept) as fh:
            row = fh.readlines()[1]
        fields = row.split()
        fields[1] = str(int(fields[1]) + 1)
        original = replace_in_file(kept, row, " ".join(fields) + "\n")
        fires("altered kept row on repeat", "repeat", wl.check_same, outs)
        fires("altered kept row", "cli filter", wl.check, outs)
        with open(kept, "w") as fh:
            fh.write(original)
        tp = [ln for ln in outs[0].split() if ln.startswith("true_positives=")][0]
        wrong = outs[0].replace(tp, f"true_positives={int(tp.split('=')[1]) + 1}")
        fires("altered eval count", "eval", wl.check, [wrong])
        passes("cli-chain checks after restore", wl.check, outs)

        args = types.SimpleNamespace(workload="cli-chain", seed=SEED, seconds=0.0, trace=1)
        result = w.run(args, Tracer(True), workdir, SMALL["cli-chain"])
        m = result["metrics"]
        if not (result["correct"] and m["cli.match_s"]["value"] > 0
                and m["fileio.read_keypoints_s"]["value"] > 0
                and m["filtering.verify_seed_s"]["value"] > 0):
            sys.exit(f"selftest: traced cli-chain run: {result}")
        print(f"passes  traced cli-chain run ({len(m)} per-layer metrics)")
    finally:
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                os.unlink(os.path.join(workdir, name))
            os.rmdir(workdir)


if __name__ == "__main__":
    os.environ["PYTHONPATH"] = os.path.abspath("src")
    library()
    cli()
    print("selftest: every check passed on real outputs and fired on corrupted ones")
