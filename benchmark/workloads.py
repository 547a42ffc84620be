"""Workloads, host-speed scaling and metrics of the adalam benchmark.

One operation is one image pair. The library workloads call the public
API in this process; `cli-chain` runs the `adalam` CLI as one subprocess
per command. Round 0 of every run is an untimed warm-up whose outputs go
through every check in checks.py; each later round must reproduce them
exactly, and only later rounds are timed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from tracing import Tracer
from adalam import (
    AdalamParams,
    ImageSize,
    KeypointSet,
    MatchSet,
    Seed,
    SynthConfig,
    adalam_filter,
    assemble_neighborhood,
    compute_radius,
    generate_scene,
    nn_match,
    select_seeds,
    verify_seed,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULTS = AdalamParams()
ORACLE_ROWS = 48
# Scenes per run that are replayed through the stage functions (checked,
# and timed in traced rounds); the rest are checked by floors and repeats.
REPLAYED_SCENES = 4

# Medians of the four parts of ref_loop() on the 2-core host described in
# README.md. They fix the unit: a time divided by the host's slowness
# relative to them is in reference seconds.
REF_S = (0.00314, 0.00185, 0.00342, 0.00181)
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((160, 160))
_MODELS = _RNG.standard_normal((64, 2, 2))
_POINTS = _RNG.standard_normal((200, 2))
_VALUES = _RNG.standard_normal(1200)


def ref_loop():
    """Times of four fixed loops, each the median of 3 repeats.

    The loops do the kinds of work the workloads do: interpreter
    bytecode, an in-cache BLAS product, NumPy calls on neighbourhood-sized
    arrays, and float formatting and parsing. The median drops a repeat
    that a preemption happened to lengthen.
    """
    reps = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(30_000):
            x += i * i % 7
        t1 = time.perf_counter()
        for _ in range(4):
            np.sort(_MATRIX @ _MATRIX, axis=1)
        t2 = time.perf_counter()
        d = np.einsum("tab,mb->tma", _MODELS, _POINTS) - _POINTS
        r = np.einsum("tmi,tmi->tm", d, d)
        np.take_along_axis(r, np.argsort(r, axis=1, kind="stable"), axis=1)
        t3 = time.perf_counter()
        np.array([float(v) for v in " ".join(f"{v:.9g}" for v in _VALUES).split()])
        t4 = time.perf_counter()
        reps.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3))
    return [statistics.median(part) for part in zip(*reps)]


class HostClock:
    """Times calls and measures the host's slowness around them.

    The host's speed drifts in phases lasting seconds, so ref_loop() runs
    after every timed call. A stretch of calls is scaled by the median
    slowness of the probes from just before its first call to just after
    its last: that follows the phases, and one disturbed probe cannot move
    it. Slowness is the geometric mean of the four loop times relative to
    REF_S.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.ref_s, self.slowness = [], []
        self._probe()
        self.scale_since((0, 0))  # the set-up spans

    def _probe(self):
        parts = ref_loop()
        self.ref_s.append(sum(parts))
        self.slowness.append(math.exp(statistics.fmean(
            math.log(t / ref) for t, ref in zip(parts, REF_S))))

    def call(self, name, fn, *args):
        """(fn(*args), its wall time), then a probe."""
        with self.tracer.span(name):
            t0 = time.perf_counter()
            out = fn(*args)
            wall = time.perf_counter() - t0
        self._probe()
        return out, wall

    def mark(self):
        return len(self.slowness) - 1, len(self.tracer.spans)

    def scale_since(self, mark):
        """Reference seconds per wall second since mark, set on its spans too."""
        probe, span = mark
        scale = 1.0 / statistics.median(self.slowness[probe:])
        for s in self.tracer.spans[span:]:
            s["scale"] = scale
        return scale


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    patches: int
    per_patch: int
    outliers: int
    dim: int
    noise: float = 0.5

    @property
    def size(self):
        return ImageSize(self.width, self.height)

    @property
    def n(self):
        return self.patches * self.per_patch + self.outliers

    def config(self, rng_seed):
        return SynthConfig(
            size1=self.size, size2=self.size, n_patches=self.patches,
            keypoints_per_patch=self.per_patch, n_outliers=self.outliers,
            noise_sigma=self.noise, descriptor_dim=self.dim, rng_seed=rng_seed,
        )


@dataclass
class Replay:
    seeds: np.ndarray
    union: np.ndarray
    members: list        # neighbourhood size of every seed
    accepted: list       # (seed match index, members, IterationOutcome)


def replay(tracer, k1, k2, size1, size2, matches, params=DEFAULTS):
    """adalam_filter rebuilt from the public stage functions."""
    r1 = compute_radius(size1, params.area_ratio)
    r2 = compute_radius(size2, params.area_ratio)
    with tracer.span("filtering.select_seeds"):
        seeds = select_seeds(matches, k1, r1)
    members, accepted = [], []
    for si in seeds:
        seed = Seed(int(si), r1, r2)
        with tracer.span("filtering.assemble_neighborhood"):
            nb = assemble_neighborhood(seed, matches, k1, k2, params)
        with tracer.span("filtering.verify_seed"):
            outcome = verify_seed(nb, params)
        members.append(len(nb))
        if outcome is not None:
            accepted.append((int(si), nb.members, outcome))
    parts = [m[o.inlier_member_indices] for _, m, o in accepted]
    union = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    return Replay(seeds, union, members, accepted)


def _doubled(kps):
    return KeypointSet(xy=kps.xy * 2.0, sigma=kps.sigma, alpha=kps.alpha, desc=kps.desc)


def check_floors(planted, result):
    checks.floors("filter", int(planted[result.selected].sum()), len(result.selected),
                  int(planted.sum()), MIN_PRECISION, MIN_RECALL)


def check_filter(k1, k2, size1, size2, matches, result, scale_check, params=DEFAULTS):
    """The replay, inlier and scale checks on one pair; returns the replay."""
    rep = replay(Tracer(enabled=False), k1, k2, size1, size2, matches, params)
    checks.same_indices("replay seeds",
                        [r.seed_match_index for r in result.seed_reports], rep.seeds)
    checks.same_indices("replay union", result.selected, rep.union)
    x1 = k1.xy[matches.idx1]
    x2 = k2.xy[matches.idx2]
    r2 = compute_radius(size2, params.area_ratio)
    for si, members, outcome in rep.accepted:
        checks.seed_inliers(x1, x2, si, members, outcome.model.as_matrix(),
                            outcome.inlier_member_indices, r2, params.t_c,
                            params.t_n, params.eps_residual)
    if scale_check:
        big1 = ImageSize(2 * size1.width, 2 * size1.height)
        big2 = ImageSize(2 * size2.width, 2 * size2.height)
        scaled = adalam_filter(_doubled(k1), _doubled(k2), big1, big2, matches, params)
        checks.same_indices("scale x2", result.selected, scaled.selected)
    return rep


class LibraryWorkload:
    """One pair is [nn_match, then] adalam_filter with defaults on one scene.

    A round is the same `scenes` pairs, generated from the run's seed, so
    that one run averages over several scenes.
    """

    def __init__(self, spec, match, scenes, seed, tracer):
        self.spec, self.match, self.pairs_per_round = spec, match, scenes
        self.seed, self.tracer = seed, tracer
        self.replays, self.results = [], []
        self.inliers_kept, self.bytes_written = 0.0, 0

    def setup(self):
        self.scenes = []
        for j in range(self.pairs_per_round):
            with self.tracer.span("synth.generate_scene"):
                self.scenes.append(generate_scene(
                    self.spec.config(self.seed * self.pairs_per_round + j)))

    def run_pair(self, clock, j):
        sc, size, t = self.scenes[j], self.spec.size, 0.0
        matches = sc.matches
        if self.match:
            matches, t = clock.call("matching.nn_match", nn_match, sc.k1, sc.k2)
        result, dt = clock.call("filtering.adalam_filter", adalam_filter,
                                sc.k1, sc.k2, size, size, matches)
        return (matches, result), t + dt

    def check(self, outs):
        self.first, self.replays = outs, []
        self.results = [result for _, result in outs]
        planted = [sc.gt_inlier & (matches.idx2 == sc.matches.idx2)
                   for sc, (matches, _) in zip(self.scenes, outs)]
        self.inliers_kept = statistics.fmean(
            int(p[r.selected].sum()) for p, r in zip(planted, self.results))
        rng = np.random.default_rng(self.seed)
        for j, (sc, (matches, result)) in enumerate(zip(self.scenes, outs)):
            if self.match:
                rows = rng.choice(len(sc.k1), ORACLE_ROWS, replace=False)
                checks.nn_oracle(sc.k1.desc, sc.k2.desc, rows,
                                 matches.idx2, matches.dist, matches.ratio)
            check_floors(planted[j], result)
            if j < REPLAYED_SCENES:
                self.replays.append(check_filter(sc.k1, sc.k2, self.spec.size,
                                                 self.spec.size, matches, result, j == 0))

    def check_same(self, outs):
        for (m0, r0), (m, r) in zip(self.first, outs):
            checks.same_indices("repeat nn idx2", m0.idx2, m.idx2)
            checks.same_indices("repeat selected", r0.selected, r.selected)

    def replay_round(self, clock):
        size = self.spec.size
        for sc, (matches, _) in zip(self.scenes[:REPLAYED_SCENES], self.first):
            clock.call("filtering.replay", replay, self.tracer,
                       sc.k1, sc.k2, size, size, matches)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliWorkload:
    """One pair is the README chain synth -> match -> filter -> eval."""

    pairs_per_round = 1

    def __init__(self, spec, seed, tracer, workdir):
        self.spec, self.seed = spec, seed
        self.tracer, self.workdir = tracer, workdir
        self.replays, self.results = [], []
        self.inliers_kept, self.bytes_written = 0.0, 0

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        f = self.files = {k: os.path.join(self.workdir, k + ".txt")
                          for k in ("kp1", "kp2", "gt", "nn", "kept")}
        s = self.spec
        self.steps = [
            ("synth", ["synth", "--width1", s.width, "--height1", s.height,
                       "--width2", s.width, "--height2", s.height,
                       "--patches", s.patches, "--keypoints-per-patch", s.per_patch,
                       "--outliers", s.outliers, "--noise-sigma", s.noise,
                       "--descriptor-dim", s.dim, "--rng-seed", self.seed,
                       "--out-keypoints1", f["kp1"], "--out-keypoints2", f["kp2"],
                       "--out-matches", f["gt"]]),
            ("match", ["match", "--keypoints1", f["kp1"], "--keypoints2", f["kp2"],
                       "--out", f["nn"]]),
            ("filter", ["filter", "--keypoints1", f["kp1"], "--keypoints2", f["kp2"],
                        "--matches", f["nn"], "--out", f["kept"]]),
            ("eval", ["eval", "--selected", f["kept"], "--matches", f["gt"]]),
        ]

    def _run(self, argv):
        argv = [str(a) for a in argv]
        spans = os.path.join(self.workdir, "spans.json")
        if self.tracer.enabled:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans, *argv]
        else:
            cmd = [sys.executable, "-m", "adalam.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"adalam {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        if self.tracer.enabled:
            with open(spans) as fh:
                self.tracer.adopt(json.load(fh)["spans"])
        return proc.stdout

    def run_pair(self, clock, j):
        total = 0.0
        for name, argv in self.steps:
            out, t = clock.call("cli." + name, self._run, argv)
            total += t
        return out, total

    def check(self, outs):
        f = self.files
        w1, h1, kp1 = checks.load_keypoint_file(f["kp1"])
        w2, h2, kp2 = checks.load_keypoint_file(f["kp2"])
        gt = checks.load_match_file(f["gt"])
        nn = checks.load_match_file(f["nn"])
        kept_rows = checks.load_match_file(f["kept"])
        rows = np.random.default_rng(self.seed).choice(len(kp1), ORACLE_ROWS, replace=False)
        checks.nn_oracle(kp1[:, 4:], kp2[:, 4:], rows, nn[:, 1].astype(np.int64),
                         nn[:, 2], nn[:, 3], atol=1e-8)

        def keypoints(table):
            return KeypointSet(xy=table[:, :2], sigma=table[:, 2], alpha=table[:, 3],
                               desc=table[:, 4:])

        self.k1, self.k2 = keypoints(kp1), keypoints(kp2)
        self.size1, self.size2 = ImageSize(w1, h1), ImageSize(w2, h2)
        self.matches = MatchSet(nn[:, 0].astype(np.int64), nn[:, 1].astype(np.int64),
                                nn[:, 2], nn[:, 3])
        self.digests = {k: _digest(p) for k, p in f.items()}
        self.bytes_written = sum(os.path.getsize(p) for p in f.values())
        self.eval_out = outs[0]
        self.inliers_kept = checks.planted_count(kept_rows, gt, len(kp2))
        result = adalam_filter(self.k1, self.k2, self.size1, self.size2, self.matches)
        self.results = [result]
        if not np.array_equal(nn[result.selected], kept_rows):
            raise checks.CheckError("cli filter: the kept file differs from adalam_filter "
                                    "on the parsed input files")
        planted = np.isin(checks.pair_keys(nn, len(kp2)),
                          checks.pair_keys(gt[gt[:, 4] == 1], len(kp2)))
        check_floors(planted, result)
        self.replays = [check_filter(self.k1, self.k2, self.size1, self.size2, self.matches,
                                     result, True)]
        checks.eval_true_positives(outs[0], self.inliers_kept)

    def check_same(self, outs):
        for k, p in self.files.items():
            if _digest(p) != self.digests[k]:
                raise checks.CheckError(f"repeat: {k}.txt differs from the first pair's")
        if outs[0] != self.eval_out:
            raise checks.CheckError("repeat: eval output differs from the first pair's")

    def replay_round(self, clock):
        clock.call("filtering.replay", replay, self.tracer,
                   self.k1, self.k2, self.size1, self.size2, self.matches)


SPECS = {
    "pair-8k": SceneSpec(4000, 3000, 20, 100, 6000, 128),
    "filter-dense": SceneSpec(1000, 1000, 30, 160, 4800, 32),
    "cli-chain": SceneSpec(2000, 2000, 20, 80, 6000, 128),
}
# A patch is lost whole when stronger matches of neighbouring patches
# suppress all its seed candidates: 4 of 120 filter-dense scenes lose one
# or two of 30 patches, 1 of 40 pair-8k and cli-chain scenes one of 20.
MIN_PRECISION, MIN_RECALL = 0.98, 0.85


def make_workload(name, seed, tracer, workdir, spec=None):
    spec = spec or SPECS[name]
    if name == "pair-8k":
        return LibraryWorkload(spec, True, 2, seed, tracer)
    if name == "filter-dense":
        return LibraryWorkload(spec, False, 16, seed, tracer)
    if name == "cli-chain":
        return CliWorkload(spec, seed, tracer, workdir)
    raise ValueError(f"unknown workload {name!r}")


def play_round(wl, clock):
    """(outputs, mean wall seconds per pair or None, failed pairs)."""
    outs, total, failed = [], 0.0, 0
    for j in range(wl.pairs_per_round):
        try:
            out, t = wl.run_pair(clock, j)
        except Exception as exc:  # a failed pair is counted, the run goes on
            print(f"pair {j} failed: {exc!r}", file=sys.stderr)
            outs.append(None)
            failed += 1
        else:
            outs.append(out)
            total += t
    return outs, (None if failed else total / len(outs)), failed


def _checked(fn, *args):
    try:
        fn(*args)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


# Per-layer metric -> span name. Times are per pair: the scaled time in
# those spans summed over a traced round, divided by the pairs that made
# them, median over traced rounds.
PER_PAIR = {
    "matching.nn_match_s": "matching.nn_match",
    "filtering.adalam_filter_s": "filtering.adalam_filter",
    "filtering.select_seeds_s": "filtering.select_seeds",
    "filtering.assemble_neighborhood_s": "filtering.assemble_neighborhood",
    "filtering.verify_seed_s": "filtering.verify_seed",
    "fileio.write_keypoints_s": "fileio.write_keypoints",
    "fileio.read_keypoints_s": "fileio.read_keypoints",
    "fileio.write_matches_s": "fileio.write_matches",
    "fileio.read_matches_s": "fileio.read_matches",
    "cli.synth_s": "cli.synth",
    "cli.match_s": "cli.match",
    "cli.filter_s": "cli.filter",
    "cli.eval_s": "cli.eval",
}
REPLAY_SPANS = {"filtering.select_seeds", "filtering.assemble_neighborhood",
                "filtering.verify_seed"}
# Per call: median scaled duration of one such span.
PER_CALL = {
    "cli.import_s": "cli.import",
    "synth.generate_scene_s": "synth.generate_scene",
}


def _scaled(s):
    return (s["end"] - s["start"]) * s["scale"]


def layer_metrics(wl, tracer, traced_rounds, overhead, ref_s):
    spans = tracer.spans
    out = {}
    for metric, name in PER_PAIR.items():
        totals = dict.fromkeys(traced_rounds, 0.0)
        for s in spans:
            if s["name"] == name and s["round"] in totals:
                totals[s["round"]] += _scaled(s)
        pairs = len(wl.replays) if name in REPLAY_SPANS else wl.pairs_per_round
        out[metric] = (statistics.median(totals.values()) / max(pairs, 1), "s")
    for metric, name in PER_CALL.items():
        d = [_scaled(s) for s in spans if s["name"] == name and s["round"] in traced_rounds]
        d = d or [_scaled(s) for s in spans if s["name"] == name]
        out[metric] = (statistics.median(d) if d else 0.0, "s")
    nn_s = out["matching.nn_match_s"][0]
    flop = 2.0 * wl.spec.n * wl.spec.n * wl.spec.dim
    out["matching.gram_gflops_per_s"] = (flop / nn_s / 1e9 if nn_s else 0.0, "GFLOP/s")
    members = [m for rep in wl.replays for m in rep.members]
    out["filtering.neighborhood_members_median"] = (
        float(np.median(members)) if members else 0.0, "count")
    out["filtering.neighborhood_members_max"] = (max(members, default=0), "count")
    reports = [r.seed_reports for r in wl.results] or [()]
    out["filtering.seeds"] = (statistics.fmean(len(r) for r in reports), "count")
    out["filtering.seeds_accepted"] = (
        statistics.fmean(sum(x.accepted for x in r) for r in reports), "count")
    out["fileio.bytes_written"] = (wl.bytes_written, "bytes")
    out["machine.ref_loop_s"] = (statistics.median(ref_s), "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def run(args, tracer, workdir, spec=None):
    """Set up, warm up and check, then time rounds for args.seconds."""
    traced_mode = tracer.enabled
    wl = make_workload(args.workload, args.seed, tracer, workdir, spec)
    wl.setup()
    setup_done = time.perf_counter()
    tracer.enabled = False
    clock = HostClock(tracer)

    outs, _, failed = play_round(wl, clock)
    attempted = wl.pairs_per_round
    correct = failed == 0 and _checked(wl.check, outs)

    times = {False: [], True: []}
    start, r = time.perf_counter(), 1
    while time.perf_counter() - start < args.seconds or (traced_mode and r < 3):
        traced = traced_mode and r % 2 == 0
        tracer.enabled, tracer.round = traced, r
        mark = clock.mark()
        outs, wall, nfail = play_round(wl, clock)
        tracer.enabled = False
        attempted += wl.pairs_per_round
        failed += nfail
        if correct and not nfail:
            correct = _checked(wl.check_same, outs)
        if traced and correct:
            tracer.enabled = True
            wl.replay_round(clock)
            tracer.enabled = False
        scale = clock.scale_since(mark)
        if wall is not None:
            times[traced].append(wall * scale)
        r += 1
    if not times[False] or (traced_mode and not times[True]):
        raise RuntimeError("no round completed without a failed pair")

    pair_s = statistics.median(times[False])
    if traced_mode:
        traced_rounds = set(range(2, r, 2))
        overhead = statistics.median(times[True]) - pair_s
        metrics = layer_metrics(wl, tracer, traced_rounds, overhead, clock.ref_s)
    else:
        metrics = {"pair_s": (pair_s, "s"), "inliers_kept": (wl.inliers_kept, "count")}
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_done": setup_done,
        "setup_slowness": clock.slowness[0],
    }
