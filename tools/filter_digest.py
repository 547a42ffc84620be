"""Print digests of adalam_filter's output over a fixed matrix of scenes.

    PYTHONPATH=src python3 tools/filter_digest.py > digest.txt

The matrix is 35 scenes, each run with 8 parameter sets (280 runs):
4 filter-dense-shaped scenes, 10 mixed ones (640x480 to 1240x930, noise
0 to 2, some not frame-consistent), 10 tie-heavy ones (positions
quantised to 1, 4 or 16 px, 30% of positions duplicated, all-equal or
0.1-rounded ratios), 4 noise-free ones shifted by 1e7 px and 7 collinear
inputs of 1 to 7 matches. Each run prints one line: the scene, the
parameter set, the SHA-256 of `selected` (with its dtype) and the SHA-256
of repr(seed_reports). Two trees filter identically on the matrix when
their outputs diff empty. The output of the code as it stands is committed
as tools/filter_digest.golden, and CI diffs against it; a change that moves
a line on purpose updates that file and says which lines moved.

It then runs the matrix again with one seed per membership pass
(filtering._GROUP = 1). A line that differs from the first pass means that
the grouping of seeds changed an output: the line goes to stderr and the
exit status is 1.
"""
from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from adalam import AdalamParams, ImageSize, KeypointSet, MatchSet, adalam_filter
from adalam import filtering
from adalam.synth import SynthConfig, generate_scene

PARAM_SETS = (
    ("defaults", AdalamParams()),
    ("no-side-info", AdalamParams(t_alpha=math.inf, t_sigma=math.inf)),
    ("no-refit", AdalamParams(use_refit=False)),
    ("fixed-5", AdalamParams(fixed_threshold=5.0)),
    ("t_n-2", AdalamParams(t_n=2)),
    ("iterations-7", AdalamParams(iterations=7)),
    ("lam-1", AdalamParams(lam=1.0, t_n=2)),
    ("lam-1.2-no-side", AdalamParams(lam=1.2, t_alpha=math.inf, t_sigma=math.inf)),
)


def _scene(size, patches, per_patch, outliers, seed, noise=0.5, frame_consistent=True):
    sc = generate_scene(SynthConfig(size, size, patches, per_patch, outliers,
                                    noise_sigma=noise, rng_seed=seed,
                                    frame_consistent=frame_consistent))
    return sc.k1, sc.k2, size, sc.matches


def _with_xy(kp, xy):
    return KeypointSet(xy, kp.sigma, kp.alpha, kp.desc)


def _tie_heavy(k):
    rng = np.random.default_rng(1000 + k)
    k1, k2, size, matches = _scene(ImageSize(800, 600), 6, 30, 150, 200 + k)
    quantum = (1.0, 4.0, 16.0)[k % 3]
    kps = []
    for kp in (k1, k2):
        xy = np.round(kp.xy / quantum) * quantum
        dup = rng.choice(len(kp), int(0.3 * len(kp)), replace=False)
        xy[dup] = xy[rng.integers(0, len(kp), dup.shape[0])]
        kps.append(_with_xy(kp, xy))
    ratio = np.full(len(matches), 0.5) if k % 2 else np.round(matches.ratio, 1)
    return (*kps, size, MatchSet(matches.idx1, matches.idx2, matches.dist, ratio))


def _shifted(k):
    k1, k2, size, matches = _scene(ImageSize(1000, 1000), 8, 40, 300, 300 + k, noise=0.0)
    return _with_xy(k1, k1.xy + 1e7), _with_xy(k2, k2.xy + 1e7), size, matches


def _collinear(n):
    x = 10.0 + 37.0 * np.arange(n)
    xy1 = np.column_stack([x, 2.0 * x + 5.0])
    xy2 = xy1 @ np.array([[1.1, 0.2], [-0.1, 0.9]]).T + 3.0
    kps = [KeypointSet(xy, np.ones(n), np.zeros(n), np.zeros((n, 2))) for xy in (xy1, xy2)]
    matches = MatchSet(np.arange(n), np.arange(n), np.zeros(n), np.linspace(0.1, 0.6, n))
    return (*kps, ImageSize(400, 600), matches)


def scenes():
    """(name, (k1, k2, size, matches)) for every scene of the matrix."""
    for k in range(4):
        yield f"dense-{k}", _scene(ImageSize(1000, 1000), 30, 160, 4800, 101 + k)
    for k in range(10):
        w = 640 + 600 * k // 9
        yield f"mixed-{k}", _scene(ImageSize(w, w * 3 // 4), 3 + k, 20 + 5 * k,
                                   100 + 50 * k, 100 + k, noise=(0.0, 0.5, 1.0, 2.0)[k % 4],
                                   frame_consistent=k % 3 != 2)
    for k in range(10):
        yield f"ties-{k}", _tie_heavy(k)
    for k in range(4):
        yield f"shifted-{k}", _shifted(k)
    for n in range(1, 8):
        yield f"collinear-{n}", _collinear(n)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines():
    """One line per (scene, parameter set) run of the matrix."""
    for name, (k1, k2, size, matches) in scenes():
        for pname, params in PARAM_SETS:
            result = adalam_filter(k1, k2, size, size, matches, params)
            sel = result.selected
            yield (f"{name} {pname} {_sha(sel.dtype.str.encode() + sel.tobytes())} "
                   f"{_sha(repr(result.seed_reports).encode())}")


def main() -> int:
    lines = []
    for line in digest_lines():
        print(line)
        lines.append(line)
    filtering._GROUP = 1
    seams = [line for line, alone in zip(lines, digest_lines()) if alone != line]
    for line in seams:
        print(f"differs with filtering._GROUP = 1: {line}", file=sys.stderr)
    return 1 if seams else 0


if __name__ == "__main__":
    raise SystemExit(main())
