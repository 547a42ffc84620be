"""Print digests of the matcher's output over a fixed set of cases.

    PYTHONPATH=src python3 tools/match_digest.py > digest.txt

Each case runs `matching._nearest`, the kernel of `nn_match` and
`mutual_nn_filter`, and prints one line: the case, the SHA-256 of its
nearest indices, distances and ratios (with their dtypes), and the number
of rows whose screening was rechecked. The cases are

- 36 descriptor pairs: six kinds (Gaussian rows, rows rounded to
  integers, half the second set one repeated row, Gaussian rows scaled by
  2**600, rows 1e-9 apart, and Gaussian rows plus one shared offset of
  about 30 per component, so that ‖b‖²/2 dwarfs the score gaps) at six
  shapes with n1 and n2 from 1 to 700 and d in {2, 3, 16, 128};
- second sets of 1, 2 and 3 rows;
- first sets of 255, 256, 257 and 513 rows, around the 256-row blocks,
  with rows planted a hair apart in the second and third blocks;
- the descriptors of two pair-8k-shaped scenes (4000 x 3000, 20 x 100
  inliers and 6000 outliers, 128-d), scene seeds 101 and 102.

Two trees match identically on these cases when their outputs diff empty.
The output of the code as it stands is committed as
tools/match_digest.golden, and CI diffs against it; a change that moves a
line on purpose updates that file and says which lines moved.

It then runs the cases again in blocks of 7 rows (matching._CHUNK = 7).
A case whose nearest indices, distances or ratios differ from the first
pass goes to stderr and the exit status is 1: the block size must not
change the result. Recheck counts may differ. It runs in a few seconds.
"""
from __future__ import annotations

import hashlib
import sys

import numpy as np

from adalam import ImageSize, matching
from adalam.synth import SynthConfig, generate_scene

SHAPES = ((1, 2, 2), (7, 5, 3), (40, 60, 16), (257, 40, 2), (700, 300, 16), (300, 700, 128))
KINDS = ("gauss", "rounded", "repeated", "scaled", "near", "offset")


def _pair(kind, n1, n2, d, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = rng.normal(size=(n1, d)), rng.normal(size=(n2, d))
    if kind == "rounded":
        d1, d2 = np.round(d1), np.round(d2)
    elif kind == "repeated":
        d2[: n2 // 2] = d2[-1]
    elif kind == "scaled":
        d1, d2 = np.ldexp(d1, 600), np.ldexp(d2, 600)
    elif kind == "near":
        d2[: n2 // 2 + 1] = d2[0] + 1e-9 * rng.normal(size=(n2 // 2 + 1, d))
        d1[0] = d2[0] + 1e-9 * rng.normal(size=d)
    elif kind == "offset":
        offset = 30.0 * rng.normal(size=d)
        d1, d2 = d1 + offset, d2 + offset
    return d1, d2


def _seams(n1):
    rng = np.random.default_rng(n1)
    d1, d2 = rng.normal(size=(n1, 16)), rng.normal(size=(300, 16))
    for k, r in enumerate(r for r in (256, 300, 511, 512) if r < n1):
        d2[3 * k + 1:3 * k + 3] = d2[3 * k] + 1e-9 * rng.normal(size=(2, 16))
        d1[r] = d2[3 * k] + 1e-3 * rng.normal(size=16)
    return d1, d2


def _scene(seed):
    size = ImageSize(4000, 3000)
    sc = generate_scene(SynthConfig(size, size, 20, 100, 6000, noise_sigma=0.5,
                                    descriptor_dim=128, rng_seed=seed))
    return sc.k1.desc, sc.k2.desc


def cases():
    """(name, (d1, d2)) for every case."""
    for s, (n1, n2, d) in enumerate(SHAPES):
        for j, kind in enumerate(KINDS):
            yield f"{kind}-{n1}x{n2}x{d}", _pair(kind, n1, n2, d, 10 * s + j)
    for n2 in (1, 2, 3):
        yield f"small-{n2}", _pair("rounded", 50, n2, 2, 100 + n2)
    for n1 in (255, 256, 257, 513):
        yield f"seams-{n1}", _seams(n1)
    for seed in (101, 102):
        yield f"pair-8k-{seed}", _scene(seed)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode() + a.tobytes())
    return h.hexdigest()


def digests():
    """(name, output digest, recheck count) for every case."""
    for name, (d1, d2) in cases():
        idx, dist, ratio, recheck = matching._nearest(d1, d2)
        yield name, _sha(idx, dist, ratio), int(recheck.sum())


def main() -> int:
    first = []
    for name, sha, rechecked in digests():
        print(name, sha, rechecked)
        first.append((name, sha))
    matching._CHUNK = 7
    seams = [name for (name, sha), (_, small, _) in zip(first, digests()) if small != sha]
    for name in seams:
        print(f"differs with matching._CHUNK = 7: {name}", file=sys.stderr)
    return 1 if seams else 0


if __name__ == "__main__":
    raise SystemExit(main())
