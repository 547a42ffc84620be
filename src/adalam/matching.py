"""Nearest-neighbor descriptor matching and the simple baseline filters.

Search is exact brute force over Euclidean distances. One kernel,
`_nearest`, serves `nn_match` and the reverse search of
`mutual_nn_filter`:

- Both descriptor sets are first multiplied by one shared power of two,
  so that every component lies in (-1, 1). This is exact in float64 and
  keeps the float32 scores below from overflowing or underflowing, so no
  descriptor range is refused.
- Candidates are screened on float32 scores `a·b - ‖b‖²/2`, whose
  maximum is the nearest neighbor; each row keeps its top 2.
- The first set is processed in blocks of 256 rows: each block is
  prescaled and cast on its own, and its scores fill one float32 buffer
  of 256 × (second-set size) that is allocated once. Working memory thus
  does not grow with the first set; only the second set is held whole,
  in float64 and float32, because the refinement gathers from it.
- The candidates' distances are recomputed by `_sq_dist`, the explicit
  float64 differences `sum((b - a)**2)`, and ordered by the one rule
  (distance, index): an `np.lexsort` with the index as secondary key.
- A rounding bound e_i guards the screening by one rule: a row of the
  second set can be one of the two nearest only if its float32 score is
  at least the 2nd candidate's less 2·e_i. Where another row passes this
  floor, the row is recomputed the same way against all that pass it,
  and its two nearest are picked in the same order.

The result is exact: the nearest index, its distance and the ratio are
those of explicit float64 differences with ties broken by the smaller
index, whatever the float32 rounding did, and so whatever the block
size.
"""
from __future__ import annotations

import math

import numpy as np

from .core import KeypointSet, MatchSet, _check_match_range

_CHUNK = 256
_U32 = 2.0 ** -24        # unit roundoff of float32
_U64 = 2.0 ** -53        # unit roundoff of float64
_TINY32 = 2.0 ** -149    # smallest positive float32


def _check_pair(k1: KeypointSet, k2: KeypointSet):
    if k1.dim != k2.dim:
        raise ValueError(
            f"descriptor dimension mismatch: {k1.dim} vs {k2.dim}"
        )


def _screen_bound(norm_a, max_b, d):
    """Bound e_i that makes the float32 screening of `_nearest` exact.

    After the prescale every component lies in (-1, 1). For a row a of
    the first set and a row b of the second, write S = a·b - ‖b‖²/2 for
    the exact score, s for its float32 value, D = ‖a - b‖² = ‖a‖² - 2S,
    and D64 for D computed by `_sq_dist` from explicit float64
    differences. Let u be
    the float32 unit roundoff, u64 the float64 one, eta = 2**-149 the
    smallest float32, and use (1+u)**n - 1 <= expm1(n·u), which holds
    for every n.

    - Casting to float32 changes each component x by at most
      u·|x| + eta/2.
    - The float32 product of the casts, in any summation order, differs
      from a·b by at most ((1+u)**(d+2) - 1)·‖a‖·‖b‖ plus d·eta from the
      casts and d·eta/2·(1+u)**d from products that underflow.
    - ‖b‖²/2 is summed in float64 and cast, so it is off by at most
      ((1+u)·(1+u64)**d - 1)·‖b‖²/2 + eta/2.
    - The float32 subtraction adds u·(|a·b| + ‖b‖²/2), to first order.

    So |s - S| <= expm1((d+3)·u)·‖a‖·M + expm1(2u + d·u64)·M²/2 + tau
    with M = max‖b‖ and tau = 2·(d+1)·(1 + expm1((d+4)·u))·eta. The
    float64 differences give |D64 - D| <= expm1((d+2)·u64)·D, and
    D <= (‖a‖ + M)².

    The returned e_i = expm1((d+4)·u)·‖a_i‖·M + expm1(2u + d·u64)·M²
    + expm1((d+3)·u64)·(‖a_i‖ + M)²/2 + tau bounds |s - S| plus half of
    |D64 - D|. Its coefficients exceed the sums above by a margin that
    covers the float64 rounding of e_i itself and of the floor
    s_2 - 2·e_i it sets.

    Take the row's two best float32 candidates c and any row j with
    s_j < s_c - 2·e_i for both. Then S_c - S_j > 2·(e_i - max|s - S|),
    which is at least max|D64 - D|, and D_j - D_c = 2·(S_c - S_j) exceeds
    the two rows' |D64 - D| together. So D64_j > D64_c: j is not one of the
    two nearest rows by explicit float64 differences, ties included. As
    s_2 <= s_1, every row with s_j below the floor s_2 - 2·e_i is such a j.
    The bound assumes IEEE gradual underflow, NumPy's default.
    """
    c32 = math.expm1((d + 4) * _U32)
    tau = 2.0 * (d + 1) * (1.0 + c32) * _TINY32
    return (c32 * norm_a * max_b + math.expm1(2 * _U32 + d * _U64) * max_b ** 2
            + math.expm1((d + 3) * _U64) * (norm_a + max_b) ** 2 / 2 + tau)


def _sq_dist(b, idx, a):
    """Squared distances of rows b[idx] to a by explicit float64 differences,
    a (rows, d) with idx (rows, k) or a (d,) with idx (n,). The gather is the
    only temporary: a flood's recheck gathers megabytes per row."""
    diff = b[idx]
    diff -= a[..., None, :]
    return np.sum(np.square(diff, out=diff), axis=-1)


def _nearest(a: np.ndarray, b: np.ndarray):
    """Exact nearest row of b for every row of a.

    Returns (idx, dist, ratio, recheck): the nearest index, its distance,
    the ratio to the second-nearest distance (1 when that is 0, or when b
    has one row), and a mask of the rows rechecked against every row of b
    their float32 scores could not rule out. Distances are square roots of
    `_sq_dist`, ties go to the smaller index, and `_screen_bound` proves
    that the float32 screening cannot change them.
    """
    n1, d = a.shape
    n2 = b.shape[0]
    amax = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    shift = int(np.frexp(amax)[1])
    b = np.ldexp(b, -shift)
    b32 = b.astype(np.float32)
    sq_b = np.einsum("ij,ij->i", b, b)
    half32 = (0.5 * sq_b).astype(np.float32)
    max_b = math.sqrt(np.max(sq_b))
    k = min(2, n2)

    idx = np.empty(n1, dtype=np.int64)
    sq = np.empty((n1, k), dtype=np.float64)
    recheck = np.zeros(n1, dtype=bool)
    buf = np.empty((min(_CHUNK, n1), n2), dtype=np.float32)
    for lo in range(0, n1, _CHUNK):
        hi = min(lo + _CHUNK, n1)
        block = np.ldexp(a[lo:hi], -shift)
        bound = _screen_bound(np.sqrt(np.einsum("ij,ij->i", block, block)), max_b, d)
        score = np.matmul(block.astype(np.float32), b32.T, out=buf[:hi - lo])
        score -= half32
        rows = np.arange(hi - lo)
        cand = np.empty((hi - lo, k), dtype=np.int64)
        for c in range(k):  # floor ends as the 2nd candidate's score less 2·e_i
            cand[:, c] = score.argmax(axis=1)
            floor = score[rows, cand[:, c]] - 2.0 * bound
            score[rows, cand[:, c]] = -np.inf
        if n2 > k:
            recheck[lo:hi] = score.max(axis=1) >= floor
        dd = _sq_dist(b, cand, block)
        for r in np.flatnonzero(recheck[lo:hi]):
            # The candidates' scores are -inf by now: the index sets are disjoint.
            near = np.concatenate((cand[r], np.flatnonzero(score[r] >= floor[r])))
            full = _sq_dist(b, near, block[r])
            pick = np.lexsort((near, full))[:k]
            cand[r], dd[r] = near[pick], full[pick]
        order = np.lexsort((cand, dd), axis=1)
        idx[lo:hi] = cand[rows, order[:, 0]]
        sq[lo:hi] = np.take_along_axis(dd, order, axis=1)

    best, second = np.sqrt(sq[:, 0]), np.sqrt(sq[:, -1])
    ratio = np.divide(best, second, out=np.ones(n1), where=second > 0.0)
    return idx, np.ldexp(best, shift), ratio, recheck


def nn_match(k1: KeypointSet, k2: KeypointSet) -> MatchSet:
    """Match every keypoint of k1 to its nearest neighbor in k2.

    Returns one match per k1 keypoint with the nearest descriptor distance
    and the ratio to the second-nearest distance (1 when they coincide).
    """
    _check_pair(k1, k2)
    if len(k2) < 2:
        raise ValueError("nn_match: need at least 2 keypoints in the second set")
    idx2, dist, ratio, _ = _nearest(k1.desc, k2.desc)
    return MatchSet(np.arange(len(k1), dtype=np.int64), idx2, dist, ratio)


def ratio_test_filter(matches: MatchSet, threshold: float) -> MatchSet:
    """Keep matches with ratio <= threshold, preserving input order."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("ratio_test_filter: threshold must lie in (0, 1]")
    return matches.take(matches.ratio <= threshold)


def mutual_nn_filter(k1: KeypointSet, k2: KeypointSet, matches: MatchSet) -> MatchSet:
    """Keep match (i -> j) iff i is also the nearest neighbor of j in k1.

    Expects matches produced by nn_match(k1, k2). The reverse search is
    the same exact search, so its ties are broken by the smaller k1
    index. A match index beyond k1 or k2 raises ValueError.
    """
    _check_pair(k1, k2)
    _check_match_range("mutual_nn_filter", matches, k1, k2)
    if len(matches) == 0:
        return matches
    js, inverse = np.unique(matches.idx2, return_inverse=True)
    nn21 = _nearest(k2.desc[js], k1.desc)[0]
    return matches.take(nn21[inverse] == matches.idx1)
