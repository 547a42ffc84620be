"""Hierarchical adaptive locally-affine match filtering.

Pipeline: select well-spread confident seed matches by score NMS, gather a
neighborhood of compatible correspondences around each seed, then verify
each neighborhood with a deterministic fixed-budget RANSAC over centered
2x2 affine models, marking inliers by statistical significance against a
uniform-outlier null model instead of a fixed pixel threshold.

Spatial lookups use square grids over image-1 positions, in plain NumPy:
cells just under r1 / sqrt(2) wide for the seed NMS and, for neighbourhood
candidates whose exact gates come after, the wider of those and cells just
over lam * r1 / 2. Either way the 5x5 block around a match holds its disk.

adalam_filter gates the candidates of consecutive seeds in groups of at most
_GROUP (candidate, seed) pairs, one membership pass per group, so that peak
memory does not grow with seeds x matches. Each seed's neighbourhood is then
verified on its own. Minimal-sample models and least-squares refits share
one 2x2 solve; a model's score is its inlier count, closing residual (its
inliers are the members at or below it) and worst-inlier confidence. Each
distinct refit model is scored once, with the same bits, as NumPy's
elementwise operations are correctly rounded.

All stages are pure functions of immutable inputs, and each seed's outcome
is independent of the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AdalamParams,
    AffineModel,
    FilterResult,
    ImageSize,
    KeypointSet,
    MatchSet,
    Neighborhood,
    Seed,
    SeedReport,
    _check_match_range,
    _sorted_unique,
    _wrap_angle,
)

_DEGEN_REL = 1e-9      # minimal-sample degeneracy: |det| vs max source norm^2
_SCATTER_REL = 1e-12   # least-squares scatter rank test: det vs trace^2
_GRID_SLACK = 1e-5     # relative margin of grid cell sides over rounding
_GRID_MAX_CELLS = 2**31  # cells per axis: int64 keys, rounding << _GRID_SLACK
_GROUP = 2**14         # (candidate, seed) pairs per membership pass, beyond one seed's


@dataclass(frozen=True)
class IterationOutcome:
    """Best verification iteration of one seed."""

    iteration_index: int
    model: AffineModel
    inlier_member_indices: np.ndarray  # indices into the neighborhood member list
    confidence_of_worst_inlier: float


def compute_radius(size: ImageSize, area_ratio: float) -> float:
    """Suppression radius R with R^2 * pi * area_ratio = image area."""
    if not 0 < area_ratio < math.inf:
        raise ValueError("compute_radius: area_ratio must be > 0")
    return math.sqrt(size.area / (math.pi * area_ratio))


def _grid_keys(pos, side):
    """Cell keys of positions (2, m) on a square grid of cells of this side.

    The key of cell (cx, cy) is cx * width + cy + 2, so the cell dx, dy
    away has key + dx * width + dy for |dx|, |dy| <= 2. Returns (keys,
    width). Positions spanning more than _GRID_MAX_CELLS cells on an axis
    raise ValueError: beyond that, keys could overflow int64 and rounding
    of the cell coordinates could reach the cells' _GRID_SLACK margin.
    """
    lo = pos.min(axis=1)
    with np.errstate(all="ignore"):  # an infinite or NaN cell count is refused below
        span = pos.max(axis=1) - lo
        if not np.all(span / side < _GRID_MAX_CELLS):
            raise ValueError(
                f"keypoint positions span {span[0]:g} x {span[1]:g} px, more than "
                f"{_GRID_MAX_CELLS} grid cells of side {side:g} px"
            )
    cell = np.floor((pos - lo[:, None]) / side).astype(np.int64)
    width = int(cell[1].max()) + 5
    return cell[0] * width + (cell[1] + 2), width


def _block(skey, keys, width):
    """Index ranges into the sorted grid keys skey of the 5x5 block of cells
    around each of keys: (lo, lens), each (n, 5), one range per block row."""
    rows = keys[:, None] + width * np.arange(-2, 3)
    lo = np.searchsorted(skey, rows - 2, side="left")
    return lo, np.searchsorted(skey, rows + 2, side="right") - lo


def _ranges(lo, lens):
    """Concatenation of the index ranges lo[i] : lo[i] + lens[i]."""
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _within(pos, a, b, r):
    """Whether positions pos[:, b] lie within r of pos[:, a]: dx*dx + dy*dy <= r*r."""
    d = np.take(pos, b, axis=1) - np.take(pos, a, axis=1)
    d *= d
    return d[0] + d[1] <= r * r


def select_seeds(matches: MatchSet, k1: KeypointSet, r1: float) -> np.ndarray:
    """Non-maximum suppression of matches by confidence over image-1 positions.

    A match survives iff no other match within radius r1 (inclusive, by
    dx*dx + dy*dy <= r1*r1) has strictly higher confidence 1 - ratio, with
    score ties won by the lower match index. Returns the surviving match
    indices, sorted ascending. Positions spanning more than 2**31 cells of
    side r1 / sqrt(2) on an axis raise ValueError (see _grid_keys), as does
    an idx1 beyond k1.

    Matches are binned on a grid of cells just under r1 / sqrt(2) wide, so
    two matches in one cell are always within r1 and only each cell's best
    match can survive. The 5x5 block of cells around a cell best holds every
    match within r1 of it, and only the block's better cells, whose best
    outranks it, can hold one that outranks it. Phase 1 tests each cell best
    against the bests of its better cells, which needs no gather. Phase 2
    tests the cell bests left standing against the other matches of their
    better cells that outrank them: in rank order, a prefix of each cell.
    """
    if not 0 < r1 < math.inf:
        raise ValueError("select_seeds: r1 must be > 0")
    _check_match_range("select_seeds", matches, k1)
    m = len(matches)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    pos = np.ascontiguousarray(k1.xy[matches.idx1].T)
    # rank 0 is the most confident match; equal confidences rank by index.
    by_rank = np.argsort(-(1.0 - matches.ratio), kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_rank] = np.arange(m)
    key, width = _grid_keys(pos, r1 * (1.0 - _GRID_SLACK) / math.sqrt(2.0))
    order = by_rank[np.argsort(key[by_rank], kind="stable")]  # by cell, then rank
    skey = key[order]
    first = np.r_[True, skey[1:] != skey[:-1]]
    start = np.flatnonzero(first)
    cells = skey[start]
    best = order[start]
    best_rank = rank[best]

    lo, lens = _block(cells, cells, width)
    cell = np.repeat(np.arange(cells.shape[0]), lens.sum(axis=1))
    other = _ranges(lo.ravel(), lens.ravel())
    better = best_rank[other] < best_rank[cell]
    cell, other = cell[better], other[better]  # each (cell, better cell) pair, by ordinal
    suppressed = np.zeros(cells.shape[0], dtype=bool)  # phase 1
    suppressed[cell[_within(pos, best[cell], best[other], r1)]] = True
    # Phase 2. Keys ordinal * m + rank increase along `order` and stay below
    # m**2; the matches of cell c that outrank rank r end before key c * m + r.
    cell, other = cell[~suppressed[cell]], other[~suppressed[cell]]
    lo = start[other] + 1
    lens = np.searchsorted((np.cumsum(first) - 1) * m + rank[order],
                           other * m + best_rank[cell]) - lo
    owner = np.repeat(cell, lens)
    suppressed[owner[_within(pos, best[owner], order[_ranges(lo, lens)], r1)]] = True
    return np.sort(best[~suppressed])


def _transform_arrays(matches: MatchSet, k1: KeypointSet, k2: KeypointSet):
    """Per-match positions, transposed to (2, m), and induced similarity
    transform components."""
    x1 = np.ascontiguousarray(k1.xy[matches.idx1].T)
    x2 = np.ascontiguousarray(k2.xy[matches.idx2].T)
    alpha_t = _wrap_angle(k2.alpha[matches.idx2] - k1.alpha[matches.idx1])
    logsig_t = np.log(k2.sigma[matches.idx2]) - np.log(k1.sigma[matches.idx1])
    return x1, x2, alpha_t, logsig_t


def _members(cand, owner, seeds, arrays, ratio, lam_r1, lam_r2, params):
    """Neighborhood members of a group of seeds among (candidate, seed) pairs.

    Pair k is match cand[k] and seed seeds[owner[k]]; no pair may repeat.
    arrays is the tuple from _transform_arrays. A candidate is a member when
    it passes the spatial gates of both images and the orientation and
    scale gates (inf opens a gate). Each seed is its own member: its
    distance, orientation offset and log-scale offset to itself are 0, and
    every gate's threshold is positive.
    Returns (members, bounds, centered1, centered2): seed j's members are
    members[bounds[j]:bounds[j + 1]], ordered by ratio ascending, ties by
    match index, and the same rows of the column-major (n, 2) centered1 and
    centered2 hold their positions relative to the seed's in each image.
    """
    x1, x2, alpha_t, logsig_t = arrays
    si = seeds[owner]
    near = _within(x1, si, cand, lam_r1)
    cand, owner, si = cand[near], owner[near], si[near]
    ok = _within(x2, si, cand, lam_r2)
    ok &= np.abs(_wrap_angle(alpha_t[si] - alpha_t[cand])) <= params.t_alpha
    ok &= np.abs(logsig_t[si] - logsig_t[cand]) <= params.t_sigma
    cand, owner = cand[ok], owner[ok]
    order = np.lexsort((cand, ratio[cand], owner))
    members, owner = cand[order], owner[order]
    si = seeds[owner]
    bounds = np.searchsorted(owner, np.arange(seeds.shape[0] + 1))
    c1, c2 = ((np.take(x, members, axis=1) - np.take(x, si, axis=1)).T for x in (x1, x2))
    return members, bounds, c1, c2


def assemble_neighborhood(
    seed: Seed,
    matches: MatchSet,
    k1: KeypointSet,
    k2: KeypointSet,
    params: AdalamParams,
) -> Neighborhood:
    """Collect the matches compatible with a seed correspondence.

    A match joins the neighborhood when it lies within lam * r1 of the seed
    in image 1 and lam * r2 in image 2, and its induced orientation offset
    and log scale ratio agree with the seed's within t_alpha and t_sigma
    (inf opens a gate). Members come out sorted by ratio ascending, ties by
    match index. The seed is always a member, as it passes its own gates:
    every offset to itself is 0 and every threshold is positive. A match
    index beyond k1 or k2 raises ValueError.
    """
    si = int(seed.match_index)
    m = len(matches)
    if not (0 <= si < m):
        raise ValueError("assemble_neighborhood: seed match index out of range")
    _check_match_range("assemble_neighborhood", matches, k1, k2)
    members, _, centered1, centered2 = _members(
        np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64), np.array([si]),
        _transform_arrays(matches, k1, k2), matches.ratio,
        params.lam * seed.r1, params.lam * seed.r2, params,
    )
    return Neighborhood(seed, members, centered1, centered2)


def fit_affine_minimal(u_p, v_p, u_q, v_q) -> Optional[AffineModel]:
    """Fit the 2x2 map sending u_p -> v_p and u_q -> v_q.

    Points are seed-centered. Returns None when the source points are
    (nearly) collinear with the origin and no unique model exists.
    """
    u_p = np.asarray(u_p, dtype=np.float64)
    u_q = np.asarray(u_q, dtype=np.float64)
    v_p = np.asarray(v_p, dtype=np.float64)
    v_q = np.asarray(v_q, dtype=np.float64)
    det = u_p[0] * u_q[1] - u_p[1] * u_q[0]
    lim = _DEGEN_REL * max(u_p @ u_p, u_q @ u_q)
    if abs(det) < lim or det == 0.0:
        return None
    # A = [v_p v_q] [u_p u_q]^-1 in column form.
    inv = np.array([[u_q[1], -u_q[0]], [-u_p[1], u_p[0]]]) / det
    a = np.column_stack([v_p, v_q]) @ inv
    return AffineModel.from_matrix(a)


def fit_affine_lsq(u, v) -> Optional[AffineModel]:
    """Least-squares 2x2 map minimizing sum ||A u_k - v_k||^2.

    Solved through the 2x2 normal equations of the source scatter matrix.
    Returns None when the scatter matrix is rank deficient.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 2 or u.shape != v.shape or u.shape[0] < 2:
        raise ValueError("fit_affine_lsq: need matching (m, 2) arrays with m >= 2")
    sxx = float(u[:, 0] @ u[:, 0])
    sxy = float(u[:, 0] @ u[:, 1])
    syy = float(u[:, 1] @ u[:, 1])
    det = sxx * syy - sxy * sxy
    if det <= _SCATTER_REL * (sxx + syy) ** 2:
        return None
    b = v.T @ u  # 2x2, rows are target coords
    inv = np.array([[syy, -sxy], [-sxy, sxx]]) / det
    return AffineModel.from_matrix(b @ inv)


def _residuals(a, u, v):
    """Residuals ||A_t u_k - v_k|| of models a (t, 2, 2) on members (m, 2) -> (t, m)."""
    ux, uy = u[:, 0], u[:, 1]
    dx = np.multiply(a[:, 0, 0, None], ux)
    tmp = np.multiply(a[:, 0, 1, None], uy)
    dx += tmp
    dx -= v[:, 0]
    dy = np.multiply(a[:, 1, 0, None], ux)
    np.multiply(a[:, 1, 1, None], uy, out=tmp)
    dy += tmp
    dy -= v[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _confidences(rs, r2):
    """Per-rank confidence of residuals sorted ascending along the last axis."""
    m = rs.shape[-1]
    rs = np.maximum(rs, AdalamParams.eps_residual * r2)
    den = np.multiply(m, rs)
    den *= rs
    return np.divide(np.arange(1, m + 1) * r2 * r2, den, out=den)


def residuals(model: AffineModel, neighborhood: Neighborhood) -> np.ndarray:
    """Per-member reprojection residual ||A u_k - v_k|| in pixels."""
    nb = neighborhood
    return _residuals(model.as_matrix()[None], nb.centered1, nb.centered2)[0]


def confidences(resid, r2: float):
    """Rank members by residual and score each against the uniform null.

    Returns (order, conf): member indices sorted by residual ascending, with
    equal residuals ranked by member index, and, per rank k, the ratio
    between the observed inlier count k+1 and the count expected from
    uniformly scattered outliers within radius r2 at the same residual.
    Residuals are clamped below at AdalamParams.eps_residual * r2 first.
    """
    if not 0 < r2 < math.inf:
        raise ValueError("confidences: r2 must be > 0")
    resid = np.asarray(resid, dtype=np.float64)
    order = np.argsort(resid, kind="stable")
    return order, _confidences(resid[order], r2)


def select_inliers(order, conf, resid, t_c: float, fixed_threshold=None) -> np.ndarray:
    """Pick the inlier prefix of the residual-sorted member order.

    Adaptive mode: the prefix runs through the largest rank whose confidence
    reaches t_c (empty when none qualifies). Fixed mode: all members with
    residual <= fixed_threshold. Returns member indices in rank order.
    """
    order = np.asarray(order)
    conf = np.asarray(conf, dtype=np.float64)
    resid = np.asarray(resid, dtype=np.float64)
    if fixed_threshold is not None:
        count = int(np.searchsorted(resid[order], fixed_threshold, side="right"))
    else:
        qual = np.nonzero(conf >= t_c)[0]
        count = int(qual[-1]) + 1 if qual.size else 0
    return order[:count]


def _prosac_pairs(u, budget):
    """First `budget` non-degenerate minimal samples in deterministic order.

    Members are assumed sorted by confidence descending (ratio ascending).
    Pairs are enumerated as (i, n) for n = 1, 2, ... and i = 0 .. n-1, so
    the most confident samples are explored first. Degenerate pairs are
    skipped without consuming budget. Returns (p_idx, q_idx, det) arrays,
    det being each pair's u_p x u_q.
    """
    m = u.shape[0]
    norms2 = np.einsum("ij,ij->i", u, u)
    # The pairs among the first n members, in the order above, are the
    # nonzeros of the strictly lower triangle (np.tril_indices, minus its
    # overhead). Start from the fewest members whose pairs, leaving out the
    # seed's, which sits at the origin and is always degenerate, number
    # `budget`, and double.
    n = min(m, (math.isqrt(8 * budget) + 5) // 2)
    while True:
        j, i = np.nonzero(np.tri(n, k=-1, dtype=bool))
        det = u[i, 0] * u[j, 1] - u[i, 1] * u[j, 0]
        lim = _DEGEN_REL * np.maximum(norms2[i], norms2[j])
        ok = np.flatnonzero((np.abs(det) >= lim) & (det != 0.0))[:budget]
        if ok.shape[0] == budget or n == m:
            return i[ok], j[ok], det[ok]
        n = min(2 * n, m)


def _score_models(a, u, v, r2, params):
    """Score models a (t, 2, 2) on members u -> v.

    Returns resid (t, m) and per model: counts, the inlier prefix length in
    residual order; closing, the count-th smallest residual (-inf if none);
    worst, the confidence at that rank (NaN if none). An equal residual ranks
    higher, so it has no lower confidence and passes the same threshold: the
    inliers are exactly the members with resid <= closing.
    """
    resid = _residuals(a, u, v)
    rs = np.sort(resid, axis=1)
    conf = _confidences(rs, r2)
    if params.fixed_threshold is not None:
        counts = (rs <= params.fixed_threshold).sum(axis=1)
    else:
        qual = conf >= params.t_c
        last = conf.shape[1] - np.argmax(qual[:, ::-1], axis=1)
        counts = np.where(qual.any(axis=1), last, 0)
    at = np.arange(rs.shape[0]) * rs.shape[1] + counts - 1  # flat index of rank count - 1
    closing, worst = rs.take(at), conf.take(at)
    closing[counts == 0], worst[counts == 0] = -np.inf, np.nan
    return resid, counts, closing, worst


def _solve(b, s, det):
    """X with X s = b on (t, 2, 2) batches, det being det(s): b @ adj(s) / det,
    whose entry (r, c) is (b[r, c] s[1-c, 1-c] - b[r, 1-c] s[1-c, c]) / det."""
    diag = s.diagonal(0, 1, 2)[:, None, ::-1]     # s[1-c, 1-c] by column c
    off = s[:, ::-1].diagonal(0, 1, 2)[:, None]   # s[1-c, c]
    return (b * diag - b[:, :, ::-1] * off) / det[:, None, None]


def _refit_models(a, u, v, mask):
    """One least-squares refit per iteration on its inlier mask (t, m).

    Iterations whose inlier scatter fails the rank test keep their
    minimal-sample model, as does every mask of fewer than two inliers: one
    member's scatter has det within rounding of 0. Returns the new batch.
    """
    # Per member, u u^T's 3 distinct entries and v u^T's 4, in C order: the bits
    # of the sums depend on the layout, and in gemv (t = 1) on the column count.
    prods = np.empty((u.shape[0], 7))
    prods[:, :3] = u[:, [0, 0, 1]] * u[:, [0, 1, 1]]
    prods[:, 3:] = (v[:, :, None] * u[:, None, :]).reshape(-1, 4)
    sums = mask.astype(np.float64) @ prods
    s = sums[:, [0, 1, 1, 2]].reshape(-1, 2, 2)  # per model: sum of u u^T
    b = sums[:, 3:].reshape(-1, 2, 2)            # and of v u^T
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    ok = det > _SCATTER_REL * (s[:, 0, 0] + s[:, 1, 1]) ** 2
    a = a.copy()
    a[ok] = _solve(b[ok], s[ok], det[ok])
    return a


def _distinct_models(a):
    """Distinct models of a batch a (t, 2, 2), told apart by their bits.

    Returns (first, rows): the first row holding each distinct model, in
    increasing order of bits, and per row the index into first of its model.
    """
    keys = a.reshape(a.shape[0], 4).view(np.dtype((np.void, 32)))[:, 0]  # 4 float64s
    _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
    return first, rows


def _verify(u, v, r2, params: AdalamParams):
    """Run the deterministic verification on seed-centered members u -> v.

    Returns (best_iteration, best_count, model, inliers, worst_conf): the
    winning iteration (-1 when no sample pair is non-degenerate, as with one
    member) and its inlier count; for an accepted seed also its 2x2 model,
    its inlier member indices in ascending order and the confidence of its
    worst inlier. These three are None when the seed is rejected.
    """
    p_idx, q_idx, det = _prosac_pairs(u, params.iterations)
    t = p_idx.shape[0]
    if t == 0:
        return -1, 0, None, None, None
    # A = [v_p v_q] [u_p u_q]^-1, with the sample's points as columns.
    pq = np.array([p_idx, q_idx])
    a = _solve(v[pq].transpose(1, 2, 0), u[pq].transpose(1, 2, 0), det)
    resid, counts, closing, worst = _score_models(a, u, v, r2, params)
    rows = np.arange(t)  # the scored row of each iteration

    if params.use_refit:
        # Rows with equal model bits get equal scores, as every operation
        # is elementwise and correctly rounded: score each distinct model once.
        a = _refit_models(a, u, v, resid <= closing[:, None])
        first, rows = _distinct_models(a)
        resid, counts, closing, worst = _score_models(a[first], u, v, r2, params)

    best = int(np.argmax(counts[rows]))
    k = rows[best]
    best_count = int(counts[k])
    if best_count < params.t_n:
        return best, best_count, None, None, None
    return best, best_count, a[best], np.flatnonzero(resid[k] <= closing[k]), float(worst[k])


def verify_seed(neighborhood: Neighborhood, params: AdalamParams) -> Optional[IterationOutcome]:
    """Verify one neighborhood; None means the seed is rejected.

    Minimal samples are drawn in a deterministic confidence-first order over
    the ratio-sorted members, up to params.iterations non-degenerate pairs.
    Each sample is scored by its adaptive inlier prefix in residual order
    (equal residuals rank by member index), optionally refit once by least
    squares on the inliers, and the iteration with the highest final inlier
    count wins (ties to the earlier iteration). Seeds are rejected below t_n
    final inliers or with fewer than two members.
    """
    nb = neighborhood
    best, _, model, inliers, worst = _verify(
        nb.centered1, nb.centered2, nb.seed.r2, params
    )
    if inliers is None:
        return None
    return IterationOutcome(best, AffineModel.from_matrix(model), inliers, worst)


def adalam_filter(
    k1: KeypointSet,
    k2: KeypointSet,
    size1: ImageSize,
    size2: ImageSize,
    matches: MatchSet,
    params: Optional[AdalamParams] = None,
) -> FilterResult:
    """Filter putative matches by hierarchical adaptive affine verification.

    Returns the sorted union of the inliers of all accepted seeds, plus one
    diagnostic record per seed. The result equals running select_seeds,
    assemble_neighborhood and verify_seed on every seed in turn. Positions
    spanning more than 2**31 cells of side r1 / sqrt(2) on an axis raise
    ValueError, as in select_seeds, and so does a match index beyond k1 or k2.
    """
    if params is None:
        params = AdalamParams()
    if len(matches) == 0:
        return FilterResult(np.zeros(0, dtype=np.int64), ())
    _check_match_range("adalam_filter", matches, k1, k2)

    r1 = compute_radius(size1, params.area_ratio)
    r2 = compute_radius(size2, params.area_ratio)
    arrays = _transform_arrays(matches, k1, k2)
    lam_r1 = params.lam * r1
    lam_r2 = params.lam * r2
    seeds = select_seeds(matches, k1, r1)

    # Neighbourhood candidates: with cells at least lam * r1 / 2 wide, the 5x5 block
    # around a seed's cell covers its lam * r1 disk; _members applies the exact
    # gates. No finer than the seed grid, this grid adds no span limit of its own.
    side = max(lam_r1 * (1.0 + _GRID_SLACK) / 2.0, r1 * (1.0 - _GRID_SLACK) / math.sqrt(2.0))
    key, width = _grid_keys(arrays[0], side)
    order = np.argsort(key)
    lo, lens = _block(key[order], key[seeds], width)
    per_seed = lens.sum(axis=1)
    ends = np.cumsum(per_seed)

    reports = []
    kept = [np.zeros(0, dtype=np.int64)]
    g0 = 0
    while g0 < seeds.shape[0]:
        # The run of consecutive seeds from g0 with at most _GROUP candidates
        # in all; a seed with more stands alone.
        g1 = max(g0 + 1, int(np.searchsorted(ends, ends[g0] - per_seed[g0] + _GROUP,
                                             side="right")))
        at = _ranges(lo[g0:g1].ravel(), lens[g0:g1].ravel())
        owner = np.repeat(np.arange(g1 - g0), per_seed[g0:g1])
        members, bounds, u, v = _members(order[at], owner, seeds[g0:g1], arrays,
                                         matches.ratio, lam_r1, lam_r2, params)
        bounds = bounds.tolist()
        for j, si in enumerate(seeds[g0:g1].tolist()):
            b0, b1 = bounds[j], bounds[j + 1]
            best, count, _, inliers, _ = _verify(u[b0:b1], v[b0:b1], r2, params)
            reports.append(SeedReport(si, best, count, inliers is not None))
            if inliers is not None:
                kept.append(members[b0:b1][inliers])
        g0 = g1
    return FilterResult(selected=_sorted_unique(np.concatenate(kept)), seed_reports=reports)
