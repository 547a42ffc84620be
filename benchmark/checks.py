"""Correctness checks that do not use the program's own code.

Each check recomputes its expectation with plain NumPy from the raw
arrays (or from text files parsed with numpy.loadtxt) and raises
CheckError when the program's output disagrees.
"""
from __future__ import annotations

import numpy as np


class CheckError(AssertionError):
    pass


def nn_oracle(desc1, desc2, rows, idx2, dist, ratio, atol=1e-9):
    """Nearest neighbours of desc1[rows] by explicit float64 differences.

    Ties break to the lower index, as the matcher promises. A reported
    neighbour that differs from the oracle's is accepted only when its
    distance ties the oracle's to within atol.
    """
    for i in rows:
        diff = desc2 - desc1[i]
        d = np.sqrt(np.sum(diff * diff, axis=1))
        order = np.argsort(d, kind="stable")
        best, second = d[order[0]], d[order[1]]
        want_ratio = best / second if second > 0 else 1.0
        j = int(idx2[i])
        if j != order[0] and not (0 <= j < d.size and abs(d[j] - best) <= atol):
            raise CheckError(f"nn oracle: row {i} matched {j}, nearest is {order[0]}")
        if abs(dist[i] - best) > atol:
            raise CheckError(f"nn oracle: row {i} dist {dist[i]!r}, expected {best!r}")
        if abs(ratio[i] - want_ratio) > atol:
            raise CheckError(f"nn oracle: row {i} ratio {ratio[i]!r}, expected {want_ratio!r}")


def same_indices(what, first, second):
    first = np.asarray(first)
    second = np.asarray(second)
    if first.shape != second.shape or not np.array_equal(first, second):
        only1 = np.setdiff1d(first, second)[:5]
        only2 = np.setdiff1d(second, first)[:5]
        raise CheckError(
            f"{what}: {first.size} indices against {second.size}; "
            f"only in the first {only1.tolist()}, only in the second {only2.tolist()}"
        )


def seed_inliers(x1, x2, seed, members, a, inliers, r2, t_c, t_n, eps_residual):
    """An accepted seed's inliers against its model, recomputed from positions.

    x1, x2 are per-match positions; members are match indices and inliers
    positions within members. The inliers must be the members with the
    smallest residuals ||A u - v||, at least t_n of them, and the worst one
    must reach confidence t_c against the uniform null.
    """
    u = x1[members] - x1[seed]
    v = x2[members] - x2[seed]
    pred = u @ np.asarray(a).T
    resid = np.sqrt(np.sum((pred - v) ** 2, axis=1))
    n = len(inliers)
    if n < t_n:
        raise CheckError(f"seed {seed}: {n} inliers, fewer than t_n={t_n}")
    worst = float(resid[inliers].max())
    clamped = max(worst, eps_residual * r2)
    conf = n * r2 * r2 / (len(members) * clamped * clamped)
    if conf < t_c * (1.0 - 1e-9):
        raise CheckError(f"seed {seed}: worst inlier confidence {conf:.6g} < t_c={t_c}")
    outside = np.delete(resid, inliers)
    if outside.size and outside.min() < worst * (1.0 - 1e-9):
        raise CheckError(f"seed {seed}: a member with residual {outside.min():.6g} "
                         f"is left out while an inlier has {worst:.6g}")


def floors(what, true_pos, n_selected, n_planted, min_precision, min_recall):
    precision = true_pos / n_selected if n_selected else 0.0
    recall = true_pos / n_planted if n_planted else 0.0
    if precision < min_precision or recall < min_recall:
        raise CheckError(f"{what}: precision {precision:.4f} (floor {min_precision}), "
                         f"recall {recall:.4f} (floor {min_recall})")
    return precision, recall


def load_keypoint_file(path):
    """(width, height, rows) of a keypoint file; rows are x y sigma alpha desc."""
    with open(path) as fh:
        head = fh.readline().split()
    count, dim, width, height = (int(v) for v in head[2:6])
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    if rows.shape != (count, 4 + dim):
        raise CheckError(f"{path}: {rows.shape} rows, header says ({count}, {4 + dim})")
    return width, height, rows


def load_match_file(path):
    """Rows idx1 idx2 dist ratio [gt] of a match file, as float64."""
    with open(path) as fh:
        count = int(fh.readline().split()[2])
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    if rows.shape[0] != count:
        raise CheckError(f"{path}: {rows.shape[0]} rows, header says {count}")
    return rows


def pair_keys(rows, n2):
    return rows[:, 0].astype(np.int64) * n2 + rows[:, 1].astype(np.int64)


def planted_count(kept_rows, gt_rows, n2):
    """How many kept (idx1, idx2) pairs are planted correspondences."""
    planted = pair_keys(gt_rows[gt_rows[:, 4] == 1], n2)
    return int(np.isin(pair_keys(kept_rows, n2), planted).sum())


def eval_true_positives(eval_stdout, expected):
    fields = dict(line.split("=", 1) for line in eval_stdout.split() if "=" in line)
    got = int(fields.get("true_positives", -1))
    if got != expected:
        raise CheckError(f"eval: true_positives={got}, counted {expected}")
