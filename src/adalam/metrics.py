"""Evaluation metrics: match-level precision/recall/F1 and pose-error AUC.

Pose errors are consumed as precomputed lists of degrees, with failures
encoded as inf; no pose estimation happens here. recall(x) uses a closed
comparison: errors exactly at the threshold count as successes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

_MAX_BINS = 10 ** 6


@dataclass(frozen=True)
class EvalReport:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float

    def lines(self) -> str:
        """Line-oriented key=value text block, one line per field."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{k}={v:.9g}\n" if isinstance(v, float) else f"{k}={v}\n"
                       for k, v in values)


def match_prf(selected, gt_inlier) -> EvalReport:
    """Precision/recall/F1 of a selected match-index set against labels."""
    gt = np.asarray(gt_inlier, dtype=bool)
    sel = np.asarray(selected, dtype=np.int64)
    if sel.size and (sel.min() < 0 or sel.max() >= gt.shape[0]):
        raise ValueError("match_prf: selected index out of range")
    mask = np.zeros(gt.shape[0], dtype=bool)
    mask[sel] = True
    tp = int(np.count_nonzero(mask & gt))
    fp = int(np.count_nonzero(mask & ~gt))
    fn = int(np.count_nonzero(~mask & gt))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(tp, fp, fn, precision, recall, f1)


def _check_positive_finite(where: str, name: str, value: float):
    if not 0.0 < value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{where}: {name} must be finite and > 0")


def _check_errors(errors) -> np.ndarray:
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("error list must be a nonempty 1-d array")
    if np.any(np.isnan(e)) or np.any(e < 0):
        raise ValueError("errors must be nonnegative (inf marks failure)")
    return e


def exact_auc(errors, threshold: float) -> float:
    """Mean recall over [0, threshold]: (1/t) * integral of recall(x) dx.

    recall(x) is the fraction of errors <= x; the integral has closed form
    as the average clipped margin (t - e)/t over all errors.
    """
    _check_positive_finite("exact_auc", "threshold", threshold)
    e = _check_errors(errors)
    margin = np.clip(threshold - e, 0.0, threshold)
    return float(margin.mean() / threshold)


def hist_auc(errors, threshold: float, bin_width: float = 5.0) -> float:
    """Cumulative-histogram approximation of exact_auc with fixed-width bins.

    Averages recall at the right edge of each bin; threshold must be a
    positive multiple of bin_width, of at most 10**6 bins.
    """
    _check_positive_finite("hist_auc", "bin_width", bin_width)
    _check_positive_finite("hist_auc", "threshold", threshold)
    nbins = threshold / bin_width
    if not math.isfinite(nbins):
        raise ValueError("hist_auc: threshold / bin_width must be finite")
    if abs(nbins - round(nbins)) > 1e-9 * max(1.0, nbins):
        raise ValueError("hist_auc: threshold must be a positive multiple of bin_width")
    nbins = int(round(nbins))
    if nbins > _MAX_BINS:
        raise ValueError(f"hist_auc: {nbins} bins exceed {_MAX_BINS}; "
                         "exact_auc (--auc) gives the limit of fine bins exactly")
    e = np.sort(_check_errors(errors))
    edges = bin_width * np.arange(1, nbins + 1)
    recall = np.searchsorted(e, edges, side="right") / e.size
    return float(recall.mean())


def map_at(errors, threshold: float) -> float:
    """Fraction of errors at or below the threshold."""
    _check_positive_finite("map_at", "threshold", threshold)
    e = _check_errors(errors)
    return float((e <= threshold).mean())
