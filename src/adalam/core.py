"""Shared domain types for the matching and filtering pipeline.

All containers are struct-of-arrays: one keypoint array serves every module
and matches refer to keypoints by index pair, never by copy. Everything is
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (or array of angles) in radians into (-pi, pi].

    The interval is half-open on the left: odd multiples of pi map to +pi.
    """
    arr = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_angle: angle must be finite")
    r = _wrap_angle(arr)
    if r.ndim == 0:
        return float(r)
    return r


def _wrap_angle(arr: np.ndarray) -> np.ndarray:
    """wrap_angle of a float64 array already known to be finite, unchecked."""
    r = np.remainder(arr, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, r)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array. np.unique itself imports numpy.ma, which
    costs a CLI process about 20 ms."""
    s = np.sort(values)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _check_match_range(name, matches, k1, k2=None):
    """Raise a ValueError that starts with name unless every idx1 of matches
    indexes k1 and, when k2 is given, every idx2 indexes k2."""
    if np.any(matches.idx1 >= len(k1)) or (
            k2 is not None and np.any(matches.idx2 >= len(k2))):
        raise ValueError(f"{name}: match indices out of keypoint range")


def _set_integers(obj, *names):
    """Store the named fields of a frozen dataclass as ints. A value that is
    not integral, inf and NaN included, raises a ValueError naming its field."""
    for name in names:
        value = getattr(obj, name)
        try:
            integral = value == int(value)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"{type(obj).__name__}: {name} must be an integer")
        object.__setattr__(obj, name, int(value))


def _as_float_array(x, name, ndim):
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name}: expected {ndim}-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ImageSize:
    """Image extent in pixels."""

    width: int
    height: int

    def __post_init__(self):
        _set_integers(self, "width", "height")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("ImageSize: width and height must be positive")

    @property
    def area(self) -> float:
        return float(self.width) * float(self.height)


@dataclass(frozen=True)
class KeypointSet:
    """A set of keypoints with local feature frames and descriptors.

    Row k holds (x, y) position in pixels, scale sigma > 0, orientation
    alpha in (-pi, pi], and a descriptor of fixed dimension shared by the
    whole set. The descriptor dimension is a runtime property, not baked in.
    """

    xy: np.ndarray      # (n, 2) float64
    sigma: np.ndarray   # (n,)   float64
    alpha: np.ndarray   # (n,)   float64
    desc: np.ndarray    # (n, d) float64

    def __post_init__(self):
        xy = _as_float_array(self.xy, "xy", 2)
        sigma = _as_float_array(self.sigma, "sigma", 1)
        alpha = _as_float_array(self.alpha, "alpha", 1)
        desc = _as_float_array(self.desc, "desc", 2)
        n = xy.shape[0]
        if xy.shape[1] != 2:
            raise ValueError("KeypointSet: xy must have shape (n, 2)")
        if sigma.shape[0] != n or alpha.shape[0] != n or desc.shape[0] != n:
            raise ValueError("KeypointSet: inconsistent array lengths")
        if desc.shape[1] < 1:
            raise ValueError("KeypointSet: descriptor dimension must be >= 1")
        if not np.all(np.isfinite(xy)):
            raise ValueError("KeypointSet: keypoint positions must be finite")
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
            raise ValueError("KeypointSet: sigma must be finite and > 0")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("KeypointSet: alpha must be finite")
        if np.any(alpha <= -math.pi) or np.any(alpha > math.pi):
            raise ValueError("KeypointSet: alpha must lie in (-pi, pi]")
        if not np.all(np.isfinite(desc)):
            raise ValueError("KeypointSet: descriptors must be finite")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "desc", desc)

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def dim(self) -> int:
        return self.desc.shape[1]


@dataclass(frozen=True)
class MatchSet:
    """Putative nearest-neighbor matches from keypoint set 1 to set 2.

    Each match is an index pair (idx1, idx2) with descriptor distance and
    the ratio-test score dist / second-nearest dist in [0, 1]. idx1 values
    are unique: at most one nearest-neighbor match per first-image keypoint.
    """

    idx1: np.ndarray   # (m,) int64
    idx2: np.ndarray   # (m,) int64
    dist: np.ndarray   # (m,) float64
    ratio: np.ndarray  # (m,) float64

    def __post_init__(self):
        idx1 = np.ascontiguousarray(self.idx1, dtype=np.int64)
        idx2 = np.ascontiguousarray(self.idx2, dtype=np.int64)
        dist = _as_float_array(self.dist, "dist", 1)
        ratio = _as_float_array(self.ratio, "ratio", 1)
        m = idx1.shape[0]
        if idx1.ndim != 1 or idx2.shape != (m,) or dist.shape != (m,) or ratio.shape != (m,):
            raise ValueError("MatchSet: inconsistent array lengths")
        if np.any(idx1 < 0) or np.any(idx2 < 0):
            raise ValueError("MatchSet: indices must be nonnegative")
        if _sorted_unique(idx1).size != m:
            raise ValueError("MatchSet: idx1 values must be unique")
        if not np.all(np.isfinite(dist)) or np.any(dist < 0):
            raise ValueError("MatchSet: dist must be finite and >= 0")
        if not np.all(np.isfinite(ratio)) or np.any(ratio < 0) or np.any(ratio > 1):
            raise ValueError("MatchSet: ratio must lie in [0, 1]")
        object.__setattr__(self, "idx1", idx1)
        object.__setattr__(self, "idx2", idx2)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "ratio", ratio)

    def __len__(self) -> int:
        return self.idx1.shape[0]

    def take(self, sel) -> "MatchSet":
        """Subset of matches, preserving order. sel is a mask or index array."""
        return MatchSet(self.idx1[sel], self.idx2[sel], self.dist[sel], self.ratio[sel])

    @staticmethod
    def empty() -> "MatchSet":
        z = np.zeros(0)
        return MatchSet(z.astype(np.int64), z.astype(np.int64), z, z)


@dataclass(frozen=True)
class AdalamParams:
    """All hyperparameters of the filter, plus the ablation switches.

    fixed_threshold, when set, replaces the adaptive confidence test by a
    fixed residual radius in pixels (the plain locally-affine baseline).
    t_sigma thresholds the absolute log of the scale-transform ratio.
    t_c and eps_residual must be finite. t_alpha, t_sigma and
    fixed_threshold may be infinite: t_alpha or t_sigma then switches its
    gate off, and fixed_threshold keeps every member.
    """

    area_ratio: float = 100.0
    lam: float = 4.0
    iterations: int = 128
    t_alpha: float = math.pi / 6.0
    t_sigma: float = 1.5
    t_c: float = 200.0
    t_n: int = 6
    use_side_info: bool = True
    use_refit: bool = True
    fixed_threshold: Optional[float] = None
    eps_residual: float = 1e-6

    def __post_init__(self):
        _set_integers(self, "iterations", "t_n")
        # Each check is written so that NaN fails it.
        if not 0 < self.area_ratio < math.inf:
            raise ValueError("AdalamParams: area_ratio must be > 0")
        for name in ("t_alpha", "t_sigma", "t_c", "eps_residual"):
            if not getattr(self, name) > 0:
                raise ValueError(f"AdalamParams: {name} must be > 0")
        for name in ("t_c", "eps_residual"):
            if not getattr(self, name) < math.inf:
                raise ValueError(f"AdalamParams: {name} must be finite")
        if not self.lam >= 1:
            raise ValueError("AdalamParams: lam must be >= 1")
        if not self.iterations >= 1:
            raise ValueError("AdalamParams: iterations must be >= 1")
        if not self.t_n >= 2:
            raise ValueError("AdalamParams: t_n must be >= 2")
        if self.fixed_threshold is not None and not self.fixed_threshold > 0:
            raise ValueError("AdalamParams: fixed_threshold must be > 0")


@dataclass(frozen=True)
class Seed:
    """A seed correspondence with the suppression radii of both images."""

    match_index: int
    r1: float
    r2: float

    def __post_init__(self):
        if not 0 < self.r1 < math.inf or not 0 < self.r2 < math.inf:
            raise ValueError("Seed: radii must be > 0")


@dataclass(frozen=True)
class Neighborhood:
    """A seed and its member matches in seed-centered coordinates.

    Members are match indices ordered by ratio ascending (most confident
    first), which is the deterministic sampling order for verification.
    The seed's own match is always a member with centered coordinates (0, 0).
    """

    seed: Seed
    members: np.ndarray    # (m,) int64 match indices
    centered1: np.ndarray  # (m, 2) x1 - x1_seed
    centered2: np.ndarray  # (m, 2) x2 - x2_seed

    def __post_init__(self):
        members = np.ascontiguousarray(self.members, dtype=np.int64)
        c1 = _as_float_array(self.centered1, "centered1", 2)
        c2 = _as_float_array(self.centered2, "centered2", 2)
        m = members.shape[0]
        if c1.shape != (m, 2) or c2.shape != (m, 2):
            raise ValueError("Neighborhood: member arrays must have matching length")
        pos = np.nonzero(members == self.seed.match_index)[0]
        if pos.size != 1:
            raise ValueError("Neighborhood: seed match must appear exactly once")
        k = pos[0]
        if np.any(c1[k] != 0.0) or np.any(c2[k] != 0.0):
            raise ValueError("Neighborhood: seed member must be centered at (0, 0)")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "centered1", c1)
        object.__setattr__(self, "centered2", c2)

    def __len__(self) -> int:
        return self.members.shape[0]


@dataclass(frozen=True)
class AffineModel:
    """A 2x2 linear map acting on seed-centered coordinates."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a11, self.a12, self.a21, self.a22)):
            raise ValueError("AffineModel: entries must be finite")

    @classmethod
    def from_matrix(cls, m) -> "AffineModel":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (2, 2):
            raise ValueError("AffineModel: expected a 2x2 matrix")
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])


@dataclass(frozen=True)
class SeedReport:
    """Per-seed verification diagnostics."""

    seed_match_index: int
    best_iteration: int       # -1 when no valid minimal sample existed
    best_inlier_count: int
    accepted: bool


@dataclass(frozen=True)
class FilterResult:
    """Filtered match subset plus per-seed diagnostics."""

    selected: np.ndarray          # sorted, duplicate-free match indices
    seed_reports: tuple           # tuple of SeedReport

    def __post_init__(self):
        sel = np.ascontiguousarray(self.selected, dtype=np.int64)
        if sel.ndim != 1:
            raise ValueError("FilterResult: selected must be a 1-d index array")
        if sel.size and (np.any(np.diff(sel) <= 0)):
            raise ValueError("FilterResult: selected must be sorted and duplicate-free")
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "seed_reports", tuple(self.seed_reports))
