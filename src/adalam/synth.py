"""Ground-truth two-view scene generator.

Scenes consist of planar patches moving under known local affine maps plus
uniformly scattered outlier correspondences, so every stage of the filter
can be verified against known labels at desk scale. Generation is fully
deterministic given rng_seed: the generator is NumPy's default_rng (PCG64),
which is stable across platforms and library versions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import AdalamParams, ImageSize, KeypointSet, MatchSet, wrap_angle
from .filtering import compute_radius

_CENTER_SEPARATION = 2.2   # between patch centres in image 1, in seed radii


@dataclass(frozen=True)
class SynthConfig:
    size1: ImageSize
    size2: ImageSize
    n_patches: int
    keypoints_per_patch: int
    n_outliers: int
    noise_sigma: float = 0.0
    descriptor_dim: int = 32
    rng_seed: int = 0
    frame_consistent: bool = True
    patch_rotation: Optional[float] = None   # fix every patch rotation angle
    affine_override: Optional[np.ndarray] = None  # use this 2x2 everywhere

    def __post_init__(self):
        if self.n_patches < 0 or self.keypoints_per_patch < 0 or self.n_outliers < 0:
            raise ValueError("SynthConfig: counts must be >= 0")
        if self.n_patches * self.keypoints_per_patch + self.n_outliers <= 0:
            raise ValueError("SynthConfig: scene would contain no keypoints")
        if self.noise_sigma < 0:
            raise ValueError("SynthConfig: noise_sigma must be >= 0")
        if self.descriptor_dim < 2:
            raise ValueError("SynthConfig: descriptor_dim must be >= 2")
        if self.affine_override is not None:
            m = np.asarray(self.affine_override, dtype=np.float64)
            if m.shape != (2, 2) or abs(np.linalg.det(m)) < 1e-9:
                raise ValueError("SynthConfig: affine_override must be an invertible 2x2")
            object.__setattr__(self, "affine_override", m)


@dataclass(frozen=True)
class SynthScene:
    k1: KeypointSet
    k2: KeypointSet
    matches: MatchSet
    gt_inlier: np.ndarray       # (m,) bool
    patch_affines: np.ndarray   # (n_patches, 2, 2)
    patch_offsets: np.ndarray   # (n_patches, 2): x2 = A x1 + offset
    patch_of_match: np.ndarray  # (m,) int, -1 for outliers

    @property
    def inlier_ratio(self) -> float:
        return float(self.gt_inlier.mean()) if self.gt_inlier.size else 0.0


def _sample_patch_affine(rng, config) -> np.ndarray:
    """Rotation * isotropic scale * bounded shear; condition number <= 10."""
    if config.affine_override is not None:
        return np.array(config.affine_override)
    if config.patch_rotation is not None:
        theta = float(config.patch_rotation)
    else:
        theta = rng.uniform(-math.pi, math.pi)
    scale = math.exp(rng.uniform(-0.4, 0.4))
    aniso = math.exp(rng.uniform(-0.15, 0.15))
    shear = rng.uniform(-0.25, 0.25)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    core = np.array([[scale * aniso, shear * scale], [0.0, scale / aniso]])
    return rot @ core


def _polar_rotation_angle(a: np.ndarray) -> float:
    """Rotation angle of the polar decomposition of a 2x2 map with det > 0."""
    return math.atan2(a[1, 0] - a[0, 1], a[0, 0] + a[1, 1])


def _sample_centers(rng, n, xband, yband, min_sep):
    """Uniform centers in the bands, rejection-sampled for pair separation."""
    centers = np.empty((n, 2))
    for k in range(n):
        for _ in range(1000):
            c = np.array([rng.uniform(*xband), rng.uniform(*yband)])
            if k == 0 or np.all(np.linalg.norm(centers[:k] - c, axis=1) >= min_sep):
                break
        else:
            raise ValueError(
                f"generate_scene: 1000 draws found no center for patch {k + 1} "
                f"of {n} at least {min_sep:.6g} px from the others; "
                "use fewer patches or a larger image"
            )
        centers[k] = c
    return centers


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def generate_scene(config: SynthConfig) -> SynthScene:
    """Generate a deterministic two-view scene with ground-truth labels.

    Patch keypoints are sampled inside a disk no larger than the seed
    radius of the first image under the default AdalamParams, so each
    patch fits a single neighborhood.
    Second-image positions are the patch affine image plus isotropic
    Gaussian noise whose norm is truncated at 3 * noise_sigma, keeping the
    reprojection invariant exact. With frame_consistent, second-image
    orientations and scales follow the patch affine's polar rotation angle
    and sqrt-determinant; otherwise they are random. Outliers are uniform
    over both full image extents with unrelated descriptors. Patch centers
    in image 1 lie 2.2 seed radii apart; a ValueError is raised when the
    image has no room for that many patches.
    """
    rng = np.random.default_rng(config.rng_seed)
    n_in = config.n_patches * config.keypoints_per_patch
    n_out = config.n_outliers
    n = n_in + n_out
    d = config.descriptor_dim
    w1, h1 = config.size1.width, config.size1.height
    w2, h2 = config.size2.width, config.size2.height

    radius = compute_radius(config.size1, AdalamParams.area_ratio)
    rho = 0.9 * radius

    affines = np.zeros((max(config.n_patches, 0), 2, 2))
    offsets = np.zeros((max(config.n_patches, 0), 2))

    xy1 = np.empty((n, 2))
    xy2 = np.empty((n, 2))
    sigma1 = np.exp(rng.uniform(-0.5, 0.5, size=n))
    alpha1 = rng.uniform(-math.pi, math.pi, size=n)
    sigma2 = np.exp(rng.uniform(-0.5, 0.5, size=n))
    alpha2 = rng.uniform(-math.pi, math.pi, size=n)
    patch_of = np.full(n, -1, dtype=np.int64)

    if config.n_patches > 0 and config.keypoints_per_patch > 0:
        sep = _CENTER_SEPARATION * radius
        xband = (min(rho + 1.0, w1 / 2), max(w1 - rho - 1.0, w1 / 2))
        yband = (min(rho + 1.0, h1 / 2), max(h1 - rho - 1.0, h1 / 2))
        centers1 = _sample_centers(rng, config.n_patches, xband, yband, sep)
        for p in range(config.n_patches):
            a = _sample_patch_affine(rng, config)
            affines[p] = a
            smax = float(np.linalg.svd(a, compute_uv=False)[0])
            margin = rho * smax + 3.0 * config.noise_sigma + 1.0
            cx = rng.uniform(min(margin, w2 / 2), max(w2 - margin, w2 / 2))
            cy = rng.uniform(min(margin, h2 / 2), max(h2 - margin, h2 / 2))
            c2 = np.array([cx, cy])
            sl = slice(p * config.keypoints_per_patch, (p + 1) * config.keypoints_per_patch)
            kpp = config.keypoints_per_patch
            r = rho * np.sqrt(rng.uniform(0, 1, size=kpp))
            th = rng.uniform(0, 2 * math.pi, size=kpp)
            off = np.column_stack([r * np.cos(th), r * np.sin(th)])
            xy1[sl] = centers1[p] + off
            noise = rng.normal(0.0, config.noise_sigma, size=(kpp, 2)) \
                if config.noise_sigma > 0 else np.zeros((kpp, 2))
            if config.noise_sigma > 0:
                norms = np.linalg.norm(noise, axis=1, keepdims=True)
                cap = 3.0 * config.noise_sigma
                np.divide(noise, norms / cap, out=noise, where=norms > cap)
            xy2[sl] = c2 + off @ affines[p].T + noise
            offsets[p] = c2 - affines[p] @ centers1[p]
            patch_of[sl] = p
            if config.frame_consistent:
                rot = _polar_rotation_angle(affines[p])
                det = float(np.linalg.det(affines[p]))
                alpha2[sl] = alpha1[sl] + rot
                sigma2[sl] = sigma1[sl] * math.sqrt(abs(det))

    if n_out > 0:
        xy1[n_in:, 0] = rng.uniform(0, w1, size=n_out)
        xy1[n_in:, 1] = rng.uniform(0, h1, size=n_out)
        xy2[n_in:, 0] = rng.uniform(0, w2, size=n_out)
        xy2[n_in:, 1] = rng.uniform(0, h2, size=n_out)

    desc1 = _unit_rows(rng.normal(size=(n, d)))
    desc2 = _unit_rows(rng.normal(size=(n, d)))
    if n_in > 0:
        desc2[:n_in] = _unit_rows(desc1[:n_in] + 0.1 * rng.normal(size=(n_in, d)))
    dist = np.linalg.norm(desc1 - desc2, axis=1)
    ratio = np.empty(n)
    ratio[:n_in] = rng.uniform(0.1, 0.6, size=n_in)
    ratio[n_in:] = rng.uniform(0.5, 1.0, size=n_out)

    perm = rng.permutation(n)          # scatter second-image row order
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)

    k1 = KeypointSet(xy=xy1, sigma=sigma1, alpha=wrap_angle(alpha1), desc=desc1)
    k2 = KeypointSet(
        xy=xy2[perm], sigma=sigma2[perm], alpha=wrap_angle(alpha2)[perm], desc=desc2[perm]
    )
    matches = MatchSet(
        idx1=np.arange(n, dtype=np.int64), idx2=inv, dist=dist, ratio=ratio
    )
    gt = np.zeros(n, dtype=bool)
    gt[:n_in] = True
    return SynthScene(
        k1=k1,
        k2=k2,
        matches=matches,
        gt_inlier=gt,
        patch_affines=affines,
        patch_offsets=offsets,
        patch_of_match=patch_of,
    )
