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

from .core import AdalamParams, ImageSize, KeypointSet, MatchSet, _set_integers, wrap_angle
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

    def __post_init__(self):
        _set_integers(self, "n_patches", "keypoints_per_patch", "n_outliers",
                      "descriptor_dim", "rng_seed")
        if self.n_patches < 0 or self.keypoints_per_patch < 0 or self.n_outliers < 0:
            raise ValueError("SynthConfig: counts must be >= 0")
        if self.n_patches * self.keypoints_per_patch + self.n_outliers <= 0:
            raise ValueError("SynthConfig: scene would contain no keypoints")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("SynthConfig: noise_sigma must be finite and >= 0")
        if self.patch_rotation is not None and not math.isfinite(self.patch_rotation):
            raise ValueError("SynthConfig: patch_rotation must be finite")
        if self.descriptor_dim < 2:
            raise ValueError("SynthConfig: descriptor_dim must be >= 2")


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


def _sample_patch_affine(rng, rotation: Optional[float]) -> np.ndarray:
    """Rotation * isotropic scale * bounded shear; condition number <= 10."""
    theta = rng.uniform(-math.pi, math.pi) if rotation is None else float(rotation)
    scale = math.exp(rng.uniform(-0.4, 0.4))
    aniso = math.exp(rng.uniform(-0.15, 0.15))
    shear = rng.uniform(-0.25, 0.25)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    core = np.array([[scale * aniso, shear * scale], [0.0, scale / aniso]])
    return rot @ core


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
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


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

    Every random draw happens once, in a fixed order that tests pin: the
    keypoint frames, the patch centres, each patch in turn, the outlier
    positions, the descriptors, the ratios and the second-image row order.
    """
    rng = np.random.default_rng(config.rng_seed)
    kpp = config.keypoints_per_patch
    n_in = config.n_patches * kpp
    n_out = config.n_outliers
    n = n_in + n_out
    d = config.descriptor_dim
    w1, h1 = config.size1.width, config.size1.height
    w2, h2 = config.size2.width, config.size2.height
    radius = compute_radius(config.size1, AdalamParams.area_ratio)
    rho = 0.9 * radius
    cap = 3.0 * config.noise_sigma

    xy1 = np.empty((n, 2))
    xy2 = np.empty((n, 2))
    sigma1 = np.exp(rng.uniform(-0.5, 0.5, size=n))
    alpha1 = rng.uniform(-math.pi, math.pi, size=n)
    sigma2 = np.exp(rng.uniform(-0.5, 0.5, size=n))
    alpha2 = rng.uniform(-math.pi, math.pi, size=n)
    affines = np.zeros((config.n_patches, 2, 2))
    offsets = np.zeros((config.n_patches, 2))

    if n_in > 0:
        xband = (min(rho + 1.0, w1 / 2), max(w1 - rho - 1.0, w1 / 2))
        yband = (min(rho + 1.0, h1 / 2), max(h1 - rho - 1.0, h1 / 2))
        centers1 = _sample_centers(rng, config.n_patches, xband, yband,
                                   _CENTER_SEPARATION * radius)
        for p, c1 in enumerate(centers1):
            a = affines[p] = _sample_patch_affine(rng, config.patch_rotation)
            margin = rho * float(np.linalg.svd(a, compute_uv=False)[0]) + cap + 1.0
            c2 = np.array([rng.uniform(min(margin, w2 / 2), max(w2 - margin, w2 / 2)),
                           rng.uniform(min(margin, h2 / 2), max(h2 - margin, h2 / 2))])
            sl = slice(p * kpp, (p + 1) * kpp)
            r = rho * np.sqrt(rng.uniform(0, 1, size=kpp))
            th = rng.uniform(0, 2 * math.pi, size=kpp)
            off = np.column_stack([r * np.cos(th), r * np.sin(th)])
            xy1[sl] = c1 + off
            xy2[sl] = c2 + off @ a.T
            if config.noise_sigma > 0:
                noise = rng.normal(0.0, config.noise_sigma, size=(kpp, 2))
                norms = np.linalg.norm(noise, axis=1, keepdims=True)
                np.divide(noise, norms / cap, out=noise, where=norms > cap)
                xy2[sl] += noise
            offsets[p] = c2 - a @ c1
            if config.frame_consistent:
                # the rotation of a's polar decomposition, as det(a) > 0
                polar = math.atan2(a[1, 0] - a[0, 1], a[0, 0] + a[1, 1])
                alpha2[sl] = alpha1[sl] + polar
                sigma2[sl] = sigma1[sl] * math.sqrt(abs(float(np.linalg.det(a))))

    xy1[n_in:, 0] = rng.uniform(0, w1, size=n_out)
    xy1[n_in:, 1] = rng.uniform(0, h1, size=n_out)
    xy2[n_in:, 0] = rng.uniform(0, w2, size=n_out)
    xy2[n_in:, 1] = rng.uniform(0, h2, size=n_out)

    desc1 = _unit_rows(rng.normal(size=(n, d)))
    desc2 = _unit_rows(rng.normal(size=(n, d)))
    desc2[:n_in] = _unit_rows(desc1[:n_in] + 0.1 * rng.normal(size=(n_in, d)))
    dist = np.linalg.norm(desc1 - desc2, axis=1)   # before the desc2[perm] copy: peak RSS
    ratio = np.concatenate([rng.uniform(0.1, 0.6, size=n_in),
                            rng.uniform(0.5, 1.0, size=n_out)])
    perm = rng.permutation(n)          # scatter second-image row order
    patch_of = np.full(n, -1, dtype=np.int64)
    patch_of[:n_in] = np.repeat(np.arange(config.n_patches), kpp)

    k1 = KeypointSet(xy=xy1, sigma=sigma1, alpha=wrap_angle(alpha1), desc=desc1)
    k2 = KeypointSet(
        xy=xy2[perm], sigma=sigma2[perm], alpha=wrap_angle(alpha2)[perm], desc=desc2[perm]
    )
    matches = MatchSet(idx1=np.arange(n, dtype=np.int64), idx2=np.argsort(perm),
                       dist=dist, ratio=ratio)
    return SynthScene(
        k1=k1,
        k2=k2,
        matches=matches,
        gt_inlier=np.arange(n) < n_in,
        patch_affines=affines,
        patch_offsets=offsets,
        patch_of_match=patch_of,
    )
