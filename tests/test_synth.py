import math

import numpy as np
import pytest

from adalam import (
    ImageSize,
    SynthConfig,
    compute_radius,
    generate_scene,
    wrap_angle,
)
from adalam.core import MatchSet

SIZE = ImageSize(1000, 1000)


def config(**kw):
    defaults = dict(
        size1=SIZE, size2=SIZE, n_patches=5, keypoints_per_patch=20,
        n_outliers=233, rng_seed=0,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestGenerateScene:
    def test_same_seed_identical(self):
        a = generate_scene(config(noise_sigma=0.5, rng_seed=42))
        b = generate_scene(config(noise_sigma=0.5, rng_seed=42))
        assert np.array_equal(a.k1.xy, b.k1.xy)
        assert np.array_equal(a.k2.desc, b.k2.desc)
        assert np.array_equal(a.matches.idx2, b.matches.idx2)
        assert np.array_equal(a.patch_affines, b.patch_affines)

    def test_different_seed_differs(self):
        a = generate_scene(config(rng_seed=0))
        b = generate_scene(config(rng_seed=1))
        assert not np.array_equal(a.k1.xy, b.k1.xy)

    def test_counts_and_labels_exact(self):
        sc = generate_scene(config())
        assert len(sc.matches) == 5 * 20 + 233
        assert int(sc.gt_inlier.sum()) == 100
        assert sc.inlier_ratio == pytest.approx(100 / 333)
        assert np.all(sc.patch_of_match[sc.gt_inlier] >= 0)
        assert np.all(sc.patch_of_match[~sc.gt_inlier] == -1)

    def test_inliers_reproject_exactly_without_noise(self):
        sc = generate_scene(config(noise_sigma=0.0))
        for k in np.nonzero(sc.gt_inlier)[0]:
            p = sc.patch_of_match[k]
            x1 = sc.k1.xy[sc.matches.idx1[k]]
            x2 = sc.k2.xy[sc.matches.idx2[k]]
            pred = sc.patch_affines[p] @ x1 + sc.patch_offsets[p]
            assert np.allclose(pred, x2, atol=1e-9)

    def test_noise_norm_capped_at_three_sigma(self):
        sigma = 2.0
        sc = generate_scene(config(noise_sigma=sigma, rng_seed=7))
        for k in np.nonzero(sc.gt_inlier)[0]:
            p = sc.patch_of_match[k]
            x1 = sc.k1.xy[sc.matches.idx1[k]]
            x2 = sc.k2.xy[sc.matches.idx2[k]]
            pred = sc.patch_affines[p] @ x1 + sc.patch_offsets[p]
            assert np.linalg.norm(pred - x2) <= 3 * sigma + 1e-9

    def test_frame_consistency_matches_patch_affine(self):
        sc = generate_scene(config(noise_sigma=0.0, rng_seed=3))
        for k in np.nonzero(sc.gt_inlier)[0]:
            a = sc.patch_affines[sc.patch_of_match[k]]
            rot = math.atan2(a[1, 0] - a[0, 1], a[0, 0] + a[1, 1])
            i1, i2 = sc.matches.idx1[k], sc.matches.idx2[k]
            da = wrap_angle(sc.k2.alpha[i2] - sc.k1.alpha[i1])
            assert abs(wrap_angle(da - rot)) < 1e-9
            ds = sc.k2.sigma[i2] / sc.k1.sigma[i1]
            assert ds == pytest.approx(math.sqrt(abs(np.linalg.det(a))), rel=1e-9)

    def test_patch_fits_one_neighborhood(self):
        sc = generate_scene(config(rng_seed=5))
        r = compute_radius(SIZE, 100.0)
        for p in range(5):
            pts = sc.k1.xy[sc.matches.idx1[sc.patch_of_match == p]]
            center = pts.mean(axis=0)
            assert np.all(np.linalg.norm(pts - center, axis=1) <= 2 * r)

    def test_identity_override_keeps_positions(self):
        sc = generate_scene(config(affine_override=np.eye(2), noise_sigma=0.0))
        assert np.allclose(sc.patch_affines, np.eye(2)[None])
        for k in np.nonzero(sc.gt_inlier)[0]:
            p = sc.patch_of_match[k]
            x1 = sc.k1.xy[sc.matches.idx1[k]]
            x2 = sc.k2.xy[sc.matches.idx2[k]]
            assert np.allclose(x2 - x1, sc.patch_offsets[p], atol=1e-9)

    def test_patch_rotation_pin(self):
        sc = generate_scene(config(patch_rotation=math.pi / 6, rng_seed=2))
        for a in sc.patch_affines:
            rot = math.atan2(a[1, 0] - a[0, 1], a[0, 0] + a[1, 1])
            assert abs(wrap_angle(rot - math.pi / 6)) < 0.3  # shear skews it a bit

    def test_ratio_bands(self):
        sc = generate_scene(config(rng_seed=6))
        assert np.all(sc.matches.ratio[sc.gt_inlier] <= 0.6)
        assert np.all(sc.matches.ratio[~sc.gt_inlier] >= 0.5)

    def test_valid_matchset_and_permutation(self):
        sc = generate_scene(config(rng_seed=8))
        assert isinstance(sc.matches, MatchSet)
        assert np.array_equal(np.sort(sc.matches.idx2), np.arange(len(sc.matches)))

    def test_affines_well_conditioned(self):
        sc = generate_scene(config(rng_seed=9))
        for a in sc.patch_affines:
            s = np.linalg.svd(a, compute_uv=False)
            assert s[0] / s[1] <= 10.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_room_for_patches_raises(self, seed):
        # 60 patches 2.2 seed radii apart crowd a 1000x1000 image
        cfg = config(n_patches=60, keypoints_per_patch=160, n_outliers=4800,
                     rng_seed=seed)
        with pytest.raises(ValueError, match=r"patch \d+ of 60"):
            generate_scene(cfg)

    def test_outlier_only_scene(self):
        sc = generate_scene(config(n_patches=0, keypoints_per_patch=0, n_outliers=50))
        assert len(sc.matches) == 50
        assert not sc.gt_inlier.any()
        assert sc.inlier_ratio == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_patches": -1},
            {"noise_sigma": -0.1},
            {"descriptor_dim": 1},
            {"n_patches": 0, "keypoints_per_patch": 0, "n_outliers": 0},
            {"affine_override": np.zeros((2, 2))},
        ],
    )
    def test_invalid_config(self, kw):
        with pytest.raises(ValueError):
            config(**kw)
