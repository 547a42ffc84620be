import hashlib
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
            {"noise_sigma": math.nan},
            {"noise_sigma": math.inf},
            {"patch_rotation": math.nan},
            {"patch_rotation": math.inf},
            {"n_patches": 2.5},
            {"keypoints_per_patch": 1.5},
            {"n_outliers": math.inf},
            {"descriptor_dim": math.nan},
            {"rng_seed": 0.5},
        ],
    )
    def test_invalid_config(self, kw):
        with pytest.raises(ValueError):
            config(**kw)

    @pytest.mark.parametrize("name", ["n_patches", "keypoints_per_patch", "n_outliers",
                                      "descriptor_dim", "rng_seed"])
    def test_integer_fields(self, name):
        with pytest.raises(ValueError, match=f"SynthConfig: {name} must be an integer"):
            config(**{name: 2.5})
        assert type(getattr(config(**{name: np.int64(3)}), name)) is int


def drawn(sc, k):
    """Both images' xy, sigma, alpha and desc[:3] of match k, then its dist
    and ratio: one value of every array generate_scene draws."""
    i1, i2 = sc.matches.idx1[k], sc.matches.idx2[k]
    return [v for kp, i in ((sc.k1, i1), (sc.k2, i2))
            for v in (*kp.xy[i], kp.sigma[i], kp.alpha[i], *kp.desc[i, :3])] + [
        sc.matches.dist[k], sc.matches.ratio[k]]


# Recorded from generate_scene. The SHA-256 of the integer-only idx2 moves
# whenever the number of draws before the permutation changes; the values of
# the first and last match move when draws of the same count are reordered.
DRAW_ORDER_PINS = [
    (
        {"noise_sigma": 0.5, "rng_seed": 21},
        "1e5b912ccb1da735c1388500983352596e3e48c1d54cbe5e492c2eeeac1e7be1",
        [409.59100032947606, 562.4008173753034, 1.3246093540253943, -1.62440751945633,
         0.0393281041293417, -0.23979622168095246, -0.01873210965772101,
         386.0742819079647, 192.64437571619746, 1.1994428245678743, 0.14321646307064717,
         0.047977094146838734, -0.29973559059735494, 0.049991554439226586,
         0.6126227016420921, 0.1874953493013052],
        [433.3201086266788, 286.8528587694945, 1.2002825217084931, -2.959980539287437,
         0.11384497897942944, -0.1289921636765747, -0.10647265441558523,
         223.11096311063272, 852.4015609649971, 1.456753514043455, 1.8406164218676295,
         0.07301446641486278, 0.10389109384037631, -0.08806365722288824,
         1.4156414439429232, 0.7406286363479366],
    ),
    (
        {"noise_sigma": 0.0, "rng_seed": 22},
        "424ccd99a8231d1c8a604de38af0318168ad6d87981564120e7a91f92e8053fa",
        [375.74520560522444, 917.8360710586284, 0.8748935260281675, 0.5914187961915136,
         0.06602330611032207, -0.028055977242848532, -0.20479684350134275,
         646.9434112255514, 572.280240764528, 1.1859531176932914, -2.8349244184758704,
         0.121288025666115, -0.053013941064022824, -0.2653565464364237,
         0.4844075902063882, 0.1086008225393699],
        [619.3853340106906, 548.7019238073385, 0.6116099269656898, -2.3787209553712585,
         -0.23641675416379937, -0.08800158621432262, -0.09795695094567601,
         647.2014863055189, 551.7728955866918, 0.7114936409406083, 1.1268070304085374,
         0.11045378491517555, -0.06985678424358696, 0.3895183398750324,
         1.6964111004463085, 0.5201248924761273],
    ),
    (
        {"noise_sigma": 1.0, "frame_consistent": False, "patch_rotation": 0.5,
         "rng_seed": 23},
        "229cbb9218b54ddadcc13ec1576570f6c50ca9e9a5f31c23641f76f12c9909ff",
        [786.2386211015308, 695.7555919551775, 1.2140150391495026, 0.2526157938813651,
         -0.29079622134139005, -0.004220320954291546, 0.3878741617616654,
         278.71869056843315, 191.99613366013898, 0.6803289009523881, -1.4710345618559044,
         -0.2509558039534538, 0.043077774887656704, 0.3832647554121652,
         0.4547630025620212, 0.41385616659288715],
        [917.0937245159328, 995.6759429689016, 0.6151709992311979, 1.217496343869355,
         -0.08601826439265373, 0.057783757571819964, 0.16002540246839253,
         313.0184353491658, 974.5333997743999, 1.0650601798832482, 2.723453957560192,
         -0.3560176961656721, -0.21464447542509796, 0.19028187006881037,
         1.411779091660119, 0.6279172716146388],
    ),
    (
        {"n_patches": 0, "keypoints_per_patch": 0, "n_outliers": 50, "rng_seed": 24},
        "974f9f197f8204fd9be8b2934577a854f3cb599592ddc825af7e1191d489f50f",
        [144.12467064534118, 956.6496460200926, 0.8438916551255872, -2.498393718420266,
         0.2560134588049242, 0.4173035658673184, 0.2154841141029984,
         119.50437770105127, 778.1798176921195, 1.0250319514208628, 1.3055244549065943,
         0.08640740722265562, 0.012127481479082353, 0.04090413583541644,
         1.1831962538023042, 0.6467730427789362],
        [254.4386421324253, 267.0577515850251, 0.8459488869421675, 0.719476801618109,
         -0.13754283892667715, 0.01774876298861003, 0.12237934280658071,
         931.3022693623903, 0.5663169137964941, 0.7254109402243878, 0.42873111436058897,
         0.22157101231297285, 0.15110044585313442, -0.06699893265566755,
         1.2552400800371213, 0.7135570624417991],
    ),
]


@pytest.mark.parametrize("kw,idx2_sha,first,last", DRAW_ORDER_PINS)
def test_draw_order_pinned(kw, idx2_sha, first, last):
    sc = generate_scene(config(**kw))
    assert hashlib.sha256(sc.matches.idx2.astype("<i8").tobytes()).hexdigest() == idx2_sha
    assert drawn(sc, 0) == pytest.approx(first, rel=1e-9)
    assert drawn(sc, -1) == pytest.approx(last, rel=1e-9)
