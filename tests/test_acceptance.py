"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `criterion N: PASS` / `FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see the lines as they appear.
"""
import math
import time

import numpy as np

from adalam import (
    AdalamParams,
    ImageSize,
    KeypointSet,
    SynthConfig,
    adalam_filter,
    confidences,
    exact_auc,
    fit_affine_lsq,
    fit_affine_minimal,
    generate_scene,
    hist_auc,
    map_at,
    match_prf,
    nn_match,
    select_seeds,
    wrap_angle,
)


class Criterion:
    """Prints the pass/fail line no matter how the block exits."""

    def __init__(self, number):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {verdict}")
        return False


def easy_scene(seed, **kw):
    size = ImageSize(1000, 1000)
    defaults = dict(
        size1=size, size2=size, n_patches=5, keypoints_per_patch=20,
        n_outliers=233, noise_sigma=0.0, rng_seed=seed,
    )
    defaults.update(kw)
    return generate_scene(SynthConfig(**defaults))


def test_criterion_1_confidence_oracle():
    with Criterion(1):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(2, 501))
            r2 = float(rng.uniform(10.0, 100.0))
            resid = rng.uniform(1e-3, r2, size=m)
            order, conf = confidences(resid, r2)
            srt = np.array(sorted(resid))
            expect = (np.arange(1, m + 1)) / (m * srt**2 / r2**2)
            assert np.allclose(conf, expect, rtol=1e-9, atol=0)
            assert np.allclose(resid[order], srt, rtol=0, atol=0)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_affine_round_trip():
    with Criterion(2):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        done = 0
        while done < 10000:
            m = rng.normal(size=(2, 2))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            u_p, u_q = rng.normal(size=2), rng.normal(size=2)
            if abs(u_p[0] * u_q[1] - u_p[1] * u_q[0]) < 1e-3:
                continue
            got = fit_affine_minimal(u_p, m @ u_p, u_q, m @ u_q)
            assert np.allclose(got.as_matrix(), m, rtol=0, atol=1e-9)
            done += 1
        for _ in range(50):
            m = rng.normal(size=(2, 2))
            u = rng.normal(size=(100, 2))
            exact = fit_affine_lsq(u, u @ m.T)
            assert np.allclose(exact.as_matrix(), m, rtol=0, atol=1e-9)
            v = u @ m.T + 0.05 * rng.normal(size=(100, 2))
            noisy = fit_affine_lsq(u, v)
            oracle = (np.linalg.pinv(u) @ v).T
            assert np.allclose(noisy.as_matrix(), oracle, rtol=0, atol=1e-7)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_nms_oracle():
    with Criterion(3):
        rng = np.random.default_rng(103)
        from adalam import MatchSet

        for _ in range(200):
            n = 500
            xy = rng.uniform(0, 1000, size=(n, 2))
            ratios = rng.uniform(0, 1, size=n)
            k1 = KeypointSet(
                xy=xy, sigma=np.ones(n), alpha=np.zeros(n), desc=np.zeros((n, 2))
            )
            matches = MatchSet(
                idx1=np.arange(n), idx2=np.arange(n),
                dist=np.zeros(n), ratio=ratios,
            )
            r1 = 56.419
            got = select_seeds(matches, k1, r1)
            # brute-force definition over the full pairwise tables
            conf = 1.0 - ratios
            d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
            near = d2 <= r1 * r1
            np.fill_diagonal(near, False)
            beats = (conf[None, :] > conf[:, None]) | (
                (conf[None, :] == conf[:, None])
                & (np.arange(n)[None, :] < np.arange(n)[:, None])
            )
            suppressed = (near & beats).any(axis=1)
            assert np.array_equal(got, np.nonzero(~suppressed)[0])


def test_criterion_4_easy_suite():
    with Criterion(4):
        start = time.perf_counter()
        size = ImageSize(1000, 1000)
        precisions, recalls = [], []
        for seed in range(20):
            sc = easy_scene(seed)
            sel = adalam_filter(sc.k1, sc.k2, size, size, sc.matches).selected
            report = match_prf(sel, sc.gt_inlier)
            precisions.append(report.precision)
            recalls.append(report.recall)
        assert np.mean(precisions) >= 0.98
        assert np.mean(recalls) >= 0.90
        assert time.perf_counter() - start < 30.0


def test_criterion_5_null_calibration():
    with Criterion(5):
        size = ImageSize(1000, 1000)
        scenes_with_seeds = 0
        for seed in range(50):
            sc = easy_scene(
                seed + 500, n_patches=0, keypoints_per_patch=0, n_outliers=1000
            )
            result = adalam_filter(sc.k1, sc.k2, size, size, sc.matches)
            if any(r.accepted for r in result.seed_reports):
                scenes_with_seeds += 1
        assert scenes_with_seeds <= 1


def test_criterion_6_ablation_direction():
    with Criterion(6):
        size = ImageSize(1000, 1000)
        scenes = [
            easy_scene(900 + k, patch_rotation=math.pi / 6) for k in range(20)
        ]
        results = {}
        for name, params in (
            ("full", AdalamParams()),
            ("noside", AdalamParams(t_alpha=math.inf, t_sigma=math.inf)),
        ):
            start = time.perf_counter()
            f1s = [
                match_prf(
                    adalam_filter(sc.k1, sc.k2, size, size, sc.matches, params).selected,
                    sc.gt_inlier,
                ).f1
                for sc in scenes
            ]
            results[name] = (np.mean(f1s), time.perf_counter() - start)
        assert results["full"][0] >= results["noside"][0]
        assert results["full"][1] <= results["noside"][1]


def _remake(kps, xy=None, sigma=None, alpha=None):
    return KeypointSet(
        xy=kps.xy if xy is None else xy,
        sigma=kps.sigma if sigma is None else sigma,
        alpha=kps.alpha if alpha is None else alpha,
        desc=kps.desc,
    )


def test_criterion_7_invariance_suite():
    with Criterion(7):
        size1 = ImageSize(1000, 800)
        for seed in range(20):
            sc = generate_scene(SynthConfig(
                size1=size1, size2=size1, n_patches=4, keypoints_per_patch=15,
                n_outliers=150, noise_sigma=0.5, rng_seed=seed,
            ))
            base = adalam_filter(sc.k1, sc.k2, size1, size1, sc.matches).selected
            for s in (0.5, 2.0, 3.7):
                scaled = ImageSize(int(size1.width * s), int(size1.height * s))
                sel = adalam_filter(
                    _remake(sc.k1, xy=s * sc.k1.xy),
                    _remake(sc.k2, xy=s * sc.k2.xy),
                    scaled, scaled, sc.matches,
                ).selected
                assert np.array_equal(sel, base)
            sel = adalam_filter(
                sc.k1,
                _remake(sc.k2, alpha=wrap_angle(sc.k2.alpha + 1.234)),
                size1, size1, sc.matches,
            ).selected
            assert np.array_equal(sel, base)
            sel = adalam_filter(
                sc.k1,
                _remake(sc.k2, sigma=math.e * sc.k2.sigma),
                size1, size1, sc.matches,
            ).selected
            assert np.array_equal(sel, base)


def test_criterion_8_determinism():
    with Criterion(8):
        size = ImageSize(1000, 1000)
        sc = easy_scene(77, noise_sigma=0.5)
        runs = [
            adalam_filter(sc.k1, sc.k2, size, size, sc.matches) for _ in range(5)
        ]
        ref = runs[0]
        for r in runs[1:]:
            assert r.selected.tobytes() == ref.selected.tobytes()
            assert r.seed_reports == ref.seed_reports


def test_criterion_9_metric_units():
    with Criterion(9):
        assert abs(exact_auc([1.0, 1.0, 1.0, 1.0], 5.0) - 0.8) <= 1e-12
        assert abs(hist_auc([3.0, 8.0, 50.0], 10.0, 5.0) - 0.5) <= 1e-12
        assert abs(map_at([3.0, 8.0, 50.0], 10.0) - 2.0 / 3.0) <= 1e-12
        rng = np.random.default_rng(109)
        for _ in range(100):
            e = rng.uniform(0, 40, size=int(rng.integers(5, 200)))
            exact = exact_auc(e, 20.0)
            gaps = [abs(hist_auc(e, 20.0, w) - exact) for w in (5.0, 1.0, 0.1)]
            assert gaps[0] >= gaps[1] >= gaps[2]


def test_criterion_10_runtime_budget():
    with Criterion(10):
        rng = np.random.default_rng(110)
        size = ImageSize(4000, 3000)
        n, d = 8000, 128

        def make(seed):
            r = np.random.default_rng(seed)
            desc = r.normal(size=(n, d))
            desc /= np.linalg.norm(desc, axis=1, keepdims=True)
            return KeypointSet(
                xy=np.column_stack([
                    r.uniform(0, size.width, size=n),
                    r.uniform(0, size.height, size=n),
                ]),
                sigma=np.exp(r.uniform(-0.5, 0.5, size=n)),
                alpha=r.uniform(-math.pi + 1e-9, math.pi, size=n),
                desc=desc,
            )

        k1, k2 = make(1), make(2)
        start = time.perf_counter()
        matches = nn_match(k1, k2)
        t_match = time.perf_counter() - start
        start = time.perf_counter()
        adalam_filter(k1, k2, size, size, matches)
        t_filter = time.perf_counter() - start
        assert t_filter <= 0.250
        assert t_match + t_filter <= 2.0
