import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adalam import (
    AdalamParams,
    AffineModel,
    ImageSize,
    KeypointSet,
    MatchSet,
    Neighborhood,
    Seed,
    assemble_neighborhood,
    compute_radius,
    confidences,
    fit_affine_lsq,
    fit_affine_minimal,
    residuals,
    select_inliers,
    select_seeds,
    verify_seed,
)
import adalam.filtering as filtering
from adalam.filtering import _prosac_pairs, _score_models, _verify


def make_matchset(x1, ratios=None):
    n = x1.shape[0]
    ratios = np.full(n, 0.5) if ratios is None else np.asarray(ratios, dtype=float)
    return MatchSet(
        idx1=np.arange(n), idx2=np.arange(n), dist=np.zeros(n), ratio=ratios
    )


def kps_at(xy, sigma=None, alpha=None):
    xy = np.asarray(xy, dtype=float)
    n = xy.shape[0]
    return KeypointSet(
        xy=xy,
        sigma=np.ones(n) if sigma is None else np.asarray(sigma, dtype=float),
        alpha=np.zeros(n) if alpha is None else np.asarray(alpha, dtype=float),
        desc=np.zeros((n, 2)),
    )


def nms_oracle(xy, ratios, r1):
    """select_seeds by its O(m^2) definition: a match survives unless a
    better one (higher 1 - ratio, ties to the lower index) has d^2 <= r1^2."""
    conf = 1.0 - np.asarray(ratios, dtype=float)
    idx = np.arange(conf.size)
    d = xy[:, None, :] - xy[None, :, :]
    near = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= r1 * r1
    np.fill_diagonal(near, False)
    beats = (conf[None, :] > conf[:, None]) | (
        (conf[None, :] == conf[:, None]) & (idx[None, :] < idx[:, None])
    )
    return np.flatnonzero(~(near & beats).any(axis=1))


def build_neighborhood(u, v, ratios=None, r1=50.0, r2=50.0, seed_pos=0):
    """Neighborhood straight from centered coordinates; member seed_pos must
    be at the origin in both images. Members come pre-sorted by ratio."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = u.shape[0]
    if ratios is None:
        ratios = np.linspace(0.1, 0.6, n)
    order = np.lexsort((np.arange(n), np.asarray(ratios)))
    return Neighborhood(
        seed=Seed(match_index=int(seed_pos), r1=r1, r2=r2),
        members=np.arange(n)[order],
        centered1=u[order],
        centered2=v[order],
    )


class TestComputeRadius:
    def test_formula(self):
        r = compute_radius(ImageSize(1000, 1000), 100.0)
        assert r == pytest.approx(math.sqrt(1e6 / (100 * math.pi)), rel=1e-12)
        assert r == pytest.approx(56.4190, abs=1e-4)

    def test_homogeneous_in_scale(self):
        base = compute_radius(ImageSize(640, 480), 100.0)
        scaled = compute_radius(ImageSize(1920, 1440), 100.0)
        assert scaled == pytest.approx(3 * base, rel=1e-12)

    def test_invalid_area_ratio(self):
        for area_ratio in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="area_ratio must be > 0"):
                compute_radius(ImageSize(10, 10), area_ratio)


class TestSelectSeeds:
    def test_close_pair_suppressed(self):
        k1 = kps_at([[0.0, 0.0], [10.0, 0.0]])
        matches = make_matchset(k1.xy, ratios=[0.3, 0.7])
        assert list(select_seeds(matches, k1, 56.4)) == [0]

    def test_distant_pair_both_survive(self):
        k1 = kps_at([[0.0, 0.0], [200.0, 0.0]])
        matches = make_matchset(k1.xy, ratios=[0.3, 0.7])
        assert list(select_seeds(matches, k1, 56.4)) == [0, 1]

    def test_tie_lower_index_wins(self):
        k1 = kps_at([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        matches = make_matchset(k1.xy, ratios=[0.4, 0.4, 0.4])
        assert list(select_seeds(matches, k1, 10.0)) == [0]

    def test_matches_brute_force_oracle(self):
        # Positions on an 11 px lattice put 33-44-55 pairs exactly r1 = 55
        # apart, and ratios rounded to 0.01 tie: both edges of the rule occur.
        rng = np.random.default_rng(11)
        r1 = 55.0
        for trial in range(20):
            n = 500
            xy = 11.0 * np.round(rng.uniform(0, 1000, size=(n, 2)) / 11.0)
            ratios = np.round(rng.uniform(0, 1, size=n), 2)
            got = select_seeds(make_matchset(xy, ratios=ratios), kps_at(xy), r1)
            assert np.array_equal(got, nms_oracle(xy, ratios, r1))

    def test_empty(self):
        k = kps_at([[0.0, 0.0]])
        assert select_seeds(MatchSet.empty(), k, 10.0).size == 0

    def test_invalid_radius(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0]])
        for r1 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r1 must be > 0"):
                select_seeds(make_matchset(xy), kps_at(xy), r1)

    @pytest.mark.parametrize("offset", [1e7, -1e7, 1e12])
    def test_offsets_match_brute_force_oracle(self, offset):
        rng = np.random.default_rng(12)
        xy = rng.uniform(0, 1000, size=(400, 2)) + offset
        ratios = np.round(rng.uniform(0, 1, size=400), 1)
        got = select_seeds(make_matchset(xy, ratios), kps_at(xy), 56.419)
        assert np.array_equal(got, nms_oracle(xy, ratios, 56.419))

    def test_cell_diagonal_just_over_r1(self):
        # Both ends of a diagonal just over r1 long survive: cells are a
        # little under r1 / sqrt(2) wide, so the ends never share a cell.
        a = 56.4 * (1.0 + 5e-6) / math.sqrt(2.0)
        xy = np.array([[0.0, 0.0], [a, a]])
        assert list(select_seeds(make_matchset(xy, [0.3, 0.7]), kps_at(xy), 56.4)) == [0, 1]

    def test_keys_of_2_30_cells_match_brute_force_oracle(self):
        # Up to 2**30 cells per axis put grid keys near 2**60, where key * m
        # would wrap; the phase-2 prefix key, cell ordinal * m + rank, stays
        # below m**2. In each cluster the best is 70 px from the last and a
        # runner-up 40 px, 30 px from the best; at one of the four shifts the
        # two share a cell, so the last is only suppressed in phase 2.
        far = 2.0**30 * 56.4 / math.sqrt(2.0)
        xy = [[0.0, 0.0]]
        for x in (far / 4, far / 2, 3 * far / 4, far):
            for k, shift in enumerate([0.0, 10.0, 20.0, 30.0]):
                xy += [[x + shift + dx, x + 1000.0 * k] for dx in (0.0, 30.0, 70.0)]
        xy = np.array(xy)
        ratios = [0.5] + [0.1, 0.2, 0.3] * 16
        got = select_seeds(make_matchset(xy, ratios), kps_at(xy), 56.4)
        assert np.array_equal(got, nms_oracle(xy, ratios, 56.4))
        assert got.tolist() == [0] + list(range(1, 49, 3))

    def test_one_huge_position_is_a_seed(self):
        xy = [[1e300, -1e300], [1e300, -1e300]]
        assert list(select_seeds(make_matchset(np.array(xy)), kps_at(xy), 56.4)) == [0]

    @pytest.mark.parametrize("xy", [
        [[0.0, 0.0], [1e300, 0.0]],
        [[0.0, -1e308], [5.0, 1e308]],   # the span overflows to inf
        [[0.0, 0.0], [0.0, 1e12]],       # more than 2**31 cells of r1 / sqrt(2)
    ])
    def test_huge_span_raises_naming_it(self, xy):
        xy = np.array(xy)
        with pytest.raises(ValueError, match="positions span"):
            select_seeds(make_matchset(xy), kps_at(xy), 56.4)


class TestAssembleNeighborhood:
    def _scene(self, alpha2=None, sigma2=None, x2=None):
        x1 = np.array([[100.0, 100.0], [110.0, 100.0]])
        x2 = np.array([[200.0, 200.0], [210.0, 200.0]]) if x2 is None else np.asarray(x2)
        k1 = kps_at(x1)
        k2 = kps_at(
            x2,
            sigma=[1.0, 1.0] if sigma2 is None else sigma2,
            alpha=[0.0, 0.0] if alpha2 is None else alpha2,
        )
        matches = make_matchset(x1, ratios=[0.2, 0.5])
        return k1, k2, matches

    def test_seed_self_inclusion(self):
        k1, k2, matches = self._scene()
        nb = assemble_neighborhood(Seed(0, 56.4, 56.4), matches, k1, k2, AdalamParams())
        pos = list(nb.members).index(0)
        assert np.all(nb.centered1[pos] == 0)
        assert np.all(nb.centered2[pos] == 0)
        assert 1 in nb.members

    def test_orientation_gate_and_no_side(self):
        # member's induced rotation differs from the seed's by 45 degrees
        k1, k2, matches = self._scene(alpha2=[0.0, math.radians(45.0)])
        params = AdalamParams()
        nb = assemble_neighborhood(Seed(0, 56.4, 56.4), matches, k1, k2, params)
        assert 1 not in nb.members
        noside = AdalamParams(t_alpha=math.inf, t_sigma=math.inf)
        nb2 = assemble_neighborhood(Seed(0, 56.4, 56.4), matches, k1, k2, noside)
        assert 1 in nb2.members

    def test_scale_gate_log_space(self):
        # seed scale transform 2.0, member 0.4: |ln 5| > 1.5 excludes
        k1, k2, matches = self._scene(sigma2=[2.0, 0.4])
        nb = assemble_neighborhood(Seed(0, 56.4, 56.4), matches, k1, k2, AdalamParams())
        assert 1 not in nb.members
        # 0.5 gives |ln 4| < 1.5: included
        k1, k2b, matches = self._scene(sigma2=[2.0, 0.5])
        nb2 = assemble_neighborhood(Seed(0, 56.4, 56.4), matches, k1, k2b, AdalamParams())
        assert 1 in nb2.members

    @pytest.mark.parametrize("gate", ["t_alpha", "t_sigma"])
    def test_side_gates_are_inclusive(self, gate):
        # The member's orientation offset is exactly 0.5 and its log-scale
        # offset exactly ln 2: it joins at the threshold, not just above it.
        k1, k2, matches = self._scene(alpha2=[0.5, 0.0], sigma2=[2.0, 1.0])
        offset = {"t_alpha": 0.5, "t_sigma": float(np.log(2.0))}
        seed = Seed(0, 56.4, 56.4)
        nb = assemble_neighborhood(seed, matches, k1, k2, AdalamParams(**offset))
        assert 1 in nb.members
        offset[gate] = float(np.nextafter(offset[gate], 0.0))
        nb = assemble_neighborhood(seed, matches, k1, k2, AdalamParams(**offset))
        assert list(nb.members) == [0]

    def test_spatial_gates_both_images(self):
        lam_r = 4.0 * 10.0
        k1, k2, matches = self._scene(x2=[[200.0, 200.0], [200.0 + lam_r + 1.0, 200.0]])
        nb = assemble_neighborhood(Seed(0, 10.0, 10.0), matches, k1, k2, AdalamParams())
        assert 1 not in nb.members  # fails the image-2 radius

    def test_members_sorted_by_ratio(self):
        rng = np.random.default_rng(12)
        n = 50
        xy1 = rng.uniform(90, 110, size=(n, 2))
        xy2 = rng.uniform(90, 110, size=(n, 2))
        k1 = kps_at(xy1)
        k2 = kps_at(xy2)
        matches = make_matchset(xy1, ratios=rng.uniform(0, 1, size=n))
        nb = assemble_neighborhood(Seed(3, 56.4, 56.4), matches, k1, k2,
                                   AdalamParams(t_alpha=math.inf, t_sigma=math.inf))
        r = matches.ratio[nb.members]
        assert np.all(np.diff(r) >= 0)


class TestAffineFits:
    def test_minimal_diagonal(self):
        a = fit_affine_minimal([1, 0], [2, 0], [0, 1], [0, 3])
        assert np.allclose(a.as_matrix(), [[2, 0], [0, 3]], atol=1e-12)

    def test_minimal_rotation(self):
        a = fit_affine_minimal([1, 0], [0, 1], [0, 1], [-1, 0])
        assert np.allclose(a.as_matrix(), [[0, -1], [1, 0]], atol=1e-12)

    def test_minimal_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = rng.normal(size=(2, 2))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            u_p, u_q = rng.normal(size=2), rng.normal(size=2)
            if abs(u_p[0] * u_q[1] - u_p[1] * u_q[0]) < 1e-3:
                continue
            got = fit_affine_minimal(u_p, m @ u_p, u_q, m @ u_q)
            assert np.allclose(got.as_matrix(), m, atol=1e-9)

    def test_minimal_degenerate(self):
        assert fit_affine_minimal([1, 0], [1, 1], [2, 0], [2, 2]) is None
        assert fit_affine_minimal([0, 0], [0, 0], [1, 0], [1, 1]) is None

    def test_lsq_exact_interpolation(self):
        rng = np.random.default_rng(14)
        m = np.array([[1.5, -0.3], [0.2, 0.8]])
        u = rng.normal(size=(30, 2))
        got = fit_affine_lsq(u, u @ m.T)
        assert np.allclose(got.as_matrix(), m, atol=1e-9)

    def test_lsq_two_points_equals_minimal(self):
        u = np.array([[1.0, 0.3], [-0.2, 1.1]])
        v = np.array([[2.0, 0.1], [0.4, -1.0]])
        minimal = fit_affine_minimal(u[0], v[0], u[1], v[1])
        lsq = fit_affine_lsq(u, v)
        assert np.allclose(minimal.as_matrix(), lsq.as_matrix(), atol=1e-9)

    def test_lsq_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            u = rng.normal(size=(100, 2))
            v = u @ m.T + 0.05 * rng.normal(size=(100, 2))
            got = fit_affine_lsq(u, v)
            oracle = (np.linalg.pinv(u) @ v).T
            assert np.allclose(got.as_matrix(), oracle, atol=1e-7)

    def test_lsq_rank_deficient(self):
        u = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        v = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert fit_affine_lsq(u, v) is None


class TestResiduals:
    def test_identity_fixed_point(self):
        nb = build_neighborhood([[0, 0], [1, 2]], [[0, 0], [1, 2]])
        r = residuals(AffineModel(1, 0, 0, 1), nb)
        assert np.allclose(r, 0.0)

    def test_hand_arithmetic(self):
        nb = build_neighborhood([[0, 0], [1, 0]], [[0, 0], [1, 0]])
        r = residuals(AffineModel(2, 0, 0, 2), nb)
        # member (1,0) -> predicted (2,0), target (1,0): residual 1
        assert sorted(r) == pytest.approx([0.0, 1.0])

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(16)
        u = np.vstack([[0, 0], rng.normal(size=(20, 2))])
        v = np.vstack([[0, 0], rng.normal(size=(20, 2))])
        nb = build_neighborhood(u, v)
        m = rng.normal(size=(2, 2))
        got = residuals(AffineModel.from_matrix(m), nb)
        for k in range(len(nb)):
            expect = math.hypot(*(m @ nb.centered1[k] - nb.centered2[k]))
            assert got[k] == pytest.approx(expect, abs=1e-12)


class TestConfidences:
    def test_direct_formula(self):
        rng = np.random.default_rng(17)
        r2 = 40.0
        resid = rng.uniform(0, r2, size=100)
        resid[0] = r2 / 10  # will be placed by its rank
        order, conf = confidences(resid, r2)
        rank_of_first = list(order).index(0)
        expect = (rank_of_first + 1) / (100 * (r2 / 10) ** 2 / r2**2)
        assert conf[rank_of_first] == pytest.approx(expect, rel=1e-12)

    def test_rank50_at_tenth_radius(self):
        # 100 members, the rank-49 residual equals R2/10: c = 50
        r2 = 10.0
        resid = np.concatenate([
            np.linspace(0.01, 0.99, 49) * (r2 / 10),
            [r2 / 10],
            np.linspace(1.5, 5.0, 50),
        ])
        order, conf = confidences(resid, r2)
        assert conf[49] == pytest.approx(50.0, rel=1e-12)

    def test_full_radius_last_rank_is_one(self):
        r2 = 25.0
        resid = np.concatenate([np.linspace(1.0, 20.0, 99), [r2]])
        order, conf = confidences(resid, r2)
        assert conf[-1] == pytest.approx(1.0, rel=1e-12)

    def test_zero_residual_clamped(self):
        r2 = 10.0
        order, conf = confidences(np.array([0.0, 5.0]), r2)
        assert np.isfinite(conf[0])
        assert conf[0] == pytest.approx(1 / (2 * 1e-12), rel=1e-9)

    def test_sorted_stable(self):
        resid = np.array([3.0, 1.0, 3.0, 0.5])
        order, conf = confidences(resid, 10.0)
        assert list(order) == [3, 1, 0, 2]

    def test_invalid_radius(self):
        for r2 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r2 must be > 0"):
                confidences(np.array([1.0]), r2)


class TestSelectInliers:
    def test_prefix_rule(self):
        order = np.array([2, 0, 1, 3])
        conf = np.array([300.0, 250.0, 150.0, 90.0])
        resid = np.array([1.0, 2.0, 0.5, 3.0])
        got = select_inliers(order, conf, resid, 200.0)
        assert list(got) == [2, 0]

    def test_nonmonotone_prefix(self):
        order = np.array([0, 1, 2, 3])
        conf = np.array([300.0, 150.0, 250.0, 90.0])
        resid = np.array([0.1, 0.2, 0.3, 0.4])
        got = select_inliers(order, conf, resid, 200.0)
        assert list(got) == [0, 1, 2]

    def test_all_rejected(self):
        order = np.array([0, 1])
        conf = np.array([10.0, 5.0])
        resid = np.array([1.0, 2.0])
        assert select_inliers(order, conf, resid, 200.0).size == 0

    def test_fixed_threshold_mode(self):
        order = np.array([1, 0, 2])
        conf = np.zeros(3)
        resid = np.array([2.0, 0.5, 7.0])
        got = select_inliers(order, conf, resid, 200.0, fixed_threshold=3.0)
        assert list(got) == [1, 0]

    def test_inliers_are_rank_prefix(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            resid = rng.uniform(0, 30, size=40)
            order, conf = confidences(resid, 30.0)
            got = select_inliers(order, conf, resid, 50.0)
            assert np.array_equal(got, order[: got.size])

    def test_monotone_in_tc(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            resid = rng.uniform(0, 30, size=40)
            order, conf = confidences(resid, 30.0)
            prev = None
            for t_c in (10.0, 50.0, 200.0, 1000.0):
                got = set(select_inliers(order, conf, resid, t_c).tolist())
                if prev is not None:
                    assert got <= prev
                prev = got


def reference_verify(nb, params):
    """Slow oracle for verify_seed built only from the public scalar ops."""
    m = len(nb)
    if m < 2:
        return None
    u, v = nb.centered1, nb.centered2
    models = []
    n = 1
    while n < m and len(models) < params.iterations:
        for i in range(n):
            model = fit_affine_minimal(u[i], v[i], u[n], v[n])
            if model is not None:
                models.append(model)
                if len(models) == params.iterations:
                    break
        n += 1
    if not models:
        return None
    best = None
    for it, model in enumerate(models):
        resid = residuals(model, nb)
        order, conf = confidences(resid, nb.seed.r2)
        inl = select_inliers(order, conf, resid, params.t_c, params.fixed_threshold)
        if params.use_refit and inl.size >= 2:
            refit = fit_affine_lsq(u[inl], v[inl])
            if refit is not None:
                model = refit
                resid = residuals(model, nb)
                order, conf = confidences(resid, nb.seed.r2)
                inl = select_inliers(order, conf, resid, params.t_c,
                                     params.fixed_threshold)
        if best is None or inl.size > best[1].size:
            best = (it, inl, model)
    it, inl, model = best
    if inl.size < params.t_n:
        return None
    return it, np.sort(inl)


def verify_every_row(u, v, r2, params):
    """_verify with every refit row scored, not only each distinct model."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtering, "_distinct_models", lambda a: (np.arange(a.shape[0]),) * 2)
        return _verify(u, v, r2, params)


def assert_same_verification(got, expect):
    """Equal (best, count, model, inliers, worst confidence), arrays by bytes."""
    assert got[:2] == expect[:2] and got[4] == expect[4]
    for x, y in zip(got[2:4], expect[2:4]):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestVerifySeed:
    def _affine_neighborhood(self, rng, n_inliers, n_outliers, r2=50.0, lam=4.0):
        m = rng.normal(size=(2, 2))
        m += np.sign(np.linalg.det(m) or 1) * np.eye(2)  # keep it well-conditioned
        u_in = np.vstack([[0, 0], rng.uniform(-40, 40, size=(n_inliers - 1, 2))])
        v_in = u_in @ m.T
        theta = rng.uniform(0, 2 * math.pi, size=n_outliers)
        rad = lam * r2 * np.sqrt(rng.uniform(0.25, 1.0, size=n_outliers))
        u_out = rng.uniform(-40, 40, size=(n_outliers, 2))
        v_out = np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])
        u = np.vstack([u_in, u_out])
        v = np.vstack([v_in, v_out])
        ratios = np.concatenate([
            rng.uniform(0.1, 0.4, size=n_inliers),
            rng.uniform(0.4, 0.9, size=n_outliers),
        ])
        ratios[0] = 0.0  # the seed stays first
        return build_neighborhood(u, v, ratios=ratios, r2=r2), n_inliers

    def test_perfect_neighborhood_all_inliers(self):
        rng = np.random.default_rng(20)
        nb, n_in = self._affine_neighborhood(rng, 10, 0)
        out = verify_seed(nb, AdalamParams())
        assert out is not None
        assert out.inlier_member_indices.size == 10

    def test_small_neighborhood_rejected_by_tn(self):
        rng = np.random.default_rng(21)
        nb, _ = self._affine_neighborhood(rng, 5, 0)
        assert verify_seed(nb, AdalamParams()) is None

    def test_single_member_rejected(self):
        nb = build_neighborhood([[0.0, 0.0]], [[0.0, 0.0]], ratios=[0.1])
        assert verify_seed(nb, AdalamParams()) is None

    def test_inliers_exactly_recovered(self):
        rng = np.random.default_rng(22)
        failures = 0
        for _ in range(30):
            nb, n_in = self._affine_neighborhood(rng, 8, 20)
            out = verify_seed(nb, AdalamParams())
            gt = set(np.nonzero(nb.members < n_in)[0].tolist())
            got = set(out.inlier_member_indices.tolist()) if out else set()
            if got != gt:
                failures += 1
        assert failures <= 2

    def _mixed_refit_neighborhoods(self):
        """Seed, then u_p = (1, 0) and u_q = (1, 1e-8) mapped off the common
        affine, then 8 members. The first sample (u_p, u_q) is non-degenerate,
        but its prefix {seed, p, q} has a rank-deficient scatter, so it keeps
        its minimal model while the later samples are refit. With the 8 on
        the affine a later sample wins; with them scattered, every sample
        holds 3 inliers and the kept first one wins the tie."""
        rng = np.random.default_rng(26)
        a = np.array([[1.2, 0.3], [-0.2, 0.9]])
        u = np.vstack([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-8],
                       rng.uniform(-40, 40, size=(8, 2))])
        v = u @ a.T
        v[1] += [7.0, -3.0]
        v[2] += [-5.0, 6.0]
        assert fit_affine_lsq(u[:3], v[:3]) is None
        scattered = v.copy()
        scattered[3:] = rng.uniform(-40, 40, size=(8, 2))
        return [build_neighborhood(u, w, ratios=np.linspace(0.0, 0.5, 11))
                for w in (v, scattered)]

    def _collinear_prefix_neighborhood(self):
        """Seed, u_p = (10, 0), u_q = (10, 1e-7) and 4 more members on the
        x axis, all on one affine but for a shift of 0.3 px at p and q. Every
        prefix is nearly collinear: its scatter det is at most 1e-12 trace^2,
        and above 0 when it holds q, so no sample is refit. With
        fixed_threshold=1.0 the (p, q) model leaves out the member at x = 40
        and the (q, 20) model, the next sample, wins; a refit of the first
        would take it in and win the tie."""
        a = np.array([[1.2, 0.3], [-0.2, 0.9]])
        u = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1e-7], [20.0, 0.0],
                      [25.0, 0.0], [30.0, 0.0], [40.0, 0.0]])
        v = u @ a.T
        v[1:3] += [0.3, 0.0]
        sxx, sxy, syy = u[:, 0] @ u[:, 0], u[:, 0] @ u[:, 1], u[:, 1] @ u[:, 1]
        assert 0 < sxx * syy - sxy * sxy <= 1e-12 * (sxx + syy) ** 2
        assert fit_affine_lsq(u, v) is None
        return build_neighborhood(u, v, ratios=np.linspace(0.0, 0.5, 7))

    def test_agrees_with_reference_implementation(self):
        rng = np.random.default_rng(23)
        nbs = [self._affine_neighborhood(rng, int(rng.integers(3, 12)),
                                         int(rng.integers(0, 25)))[0]
               for _ in range(25)]
        for nb in [*nbs, *self._mixed_refit_neighborhoods(),
                   self._collinear_prefix_neighborhood()]:
            for params in (
                AdalamParams(t_n=2, iterations=32),
                AdalamParams(t_n=2, iterations=32, use_refit=False),
                AdalamParams(t_n=2, iterations=32, fixed_threshold=5.0),
                AdalamParams(t_n=2, iterations=32, fixed_threshold=1.0),
            ):
                expect = reference_verify(nb, params)
                got = verify_seed(nb, params)
                if expect is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.iteration_index == expect[0]
                    assert np.array_equal(got.inlier_member_indices, expect[1])

    @pytest.mark.parametrize("params", [
        AdalamParams(t_n=2), AdalamParams(t_n=2, fixed_threshold=1.0),
    ], ids=["adaptive", "fixed-1"])
    def test_distinct_models_scored_once(self, params):
        """Twelve members on one affine but for member 1. The seed sits at
        the origin, so the samples run (1, 2), (1, 3), (2, 3), ...: those
        with member 1 fit it and a few more, the others find all eleven
        inliers and refit to the same bits. The best count is then tied
        between duplicate rows, and the first of them, iteration 2, wins."""
        rng = np.random.default_rng(27)
        a = np.array([[1.2, 0.3], [-0.2, 0.9]])
        u = np.vstack([[0.0, 0.0], rng.uniform(-40, 40, size=(11, 2))])
        v = u @ a.T
        v[1] += [30.0, -20.0]
        nb = build_neighborhood(u, v, ratios=np.linspace(0.0, 0.5, 12))
        u, v = nb.centered1, nb.centered2
        seen = []
        distinct_models = filtering._distinct_models
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtering, "_distinct_models",
                       lambda a: seen.append(distinct_models(a)) or seen[-1])
            got = _verify(u, v, nb.seed.r2, params)
        (first, rows), = seen
        assert first.size < rows.size
        assert got[:2] == (2, 11)
        assert np.count_nonzero(rows == rows[2]) > 1
        assert_same_verification(got, verify_every_row(u, v, nb.seed.r2, params))

    def test_ties_prefer_earlier_iteration(self):
        rng = np.random.default_rng(24)
        nb, _ = self._affine_neighborhood(rng, 10, 0)
        out = verify_seed(nb, AdalamParams(t_n=2))
        # perfect data: every iteration finds all inliers; iteration 0 wins
        assert out.iteration_index == 0

    def test_worst_inlier_confidence_reported(self):
        rng = np.random.default_rng(25)
        nb, _ = self._affine_neighborhood(rng, 10, 0)
        out = verify_seed(nb, AdalamParams())
        assert out.confidence_of_worst_inlier >= AdalamParams().t_c


# Property tests: the batched scoring kernel against the stable-argsort
# definitions, and verify_seed against reference_verify, on degenerate input.

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
GRID = st.integers(-6, 6).map(float)          # small integers: many exact ties
FLOAT = st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False)
PARAM_SETS = (
    AdalamParams(t_n=2),
    AdalamParams(t_n=2, t_c=5.0),
    AdalamParams(t_n=3, use_refit=False),
    AdalamParams(t_n=2, fixed_threshold=1.0),
    AdalamParams(t_n=2, fixed_threshold=5.0, use_refit=False),
    AdalamParams(t_n=2, iterations=5),   # small budgets stop inside a window
    AdalamParams(t_n=2, iterations=37),  # or widen past degenerate pairs
)


@st.composite
def kernel_inputs(draw):
    t = draw(st.integers(1, 6))
    m = draw(st.integers(1, 15))
    coords = draw(st.sampled_from([GRID, FLOAT]))
    u = draw(hnp.arrays(np.float64, (m, 2), elements=coords))
    v = draw(hnp.arrays(np.float64, (m, 2), elements=coords))
    if draw(st.booleans()):  # duplicate members: identical residuals
        half = m // 2
        u[half:2 * half], v[half:2 * half] = u[:half], v[:half]
    entries = draw(st.sampled_from([GRID, FLOAT]))
    a = draw(hnp.arrays(np.float64, (t, 2, 2), elements=entries))
    return a, u, v


class TestScoringKernelProperties:
    def test_fixed_threshold_is_inclusive(self):
        u = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [6.0, 8.0]])
        params = AdalamParams(fixed_threshold=5.0)
        resid, counts, closing, _ = _score_models(np.eye(2)[None], u, np.zeros((4, 2)),
                                                  50.0, params)
        assert list(resid[0]) == [0.0, 5.0, 1.0, 10.0]
        assert list(counts) == [3]
        assert list(closing) == [5.0]

    @PROPERTY
    @given(kernel_inputs(), st.sampled_from(PARAM_SETS), st.sampled_from([2.0, 50.0]))
    def test_scores_match_stable_argsort_definition(self, inputs, params, r2):
        a, u, v = inputs
        resid, counts, closing, worst = _score_models(a, u, v, r2, params)
        for k in range(a.shape[0]):
            for j in range(u.shape[0]):
                expect = math.hypot(*(a[k] @ u[j] - v[j]))
                assert resid[k, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)
            order, conf_k = confidences(resid[k], r2)
            inl = select_inliers(order, conf_k, resid[k], params.t_c, params.fixed_threshold)
            rs, n = resid[k][order], counts[k]
            assert n == inl.size
            assert np.array_equal(np.flatnonzero(resid[k] <= closing[k]), np.sort(inl))
            if n:
                assert closing[k] == rs[n - 1]
                assert worst[k] == conf_k[n - 1]
            else:
                assert closing[k] == -np.inf and np.isnan(worst[k])
            if 0 < n < u.shape[0]:  # no tie straddles the prefix end
                assert rs[n] > rs[n - 1]


@st.composite
def degenerate_neighborhoods(draw):
    """Seed-centred neighbourhoods: part exact affine inliers, part outliers,
    with optional duplicate or collinear members, equal ratios and image
    positions near 1e7 that are centred the way assemble_neighborhood does."""
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24, 40]))
    n_in = draw(st.integers(1, m))
    coords = draw(st.sampled_from([GRID, FLOAT]))
    layout = draw(st.sampled_from(["free", "duplicate", "collinear"]))
    u = draw(hnp.arrays(np.float64, (m, 2), elements=coords))
    if layout == "duplicate":
        u[m // 2:] = u[: m - m // 2]
    elif layout == "collinear":
        u[:, 1] = 2.0 * u[:, 0] + draw(st.sampled_from([0.0, 3.0]))
    a = draw(hnp.arrays(np.float64, (2, 2), elements=GRID))
    v = u @ a.T
    v[n_in:] = draw(hnp.arrays(np.float64, (m - n_in, 2), elements=coords))
    u[0] = v[0] = 0.0
    base = draw(st.sampled_from([0.0, 1e7]))
    x1, x2 = base + u, base + v
    if draw(st.booleans()):
        ratios = np.full(m, 0.5)
    else:
        ratios = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    return build_neighborhood(x1 - x1[0], x2 - x2[0], ratios=ratios,
                              r2=draw(st.sampled_from([5.0, 50.0])))


def record_calls(mp, name, log):
    """Monkeypatch filtering.<name> to append (args, result) of each call to log."""
    fn = getattr(filtering, name)

    def recorded(*args):
        log.append((args, fn(*args)))
        return log[-1][1]

    mp.setattr(filtering, name, recorded)


def assert_within_spread(got, expect, b_abs, s_abs, s, terms):
    """got and expect, two evaluations of A = B S^-1 whose entries of B and S
    are sums of `terms` products (with sums of magnitudes b_abs and s_abs),
    differ by no more than the first-order bound (|dB| + |A| |dS|) |S^-1| on
    roundings of each sum and of the solve in different orders."""
    err = 8 * (terms + 2) * np.finfo(np.float64).eps
    bound = err * (b_abs + np.abs(expect) @ s_abs) @ np.abs(np.linalg.inv(s))
    assert np.all(np.abs(got - expect) <= bound), (got, expect, bound)


class TestVerifySeedProperties:
    @PROPERTY
    @given(degenerate_neighborhoods(), st.sampled_from([1, 5, 37, 128]))
    def test_samples_are_the_first_valid_pairs(self, nb, budget):
        u, v = nb.centered1, nb.centered2
        expect = [(i, n) for n in range(1, len(nb)) for i in range(n)
                  if fit_affine_minimal(u[i], v[i], u[n], v[n]) is not None]
        p_idx, q_idx, det = _prosac_pairs(u, budget)
        assert list(zip(p_idx.tolist(), q_idx.tolist())) == expect[:budget]
        assert np.array_equal(det, u[p_idx, 0] * u[q_idx, 1] - u[p_idx, 1] * u[q_idx, 0])

    @PROPERTY
    @given(degenerate_neighborhoods(), st.sampled_from(PARAM_SETS))
    def test_agrees_with_reference(self, nb, params):
        expect = reference_verify(nb, params)
        got = verify_seed(nb, params)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.iteration_index == expect[0]
            assert np.array_equal(got.inlier_member_indices, expect[1])

    @PROPERTY
    @given(degenerate_neighborhoods(), st.sampled_from(PARAM_SETS))
    def test_distinct_models_score_as_every_row(self, nb, params):
        u, v = nb.centered1, nb.centered2
        assert_same_verification(_verify(u, v, nb.seed.r2, params),
                                 verify_every_row(u, v, nb.seed.r2, params))

    @PROPERTY
    @given(degenerate_neighborhoods(), st.sampled_from(PARAM_SETS))
    @example(build_neighborhood([[0, 0], [387298, 0], [0, 1], [387298, 1]],
                                [[0, 0], [387298, 0], [0, 1], [387299, 1]]),
             AdalamParams(t_n=2))
    @example(build_neighborhood([[0, 0], [1224745, 0], [0, 1], [1224745, 1]],
                                [[0, 0], [1224745, 0], [0, 1], [1224746, 1]]),
             AdalamParams(t_n=2))
    def test_kernel_fits_match_scalar_fits(self, nb, params):
        """_verify's minimal models match fit_affine_minimal, and its refit
        rows fit_affine_lsq on the same inlier mask, within the spread of
        two roundings. On integer coordinates every sum is exact, and a row
        is refit exactly when fit_affine_lsq finds a model. (In the examples
        the scatter of all four members has det 5e-12 trace^2, just above
        the rank test, where the refit moves A[0, 1] by 1/3, and 5e-13,
        just below.)"""
        u, v = nb.centered1, nb.centered2
        # Below 1e-60, products underflow to subnormals, whose rounding the
        # bound does not cover.
        size = np.abs(np.r_[u.ravel(), v.ravel()])
        assume(not np.any((size > 0) & (size < 1e-60)))
        scored, refits = [], []
        with pytest.MonkeyPatch.context() as mp:
            record_calls(mp, "_score_models", scored)
            record_calls(mp, "_refit_models", refits)
            _verify(u, v, nb.seed.r2, params)
        p_idx, q_idx, _ = _prosac_pairs(u, params.iterations)
        if p_idx.size == 0:
            assert not scored and not refits
            return
        minimal = scored[0][0][0]
        for k, (p, q) in enumerate(zip(p_idx, q_idx)):
            expect = fit_affine_minimal(u[p], v[p], u[q], v[q]).as_matrix()
            s, b = np.column_stack([u[p], u[q]]), np.column_stack([v[p], v[q]])
            assert_within_spread(minimal[k], expect, np.abs(b), np.abs(s), s, 1)
        if not params.use_refit:
            assert not refits
            return
        ((a, _, _, mask), refit), = refits
        counts = scored[0][1][1]
        assert np.array_equal(mask.sum(axis=1), counts)
        exact = np.array_equal(u, np.round(u)) and np.array_equal(v, np.round(v))
        for k in range(a.shape[0]):
            um, vm = u[mask[k]], v[mask[k]]
            fit = fit_affine_lsq(um, vm) if counts[k] >= 2 else None
            kept = refit[k].tobytes() == a[k].tobytes()
            if fit is None:
                assert kept or not exact
            elif exact or not kept:  # a float scatter may sit on the rank test
                assert_within_spread(refit[k], fit.as_matrix(), np.abs(vm).T @ np.abs(um),
                                     np.abs(um).T @ np.abs(um), um.T @ um, counts[k])


# Coordinates of magnitude 1e-160 to 1e150, either sign, or 0: squares from
# subnormal to 1e300, none infinite.
MAGNITUDE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-160.0, 150.0)),
)


@st.composite
def refit_inputs(draw):
    """Models a (t, 2, 2), members u -> v (m, 2) and an inlier mask (t, m)
    whose rows hold 0, 1 or any number of members."""
    m = draw(st.integers(1, 6))
    t = draw(st.integers(1, 6))
    u, v = (draw(hnp.arrays(np.float64, (m, 2), elements=MAGNITUDE)) for _ in range(2))
    a = draw(hnp.arrays(np.float64, (t, 2, 2), elements=FLOAT))
    mask = np.zeros((t, m), dtype=bool)
    for k in range(t):
        size = draw(st.sampled_from([0, 1, m]))
        mask[k, draw(st.permutations(range(m)))[:size]] = True
    return a, u, v, mask


class TestRefitModels:
    @PROPERTY
    @given(refit_inputs())
    @example((np.eye(2)[None], np.zeros((1, 2)), np.zeros((1, 2)), np.ones((1, 1), bool)))
    def test_rows_of_at_most_one_member_keep_their_model(self, inputs):
        """The rank test alone refuses a scatter of 0 or 1 members: its det is
        within rounding of 0, and a lone member at the origin has det 0."""
        a, u, v, mask = inputs
        with np.errstate(over="ignore", invalid="ignore"):  # sums of many 1e300s
            refit = filtering._refit_models(a, u, v, mask)
        for k in np.flatnonzero(mask.sum(axis=1) <= 1):
            assert refit[k].tobytes() == a[k].tobytes()


R1 = 5.0  # lattice points (0, 0) and (3, 4) are exactly r1 apart


@st.composite
def seed_inputs(draw):
    """Image-1 positions and ratios for select_seeds with r1 = R1: integer
    lattices (3-4-5 pairs exactly r1 apart), multiples of the r1 / sqrt(2)
    cell side, one cell, free floats; optional duplicate positions, ratio
    ties and offsets of 1e7 and 1e12."""
    m = draw(st.integers(0, 40))
    elements = draw(st.sampled_from([
        st.integers(0, 15).map(float),
        st.integers(0, 8).map(lambda k: k * R1 / math.sqrt(2.0)),
        st.floats(0.0, 3.0),
        st.floats(0.0, 40.0),
    ]))
    xy = draw(hnp.arrays(np.float64, (m, 2), elements=elements))
    if draw(st.booleans()):
        xy[m // 2:] = xy[: m - m // 2]
    xy += draw(st.sampled_from([0.0, 1e7, 1e12]))
    ratios = draw(st.sampled_from([
        st.just(0.5),
        st.integers(0, 10).map(lambda k: k / 10),
        st.floats(0.0, 1.0),
    ]))
    return xy, np.asarray(draw(st.lists(ratios, min_size=m, max_size=m)), dtype=float)


class TestSelectSeedsProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed_inputs())
    @example((np.zeros((0, 2)), np.zeros(0)))
    @example((np.array([[7.0, 7.0]]), np.array([0.5])))
    @example((np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [4.0, 3.0]]), np.full(4, 0.5)))
    def test_equals_brute_force_oracle(self, inputs):
        xy, ratios = inputs
        got = select_seeds(make_matchset(xy, ratios), kps_at(xy), R1)
        assert got.dtype == np.int64
        assert np.array_equal(got, nms_oracle(xy, ratios, R1))
