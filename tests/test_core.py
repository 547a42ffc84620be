import math

import numpy as np
import pytest

from adalam import (
    AdalamParams,
    AffineModel,
    FilterResult,
    ImageSize,
    KeypointSet,
    MatchSet,
    Neighborhood,
    Seed,
    adalam_filter,
    assemble_neighborhood,
    mutual_nn_filter,
    select_seeds,
    wrap_angle,
)


def make_keypoints(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return KeypointSet(
        xy=rng.uniform(0, 100, size=(n, 2)),
        sigma=np.exp(rng.uniform(-1, 1, size=n)),
        alpha=rng.uniform(-math.pi + 1e-9, math.pi, size=n),
        desc=rng.normal(size=(n, dim)),
    )


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) > 0
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_340_degrees(self):
        # 170 - (-170) = 340 degrees is 20 degrees apart; the (-pi, pi]
        # convention lands on the negative side.
        r = wrap_angle(math.radians(170.0 - (-170.0)))
        assert abs(r) == pytest.approx(math.radians(20.0), abs=1e-12)
        assert r == pytest.approx(-math.radians(20.0))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-50, 50, size=1000)
        w = wrap_angle(t)
        assert np.allclose(wrap_angle(w), w, atol=0)
        assert np.all(w > -math.pi) and np.all(w <= math.pi)

    def test_periodic(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-math.pi, math.pi, size=50)
        for k in (-1000, -37, -1, 1, 42, 1000):
            assert np.allclose(wrap_angle(t + 2 * math.pi * k), wrap_angle(t), atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_angle(np.array([0.0, np.inf]))

    def test_array_output(self):
        out = wrap_angle(np.array([0.0, 3 * math.pi]))
        assert out.shape == (2,)


class TestImageSize:
    def test_valid(self):
        s = ImageSize(640, 480)
        assert s.area == 640 * 480

    @pytest.mark.parametrize("w,h", [(0, 10), (10, 0), (-3, 5), (math.inf, 10), (10, math.nan)])
    def test_invalid(self, w, h):
        with pytest.raises(ValueError):
            ImageSize(w, h)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            ImageSize(10.5, 20)


class TestKeypointSet:
    def test_valid(self):
        k = make_keypoints(10)
        assert len(k) == 10
        assert k.dim == 4

    def test_sigma_positive(self):
        k = make_keypoints(3)
        bad = k.sigma.copy()
        bad[1] = 0.0
        with pytest.raises(ValueError):
            KeypointSet(xy=k.xy, sigma=bad, alpha=k.alpha, desc=k.desc)

    def test_alpha_range(self):
        k = make_keypoints(3)
        bad = k.alpha.copy()
        bad[0] = -math.pi  # excluded boundary
        with pytest.raises(ValueError):
            KeypointSet(xy=k.xy, sigma=k.sigma, alpha=bad, desc=k.desc)

    def test_descriptor_finite(self):
        k = make_keypoints(3)
        bad = k.desc.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError):
            KeypointSet(xy=k.xy, sigma=k.sigma, alpha=k.alpha, desc=bad)

    def test_length_mismatch(self):
        k = make_keypoints(3)
        with pytest.raises(ValueError):
            KeypointSet(xy=k.xy, sigma=k.sigma[:2], alpha=k.alpha, desc=k.desc)


class TestMatchSet:
    def test_valid_and_take(self):
        m = MatchSet(
            idx1=np.array([0, 1, 2]),
            idx2=np.array([2, 2, 0]),
            dist=np.array([0.5, 1.0, 0.0]),
            ratio=np.array([0.5, 1.0, 0.0]),
        )
        sub = m.take(np.array([2, 0]))
        assert list(sub.idx1) == [2, 0]

    def test_duplicate_idx1_rejected(self):
        with pytest.raises(ValueError):
            MatchSet(
                idx1=np.array([0, 0]),
                idx2=np.array([1, 2]),
                dist=np.zeros(2),
                ratio=np.zeros(2),
            )

    def test_ratio_range(self):
        with pytest.raises(ValueError):
            MatchSet(
                idx1=np.array([0]),
                idx2=np.array([0]),
                dist=np.zeros(1),
                ratio=np.array([1.5]),
            )

    def test_negative_dist(self):
        with pytest.raises(ValueError):
            MatchSet(
                idx1=np.array([0]),
                idx2=np.array([0]),
                dist=np.array([-1.0]),
                ratio=np.zeros(1),
            )


class TestAdalamParams:
    def test_defaults(self):
        p = AdalamParams()
        assert p.area_ratio == 100.0
        assert p.lam == 4.0
        assert p.iterations == 128
        assert p.t_alpha == pytest.approx(math.pi / 6)
        assert p.t_sigma == 1.5
        assert p.t_c == 200.0
        assert p.t_n == 6
        assert p.use_side_info and p.use_refit
        assert p.fixed_threshold is None
        assert p.eps_residual == 1e-6

    @pytest.mark.parametrize(
        "kw",
        [
            {"area_ratio": 0},
            {"lam": 0.5},
            {"iterations": 0},
            {"t_alpha": 0},
            {"t_sigma": -1},
            {"t_c": 0},
            {"t_n": 1},
            {"fixed_threshold": 0.0},
            {"eps_residual": 0.0},
            {"area_ratio": math.nan},
            {"lam": math.nan},
            {"t_alpha": math.nan},
            {"t_sigma": math.nan},
            {"t_c": math.nan},
            {"fixed_threshold": math.nan},
            {"eps_residual": math.nan},
            {"area_ratio": math.inf},
            {"iterations": 2.5},
            {"iterations": math.inf},
            {"iterations": math.nan},
            {"t_n": 2.5},
            {"t_n": math.inf},
            {"t_n": math.nan},
            {"t_c": math.inf},
            {"eps_residual": math.inf},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError, match=f"AdalamParams: {next(iter(kw))} must be"):
            AdalamParams(**kw)

    @pytest.mark.parametrize("name", ["t_alpha", "t_sigma", "fixed_threshold"])
    def test_infinite_gate_accepted(self, name):
        # An infinite t_alpha or t_sigma switches its gate off; an infinite
        # fixed_threshold keeps every member.
        assert getattr(AdalamParams(**{name: math.inf}), name) == math.inf

    @pytest.mark.parametrize("name", ["iterations", "t_n"])
    def test_integer_settings(self, name):
        with pytest.raises(ValueError, match=f"AdalamParams: {name} must be an integer"):
            AdalamParams(**{name: 7.5})
        for value in (7, np.int64(7), 7.0):
            assert type(getattr(AdalamParams(**{name: value}), name)) is int


class TestGeometryTypes:
    def test_seed_radii(self):
        for r1, r2 in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                       (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="radii must be > 0"):
                Seed(match_index=0, r1=r1, r2=r2)

    def test_neighborhood_requires_seed_member(self):
        seed = Seed(match_index=5, r1=1.0, r2=1.0)
        with pytest.raises(ValueError):
            Neighborhood(
                seed=seed,
                members=np.array([1, 2]),
                centered1=np.zeros((2, 2)),
                centered2=np.zeros((2, 2)),
            )

    def test_neighborhood_seed_centered_at_origin(self):
        seed = Seed(match_index=1, r1=1.0, r2=1.0)
        c = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            Neighborhood(seed=seed, members=np.array([0, 1]), centered1=c, centered2=c)

    def test_affine_model_finite(self):
        with pytest.raises(ValueError):
            AffineModel(1.0, 0.0, 0.0, float("inf"))
        a = AffineModel.from_matrix([[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(a.as_matrix(), [[2.0, 0.0], [0.0, 3.0]])

    def test_filter_result_sorted(self):
        with pytest.raises(ValueError):
            FilterResult(selected=np.array([3, 1]), seed_reports=())
        with pytest.raises(ValueError):
            FilterResult(selected=np.array([1, 1]), seed_reports=())
        r = FilterResult(selected=np.array([1, 2, 5]), seed_reports=())
        assert list(r.selected) == [1, 2, 5]


class TestMatchRange:
    """Every function that indexes keypoints through matches refuses an index
    beyond its keypoint set with a ValueError that names the function."""

    @staticmethod
    def _call(name, k1, k2, matches):
        size = ImageSize(100, 100)
        if name == "select_seeds":
            return select_seeds(matches, k1, 10.0)
        if name == "assemble_neighborhood":
            return assemble_neighborhood(Seed(0, 10.0, 10.0), matches, k1, k2, AdalamParams())
        if name == "mutual_nn_filter":
            return mutual_nn_filter(k1, k2, matches)
        return adalam_filter(k1, k2, size, size, matches)

    # select_seeds reads no second keypoint set, so it has no idx2 case.
    @pytest.mark.parametrize("name, side", [
        ("select_seeds", "idx1"),
        ("assemble_neighborhood", "idx1"), ("assemble_neighborhood", "idx2"),
        ("mutual_nn_filter", "idx1"), ("mutual_nn_filter", "idx2"),
        ("adalam_filter", "idx1"), ("adalam_filter", "idx2"),
    ])
    def test_out_of_range_index(self, name, side):
        k1, k2 = make_keypoints(40, seed=1), make_keypoints(40, seed=2)
        idx = {"idx1": np.arange(3), "idx2": np.arange(3)}
        idx[side] = np.array([0, 1, 999])
        matches = MatchSet(idx["idx1"], idx["idx2"], np.zeros(3), np.full(3, 0.5))
        self._call(name, k1, k2, matches.take(np.arange(2)))
        with pytest.raises(ValueError, match=f"^{name}: match indices out of keypoint range$"):
            self._call(name, k1, k2, matches)
