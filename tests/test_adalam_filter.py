import numpy as np
import pytest

from adalam import (
    AdalamParams,
    ImageSize,
    KeypointSet,
    MatchSet,
    Seed,
    SynthConfig,
    adalam_filter,
    assemble_neighborhood,
    compute_radius,
    generate_scene,
    match_prf,
    select_seeds,
    verify_seed,
)

SIZE = ImageSize(1000, 1000)


def scene(seed=0, **kw):
    defaults = dict(
        size1=SIZE, size2=SIZE, n_patches=4, keypoints_per_patch=15,
        n_outliers=150, noise_sigma=0.5, rng_seed=seed,
    )
    defaults.update(kw)
    return generate_scene(SynthConfig(**defaults))


class TestAdalamFilter:
    def test_global_affine_scene_all_inliers_kept(self):
        sc = scene(seed=3, affine_override=np.eye(2), noise_sigma=0.0)
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
        gt = np.nonzero(sc.gt_inlier)[0]
        assert set(gt.tolist()) <= set(result.selected.tolist())
        report = match_prf(result.selected, sc.gt_inlier)
        assert report.recall == 1.0
        assert report.precision >= 0.95

    def test_pure_outlier_scene_rejects_everything(self):
        sc = scene(seed=4, n_patches=0, keypoints_per_patch=0, n_outliers=400)
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
        assert result.selected.size == 0
        assert all(not r.accepted for r in result.seed_reports)

    def test_output_is_subset_of_input(self):
        sc = scene(seed=5)
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
        assert np.all(result.selected >= 0)
        assert np.all(result.selected < len(sc.matches))
        assert np.all(np.diff(result.selected) > 0)

    def test_accepted_seeds_meet_tn(self):
        sc = scene(seed=6)
        params = AdalamParams()
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches, params)
        assert any(r.accepted for r in result.seed_reports)
        for r in result.seed_reports:
            if r.accepted:
                assert r.best_inlier_count >= params.t_n
            else:
                assert r.best_inlier_count < params.t_n

    def test_deterministic_across_runs(self):
        sc = scene(seed=7)
        base = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
        for _ in range(3):
            again = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
            assert np.array_equal(again.selected, base.selected)
            assert again.seed_reports == base.seed_reports

    def test_stricter_tc_never_grows_selection(self):
        sc = scene(seed=8)
        prev = None
        for t_c in (1000.0, 200.0, 50.0):
            sel = set(
                adalam_filter(
                    sc.k1, sc.k2, SIZE, SIZE, sc.matches, AdalamParams(t_c=t_c)
                ).selected.tolist()
            )
            if prev is not None:
                assert prev <= sel
            prev = sel

    def test_empty_matches(self):
        sc = scene(seed=9)
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, MatchSet.empty())
        assert result.selected.size == 0
        assert result.seed_reports == ()

    def test_out_of_range_indices_rejected(self):
        sc = scene(seed=10)
        bad = MatchSet(
            idx1=np.array([0]),
            idx2=np.array([len(sc.k2)]),
            dist=np.zeros(1),
            ratio=np.zeros(1),
        )
        with pytest.raises(ValueError):
            adalam_filter(sc.k1, sc.k2, SIZE, SIZE, bad)

    def test_one_report_per_seed(self):
        sc = scene(seed=11)
        result = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches)
        idx = [r.seed_match_index for r in result.seed_reports]
        assert len(idx) == len(set(idx))
        assert all(0 <= k < len(sc.matches) for k in idx)

    def test_selection_beats_ratio_test_on_noisy_scene(self):
        f1_adalam = []
        f1_ratio = []
        for seed in range(5):
            sc = scene(seed=100 + seed)
            sel = adalam_filter(sc.k1, sc.k2, SIZE, SIZE, sc.matches).selected
            f1_adalam.append(match_prf(sel, sc.gt_inlier).f1)
            rsel = np.nonzero(sc.matches.ratio <= 0.8)[0]
            f1_ratio.append(match_prf(rsel, sc.gt_inlier).f1)
        assert np.mean(f1_adalam) > np.mean(f1_ratio)


def _moved(k, xy):
    return KeypointSet(xy=xy, sigma=k.sigma, alpha=k.alpha, desc=k.desc)


def _reratio(m, ratio):
    return MatchSet(m.idx1, m.idx2, m.dist, ratio)


def _quantised(q):
    return lambda k1, k2, m: (_moved(k1, q * np.round(k1.xy / q)),
                              _moved(k2, q * np.round(k2.xy / q)), m)


def _duplicated(xy, seed):
    """Copy the positions of a third of the rows onto other rows."""
    rng = np.random.default_rng(seed)
    xy = xy.copy()
    dst = rng.choice(len(xy), size=len(xy) // 3, replace=False)
    xy[dst] = xy[rng.integers(0, len(xy), size=dst.size)]
    return xy


# Each variant maps (k1, k2, matches) to a scene with ties or huge positions.
REPLAY_VARIANTS = {
    "plain": lambda k1, k2, m: (k1, k2, m),
    "quantised-1": _quantised(1),
    "quantised-4": _quantised(4),
    "quantised-16": _quantised(16),
    "duplicated": lambda k1, k2, m: (_moved(k1, _duplicated(k1.xy, 1)),
                                     _moved(k2, _duplicated(k2.xy, 2)), m),
    "equal-ratios": lambda k1, k2, m: (k1, k2, _reratio(m, np.full(len(m), 0.5))),
    "rounded-ratios": lambda k1, k2, m: (k1, k2, _reratio(m, np.round(m.ratio, 1))),
    "offset-1e7": lambda k1, k2, m: (_moved(k1, k1.xy + 1e7), _moved(k2, k2.xy + 1e7), m),
}


@pytest.mark.parametrize("variant", sorted(REPLAY_VARIANTS))
@pytest.mark.parametrize("params", [
    AdalamParams(),
    AdalamParams(use_side_info=False),
    AdalamParams(fixed_threshold=3.0, t_n=2),
], ids=["defaults", "no-side-info", "fixed-3"])
def test_filter_equals_replay_through_public_stages(variant, params):
    """adalam_filter finds neighbourhood candidates with a KD-tree; the
    public assemble_neighborhood scans every match. Both must agree."""
    sc = scene(seed=12, noise_sigma=1.0)
    k1, k2, matches = REPLAY_VARIANTS[variant](sc.k1, sc.k2, sc.matches)
    result = adalam_filter(k1, k2, SIZE, SIZE, matches, params)

    r1 = compute_radius(SIZE, params.area_ratio)
    seeds = select_seeds(matches, k1, r1)
    assert [r.seed_match_index for r in result.seed_reports] == seeds.tolist()
    kept = [np.zeros(0, dtype=np.int64)]
    for report, si in zip(result.seed_reports, seeds):
        nb = assemble_neighborhood(Seed(int(si), r1, r1), matches, k1, k2, params)
        outcome = verify_seed(nb, params)
        assert report.accepted == (outcome is not None)
        if outcome is not None:
            assert report.best_iteration == outcome.iteration_index
            assert report.best_inlier_count == outcome.inlier_member_indices.size
            kept.append(nb.members[outcome.inlier_member_indices])
    assert np.array_equal(result.selected, np.unique(np.concatenate(kept)))
