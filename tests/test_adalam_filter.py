import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import adalam.filtering as filtering
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
    ratio_test_filter,
    select_seeds,
    verify_seed,
    wrap_angle,
)

SIZE = ImageSize(1000, 1000)
NO_SIDE = dict(t_alpha=np.inf, t_sigma=np.inf)  # the no-side-information ablation


def scene(seed=0, **kw):
    defaults = dict(
        size1=SIZE, size2=SIZE, n_patches=4, keypoints_per_patch=15,
        n_outliers=150, noise_sigma=0.5, rng_seed=seed,
    )
    defaults.update(kw)
    return generate_scene(SynthConfig(**defaults))


class TestAdalamFilter:
    def test_global_affine_scene_all_inliers_kept(self):
        # Every inlier of image 2 follows one similarity of image 1 about the
        # image centre: its position, orientation and scale.
        sc = scene(seed=3, noise_sigma=0.0)
        theta, s = 0.3, 0.9
        g = s * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        i1, i2 = sc.matches.idx1[sc.gt_inlier], sc.matches.idx2[sc.gt_inlier]
        xy, sigma, alpha = sc.k2.xy.copy(), sc.k2.sigma.copy(), sc.k2.alpha.copy()
        xy[i2] = 500.0 + (sc.k1.xy[i1] - 500.0) @ g.T
        sigma[i2] = s * sc.k1.sigma[i1]
        alpha[i2] = wrap_angle(sc.k1.alpha[i1] + theta)
        k2 = KeypointSet(xy=xy, sigma=sigma, alpha=alpha, desc=sc.k2.desc)
        result = adalam_filter(sc.k1, k2, SIZE, SIZE, sc.matches)
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
            f1_ratio.append(match_prf(ratio_test_filter(sc.matches, 0.8), sc.gt_inlier).f1)
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


def _at_lam_r1(k1, k2, m):
    """Move twelve matches exactly lam * r1 from the most confident match,
    which is always a seed: three onto each of the four axis directions, in
    both images (r1 = r2 here). They take the seed's orientation and scale
    and the next ratio after its, so with the seed they form an exact
    identity neighbourhood that verification samples first."""
    lam_r1 = AdalamParams().lam * compute_radius(SIZE, AdalamParams().area_ratio)
    s = int(np.argmin(m.ratio))
    movers = [j for j in range(len(m)) if j != s][:12]
    xy1, xy2 = k1.xy.copy(), k2.xy.copy()
    sigma1, sigma2 = k1.sigma.copy(), k2.sigma.copy()
    alpha1, alpha2 = k1.alpha.copy(), k2.alpha.copy()
    ratio = m.ratio.copy()
    i1, i2 = m.idx1, m.idx2
    # Coordinates lam_r1 +- lam_r1 are exact, so each offset is exactly lam_r1.
    xy1[i1[s]] = xy2[i2[s]] = (lam_r1, lam_r1)
    steps = [(lam_r1, 0.0), (-lam_r1, 0.0), (0.0, lam_r1), (0.0, -lam_r1)] * 3
    for j, (dx, dy) in zip(movers, steps):
        xy1[i1[j]] = xy2[i2[j]] = (lam_r1 + dx, lam_r1 + dy)
        sigma1[i1[j]], sigma2[i2[j]] = sigma1[i1[s]], sigma2[i2[s]]
        alpha1[i1[j]], alpha2[i2[j]] = alpha1[i1[s]], alpha2[i2[s]]
        ratio[j] = np.nextafter(ratio[s], 1.0)
    return (KeypointSet(xy1, sigma1, alpha1, k1.desc),
            KeypointSet(xy2, sigma2, alpha2, k2.desc),
            _reratio(m, ratio))


# Each variant maps (k1, k2, matches) to a scene with ties, huge positions
# or members exactly on the neighbourhood radius.
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
    "at-lam-r1": _at_lam_r1,
}


@pytest.mark.parametrize("variant", sorted(REPLAY_VARIANTS))
@pytest.mark.parametrize("params", [
    AdalamParams(),
    AdalamParams(**NO_SIDE),
    AdalamParams(fixed_threshold=3.0, t_n=2),
], ids=["defaults", "no-side-info", "fixed-3"])
def test_filter_equals_replay_through_public_stages(variant, params):
    """adalam_filter finds neighbourhood candidates on a grid of cells about
    lam * r1 wide; the public assemble_neighborhood scans every match. Both
    must agree."""
    sc = scene(seed=12, noise_sigma=1.0)
    assert_filter_equals_replay(*REPLAY_VARIANTS[variant](sc.k1, sc.k2, sc.matches), params)


def assert_filter_equals_replay(k1, k2, matches, params):
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


def test_members_at_lam_r1_are_kept():
    """The at-lam-r1 variant puts twelve members exactly on the seed's
    neighbourhood radius, where they decide the seed's inliers."""
    sc = scene(seed=12, noise_sigma=1.0)
    k1, k2, matches = _at_lam_r1(sc.k1, sc.k2, sc.matches)
    s = int(np.argmin(matches.ratio))
    movers = [j for j in range(len(matches)) if j != s][:12]
    r1 = compute_radius(SIZE, AdalamParams().area_ratio)
    assert s in select_seeds(matches, k1, r1)
    nb = assemble_neighborhood(Seed(s, r1, r1), matches, k1, k2, AdalamParams())
    assert set(movers) <= set(nb.members.tolist())
    result = adalam_filter(k1, k2, SIZE, SIZE, matches)
    assert set(movers) <= set(result.selected.tolist())


def test_member_on_the_radius_from_a_cell_edge():
    """A seed at the far edge of its grid cell, with a member exactly
    lam * r1 away: cells are just over lam * r1 / 2 wide, so the member lies
    two cells over, not three, and adalam_filter still finds it. The first
    match fixes the grid origin at 0."""
    params = AdalamParams(t_n=2)
    r1 = compute_radius(SIZE, params.area_ratio)
    lam_r1 = params.lam * r1
    x_s = 2.0 * lam_r1 * (1.0 - 1e-5) * (1.0 - 1e-8)
    x_m = x_s + lam_r1
    while (x_m - x_s) ** 2 > lam_r1 * lam_r1:
        x_m = np.nextafter(x_m, 0.0)
    xy = np.array([[0.0, 0.0], [x_s, 500.0], [x_m, 500.0], [x_s + 9.0, 500.0],
                   [x_s, 509.0], [x_s - 7.0, 495.0]])
    n = len(xy)
    k = KeypointSet(xy=xy, sigma=np.ones(n), alpha=np.zeros(n), desc=np.zeros((n, 2)))
    matches = MatchSet(np.arange(n), np.arange(n), np.zeros(n),
                       np.array([0.5, 0.1, 0.2, 0.3, 0.3, 0.3]))
    nb = assemble_neighborhood(Seed(1, r1, r1), matches, k, k, params)
    assert 2 in nb.members
    assert_filter_equals_replay(k, k, matches, params)


@pytest.mark.parametrize("over", [False, True], ids=["under", "over"])
def test_span_at_the_limit_of_the_neighbourhood_grid(over):
    """At lam = 1 the neighbourhood grid takes the seed grid's cells, just
    under r1 / sqrt(2) wide, not finer ones just over r1 / 2, so select_seeds'
    2**31-cell limit is adalam_filter's only one: a span past 2**31 of the
    finer cells but under the limit filters as the replay does, and a span
    just over the limit raises select_seeds' error."""
    params = AdalamParams(lam=1.0, t_n=2)
    sc = scene(seed=15)
    r1 = compute_radius(SIZE, params.area_ratio)
    fine = params.lam * r1 * (1.0 + filtering._GRID_SLACK) / 2.0
    seed_side = r1 * (1.0 - filtering._GRID_SLACK) / np.sqrt(2.0)
    far = int(np.argmax(sc.matches.ratio))
    lo = sc.k1.xy[np.delete(sc.matches.idx1, far), 0].min()
    span = filtering._GRID_MAX_CELLS * (seed_side * (1.0 + 1e-9) if over else 1.2 * fine)
    xy = sc.k1.xy.copy()
    xy[sc.matches.idx1[far], 0] = lo + span
    k1 = KeypointSet(xy, sc.k1.sigma, sc.k1.alpha, sc.k1.desc)
    if over:
        with pytest.raises(ValueError, match="positions span") as seeds_error:
            select_seeds(sc.matches, k1, r1)
        with pytest.raises(ValueError) as filter_error:
            adalam_filter(k1, sc.k2, SIZE, SIZE, sc.matches, params)
        assert str(filter_error.value) == str(seeds_error.value)
    else:
        assert far in select_seeds(sc.matches, k1, r1)
        assert_filter_equals_replay(k1, sc.k2, sc.matches, params)


MEMBERSHIP_SIZE = ImageSize(100, 100)  # r1 about 5.6: a candidate cell holds several seeds


@st.composite
def membership_scenes(draw):
    """Up to 50 matches on a 100 x 100 image: lattice or free positions,
    optionally duplicated, each moved in image 2 or not; all-equal or drawn
    ratios; scales from 1/16 to 64 and orientations across (-pi, pi], often
    near +-pi, so that the side-information gates cut and orientation
    offsets wrap; and up to four matches exactly lam * r1 from match 0
    along an axis, in both images."""
    n = draw(st.integers(1, 50))
    coord = draw(st.sampled_from([st.integers(0, 25).map(lambda k: 4.0 * k),
                                  st.floats(0.0, 100.0)]))
    xy1 = draw(hnp.arrays(np.float64, (n, 2), elements=coord))
    if draw(st.booleans()):
        xy1[n // 2:] = xy1[:n - n // 2]
    xy2 = xy1 + draw(st.sampled_from([0.0, 3.0]))
    moved = draw(hnp.arrays(bool, n))
    xy2[moved] = draw(hnp.arrays(np.float64, (n, 2), elements=coord))[moved]
    lam_r1 = AdalamParams().lam * compute_radius(MEMBERSHIP_SIZE, AdalamParams().area_ratio)
    # Coordinates lam_r1 +- lam_r1 are exact, so each offset is exactly lam_r1.
    steps = [(lam_r1, 0.0), (-lam_r1, 0.0), (0.0, lam_r1), (0.0, -lam_r1)]
    xy1[0] = xy2[0] = (lam_r1, lam_r1)
    for j, (dx, dy) in enumerate(steps[:draw(st.integers(0, min(4, n - 1)))], start=1):
        xy1[j] = xy2[j] = (lam_r1 + dx, lam_r1 + dy)
    scale = st.sampled_from([1 / 16, 0.5, 1.0, 2.0, 8.0, 64.0])
    angle = st.one_of(st.sampled_from([0.0, 0.3, 1.0, -3.0, 3.0, -3.1, 3.1, np.pi]),
                      st.floats(-np.pi, np.pi, exclude_min=True))
    sigma1, sigma2, alpha1, alpha2 = (draw(hnp.arrays(np.float64, n, elements=values))
                                      for values in (scale, scale, angle, angle))
    if draw(st.booleans()):
        ratio = np.full(n, 0.5)
    else:
        ratio = draw(hnp.arrays(np.float64, n, elements=st.integers(0, 10).map(lambda k: k / 10)))
    k1 = KeypointSet(xy1, sigma1, alpha1, np.zeros((n, 2)))
    k2 = KeypointSet(xy2, sigma2, alpha2, np.zeros((n, 2)))
    return k1, k2, MatchSet(np.arange(n), np.arange(n), np.zeros(n), ratio)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(membership_scenes(), st.sampled_from([1, 40, filtering._GROUP]),
       st.sampled_from([AdalamParams(), AdalamParams(**NO_SIDE)]))
def test_grouped_membership_equals_assemble_neighborhood(scene, group, params):
    """adalam_filter gates the candidates of consecutive seeds in groups of
    at most `group` pairs, or one seed; group 1 puts a seam between every
    two seeds. Each seed's members and centred positions must be
    byte-equal to assemble_neighborhood's, which gates every match."""
    k1, k2, matches = scene
    groups = []
    members_of = filtering._members

    def spy(cand, owner, seeds, *rest):
        out = members_of(cand, owner, seeds, *rest)
        groups.append((cand.shape[0], seeds, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtering, "_GROUP", group)
        mp.setattr(filtering, "_members", spy)
        result = adalam_filter(k1, k2, MEMBERSHIP_SIZE, MEMBERSHIP_SIZE, matches, params)

    r1 = compute_radius(MEMBERSHIP_SIZE, params.area_ratio)
    assert [s for _, seeds, _ in groups for s in seeds.tolist()] == [
        r.seed_match_index for r in result.seed_reports]
    for pairs, seeds, (members, bounds, c1, c2) in groups:
        assert pairs <= group or seeds.shape[0] == 1
        for j, si in enumerate(seeds.tolist()):
            nb = assemble_neighborhood(Seed(si, r1, r1), matches, k1, k2, params)
            part = slice(bounds[j], bounds[j + 1])
            assert members[part].tobytes() == nb.members.tobytes()
            assert np.ascontiguousarray(c1[part]).tobytes() == nb.centered1.tobytes()
            assert np.ascontiguousarray(c2[part]).tobytes() == nb.centered2.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(membership_scenes(), st.sampled_from([1.0, 0.5]),
       st.sampled_from([AdalamParams(), AdalamParams(**NO_SIDE)]))
def test_members_are_the_matches_inside_every_gate(scene, r2_scale, params):
    """Every seed's members are exactly the matches within lam * r1 in image
    1 and lam * r2 in image 2, by squared distance, whose orientation offset
    |wrap_angle(da)| is at most t_alpha and whose log-scale offset is at
    most t_sigma, ordered by ratio, then match index; inf opens a side gate.
    Their centred positions are their offsets from the seed in each image."""
    k1, k2, matches = scene
    r1 = compute_radius(MEMBERSHIP_SIZE, params.area_ratio)
    x1, x2 = k1.xy[matches.idx1], k2.xy[matches.idx2]
    alpha = wrap_angle(k2.alpha[matches.idx2] - k1.alpha[matches.idx1])
    logsig = np.log(k2.sigma[matches.idx2]) - np.log(k1.sigma[matches.idx1])
    for si in range(len(matches)):
        seed = Seed(si, r1, r2_scale * r1)
        near1 = ((x1 - x1[si]) ** 2).sum(axis=1) <= (params.lam * seed.r1) ** 2
        near2 = ((x2 - x2[si]) ** 2).sum(axis=1) <= (params.lam * seed.r2) ** 2
        turn = np.abs(wrap_angle(alpha[si] - alpha)) <= params.t_alpha
        zoom = np.abs(logsig[si] - logsig) <= params.t_sigma
        inside = np.flatnonzero(near1 & near2 & turn & zoom).tolist()
        expect = sorted(inside, key=lambda k: (matches.ratio[k], k))
        nb = assemble_neighborhood(seed, matches, k1, k2, params)
        assert nb.members.tolist() == expect
        assert np.array_equal(nb.centered1, x1[expect] - x1[si])
        assert np.array_equal(nb.centered2, x2[expect] - x2[si])


@st.composite
def adversarial_scenes(draw):
    """Up to 40 matches in one layout: all at one point, on one line (exact
    on integer steps, or rounded), each alone in its neighbourhood, or with
    one match just under or just over 2**31 seed-grid cells from the rest.
    Ratios are all equal or drawn from 11 values; orientations and scales
    come from small sets. Image 2 is image 1 shifted, frames included, or
    drawn apart. Returns (k1, k2, matches, refused): refused when the span
    is over."""
    layout = draw(st.sampled_from(["one-point", "collinear", "isolated", "under", "over"]))
    n = draw(st.integers(2 if layout in ("under", "over") else 1, 40))
    coord = st.integers(0, 50).map(lambda k: 4.0 * k)
    xy1 = draw(hnp.arrays(np.float64, (n, 2), elements=coord))
    if layout == "one-point":
        xy1[:] = xy1[0]
    elif layout == "collinear":
        steps = draw(hnp.arrays(np.float64, n, elements=st.integers(0, 300)))
        if draw(st.booleans()):
            direction = np.array([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))], float)
        else:
            theta = draw(st.floats(-np.pi, np.pi))
            direction = 1.7 * np.array([np.cos(theta), np.sin(theta)])
        xy1 = xy1[0] + steps[:, None] * direction
    elif layout == "isolated":
        xy1[:, 0] = 300.0 * np.arange(n)  # 300 > lam * r1 for every lam drawn
    else:
        r1 = compute_radius(SIZE, AdalamParams().area_ratio)
        side = r1 * (1.0 - filtering._GRID_SLACK) / np.sqrt(2.0)
        far = draw(st.integers(0, n - 1))
        lo = np.delete(xy1[:, 0], far).min()
        margin = 1e-9 if layout == "over" else -1e-9
        xy1[far, 0] = lo + filtering._GRID_MAX_CELLS * side * (1.0 + margin)

    def frames():  # scales and orientations
        return [draw(hnp.arrays(np.float64, n, elements=st.sampled_from(values)))
                for values in ([1.0, 2.0, 8.0], [0.0, 0.3, 1.0])]

    sigma_alpha = frames()
    k1 = KeypointSet(xy1, *sigma_alpha, np.zeros((n, 2)))
    if draw(st.booleans()):
        k2 = KeypointSet(xy1 + 3.0, *sigma_alpha, np.zeros((n, 2)))
    else:
        xy2 = draw(hnp.arrays(np.float64, (n, 2), elements=coord))
        k2 = KeypointSet(xy2, *frames(), np.zeros((n, 2)))
    if draw(st.booleans()):
        ratio = np.full(n, 0.5)
    else:
        ratio = draw(hnp.arrays(np.float64, n, elements=st.integers(0, 10).map(lambda k: k / 10)))
    return k1, k2, MatchSet(np.arange(n), np.arange(n), np.zeros(n), ratio), layout == "over"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(adversarial_scenes(), st.sampled_from([1.0, 1.2, 4.0]), st.booleans())
def test_adversarial_scenes_filter_as_the_replay(scene, lam, side_gates):
    """adalam_filter equals the replay through the public stages on
    degenerate layouts at lam 1, 1.2 and 4, and the one error it raises is
    select_seeds' ValueError for a span over the seed grid's limit."""
    k1, k2, matches, refused = scene
    params = AdalamParams(lam=lam, t_n=2, **({} if side_gates else NO_SIDE))
    if refused:
        r1 = compute_radius(SIZE, params.area_ratio)
        with pytest.raises(ValueError, match="positions span") as seeds_error:
            select_seeds(matches, k1, r1)
        with pytest.raises(ValueError) as filter_error:
            adalam_filter(k1, k2, SIZE, SIZE, matches, params)
        assert str(filter_error.value) == str(seeds_error.value)
    else:
        assert_filter_equals_replay(k1, k2, matches, params)
