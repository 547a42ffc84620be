import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adalam import KeypointSet, MatchSet, matching, mutual_nn_filter, nn_match, ratio_test_filter


def kps_from_desc(desc):
    desc = np.asarray(desc, dtype=float)
    n = desc.shape[0]
    return KeypointSet(
        xy=np.zeros((n, 2)),
        sigma=np.ones(n),
        alpha=np.zeros(n),
        desc=desc,
    )


def brute_force_nn(d1, d2):
    """Independent oracle: full distance matrix, explicit loops."""
    out = []
    for i in range(d1.shape[0]):
        dists = [float(np.linalg.norm(d1[i] - d2[j])) for j in range(d2.shape[0])]
        order = sorted(range(len(dists)), key=lambda j: (dists[j], j))
        best, second = order[0], order[1]
        ratio = dists[best] / dists[second] if dists[second] > 0 else 1.0
        out.append((best, dists[best], ratio))
    return out


def explicit_nn(d1, d2):
    """Oracle by explicit float64 differences, ties to the smaller index:
    (nearest index, its distance, ratio) per row of d1."""
    idx, dist, ratio = [], [], []
    for row in d1:
        diff = d2 - row
        dd = np.sqrt(np.sum(diff * diff, axis=1))
        order = np.lexsort((np.arange(len(dd)), dd))
        best, second = dd[order[0]], dd[order[1 % len(dd)]]
        idx.append(order[0])
        dist.append(best)
        ratio.append(best / second if second > 0 else 1.0)
    return np.array(idx), np.array(dist), np.array(ratio)


def mutual_oracle(d1, d2, matches):
    back = explicit_nn(d2[matches.idx2], d1)[0]
    return matches.idx1[back == matches.idx1]


# The float32 near-tie: all four rows cast to the same float32 score, so the
# two screening candidates are rows 0 and 1, and the nearest one, row 3,
# passes the floor of the 2nd candidate's score less 2·e_i.
NEAR_TIE = ([[1.0, 0.0]], [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5 + 1e-8, 0.0]])
SHIFTS = [-600, -80, 80, 600]


class TestNNMatch:
    def test_exact_duplicate(self):
        k1 = kps_from_desc([[1.0, 0.0]])
        k2 = kps_from_desc([[1.0, 0.0], [0.0, 1.0]])
        m = nn_match(k1, k2)
        assert m.idx2[0] == 0
        assert m.dist[0] == 0.0
        assert m.ratio[0] == 0.0

    def test_hand_derived_distances(self):
        # nearest (0,1) at sqrt(2), second (-1,0) at 2
        k1 = kps_from_desc([[1.0, 0.0]])
        k2 = kps_from_desc([[0.0, 1.0], [-1.0, 0.0]])
        m = nn_match(k1, k2)
        assert m.idx2[0] == 0
        assert m.dist[0] == pytest.approx(math.sqrt(2), rel=1e-12)
        assert m.ratio[0] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_permutation_recovery(self):
        rng = np.random.default_rng(0)
        d1 = rng.normal(size=(50, 16))
        d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
        perm = rng.permutation(50)
        noise = 1e-3 * rng.normal(size=(50, 16))
        d2 = d1[perm] + noise[perm]
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        inv = np.empty(50, dtype=int)
        inv[perm] = np.arange(50)
        assert np.array_equal(m.idx2, inv)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        d1 = rng.normal(size=(40, 8))
        d2 = rng.normal(size=(60, 8))
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        oracle = brute_force_nn(d1, d2)
        for k, (best, dist, ratio) in enumerate(oracle):
            assert m.idx2[k] == best
            assert m.dist[k] == pytest.approx(dist, rel=1e-9)
            assert m.ratio[k] == pytest.approx(ratio, rel=1e-9)

    def test_ratio_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        m = nn_match(
            kps_from_desc(rng.normal(size=(100, 5))),
            kps_from_desc(rng.normal(size=(100, 5))),
        )
        assert np.all(m.ratio >= 0) and np.all(m.ratio <= 1)

    def test_permutation_of_k2_relabels(self):
        rng = np.random.default_rng(3)
        d1 = rng.normal(size=(30, 6))
        d2 = rng.normal(size=(30, 6))
        perm = rng.permutation(30)
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        mp = nn_match(kps_from_desc(d1), kps_from_desc(d2[perm]))
        inv = np.empty(30, dtype=int)
        inv[perm] = np.arange(30)
        assert np.array_equal(inv[m.idx2], mp.idx2)
        assert np.allclose(m.dist, mp.dist)

    def test_tie_broken_by_smallest_index(self):
        k1 = kps_from_desc([[1.0, 1.0]])
        k2 = kps_from_desc([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        m = nn_match(k1, k2)
        assert m.idx2[0] == 0
        assert m.ratio[0] == 1.0

    def test_exact_tie_goes_to_smaller_index_whatever_float32_order(self):
        # Twelve rows at exactly distance 5 from each query; their float32
        # scores differ only by rounding, so the two candidates are seldom
        # the two smallest indices. The recheck must still order the tied
        # rows by index.
        offsets = np.array([(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3),
                            (-3, -4), (-4, -3), (5, 0), (0, 5), (-5, 0), (0, -5)], float)
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.integers(2**19, 2**21, size=(1, 2)).astype(float)
            b = a + offsets[rng.permutation(12)]
            idx, dist, ratio, recheck = matching._nearest(a, b)
            assert (idx[0], dist[0], ratio[0], recheck[0]) == (0, 5.0, 1.0, True)

    def test_float32_near_tie_is_exact(self):
        m = nn_match(kps_from_desc(NEAR_TIE[0]), kps_from_desc(NEAR_TIE[1]))
        assert m.idx2[0] == 3
        assert m.dist[0] == 1.0 - (0.5 + 1e-8)
        assert m.ratio[0] == pytest.approx((0.5 - 1e-8) / 0.5, rel=1e-15)

    def test_distances_are_explicit_differences(self):
        # Bit for bit: the prescale by a power of two is exact, and the
        # refinement sums the same squared differences as the oracle.
        rng = np.random.default_rng(11)
        d1 = rng.normal(size=(30, 24)) * rng.uniform(0.1, 10.0, size=(30, 1))
        d2 = rng.normal(size=(45, 24))
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        idx, dist, ratio = explicit_nn(d1, d2)
        assert np.array_equal(m.idx2, idx)
        assert np.array_equal(m.dist, dist)
        assert np.array_equal(m.ratio, ratio)

    @pytest.mark.parametrize("factor", [1e-25, 1e20])
    def test_extreme_scales_match_oracle(self, factor):
        rng = np.random.default_rng(12)
        d1 = factor * rng.normal(size=(20, 8))
        d2 = factor * rng.normal(size=(30, 8))
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        idx, dist, ratio = explicit_nn(d1, d2)
        assert np.array_equal(m.idx2, idx)
        assert np.allclose(m.dist, dist, rtol=1e-12, atol=0)
        assert np.allclose(m.ratio, ratio, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_power_of_two_scales(self, shift):
        # 2**600 squared overflows float64 and 2**-600 squared underflows it.
        rng = np.random.default_rng(13)
        d1 = rng.normal(size=(20, 8))
        d2 = rng.normal(size=(30, 8))
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        ms = nn_match(kps_from_desc(np.ldexp(d1, shift)), kps_from_desc(np.ldexp(d2, shift)))
        assert np.array_equal(ms.idx2, m.idx2)
        assert np.array_equal(ms.ratio, m.ratio)
        assert np.array_equal(ms.dist, np.ldexp(m.dist, shift))

    def test_insufficient_keypoints(self):
        with pytest.raises(ValueError, match="at least 2"):
            nn_match(kps_from_desc([[1.0, 0.0]]), kps_from_desc([[1.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            nn_match(
                kps_from_desc([[1.0, 0.0]]),
                kps_from_desc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            )


def screen_inputs(kind, d, rng):
    """Descriptor sets for the direct test of `_screen_bound`."""
    d1, d2 = rng.normal(size=(5, d)), rng.normal(size=(7, d))
    if kind == "mixed-norms":
        d1 *= 10.0 ** rng.integers(-3, 4, size=(5, 1))
        d2 *= 10.0 ** rng.integers(-3, 4, size=(7, 1))
    elif kind in ("up", "down"):
        shift = 600 if kind == "up" else -600
        d1, d2 = np.ldexp(d1, shift), np.ldexp(d2, shift)
    elif kind == "subnormal":
        # Rows whose float32 casts and products fall below 2**-126.
        d2 = np.ldexp(d2, -np.array([0, 60, 120, 126, 135, 140, 149])[:, None])
        d1[1:] = np.ldexp(d1[1:], -130)
    elif kind == "offset":
        # ‖b‖²/2 dwarfs the gaps between the scores.
        offset = 1000.0 * rng.normal(size=d)
        d1, d2 = d1 + offset, d2 + offset
    return d1, d2


class TestScreeningGuard:
    @pytest.mark.parametrize("d", [1, 2, 16, 128])
    @pytest.mark.parametrize("kind", ["gauss", "mixed-norms", "up", "down", "subnormal",
                                      "offset"])
    def test_scores_within_bound(self, kind, d):
        # The kernel's own float32 scores against the exact scores
        # S = a·b - ‖b‖²/2 of the prescaled rows: |s - S| <= e_i - |D64 - D|/2,
        # the inequality that `_screen_bound`'s proof rests on.
        d1, d2 = screen_inputs(kind, d, np.random.default_rng(d))
        shift = matching._prescale(d1, d2)
        a, b = np.ldexp(d1, -shift), np.ldexp(d2, -shift)
        bt, max_b = matching._folded(b)
        s = matching._scores(a, bt, np.empty((len(a), len(b)), dtype=np.float32))
        bound = matching._screen_bound(np.sqrt(np.einsum("ij,ij->i", a, a)), max_b, d)
        fa = [[Fraction(x) for x in row] for row in a.tolist()]
        fb = [[Fraction(x) for x in row] for row in b.tolist()]
        for i, ai in enumerate(fa):
            d64 = matching._sq_dist(b, np.arange(len(b)), a[i])
            for j, bj in enumerate(fb):
                exact = sum(x * y - y * y / 2 for x, y in zip(ai, bj))
                dist = sum((x - y) ** 2 for x, y in zip(ai, bj))
                slack = Fraction(bound[i]) - abs(Fraction(d64[j]) - dist) / 2
                assert abs(Fraction(float(s[i, j])) - exact) <= slack, (i, j)

    def test_recheck_rate_on_gaussian_descriptors(self):
        # About 0.3% of rows are rechecked; a loosened bound would flood.
        rng = np.random.default_rng(16)
        recheck = matching._nearest(rng.normal(size=(2000, 128)),
                                    rng.normal(size=(2000, 128)))[3]
        assert recheck.mean() < 0.01

    def test_near_tie_is_rechecked(self):
        recheck = matching._nearest(np.array(NEAR_TIE[0]), np.array(NEAR_TIE[1]))[3]
        assert list(recheck) == [True]

    def test_separated_rows_are_not_rechecked(self):
        # No row but the two candidates reaches the floor, so the screening
        # is trusted.
        rng = np.random.default_rng(14)
        recheck = matching._nearest(rng.normal(size=(200, 32)), rng.normal(size=(300, 32)))[3]
        assert not recheck.any()

    @pytest.mark.parametrize("n2", [1, 2])
    def test_no_recheck_without_a_third_row(self, monkeypatch, n2):
        # Both candidates are masked to -inf, so even a huge bound finds no
        # other row at or above the floor.
        monkeypatch.setattr(matching, "_screen_bound",
                            lambda norm_a, max_b, d: np.full_like(norm_a, 1e30))
        d1 = np.array(NEAR_TIE[0] * 3)
        d2 = np.array(NEAR_TIE[1][:n2])
        idx, dist, ratio, recheck = matching._nearest(d1, d2)
        assert not recheck.any()
        oracle = explicit_nn(d1, d2)
        assert np.array_equal(idx, oracle[0])
        assert np.array_equal(dist, oracle[1])
        assert np.array_equal(ratio, oracle[2])

    def test_guard_is_inclusive(self, monkeypatch):
        # A zero bound still rechecks a row where another row's float32
        # score equals the 2nd candidate's: reaching the floor is enough.
        monkeypatch.setattr(matching, "_screen_bound", lambda norm_a, max_b, d: 0.0 * norm_a)
        idx, _, _, recheck = matching._nearest(np.array(NEAR_TIE[0]), np.array(NEAR_TIE[1]))
        assert list(recheck) == [True] and list(idx) == [3]


class TestBlocks:
    """The first set is searched in blocks of matching._CHUNK rows."""

    @pytest.mark.parametrize("n1", [255, 256, 257, 513])
    def test_block_seams_match_oracle(self, n1):
        rng = np.random.default_rng(n1)
        d1 = rng.normal(size=(n1, 16))
        d2 = rng.normal(size=(300, 16))
        # Rows of the second and third blocks get three second-set rows a
        # hair apart, which float32 cannot order.
        planted = [r for r in (256, 300, 511, 512) if r < n1]
        for k, r in enumerate(planted):
            base = 3 * k
            d2[base + 1:base + 3] = d2[base] + 1e-9 * rng.normal(size=(2, 16))
            d1[r] = d2[base] + 1e-3 * rng.normal(size=16)
        idx, dist, ratio, recheck = matching._nearest(d1, d2)
        oracle = explicit_nn(d1, d2)
        assert np.array_equal(idx, oracle[0])
        assert np.array_equal(dist, oracle[1])
        assert np.array_equal(ratio, oracle[2])
        assert recheck[planted].all()
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        assert np.array_equal(m.idx2, idx)

    @pytest.mark.parametrize("n1", [255, 257, 513])
    def test_recheck_of_every_row_matches_oracle(self, monkeypatch, n1):
        # A huge bound puts every row of the second set above every floor,
        # so every row is recomputed against the whole second set.
        monkeypatch.setattr(matching, "_screen_bound",
                            lambda norm_a, max_b, d: np.full_like(norm_a, 1e30))
        rng = np.random.default_rng(n1)
        d1 = rng.normal(size=(n1, 16))
        d2 = rng.normal(size=(300, 16))
        idx, dist, ratio, recheck = matching._nearest(d1, d2)
        oracle = explicit_nn(d1, d2)
        assert recheck.all()
        assert np.array_equal(idx, oracle[0])
        assert np.array_equal(dist, oracle[1])
        assert np.array_equal(ratio, oracle[2])

    def test_working_memory_is_bounded(self):
        # About 13 MB: the second set in float64 and as a (129, 4000)
        # float32 array and one 256 x 4000 float32 score buffer; once 44 MB.
        rng = np.random.default_rng(15)
        k1 = kps_from_desc(rng.normal(size=(4000, 128)))
        k2 = kps_from_desc(rng.normal(size=(4000, 128)))
        tracemalloc.start()
        try:
            nn_match(k1, k2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@st.composite
def descriptor_pairs(draw):
    """Descriptor sets with duplicated rows, near-ties of 1e-9 to 1e-6,
    quantised values, mixed row norms and a power-of-two scale."""
    d = draw(st.sampled_from([1, 2, 8, 128]))
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.sampled_from([2, 3, 4, 5, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    desc = rng.normal(size=(n1 + n2, d))
    values = draw(st.sampled_from(["free", "quantised", "mixed-norms"]))
    if values == "quantised":
        desc = np.round(4.0 * desc) / 4.0
    elif values == "mixed-norms":
        desc *= 10.0 ** rng.integers(-3, 4, size=(n1 + n2, 1))
    d1, d2 = desc[:n1], desc[n1:]
    if draw(st.booleans()):  # duplicated rows, also of the first set
        d2[rng.integers(n2, size=n2 // 2)] = d2[0]
        d2[-1] = d1[0]
    eps = draw(st.sampled_from([0.0, 1e-9, 1e-8, 1e-7, 1e-6]))
    if eps:  # rows a hair from one another or from a query
        near = rng.integers(n2, size=n2 // 2 + 1)
        d2[near] = d2[near[0]] + eps * rng.normal(size=(near.size, d))
        d2[0] = d1[-1] + eps * rng.normal(size=d)
    return d1, d2, draw(st.sampled_from([0] + SHIFTS))


class TestExactSearchProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(descriptor_pairs())
    @example((np.array(NEAR_TIE[0]), np.array(NEAR_TIE[1]), 0))
    def test_equals_explicit_difference_oracle(self, inputs):
        d1, d2, shift = inputs
        k1 = kps_from_desc(np.ldexp(d1, shift))
        k2 = kps_from_desc(np.ldexp(d2, shift))
        m = nn_match(k1, k2)
        idx, dist, ratio = explicit_nn(d1, d2)
        assert np.array_equal(m.idx2, idx)
        assert np.allclose(np.ldexp(m.dist, -shift), dist, rtol=1e-12, atol=0)
        assert np.allclose(m.ratio, ratio, rtol=1e-12, atol=0)
        kept = mutual_nn_filter(k1, k2, m)
        assert np.array_equal(m.idx1[kept], mutual_oracle(d1, d2, m))


class TestRatioTestFilter:
    def _matches(self, ratios):
        ratios = np.asarray(ratios, dtype=float)
        n = ratios.shape[0]
        return MatchSet(
            idx1=np.arange(n),
            idx2=np.arange(n),
            dist=np.zeros(n),
            ratio=ratios,
        )

    def test_basic(self):
        m = self._matches([0.5, 0.9])
        kept = ratio_test_filter(m, 0.8)
        assert list(m.ratio[kept]) == [0.5]

    def test_threshold_one_is_identity(self):
        m = self._matches([0.1, 0.99, 1.0])
        assert len(ratio_test_filter(m, 1.0)) == 3

    def test_count_against_direct_count(self):
        rng = np.random.default_rng(4)
        ratios = rng.uniform(0, 1, size=1000)
        kept = ratio_test_filter(self._matches(ratios), 0.8)
        assert len(kept) == int(np.sum(ratios <= 0.8))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        m = self._matches(rng.uniform(0, 1, size=200))
        for lo, hi in [(0.2, 0.5), (0.5, 0.9), (0.9, 1.0)]:
            a = set(m.idx1[ratio_test_filter(m, lo)])
            b = set(m.idx1[ratio_test_filter(m, hi)])
            assert a <= b

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5])
    def test_invalid_threshold(self, t):
        with pytest.raises(ValueError):
            ratio_test_filter(self._matches([0.5]), t)


class TestMutualNNFilter:
    def test_identical_sets_all_kept(self):
        rng = np.random.default_rng(6)
        d = rng.normal(size=(20, 4))
        k = kps_from_desc(d)
        m = nn_match(k, k)
        kept = mutual_nn_filter(k, k, m)
        assert len(kept) == 20

    def test_hand_case(self):
        # both k1 points match k2[0]; k2[0]'s reverse NN is k1[0]
        k1 = kps_from_desc([[1.0, 0.0], [0.9, 0.0]])
        k2 = kps_from_desc([[1.0, 0.0], [5.0, 5.0]])
        m = nn_match(k1, k2)
        assert list(m.idx2) == [0, 0]
        kept = mutual_nn_filter(k1, k2, m)
        assert len(kept) == 1
        assert m.idx1[kept[0]] == 0 and m.idx2[kept[0]] == 0

    def test_empty_matches(self):
        # An empty first set leaves no reverse search to run.
        k0 = kps_from_desc(np.zeros((0, 2)))
        k1 = kps_from_desc([[1.0, 0.0], [0.0, 1.0]])
        for a, b in ((k1, k1), (k1, k0), (k0, k1), (k0, k0)):
            kept = mutual_nn_filter(a, b, MatchSet.empty())
            assert kept.dtype == np.int64 and kept.shape == (0,)

    @pytest.mark.parametrize("shift", [0] + SHIFTS)
    def test_matches_brute_force_reverse_oracle(self, shift):
        rng = np.random.default_rng(8)
        d1 = rng.normal(size=(40, 6))
        d1[20:30] = d1[:10]              # exact duplicates in the reverse search
        d2 = np.vstack([d1[:15] + 1e-3 * rng.normal(size=(15, 6)), rng.normal(size=(25, 6))])
        m = nn_match(kps_from_desc(d1), kps_from_desc(d2))
        kept = mutual_nn_filter(kps_from_desc(np.ldexp(d1, shift)),
                                kps_from_desc(np.ldexp(d2, shift)), m)
        expect = mutual_oracle(d1, d2, m)
        assert np.array_equal(m.idx1[kept], expect)
        assert 10 <= len(expect) < 40

    def test_single_keypoint_first_set(self):
        k1 = kps_from_desc([[1.0, 0.0]])
        k2 = kps_from_desc([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert len(mutual_nn_filter(k1, k2, nn_match(k1, k2))) == 1

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(7)
        k1 = kps_from_desc(rng.normal(size=(50, 5)))
        k2 = kps_from_desc(rng.normal(size=(50, 5)))
        m = nn_match(k1, k2)
        kept = mutual_nn_filter(k1, k2, m)
        assert set(m.idx1[kept]) <= set(m.idx1)
        again = mutual_nn_filter(k1, k2, m.take(kept))
        assert np.array_equal(again, np.arange(len(kept)))


class TestFilterRows:
    """Both baseline filters return the rows of their input that they keep:
    sorted, unique int64 indices, np.flatnonzero of the filter's rule."""

    @staticmethod
    def _check(kept, rule):
        assert kept.dtype == np.int64 and kept.ndim == 1
        assert np.all(np.diff(kept) > 0)
        assert np.array_equal(kept, np.flatnonzero(rule))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(descriptor_pairs(), st.data())
    def test_rows_are_flatnonzero_of_the_rule(self, inputs, data):
        d1, d2, shift = inputs
        k1 = kps_from_desc(np.ldexp(d1, shift))
        k2 = kps_from_desc(np.ldexp(d2, shift))
        # A subset of nn_match's rows in any order, so that rows and idx1 differ.
        rows = data.draw(st.lists(st.integers(0, len(d1) - 1), unique=True))
        m = nn_match(k1, k2).take(np.array(rows, dtype=np.int64))
        threshold = data.draw(st.sampled_from([r for r in m.ratio if r > 0] or [1.0])
                              | st.floats(0.0, 1.0, exclude_min=True))
        self._check(ratio_test_filter(m, threshold), m.ratio <= threshold)
        back = explicit_nn(d2[m.idx2], d1)[0]
        self._check(mutual_nn_filter(k1, k2, m), back == m.idx1)
