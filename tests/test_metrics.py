import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adalam import exact_auc, hist_auc, map_at, match_prf


class TestMatchPRF:
    def test_worked_example(self):
        # 3 selected, 2 true inliers among them, 2 inliers missed
        gt = np.array([True, True, True, True, False, False])
        r = match_prf([0, 1, 4], gt)
        assert (r.true_positives, r.false_positives, r.false_negatives) == (2, 1, 2)
        assert r.precision == pytest.approx(2 / 3, abs=1e-12)
        assert r.recall == pytest.approx(1 / 2, abs=1e-12)
        assert r.f1 == pytest.approx(4 / 7, abs=1e-12)

    def test_perfect_selection(self):
        gt = np.array([True, False, True])
        r = match_prf([0, 2], gt)
        assert r.precision == 1.0 and r.recall == 1.0 and r.f1 == 1.0

    def test_empty_selection(self):
        gt = np.array([True, False])
        r = match_prf([], gt)
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0

    def test_f1_zero_iff_no_true_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt = rng.uniform(size=20) < 0.5
            sel = np.nonzero(rng.uniform(size=20) < 0.4)[0]
            r = match_prf(sel, gt)
            assert (r.f1 == 0.0) == (r.true_positives == 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            match_prf([5], np.array([True, False]))

    def test_lines_format(self):
        text = match_prf([0], np.array([True, False])).lines()
        assert "precision=1\n" in text
        assert text.endswith("f1=1\n")


class TestExactAuc:
    def test_worked_example(self):
        # four errors of 1 degree at threshold 5: mean (5-1)/5 = 0.8
        assert exact_auc([1.0, 1.0, 1.0, 1.0], 5.0) == pytest.approx(0.8, abs=1e-12)

    def test_zero_errors_give_one(self):
        assert exact_auc([0.0, 0.0], 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_failures_count_zero(self):
        assert exact_auc([np.inf, 0.0], 10.0) == pytest.approx(0.5, abs=1e-12)

    def test_linear_in_error(self):
        assert exact_auc([2.5], 10.0) == pytest.approx(0.75, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        e = rng.uniform(0, 30, size=100)
        assert exact_auc(e, 20.0) == pytest.approx(
            exact_auc(rng.permutation(e), 20.0), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [[], [-1.0], [np.nan]])
    def test_invalid_errors(self, bad):
        with pytest.raises(ValueError):
            exact_auc(bad, 10.0)

    def test_invalid_threshold(self):
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="exact_auc: threshold"):
                exact_auc([1.0], t)


class TestHistAuc:
    def test_worked_example(self):
        # errors 3, 8, 50 at threshold 10, width 5: recall(5)=1/3, recall(10)=2/3
        assert hist_auc([3.0, 8.0, 50.0], 10.0, 5.0) == pytest.approx(0.5, abs=1e-12)

    def test_right_edge_closed(self):
        # error exactly at a bin edge counts for that bin
        assert hist_auc([5.0], 10.0, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_exact(self):
        rng = np.random.default_rng(2)
        e = rng.uniform(0, 40, size=500)
        exact = exact_auc(e, 20.0)
        gaps = [abs(hist_auc(e, 20.0, w) - exact) for w in (5.0, 1.0, 0.1)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 0.01

    def test_hist_overestimates_exact(self):
        # right-edge evaluation never underestimates the integral mean
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = rng.uniform(0, 40, size=50)
            assert hist_auc(e, 20.0, 5.0) >= exact_auc(e, 20.0) - 1e-12

    def test_threshold_must_be_multiple(self):
        with pytest.raises(ValueError):
            hist_auc([1.0], 12.0, 5.0)

    def test_invalid_threshold(self):
        for t in (-5.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="hist_auc: threshold"):
                hist_auc([1.0], t, 5.0)

    def test_invalid_bin_width(self):
        for w in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="hist_auc: bin_width"):
                hist_auc([1.0], 10.0, w)

    def test_bin_count_overflow(self):
        # Both arguments are finite, but their ratio overflows to inf.
        with pytest.raises(ValueError, match=r"hist_auc: threshold / bin_width must be finite"):
            hist_auc([1.0], 1e308, 1e-308)

    def test_bin_count_limit(self):
        # 10**6 bins are computed; one more is refused before any array of
        # bins is allocated, naming exact_auc.
        assert hist_auc([0.5, math.inf], 1e6, 1.0) == 0.5
        tracemalloc.start()
        try:
            for threshold in (1e6 + 1, 1e8):
                with pytest.raises(ValueError, match=r"^hist_auc: .* exceed 1000000; exact_auc"):
                    hist_auc([0.5, math.inf], threshold, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


@st.composite
def hist_auc_inputs(draw):
    """(errors, threshold, bin_width): errors on bin edges, between them,
    beyond the threshold, zero and inf."""
    bin_width = draw(st.sampled_from([0.01, 0.1, 0.3, 1.0, 2.5, 5.0]))
    nbins = draw(st.integers(1, 60))
    error = st.one_of(st.integers(0, 70).map(lambda k: bin_width * k),
                      st.floats(0.0, 80 * bin_width), st.just(math.inf))
    errors = draw(st.lists(error, min_size=1, max_size=60))
    return errors, bin_width * nbins, bin_width


class TestHistAucProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hist_auc_inputs())
    def test_matches_recall_matrix(self, inputs):
        # recall at each right bin edge from the (bins x errors) comparison
        # matrix, averaged over the bins: the same bits as hist_auc.
        errors, threshold, bin_width = inputs
        e = np.asarray(errors)
        nbins = int(round(threshold / bin_width))
        edges = bin_width * np.arange(1, nbins + 1)
        expect = float((e[None, :] <= edges[:, None]).mean(axis=1).mean())
        assert hist_auc(errors, threshold, bin_width) == expect


class TestMapAt:
    def test_worked_example(self):
        assert map_at([3.0, 8.0, 50.0], 10.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_closed_comparison(self):
        assert map_at([10.0], 10.0) == 1.0

    def test_exact_auc_never_exceeds_map(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = rng.uniform(0, 30, size=40)
            t = float(rng.uniform(1, 25))
            assert exact_auc(e, t) <= map_at(e, t) + 1e-12

    def test_invalid_threshold(self):
        for t in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="map_at: threshold"):
                map_at([1.0], t)
