"""Detection and diagnosis metrics against hand-computed and brute-force
oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import rankdata

from tranad import metrics
from tranad.errors import DegenerateTruth, NonFiniteInput, ShapeMismatch


@st.composite
def tie_heavy(draw):
    """Finite scores drawn from at most four levels, and a truth vector with
    at least one positive and one negative."""
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4))
    scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    npos = draw(st.integers(1, n - 1))
    truth = draw(st.permutations([1] * npos + [0] * (n - npos)))
    return np.array(scores), np.array(truth)


def brute_force_auc(scores, truth):
    """Pairwise Mann-Whitney enumeration with half-credit for ties."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestPrf1:
    def test_perfect(self):
        pred = truth = np.array([0, 1, 1, 0])
        assert metrics.prf1(pred, truth) == (1.0, 1.0, 1.0)

    def test_half(self):
        pred = np.array([1, 1, 0])
        truth = np.array([1, 0, 1])
        p, r, f1 = metrics.prf1(pred, truth)
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_degenerate_zeros(self):
        assert metrics.prf1(np.zeros(5), np.zeros(5)) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            metrics.prf1(np.zeros(3), np.zeros(4))

    def test_f1_symmetric_in_p_and_r(self):
        # F1 as a function of (P, R) is symmetric; swap FP and FN counts
        pred = np.array([1, 1, 1, 0, 0])
        truth = np.array([1, 0, 0, 1, 0])
        p1, r1, f1a = metrics.prf1(pred, truth)
        p2, r2, f1b = metrics.prf1(truth, pred)
        assert (p1, r1) == (r2, p2)
        assert f1a == pytest.approx(f1b)


class TestAuc:
    def test_perfect_separation(self):
        assert metrics.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_scores(self):
        assert metrics.roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_four_point_case(self):
        assert metrics.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_degenerate(self):
        with pytest.raises(DegenerateTruth):
            metrics.roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch, match="scores and truth lengths differ"):
            metrics.roc_auc(np.zeros(3), np.array([0, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=40)
        truth = rng.integers(0, 2, size=40)
        truth[0], truth[1] = 0, 1
        a = metrics.roc_auc(scores, truth)
        b = metrics.roc_auc(np.exp(3 * scores) + 7, truth)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_its_timestamp(self, bad):
        with pytest.raises(NonFiniteInput, match="score at timestamp 2"):
            metrics.roc_auc([0.1, 0.2, bad, 0.4], [0, 1, 0, 1])

    @given(tie_heavy())
    @example((np.full(5, 0.5), np.array([1, 0, 0, 1, 0])))          # all tied
    @example((np.array([0.1, 0.4, 0.4, 0.2]), np.array([0, 1, 0, 0])))   # one positive
    def test_equals_rankdata_bit_for_bit(self, case):
        scores, truth = case
        P, N = int(truth.sum()), int((truth == 0).sum())
        want = (rankdata(scores)[truth == 1].sum() - P * (P + 1) / 2) / (P * N)
        assert metrics.roc_auc(scores, truth) == float(want)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.integers(0, 5, size=30).astype(float)   # many ties
            truth = rng.integers(0, 2, size=30)
            truth[:2] = [0, 1]
            assert metrics.roc_auc(scores, truth) == \
                pytest.approx(brute_force_auc(scores, truth), abs=1e-12)


class TestPointAdjust:
    def test_segment_expansion(self):
        truth = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        pred = np.array([0, 0, 0, 0, 1, 0, 0, 0])
        np.testing.assert_array_equal(metrics.point_adjust(pred, truth),
                                      [0, 0, 0, 1, 1, 1, 1, 0])

    def test_no_overlap_unchanged(self):
        truth = np.array([0, 1, 1, 0])
        pred = np.array([1, 0, 0, 0])
        np.testing.assert_array_equal(metrics.point_adjust(pred, truth), pred)

    def test_all_ones_unchanged(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.ones(4, dtype=int)
        np.testing.assert_array_equal(metrics.point_adjust(pred, truth), pred)

    def test_matches_segment_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            truth = rng.integers(0, 2, size=25)
            truth[0] = truth[-1] = 1             # segments at both ends
            pred = rng.integers(0, 2, size=25) * (rng.random(25) < 0.3)
            expected = pred.copy()
            t = 0
            while t < truth.size:
                end = t
                while end < truth.size and truth[end] == 1:
                    end += 1
                if end > t and pred[t:end].any():
                    expected[t:end] = 1
                t = max(end, t + 1)
            np.testing.assert_array_equal(metrics.point_adjust(pred, truth), expected)

    def test_never_flips_one_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            truth = rng.integers(0, 2, size=25)
            pred = rng.integers(0, 2, size=25)
            adj = metrics.point_adjust(pred, truth)
            assert (adj >= pred).all()


class TestDiagnosisMetrics:
    def test_hitrate_worked_example(self):
        # two true dimensions ranked 1st and 3rd: 100% -> top-2 -> half found;
        # 150% -> top-3 -> both found
        rankings = [[0, 4, 1, 2, 3]]
        truth = np.array([[1, 1, 0, 0, 0]])
        assert metrics.hitrate_at(rankings, truth, 100) == 0.5
        assert metrics.hitrate_at(rankings, truth, 150) == 1.0

    def test_hitrate_perfect_and_zero(self):
        truth = np.array([[1, 1, 0, 0, 0, 0]])
        assert metrics.hitrate_at([[0, 1, 2, 3, 4, 5]], truth, 100) == 1.0
        assert metrics.hitrate_at([[5, 4, 3, 2, 1, 0]], truth, 100) == 0.0

    def test_ndcg_ideal(self):
        truth = np.array([[0, 1, 1, 0]])
        assert metrics.ndcg_at([[1, 2, 0, 3]], truth, 100) == pytest.approx(1.0)

    def test_ndcg_single_dim_rules(self):
        truth = np.array([[1, 0, 0]])
        # G=1 at 150% -> floor(1.5)=1 candidate; true dim at rank 2 misses
        assert metrics.ndcg_at([[1, 0, 2]], truth, 150) == 0.0
        assert metrics.ndcg_at([[0, 1, 2]], truth, 100) == pytest.approx(1.0)

    def test_ndcg_hand_case(self):
        # G=2, true dims at ranks 1 and 3 of the top-3 candidates
        truth = np.array([[1, 1, 0, 0]])
        got = metrics.ndcg_at([[0, 2, 1, 3]], truth, 150)
        dcg = 1 / math.log2(2) + 1 / math.log2(4)
        idcg = 1 / math.log2(2) + 1 / math.log2(3)
        assert got == pytest.approx(dcg / idcg)
        assert got == pytest.approx(0.9197207891481876)

    def test_ndcg_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = 5
            truth = rng.integers(0, 2, size=(4, m))
            truth[0, 0] = 1
            rankings = [list(rng.permutation(m)) for _ in range(4)]
            v = metrics.ndcg_at(rankings, truth, 150)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("metric", [metrics.hitrate_at, metrics.ndcg_at])
    def test_length_mismatch(self, metric):
        with pytest.raises(ShapeMismatch, match="rankings and truth lengths differ"):
            metric([[0, 1], [1, 0]], np.ones((3, 2), dtype=int), 100)

    def test_no_anomalous_timestamps(self):
        with pytest.raises(DegenerateTruth):
            metrics.hitrate_at([[0, 1]], np.zeros((1, 2), dtype=int), 100)


class TestEvaluate:
    def test_full_report(self):
        scores = np.array([0.1, 0.9, 0.8, 0.2])
        pred = np.array([0, 1, 1, 0])
        truth = np.array([0, 1, 1, 0])
        rep = metrics.evaluate(scores, pred, truth)
        assert rep.f1 == 1.0 and rep.auc == 1.0
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 0, 0, 2)
        assert not rep.degenerate

    def test_point_adjusted_mode(self):
        truth = np.array([0, 1, 1, 1, 0])
        pred = np.array([0, 0, 1, 0, 0])
        scores = pred.astype(float)
        raw = metrics.evaluate(scores, pred, truth, point_adjusted=False)
        adj = metrics.evaluate(scores, pred, truth, point_adjusted=True)
        assert raw.recall == pytest.approx(1 / 3)
        assert adj.recall == 1.0 and adj.point_adjusted

    def test_degenerate_truth_flags_nan_auc(self):
        rep = metrics.evaluate(np.zeros(3), np.zeros(3), np.zeros(3))
        assert math.isnan(rep.auc) and rep.degenerate
