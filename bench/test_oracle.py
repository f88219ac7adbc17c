"""Hand-worked cases for the benchmark's own metric recomputations.

    python3 -m pytest bench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle


def test_auc_counts_a_tied_pair_as_one_half():
    # positives 0.4 and 0.8 against negatives 0.1 and 0.4: of the four pairs
    # three are won outright and 0.4 vs 0.4 is a tie, so AUC = 3.5 / 4
    scores = np.array([0.1, 0.4, 0.4, 0.8])
    truth = np.array([0, 1, 0, 1])
    assert oracle.auc(scores, truth) == pytest.approx(0.875, abs=1e-15)


def test_point_adjust_expands_only_segments_with_a_hit():
    truth = np.array([0, 1, 1, 1, 0, 0, 1, 1, 0])
    pred = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1])
    # the hit at t=2 fills segment 1-3; segment 6-7 has no hit and stays
    # missed; the false positive at t=8 is kept
    adjusted = oracle.point_adjust(pred, truth)
    assert adjusted.tolist() == [0, 1, 1, 1, 0, 0, 0, 0, 1]
    p, r, f1 = oracle.prf1(adjusted, truth)
    assert (p, r) == (0.75, 0.6)                 # tp=3 fp=1 fn=2
    assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)


def test_hitrate_and_ndcg_with_two_true_dims():
    # one anomalous timestamp, true dims {0, 2}; ranking by score is 0, 3, 2, 1
    scores = np.array([[0.9, 0.1, 0.5, 0.7], [0.0, 0.0, 0.0, 0.0]])
    truth = np.array([[1, 0, 1, 0], [0, 0, 0, 0]])
    # P=100%: top floor(2 * 1.0) = 2 are {0, 3}, one of two found
    assert oracle.hitrate(scores, truth, 100) == 0.5
    # P=150%: top floor(2 * 1.5) = 3 are {0, 3, 2}, both found
    assert oracle.hitrate(scores, truth, 150) == 1.0
    # NDCG@100%: gain 1/log2(2) at rank 1 only; ideal has ranks 1 and 2
    ideal = 1.0 + 1.0 / math.log2(3)
    assert oracle.ndcg(scores, truth, 100) == pytest.approx(1.0 / ideal, abs=1e-15)
    # NDCG@150%: hits at ranks 1 and 3 against the same ideal
    assert oracle.ndcg(scores, truth, 150) == pytest.approx(1.5 / ideal, abs=1e-15)


def test_hitrate_breaks_score_ties_by_lower_dimension():
    scores = np.array([[0.5, 0.5, 0.5]])
    assert oracle.hitrate(scores, np.array([[0, 1, 0]]), 100) == 0.0
    assert oracle.hitrate(scores, np.array([[1, 0, 0]]), 100) == 1.0
