"""Detection and diagnosis metrics recomputed apart from `tranad`.

The benchmark checks the program's reported metrics against these.  They
use numpy and `scipy.stats` only, and share no code with `tranad.metrics`.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def confusion(pred, truth):
    """(tp, fp, fn, tn) over binary timestamp labels."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    return (int(np.count_nonzero(pred & truth)), int(np.count_nonzero(pred & ~truth)),
            int(np.count_nonzero(~pred & truth)), int(np.count_nonzero(~pred & ~truth)))


def prf1(pred, truth):
    """Precision, recall and F1; a zero denominator gives 0."""
    tp, fp, fn, _ = confusion(pred, truth)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def point_adjust(pred, truth):
    """Mark a whole true segment detected when any of its timestamps is."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    starts = truth & ~np.concatenate([[False], truth[:-1]])
    segment = np.where(truth, np.cumsum(starts), 0)      # 0 outside segments
    hit = np.zeros(segment.max() + 1, dtype=bool)
    hit[segment[pred & truth]] = True
    hit[0] = False
    return (pred | hit[segment]).astype(np.int8)


def auc(scores, truth):
    """ROC-AUC as the Mann-Whitney U of positives over negatives, ties
    counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    u = stats.mannwhitneyu(scores[truth], scores[~truth], method="asymptotic").statistic
    return float(u) / (truth.sum() * (~truth).sum())


def _top_k(scores, dim_truth, p_pct):
    """Per anomalous timestamp: relevance of the dims in rank order, G and k."""
    dim_truth = np.asarray(dim_truth).astype(bool)
    rows = np.flatnonzero(dim_truth.any(axis=1))
    # descending score, ties by ascending dimension index
    order = np.argsort(-np.asarray(scores)[rows], axis=1, kind="stable")
    relevant = np.take_along_axis(dim_truth[rows], order, axis=1)
    g = dim_truth[rows].sum(axis=1)
    k = np.minimum(g * p_pct // 100, dim_truth.shape[1])
    return relevant, g, k


def hitrate(scores, dim_truth, p_pct):
    """Mean share of the G true dims found among the top floor(G*P/100)."""
    relevant, g, k = _top_k(scores, dim_truth, p_pct)
    in_top = np.arange(relevant.shape[1]) < k[:, None]
    return float(np.mean((relevant & in_top).sum(axis=1) / g))


def ndcg(scores, dim_truth, p_pct):
    """Mean binary-relevance NDCG over the same candidate sets as hitrate."""
    relevant, g, k = _top_k(scores, dim_truth, p_pct)
    pos = np.arange(relevant.shape[1])
    gain = 1.0 / np.log2(pos + 2)
    dcg = (relevant * (pos < k[:, None]) * gain).sum(axis=1)
    idcg = ((pos < np.minimum(g, k)[:, None]) * gain).sum(axis=1)
    return float(np.mean(np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0)))


def report(scores, pred, dim_truth, point_adjusted):
    """The fields of the program's evaluation report, recomputed."""
    truth = np.asarray(dim_truth).any(axis=1)
    if point_adjusted:
        pred = point_adjust(pred, truth)
    p, r, f1 = prf1(pred, truth)
    tp, fp, fn, tn = confusion(pred, truth)
    out = {"precision": p, "recall": r, "f1": f1, "tp": tp, "fp": fp, "fn": fn, "tn": tn,
           "auc": auc(np.asarray(scores).max(axis=1), truth)}
    for pct in (100, 150):
        out[f"hitrate_{pct}"] = hitrate(scores, dim_truth, pct)
        out[f"ndcg_{pct}"] = ndcg(scores, dim_truth, pct)
    return out
