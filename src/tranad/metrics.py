"""Detection and diagnosis metrics.

Detection: precision / recall / F1 over binary timestamp labels, ROC AUC on
numpy midranks, and optional point adjustment (a correct hit anywhere inside
a ground-truth anomaly segment counts the whole segment as detected).

Diagnosis: HitRate@P% and NDCG@P% over per-timestamp dimension rankings,
where the candidate count at a timestamp with G truly anomalous dimensions
is floor(G * P / 100).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .dataset import check_finite
from .errors import DegenerateTruth, ShapeMismatch


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    auc: float
    tp: int
    fp: int
    fn: int
    tn: int
    point_adjusted: bool = False
    degenerate: bool = False
    hitrate_100: float = None
    hitrate_150: float = None
    ndcg_100: float = None
    ndcg_150: float = None

    def to_dict(self):
        # an undefined AUC is NaN here and None, JSON null, in a report
        return dict(asdict(self), auc=None if np.isnan(self.auc) else self.auc)


def prf1(pred, truth):
    """Precision, recall, F1 with the zero-denominator-means-zero convention."""
    return _prf1(*confusion(pred, truth)[:3])


def _prf1(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def confusion(pred, truth):
    """(tp, fp, fn, tn) of binary predictions against binary truth."""
    pred, truth = _as_binary(pred, truth)
    return tuple(int(np.sum((pred == p) & (truth == t)))
                 for p, t in ((1, 1), (1, 0), (0, 1), (0, 0)))


def _as_binary(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"pred length {pred.size} != truth length {truth.size}")
    return pred, truth


def roc_auc(scores, truth):
    """Rank-based AUC (Mann-Whitney statistic) with midranks for ties."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if scores.shape != truth.shape:
        raise ShapeMismatch("scores and truth lengths differ")
    check_finite(scores[:, None], "score")
    npos = int(np.sum(truth == 1))
    nneg = int(np.sum(truth == 0))
    if npos == 0 or nneg == 0:
        raise DegenerateTruth("AUC needs at least one positive and one negative")
    s = np.sort(scores)   # a tie block s[l:r] shares midrank (l + r + 1) / 2, exact in float64
    ranks = (np.searchsorted(s, scores, "left") + np.searchsorted(s, scores, "right") + 1) / 2
    pos_rank_sum = ranks[truth == 1].sum()
    return float((pos_rank_sum - npos * (npos + 1) / 2) / (npos * nneg))


def point_adjust(pred, truth):
    """Expand any in-segment hit to the full ground-truth anomaly segment.
    Never flips a prediction from 1 to 0."""
    pred, truth = _as_binary(pred, truth)
    adjusted = pred.copy()
    edges = np.flatnonzero(np.diff((truth == 1).astype(np.int8), prepend=0, append=0))
    for start, end in zip(edges[::2], edges[1::2]):
        if adjusted[start:end].any():
            adjusted[start:end] = 1
    return adjusted


def _top_hits(rankings, truth, p_pct):
    """Over the timestamps with at least one truly anomalous dimension G:
    which ranks hold a true dimension among the top floor(G * P / 100)
    candidates, as a dense (n, r) mask, with G and the candidate count."""
    rankings = np.asarray(rankings)
    true = np.asarray(truth) != 0
    if rankings.shape[0] != true.shape[0]:
        raise ShapeMismatch("rankings and truth lengths differ")
    g = true.sum(axis=1)
    rows = g > 0
    if not rows.any():
        raise DegenerateTruth("no timestamp has an anomalous dimension")
    g = g[rows]
    k = np.floor(g * p_pct / 100.0).astype(np.int64)
    hits = np.take_along_axis(true[rows], rankings[rows], axis=1)
    return hits & (np.arange(hits.shape[1]) < k[:, None]), g, k


def hitrate_at(rankings, truth, p_pct):
    """Mean fraction of truly anomalous dimensions found among the top
    floor(G * P / 100) ranked candidates, over anomalous timestamps."""
    top, g, _ = _top_hits(rankings, truth, p_pct)
    return float(np.mean(top.sum(axis=1) / g))


def ndcg_at(rankings, truth, p_pct):
    """Mean normalized discounted cumulative gain with binary relevance over
    the same candidate sets as hitrate_at."""
    top, g, k = _top_hits(rankings, truth, p_pct)
    gain = 1.0 / np.log2(np.arange(max(top.shape[1], int(g.max()))) + 2.0)
    dcg = top @ gain[:top.shape[1]]
    # the ideal ranking holds a true dimension at each of the first min(G, k)
    idcg = np.concatenate(([0.0], np.cumsum(gain)))[np.minimum(g, k)]
    return float(np.mean(np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0)))


def evaluate(scores_agg, pred, truth, point_adjusted=False,
             rankings=None, dim_truth=None):
    """Assemble the full report for one detection run.

    scores_agg: per-timestamp aggregate scores (for AUC); pred/truth: binary
    timestamp labels; rankings/dim_truth enable the diagnosis metrics.
    """
    pred, truth = _as_binary(pred, truth)
    if point_adjusted:
        pred = point_adjust(pred, truth)
    tp, fp, fn, tn = confusion(pred, truth)
    p, r, f1 = _prf1(tp, fp, fn)
    degenerate = (tp + fp == 0) or (tp + fn == 0)
    try:
        auc = roc_auc(scores_agg, truth)
    except DegenerateTruth:
        auc = float("nan")
        degenerate = True
    report = EvalReport(precision=p, recall=r, f1=f1, auc=auc,
                        tp=tp, fp=fp, fn=fn, tn=tn,
                        point_adjusted=point_adjusted, degenerate=degenerate)
    if rankings is not None and dim_truth is not None:
        try:
            report.hitrate_100 = hitrate_at(rankings, dim_truth, 100)
            report.hitrate_150 = hitrate_at(rankings, dim_truth, 150)
            report.ndcg_100 = ndcg_at(rankings, dim_truth, 100)
            report.ndcg_150 = ndcg_at(rankings, dim_truth, 150)
        except DegenerateTruth:
            pass
    return report
