"""Online inference: two-phase scoring of a test stream, per-dimension
labeling against fitted thresholds, and root-cause ranking.

Each timestamp's score depends only on its own window and context (both end
at that timestamp), so records are identical whether the stream is truncated
at t or not; batching below is purely a speed device.  SCORE_CHUNK windows
per forward keep its attention buffers small enough to stay in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dataset import batch_groups, make_windows

SCORE_CHUNK = 32


@dataclass
class ScoreRecord:
    timestamp: int
    scores: np.ndarray        # (m,) nonnegative
    labels: np.ndarray        # (m,) in {0,1}
    label: int                # OR over dimensions


def score_batch(model, W, C):
    """Per-dimension anomaly scores for a (B, K, m) window stack sharing one
    context length: the average of the squared phase-1 and conditioned
    phase-2 deviations at the last window row, the timestamp each window
    ends at."""
    with ad.no_grad():
        out = model.forward_two_phase(W, C, training=False)
    last = W[:, -1]
    return 0.5 * (out.O1.data[:, -1] - last) ** 2 + 0.5 * (out.O2_hat.data[:, -1] - last) ** 2


def score_series(model, series):
    """Per-timestamp, per-dimension scores over a normalized series."""
    batch = make_windows(series, model.config.window_size, model.config.context_cap)
    scores = np.empty((len(batch), series.m))
    for W, C, rows in batch_groups(batch, SCORE_CHUNK):
        scores[rows] = score_batch(model, W, C)
    return scores


def detect_stream(model, test_series, threshold_model):
    """One ScoreRecord per test timestamp, in time order."""
    scores = score_series(model, test_series)
    labels = (scores >= threshold_model.thresholds).astype(np.int8)
    flagged = labels.any(axis=1)
    return [ScoreRecord(timestamp=t, scores=scores[t], labels=labels[t],
                        label=int(flagged[t]))
            for t in range(scores.shape[0])]


def rank_dimensions(scores):
    """Each row of a (T, m) score matrix ranked by descending score; ties go
    to the lower dimension index, which a stable sort of the negated scores
    gives."""
    return np.argsort(-np.asarray(scores), axis=1, kind="stable")


def diagnose(records):
    """Per-timestamp ranking of dimensions by descending score, as lists."""
    if not records:
        raise ValueError("no records to diagnose")
    return rank_dimensions([rec.scores for rec in records]).tolist()
