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
from .dataset import make_windows
from .errors import InvalidConfig
from .training import batch_groups

SCORE_REDUCES = ("last_row", "window_mean")
SCORE_CHUNK = 32


@dataclass
class ScoreRecord:
    timestamp: int
    scores: np.ndarray        # (m,) nonnegative
    labels: np.ndarray        # (m,) in {0,1}
    label: int                # OR over dimensions


def score_batch(model, W, C, score_reduce="last_row"):
    """Per-dimension anomaly scores for a (B, K, m) window stack sharing one
    context length: the average of the squared phase-1 and conditioned
    phase-2 deviations."""
    if score_reduce not in SCORE_REDUCES:
        raise InvalidConfig(f"score_reduce must be one of {SCORE_REDUCES}, got {score_reduce!r}")
    with ad.no_grad():
        out = model.forward_two_phase(W, C, training=False)
    d1 = (out.O1.data - W) ** 2
    d2 = (out.O2_hat.data - W) ** 2
    s = 0.5 * d1 + 0.5 * d2
    if score_reduce == "last_row":
        return s[:, -1, :]
    return s.mean(axis=1)


def score_series(model, series, score_reduce="last_row"):
    """Per-timestamp, per-dimension scores over a normalized series."""
    batch = make_windows(series, model.config.window_size, model.config.context_cap)
    scores = np.empty((len(batch), series.m))
    for W, C, idx in batch_groups(batch, SCORE_CHUNK):
        scores[idx] = score_batch(model, W, C, score_reduce)
    return scores


def detect_stream(model, test_series, threshold_model, score_reduce="last_row"):
    """One ScoreRecord per test timestamp, in time order."""
    scores = score_series(model, test_series, score_reduce)
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
