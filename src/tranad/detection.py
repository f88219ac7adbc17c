"""Online inference: two-phase scoring of a test stream, per-dimension
labeling against fitted thresholds, and root-cause ranking.

A score reads O1 and the conditioned O2_hat at the last window row only, so
the scoring pass runs phase 2's cross-attention and decoder 2 on that row
(`LAST_ROW`) and never decodes O2.  Its scores differ from a full pass by
rounding only (at most 1e-15): the last-row matrix products have fewer rows.

Each timestamp's score depends only on its own window and context (both end
at that timestamp), so records are bit-identical whether the stream is
truncated at t or not, and whether a window is scored alone or in a chunk,
on any thread; chunks and threads below are purely speed devices.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dataset import batch_groups, check_finite, make_windows

SCORE_CHUNK = 48    # windows per forward, at most 512 // m: its weights stay near the cache
LAST_ROW = slice(-1, None)


@dataclass
class ScoreRecord:
    timestamp: int
    scores: np.ndarray        # (m,) nonnegative
    labels: np.ndarray        # (m,) in {0,1}
    label: int                # OR over dimensions


def score_batch(model, W, C):
    """Per-dimension anomaly scores for a (B, K, m) window stack sharing one
    context length: the mean of the squared phase-1 and conditioned phase-2
    deviations at the last window row, the timestamp each window ends at."""
    with ad.no_grad():
        out = model.forward_two_phase(W, C, decode_rows=LAST_ROW)
    last = W[:, -1]
    return 0.5 * (out.O1.data[:, -1] - last) ** 2 + 0.5 * (out.O2_hat.data[:, -1] - last) ** 2


def map_chunks(model, batch, fn):
    """[fn(W, C, rows) for each chunk of `batch`] with gradient recording off,
    split statically over this process's allowed cores: part 0 on the calling
    thread, the rest on a pool (one core starts no thread).  The flag is cleared
    once, around the pool, so a no_grad nested in a worker restores False.  A
    part scores its chunks in its own WeightArena: weights last to its next chunk."""
    groups = batch_groups(batch, min(SCORE_CHUNK, max(1, 512 // model.config.m)))
    # sched_getaffinity is missing on macOS and Windows
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(cores or 1, len(groups))
    results = [None] * len(groups)

    def run(part):
        arena = ad.WeightArena()
        # overflow shows up as non-finite results, which the callers reject
        with np.errstate(all="ignore"):
            for i in range(part, len(groups), n):
                with arena:
                    results[i] = fn(*groups[i])

    with ad.no_grad(), ThreadPoolExecutor(max(1, n - 1)) as pool:
        futures = [pool.submit(run, part) for part in range(1, n)]
        run(0)
        for future in futures:
            future.result()
    return results


def score_series(model, series):
    """Per-timestamp, per-dimension scores over a normalized series;
    NonFiniteInput if one is not finite."""
    batch = make_windows(series, model.config.window_size, model.config.context_cap)
    scores = map_chunks(model, batch, lambda W, C, rows: score_batch(model, W, C))
    return check_finite(np.concatenate(scores), "score")


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
