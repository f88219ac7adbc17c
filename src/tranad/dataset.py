"""Ingestion, normalization, windowing, splitting and synthetic benchmarks.

All operations are pure transformations over numpy arrays; none hold shared
mutable state, so concurrent calls on distinct inputs are safe.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatch,
    EmptySeries,
    InvalidConfig,
    NonFiniteInput,
    OverlapError,
    ParseError,
    ShapeMismatch,
    check_fields,
    check_real,
)

log = logging.getLogger(__name__)

DEFAULT_EPS = 1e-8


@dataclass
class RawSeries:
    """T x m value matrix with optional per-dimension {0,1} ground truth."""

    values: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ShapeMismatch(f"values must be T x m with T,m >= 1, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NonFiniteInput(f"series {self.name!r} contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != self.values.shape:
                raise ShapeMismatch(
                    f"labels shape {self.labels.shape} != values shape {self.values.shape}"
                )

    @property
    def T(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]


@dataclass
class NormStats:
    """Per-dimension training min/max used for range normalization."""

    min: np.ndarray
    max: np.ndarray
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=np.float64)
        self.max = np.asarray(self.max, dtype=np.float64)
        check_real("stats", "eps", self.eps, lambda v: 0 < v < math.inf, "finite and > 0")
        if np.any(self.min > self.max):
            raise InvalidConfig("stats min exceeds max in some dimension")


@dataclass
class TimeSeries:
    """Normalized series together with the stats that produced it."""

    values: np.ndarray
    stats: NormStats
    labels: np.ndarray | None = None

    @property
    def T(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]


@dataclass
class WindowBatch:
    """Sliding windows with their capped context slices.

    windows[i] is the K x m window ending at timestamp indices[i] (0-based);
    contexts[i] is the slice of the last min(t+1, context_cap) rows ending at
    the same timestamp.
    """

    windows: np.ndarray          # (N, K, m)
    contexts: list = field(repr=False, default_factory=list)  # list of (L_t, m)
    indices: np.ndarray = None   # (N,)

    def __len__(self):
        return self.windows.shape[0]


def load_csv(path, has_header=False, label_path=None, name=None):
    """Parse a comma-separated numeric file (one optional label file) into a
    RawSeries.  Any non-numeric cell is a ParseError."""
    values = _read_numeric_csv(path, has_header)
    labels = None
    if label_path is not None:
        labels = _read_numeric_csv(label_path, has_header)
        if labels.shape != values.shape:
            raise ShapeMismatch(
                f"label file shape {labels.shape} != values shape {values.shape}"
            )
        bad = ~np.isin(labels, (0.0, 1.0))
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ParseError(f"label cell ({r},{c}) not in {{0,1}}", row=int(r), col=int(c))
        labels = labels.astype(np.int8)
    return RawSeries(values=values, labels=labels, name=name or str(path))


def _read_numeric_csv(path, has_header):
    rows = []
    width = None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for i, row in enumerate(reader):
            if i == 0 and has_header:
                continue
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"row {i} has {len(row)} fields, expected {width}", row=i)
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                for j, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(
                            f"non-numeric cell {cell!r} at row {i}, col {j}", row=i, col=j
                        ) from None
    if not rows:
        raise ParseError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def fit_normalize(train, eps=DEFAULT_EPS):
    """Scale each dimension by its training range: (x - min) / (max - min + eps).

    Returns the normalized series and the stats to reuse on test data.
    """
    if not np.isfinite(train.values).all():
        raise NonFiniteInput("training series contains non-finite values")
    lo = train.values.min(axis=0)
    hi = train.values.max(axis=0)
    stats = NormStats(min=lo, max=hi, eps=eps)
    normed = (train.values - lo) / (hi - lo + eps)
    return TimeSeries(values=normed, stats=stats, labels=train.labels), stats


def apply_normalize(series, stats):
    """Normalize with previously fitted stats.  Test values outside the
    training range may fall outside [0, 1); they are kept and logged."""
    if series.m != stats.min.shape[0]:
        raise DimensionMismatch(
            f"series has m={series.m} but stats were fit for m={stats.min.shape[0]}"
        )
    normed = (series.values - stats.min) / (stats.max - stats.min + stats.eps)
    n_over = int(np.sum((normed < 0) | (normed >= 1 + 1e-6)))
    if n_over:
        log.info("%d normalized entries fall outside [0, 1) (test range exceeds train range)",
                 n_over)
    return TimeSeries(values=normed, stats=stats, labels=series.labels)


def denormalize(values, stats):
    return values * (stats.max - stats.min + stats.eps) + stats.min


def make_windows(series, window_size, context_cap):
    """Slide a length-K window over the series, one window per timestamp.

    Windows ending before the K-th timestamp are replication-padded at the
    front with the earliest available row so every window has exactly K rows.
    Each context holds the last min(t+1, context_cap) rows ending at t.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    if context_cap < window_size:
        raise ValueError("context_cap must be >= window_size")
    x = series.values
    T = x.shape[0]
    if T == 0:
        raise EmptySeries("cannot window an empty series")
    padded = np.concatenate([np.repeat(x[:1], window_size - 1, axis=0), x])
    # (T, m, K) view of every length-K run of rows -> dense (T, K, m) copy
    windows = np.ascontiguousarray(
        sliding_window_view(padded, window_size, axis=0).transpose(0, 2, 1))
    contexts = [x[max(0, t + 1 - context_cap):t + 1] for t in range(T)]
    return WindowBatch(windows=windows, contexts=contexts, indices=np.arange(T))


def split_train_val(batch, ratio=0.8):
    """Contiguous-in-time split: first ceil(ratio*N) windows train, rest val."""
    n = len(batch)
    if n == 0:
        raise EmptySeries("cannot split an empty window batch")
    cut = math.ceil(ratio * n)
    if cut >= n:
        log.warning("validation split is empty (N=%d, ratio=%g); validation disabled", n, ratio)
    train = WindowBatch(windows=batch.windows[:cut],
                        contexts=batch.contexts[:cut],
                        indices=batch.indices[:cut])
    val = WindowBatch(windows=batch.windows[cut:],
                      contexts=batch.contexts[cut:],
                      indices=batch.indices[cut:])
    return train, val


# -- synthetic benchmark data -------------------------------------------------


@dataclass
class Anomaly:
    """One injected anomaly: affected (timestamp, dimension) cells get label 1.

    kind: 'spike' (additive pulse), 'level_shift' (additive step) or 'burst'
    (correlated additive pulse across the listed dims).  magnitude is in
    multiples of the noise sigma.
    """

    kind: str
    start: int
    length: int
    dims: list
    magnitude: float

    def cells(self):
        for t in range(self.start, self.start + self.length):
            for d in self.dims:
                yield (t, d)


@dataclass
class SynthSpec:
    T: int = 2000
    m: int = 3
    seed: int = 0
    noise_sigma: float = 0.05
    # one list of {amplitude, period, phase} dicts per dimension; defaults
    # derived from the dimension index when empty
    sinusoids: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)

    def __post_init__(self):
        self.anomalies = [a if isinstance(a, Anomaly)
                          else Anomaly(**check_fields(Anomaly, a, "synth anomaly"))
                          for a in self.anomalies]

    @classmethod
    def from_dict(cls, d):
        return cls(**check_fields(cls, d, "synth"))

    def to_dict(self):
        return asdict(self)


def synth_generate(spec):
    """Deterministic labeled series: per-dimension sums of sinusoids plus
    Gaussian noise, with the listed anomalies injected on top."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.T, dtype=np.float64)
    values = np.zeros((spec.T, spec.m))
    for d in range(spec.m):
        if spec.sinusoids and d < len(spec.sinusoids):
            comps = spec.sinusoids[d]
        else:
            comps = [{"amplitude": 1.0, "period": 100.0 + 30.0 * d, "phase": 0.7 * d}]
        for comp in comps:
            values[:, d] += comp["amplitude"] * np.sin(
                2 * np.pi * t / comp["period"] + comp["phase"]
            )
    values += rng.normal(0.0, spec.noise_sigma, size=values.shape)

    labels = np.zeros((spec.T, spec.m), dtype=np.int8)
    occupied = set()
    for a in spec.anomalies:
        for cell in a.cells():
            if cell in occupied:
                raise OverlapError(f"anomalies overlap at (t={cell[0]}, dim={cell[1]})")
            occupied.add(cell)
    for a in spec.anomalies:
        if a.kind not in ("spike", "level_shift", "burst"):
            raise ValueError(f"unknown anomaly kind {a.kind!r}")
        # all three kinds are additive offsets of magnitude*sigma; they differ
        # in intent (short pulse / long step / correlated multi-dim pulse)
        delta = a.magnitude * spec.noise_sigma
        for ts, d in a.cells():
            if not 0 <= ts < spec.T:
                raise ValueError(f"anomaly timestamp {ts} outside series of length {spec.T}")
            values[ts, d] += delta
            labels[ts, d] = 1
    return RawSeries(values=values, labels=labels, name=f"synth-seed{spec.seed}")
