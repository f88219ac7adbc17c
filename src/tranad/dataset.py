"""Ingestion, normalization, windowing, splitting and synthetic benchmarks.

All operations are pure transformations over numpy arrays; none hold shared
mutable state, so concurrent calls on distinct inputs are safe.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    ConfigMismatch,
    DimensionMismatch,
    EmptySeries,
    InvalidConfig,
    NonFiniteInput,
    OverlapError,
    ParseError,
    ShapeMismatch,
    check_fields,
    check_int,
    check_real,
)

log = logging.getLogger(__name__)

DEFAULT_EPS = 1e-8


class _Rows:
    """The T x m shape of `values`."""
    T = property(lambda self: self.values.shape[0])
    m = property(lambda self: self.values.shape[1])


@dataclass
class RawSeries(_Rows):
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
                    f"labels shape {self.labels.shape} != values shape {self.values.shape}")


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
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(self.max - self.min + self.eps)
        if bad.any():
            raise NonFiniteInput(f"stats range max - min + eps overflows in column {bad.argmax()}")


@dataclass
class TimeSeries(_Rows):
    """Normalized series together with the stats that produced it."""

    values: np.ndarray
    stats: NormStats


@dataclass(frozen=True)
class Contexts(Sequence):
    """contexts[i]: the last min(t+1, cap) `rows` up to timestamp t = ts[i], a read-only view."""

    rows: np.ndarray = field(repr=False)    # (T, m)
    ts: range
    cap: int
    __len__ = lambda self: len(self.ts)

    def __getitem__(self, i):
        t = self.ts[i]
        return self.rows[max(0, t + 1 - self.cap):t + 1]


@dataclass
class WindowBatch:
    """Sliding windows with their capped contexts, in time order: windows[i] is
    the K x m window and contexts[i] the last min(t+1, context_cap) rows ending at
    the batch's i-th timestamp t, both read-only views of one copy of the series."""

    windows: np.ndarray     # (N, K, m)
    contexts: Contexts
    __len__ = lambda self: self.windows.shape[0]


def _runs(rows, first, n, length):
    """The runs of `length` rows that start at rows first .. first+n-1 of a
    C-contiguous (T, m) `rows`: one (n, length, m) view, read-only as `rows`."""
    s0, s1 = rows.strides
    return np.ndarray((n, length, rows.shape[1]), rows.dtype, rows, first * s0, (s0, s0, s1))


def batch_groups(batch, batch_size):
    """(windows, contexts, slice) groups of at most batch_size windows whose contexts share one
    length, the contexts one read-only (B, L, m) view of the series (a short context is alone)."""
    c, groups, i = batch.contexts, [], 0
    while i < len(c):
        t = c.ts[i]
        L = min(t + 1, c.cap)
        j = min(len(c), i + batch_size) if L == c.cap else i + 1
        groups.append((batch.windows[i:j], _runs(c.rows, t + 1 - L, j - i, L), slice(i, j)))
        i = j
    return groups


def load_csv(path, has_header=False):
    """Parse a comma-separated numeric file into a RawSeries.  Any
    non-numeric cell is a ParseError."""
    return RawSeries(values=_read_numeric_csv(path, has_header), name=str(path))


def load_labels(path, has_header=False):
    """Parse a comma-separated {0,1} label file into an int8 matrix.  Any
    other cell is a ParseError."""
    labels = _read_numeric_csv(path, has_header)
    bad = ~np.isin(labels, (0.0, 1.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ParseError(f"label cell ({r},{c}) not in {{0,1}}", row=int(r), col=int(c))
    return labels.astype(np.int8)


def read_text(path):
    """A file's text, decoded as UTF-8; a ParseError naming the file and the
    line (from 1, also its `row`) of the first byte that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} line {line} is not UTF-8 text", row=line) from None


def _read_numeric_csv(path, has_header):
    rows = []
    width = None
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
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
                        raise ParseError(f"non-numeric cell {cell!r} at row {i}, col {j}",
                                         row=i, col=j) from None
    except csv.Error as exc:   # a field over csv.field_size_limit()
        raise ParseError(f"{path} line {reader.line_num}: {exc}", row=reader.line_num) from None
    if not rows:
        raise ParseError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def fit_normalize(train, eps=DEFAULT_EPS):
    """Scale each dimension by its training range: (x - min) / (max - min + eps).

    Returns the normalized series and the stats to reuse on test data.
    """
    lo = train.values.min(axis=0)
    hi = train.values.max(axis=0)
    stats = NormStats(min=lo, max=hi, eps=eps)
    normed = (train.values - lo) / (hi - lo + eps)
    return TimeSeries(values=normed, stats=stats), stats


def apply_normalize(series, stats):
    """Normalize with previously fitted stats.  Test values outside the
    training range may fall outside [0, 1); they are kept and logged."""
    if series.m != stats.min.shape[0]:
        raise DimensionMismatch(
            f"series has m={series.m} but stats were fit for m={stats.min.shape[0]}")
    with np.errstate(over="ignore"):
        normed = (series.values - stats.min) / (stats.max - stats.min + stats.eps)
    check_finite(normed, "normalized value")
    n_over = int(np.sum((normed < 0) | (normed >= 1 + 1e-6)))
    if n_over:
        log.info("%d normalized entries fall outside [0, 1) (test range exceeds train range)",
                 n_over)
    return TimeSeries(values=normed, stats=stats)


def check_finite(rows, what):
    """`rows` (one per timestamp), or NonFiniteInput naming the first that is not finite."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise NonFiniteInput(f"non-finite {what} at timestamp {bad.argmax()}")
    return rows


def make_windows(series, window_size, context_cap):
    """Slide a length-K window over the series, one window per timestamp.

    Windows ending before the K-th timestamp are padded at the front with
    copies of row 0; contexts hold the last min(t+1, context_cap) rows ending
    at t.  Both are read-only views of one copy of the series behind the pad."""
    if window_size < 1 or context_cap < window_size:
        raise InvalidConfig(f"windows need 1 <= window_size <= context_cap, got "
                            f"{window_size!r} and {context_cap!r}")
    x = series.values
    if x.shape[0] == 0:
        raise EmptySeries("cannot window an empty series")
    padded = np.concatenate((np.repeat(x[:1], window_size - 1, 0), x))
    padded.flags.writeable = False
    return WindowBatch(_runs(padded, 0, x.shape[0], window_size),
                       Contexts(padded[window_size - 1:], range(x.shape[0]), context_cap))


def split_train_val(batch, ratio=0.8):
    """Contiguous-in-time split: first ceil(ratio*N) windows train, rest val (0 < ratio <= 1)."""
    check_real("config", "split_ratio", ratio, lambda v: 0 < v <= 1, "in (0, 1]")
    n = len(batch)
    if n == 0:
        raise EmptySeries("cannot split an empty window batch")
    cut = math.ceil(ratio * n)
    if cut >= n:
        log.warning("validation split is empty (N=%d, ratio=%g); validation disabled", n, ratio)
    return tuple(WindowBatch(batch.windows[s], replace(batch.contexts, ts=batch.contexts.ts[s]))
                 for s in (slice(None, cut), slice(cut, None)))


# -- synthetic benchmark data -------------------------------------------------


ANOMALY_KINDS = ("spike", "level_shift", "burst")
SINUSOID_KEYS = ("amplitude", "period", "phase")


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
        for name, low in (("T", 1), ("m", 1), ("seed", 0)):
            check_int("synth", name, getattr(self, name), low)
        check_real("synth", "noise_sigma", self.noise_sigma, lambda v: 0 <= v < math.inf,
                   "finite and >= 0")
        if not (isinstance(self.sinusoids, list) and len(self.sinusoids) <= self.m and all(
                isinstance(comps, list) and all(
                    isinstance(c, dict) and set(c) == set(SINUSOID_KEYS) for c in comps)
                for comps in self.sinusoids)):
            raise ConfigMismatch(f"synth sinusoids must be a list of at most m={self.m} lists "
                                 f"of objects with exactly the keys {', '.join(SINUSOID_KEYS)}")
        for comps in self.sinusoids:
            for c in comps:
                for key in SINUSOID_KEYS:
                    check_real("synth sinusoid", key, c[key], math.isfinite, "finite")
                check_real("synth sinusoid", "period", c["period"], lambda v: v != 0, "nonzero")
        self.anomalies = [a if isinstance(a, Anomaly)
                          else Anomaly(**check_fields(Anomaly, a, "synth anomaly"))
                          for a in self.anomalies]
        for a in self.anomalies:
            if a.kind not in ANOMALY_KINDS:
                raise InvalidConfig(f"unknown synth anomaly kind {a.kind!r}; "
                                    f"choose from {', '.join(ANOMALY_KINDS)}")
            check_int("synth anomaly", "start", a.start, 0)
            check_int("synth anomaly", "length", a.length, 1)
            check_real("synth anomaly", "magnitude", a.magnitude, math.isfinite, "finite")
            if a.start + a.length > self.T or not isinstance(a.dims, list) or not all(
                    isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                    and 0 <= d < self.m for d in a.dims) or len(set(a.dims)) < len(a.dims):
                raise InvalidConfig(f"synth anomaly {a} repeats a dim or falls outside "
                                    f"the series of {self.T} rows and {self.m} dims")

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
        if d < len(spec.sinusoids):
            comps = spec.sinusoids[d]
        else:
            comps = [{"amplitude": 1.0, "period": 100.0 + 30.0 * d, "phase": 0.7 * d}]
        for comp in comps:
            values[:, d] += comp["amplitude"] * np.sin(
                2 * np.pi * t / comp["period"] + comp["phase"])
    values += rng.normal(0.0, spec.noise_sigma, size=values.shape)

    labels = np.zeros((spec.T, spec.m), dtype=np.int8)
    for a in spec.anomalies:
        rows = slice(a.start, a.start + a.length)
        if labels[rows, a.dims].any():
            t, d = np.argwhere(labels[rows, a.dims])[0]
            raise OverlapError(f"anomalies overlap at (t={a.start + t}, dim={a.dims[d]})")
        # all three kinds are additive offsets of magnitude*sigma; they differ
        # in intent (short pulse / long step / correlated multi-dim pulse)
        values[rows, a.dims] += a.magnitude * spec.noise_sigma
        labels[rows, a.dims] = 1
    return RawSeries(values=values, labels=labels, name=f"synth-seed{spec.seed}")
