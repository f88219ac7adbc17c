"""Workload definitions and their seeded input generators.

The inputs are made here with numpy alone, so a change to the package's own
synthetic generator or to the test fixtures cannot change a workload.  The
program receives only the arrays (or, on the CLI workload, CSV files written
from them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_SIGMA = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    t_train: int
    t_test: int
    stream_rows: int          # test rows streamed one at a time (a prefix)
    regime: str               # "gross" or "hard"
    via_cli: bool             # train/detect/eval through tranad.cli.main
    epochs: int = 1
    window_size: int = 10     # K
    context_cap: int = 30     # L
    batch_size: int = 16      # B
    lr: float = 0.02
    pot_risk: float = 1e-8
    pot_low_quantile: float = 0.01
    auc_floor: float = 0.0    # the run fails a check below this
    model_seed: int = 5
    train_seed: int = 7


WORKLOADS = {
    # The acceptance-benchmark shape: its training step is bound by Python
    # overhead per tape node, and its long stream carries the no-grad forward
    # and the per-timestamp paths.
    "train-m3": Workload(name="train-m3", m=3, t_train=5000, t_test=5000,
                         stream_rows=4000, regime="gross", via_cli=False,
                         auc_floor=0.95),
    # SMD width in a hard regime, end to end through the CLI: array work
    # per node dominates, and CSV parsing, checkpoint I/O and report writing
    # run only here.
    "wide-m38": Workload(name="wide-m38", m=38, t_train=800, t_test=1200,
                         stream_rows=800, regime="hard", via_cli=True,
                         pot_risk=1e-3, pot_low_quantile=0.02,
                         auc_floor=0.5),
}

# Each run draws this many input sets from its seed and cycles through them,
# one per round; the quality metrics are means over the sets, so they vary
# less from seed to seed than those of a single draw.
INPUT_SETS = 3


@dataclass
class Inputs:
    train: np.ndarray         # (t_train, m) raw values
    test: np.ndarray          # (t_test, m) raw values
    labels: np.ndarray        # (t_test, m) int8 injected anomaly cells
    events: list              # (kind, start, length, dims, magnitude_sigmas)


def make_inputs(wl, seed, part=0):
    """Input set `part` of `seed`: per-dimension sinusoids plus Gaussian
    noise, with the regime's anomalies injected into the test series only."""
    # The signal's shape is fixed per workload and the seed draws only the
    # noise and the events, so quality figures vary little from seed to seed.
    if wl.regime == "gross":
        # the acceptance benchmark's signal
        d = np.arange(wl.m)
        amp, period, phase = np.ones(wl.m), 100.0 + 30.0 * d, 0.7 * d
    else:
        shape = np.random.default_rng(wl.m)
        amp = shape.uniform(0.6, 1.4, wl.m)
        period = shape.uniform(60.0, 400.0, wl.m)
        phase = shape.uniform(0.0, 2 * np.pi, wl.m)
    rng = np.random.default_rng([seed, part, wl.m, wl.t_train, wl.t_test])
    t = np.arange(wl.t_train + wl.t_test, dtype=np.float64)[:, None]
    clean = amp * np.sin(2 * np.pi * t / period + phase)
    values = clean + rng.normal(0.0, NOISE_SIGMA, clean.shape)
    train, test = values[:wl.t_train], values[wl.t_train:].copy()
    labels = np.zeros(test.shape, dtype=np.int8)
    events = _gross_events(wl, rng) if wl.regime == "gross" else _hard_events(wl, rng)
    for kind, start, length, dims, mag in events:
        rows = slice(start, start + length)
        if kind == "burst" and wl.regime == "hard":
            # one shared pulse shape across the listed dims: correlated
            profile = np.sin(np.linspace(0.0, np.pi, length + 2)[1:-1])[:, None]
            test[rows, dims] += mag * NOISE_SIGMA * profile / profile.max()
        else:
            test[rows, dims] += mag * NOISE_SIGMA
        labels[rows, dims] = 1
    return Inputs(train=train, test=test, labels=labels, events=events)


def _slots(rng, t_test, n, slot):
    """n distinct, sorted slot starts on a grid, clear of both series ends."""
    grid = np.arange(slot, t_test - 2 * slot, slot)
    return sorted(int(s) for s in rng.choice(grid, size=n, replace=False))


def _gross_events(wl, rng):
    """14-18 sigma spikes on one dim, every fourth event a burst on all dims;
    about one event per 400 rows, 3-5 rows long, 70% positive."""
    events = []
    for i, start in enumerate(_slots(rng, wl.t_test, wl.t_test // 400, 60)):
        length = int(rng.integers(3, 6))
        burst = i % 4 == 3
        dims = list(range(wl.m)) if burst else [int(rng.integers(wl.m))]
        sign = 1.0 if rng.random() < 0.7 else -1.0
        events.append(("burst" if burst else "spike", start, length, dims,
                       sign * float(rng.uniform(14.0, 18.0))))
    return events


def _spread(rng, n, lo, hi):
    """n values evenly spread over [lo, hi], in random order.  Stratified
    draws keep the mix of easy and hard events alike from seed to seed."""
    return lo + (hi - lo) * rng.permutation((np.arange(n) + 0.5) / n)


def _hard_events(wl, rng):
    """2-4 sigma events, one per 40 rows, in random order: half are level
    shifts of 10-25 rows on 2-6 dims, half correlated bursts of 5-10 rows on
    4-10 dims; half of all events are negative."""
    starts = _slots(rng, wl.t_test, wl.t_test // 40, 30)
    n = len(starts)
    mags = _spread(rng, n, 2.0, 4.0) * rng.permutation(np.resize([1.0, -1.0], n))
    n_shift, n_burst = (n + 1) // 2, n // 2
    sizes = {"level_shift": zip(_spread(rng, n_shift, 10, 25), _spread(rng, n_shift, 2, 6)),
             "burst": zip(_spread(rng, n_burst, 5, 10), _spread(rng, n_burst, 4, 10))}
    kinds = rng.permutation(["level_shift"] * n_shift + ["burst"] * n_burst)
    events = []
    for start, kind, mag in zip(starts, kinds, mags):
        length, width = (int(round(v)) for v in next(sizes[kind]))
        dims = sorted(int(d) for d in rng.choice(wl.m, size=width, replace=False))
        events.append((str(kind), start, length, dims, float(mag)))
    return events
