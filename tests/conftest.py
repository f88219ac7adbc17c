"""Shared fixtures: the seeded synthetic benchmark used by the acceptance
suite, a terminal-summary hook that echoes one pass/fail line per acceptance
criterion, and the fixed Hypothesis profile of the property tests."""

import time

import numpy as np
import pytest
from hypothesis import settings

from tranad import autodiff as ad, dataset, detection, metrics, pot, training
from tranad.autodiff import Tensor
from tranad.model import ModelConfig, TranAD

# Property tests draw the same examples on every run, so a failure reproduces
settings.register_profile("tier1", max_examples=200, derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")

# One line per acceptance criterion, printed in the terminal summary so the
# results survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_criterion(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def plain_attention(Q, K, V, n_heads, mask=None):
    """`autodiff.attention` with identity projections: attention over the
    inputs themselves.  A product with an identity matrix and a zero bias is
    exact, so the inputs reach the heads unchanged."""
    widths = (Q.shape[-1], K.shape[-1], V.shape[-1], V.shape[-1])
    weights = [Tensor(a) for d in widths for a in (np.eye(d), np.zeros(d))]
    return ad.attention(Q, K, V, weights, n_heads, mask=mask)


# -- the synthetic end-to-end benchmark ---------------------------------------
#
# 5000 train / 5000 test timestamps, m=3, 12 injected events covering ~1% of
# test timestamps.  Magnitudes are 14-18 noise sigmas: gross anomalies that
# leave the training value range, the regime a reconstruction detector is
# expected to nail.

BENCH_SIGMA = 0.25
BENCH_T = 5000
BENCH_M = 3


def benchmark_anomalies():
    rng = np.random.default_rng(99)
    anoms = []
    starts = rng.choice(np.arange(200, 4800, 60), size=12, replace=False)
    for i, st in enumerate(sorted(starts)):
        length = int(rng.integers(3, 6))
        dims = [0, 1, 2] if i % 4 == 3 else [int(rng.integers(0, 3))]
        kind = "burst" if i % 4 == 3 else "spike"
        mag = float(rng.uniform(14, 18)) * (1 if rng.random() < 0.7 else -1)
        anoms.append(dataset.Anomaly(kind=kind, start=int(st), length=length,
                                     dims=dims, magnitude=mag))
    return anoms


def benchmark_series():
    train = dataset.synth_generate(dataset.SynthSpec(
        T=BENCH_T, m=BENCH_M, seed=11, noise_sigma=BENCH_SIGMA))
    test = dataset.synth_generate(dataset.SynthSpec(
        T=BENCH_T, m=BENCH_M, seed=12, noise_sigma=BENCH_SIGMA,
        anomalies=benchmark_anomalies()))
    return train, test


def benchmark_model_config():
    return ModelConfig(m=BENCH_M, window_size=10, context_cap=30,
                       init_seed=5, dropout=0.0)


def benchmark_train_config(**overrides):
    base = dict(epochs=5, seed=7, lr=0.005, batch_size=16,
                lr_decay_every_epochs=100)
    base.update(overrides)
    return training.TrainConfig(**base)


def run_benchmark(use_self_condition=True, use_adversarial=True,
                  use_maml=True, train_fraction=1.0):
    """Train on the benchmark series and evaluate on the test half.

    Returns (EvalReport, scores, wall_seconds)."""
    t0 = time.perf_counter()
    train_raw, test_raw = benchmark_series()
    norm, stats = dataset.fit_normalize(train_raw)
    test_ts = dataset.apply_normalize(test_raw, stats)
    if train_fraction < 1.0:
        n = int(round(norm.T * train_fraction))
        norm = dataset.TimeSeries(values=norm.values[:n], stats=stats)
    model = TranAD(benchmark_model_config())
    windows = dataset.make_windows(norm, model.config.window_size,
                                   model.config.context_cap)
    train_b, val_b = dataset.split_train_val(windows, 0.8)
    cfg = benchmark_train_config(use_self_condition=use_self_condition,
                                 use_adversarial=use_adversarial,
                                 use_maml=use_maml)
    training.fit(model, train_b, val_b, cfg, progress=False)
    train_scores = detection.score_series(model, norm)
    thresholds = pot.fit_thresholds(
        train_scores, pot.PotConfig(risk=1e-8, low_quantile=0.01))
    records = detection.detect_stream(model, test_ts, thresholds)
    pred = np.array([r.label for r in records])
    truth = test_raw.labels.any(axis=1).astype(int)
    scores = np.array([r.scores for r in records])
    report = metrics.evaluate(scores.max(axis=1), pred, truth)
    return report, scores, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bench_full():
    return run_benchmark()
