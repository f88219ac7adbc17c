"""One round of a workload: set-up, the five pipeline steps, and the checks
of their outputs.

Steps: (1) train; (2) score the train series and fit POT thresholds;
(3) batch-detect the test series; (4) stream the test series one timestamp
at a time; (5) diagnose and evaluate.  On a CLI workload steps 1, 2-3 and 5
are `tranad train`, `tranad detect` and `tranad eval`, run in-process
through `tranad.cli.main` on CSV files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from tranad import autodiff, cli, dataset, detection, metrics, model, pot, training
from tranad.model import ModelConfig, TranAD

import oracle
from spans import clock

PACKAGE = (autodiff, cli, dataset, detection, metrics, model, pot, training)
STEPS = 5
CHECKS = ("stream_scores_bit_equal", "stream_labels_bit_equal",
          "labels_are_scores_ge_thresholds", "label_is_any_dim_label",
          "thresholds_ge_train_quantile", "raw_report_matches_oracle",
          "pa_report_matches_oracle", "auc_above_half", "auc_floor")
TOLERANCE = 1e-12
REPORT_FIELDS = ("precision", "recall", "f1", "auc", "tp", "fp", "fn", "tn",
                 "hitrate_100", "hitrate_150", "ndcg_100", "ndcg_150")


def _describe_forward(self, W, C, training=False, **_):
    return {"B": 1 if W.ndim == 2 else W.shape[0], "grad": autodiff._GRAD_ENABLED}


def _describe_grads(model, L1, L2):
    """Op nodes (nodes with a backward closure) reachable from L1 and L2."""
    seen, stack, ops = set(), [L1, L2], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._backward is not None
            stack.extend(node._parents)
    return {"ops": ops}


def _describe_fit(model, train_batch, *_, **__):
    return {"windows": len(train_batch)}


def _describe_main(argv=None):
    return {"command": argv[0]}


# Always installed: the few coarse calls the end-to-end metrics are cut from.
PROBES = [
    (training, "fit", "training.fit", _describe_fit, True),
    (detection, "score_series", "detection.score_series", None, True),
]

# Installed on traced rounds only: every layer boundary the per-layer
# metrics name, plus the calls around them that explain self time.
LAYERS = PROBES + [
    (dataset, "load_csv", "dataset.load_csv", None, False),
    (dataset, "fit_normalize", "dataset.fit_normalize", None, False),
    (dataset, "apply_normalize", "dataset.apply_normalize", None, False),
    (dataset, "make_windows", "dataset.make_windows", None, False),
    (dataset, "split_train_val", "dataset.split_train_val", None, False),
    (TranAD, "__init__", "model.TranAD.build", None, False),
    (TranAD, "forward_two_phase", "model.forward_two_phase", _describe_forward, False),
    (TranAD, "save", "model.TranAD.save", None, False),
    (TranAD, "load", "model.TranAD.load", None, False),
    (autodiff.Tensor, "backward", "autodiff.Tensor.backward", None, False),
    (autodiff.AdamW, "step", "autodiff.AdamW.step", None, False),
    (training, "batch_groups", "training.batch_groups", None, False),
    (training, "train_epoch", "training.train_epoch", None, False),
    (training, "partitioned_grads", "training.partitioned_grads", _describe_grads, False),
    (training, "maml_step", "training.maml_step", None, False),
    (training, "validation_score", "training.validation_score", None, False),
    (pot, "fit_thresholds", "pot.fit_thresholds", None, True),
    (detection, "score_batch", "detection.score_batch", None, False),
    (detection, "detect_stream", "detection.detect_stream", None, False),
    (detection, "diagnose", "detection.diagnose", None, False),
    (metrics, "evaluate", "metrics.evaluate", None, False),
    (cli, "main", "cli.main", _describe_main, False),
]


class Round:
    """Timings, stream samples, quality figures and check results."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_s = self.pipeline_s = 0.0
        self.latencies = np.empty(0)
        self.quality = {}
        self.checks = []          # (name, passed, detail)
        self.failed_steps = 0

    def check(self, name, fn):
        try:
            passed, detail = bool(fn()), ""
        except Exception as exc:  # a check that cannot run has failed
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append((name, passed, detail))

    # figures cut from the probe spans
    def fit_span(self):
        return self.tracer.named("training.fit")[0]

    def score_spans(self):
        return self.tracer.named("detection.score_series")


def stream(model, values, stats, thresholds, n_rows):
    """Closed loop over test rows: window only the last context_cap rows
    received so far, score that one window and label it."""
    K, L = model.config.window_size, model.config.context_cap
    m = values.shape[1]
    scores = np.empty((n_rows, m))
    labels = np.empty((n_rows, m), dtype=np.int8)
    latencies = np.empty(n_rows)
    for t in range(n_rows):
        t0 = clock()
        rows = dataset.TimeSeries(values=values[max(0, t + 1 - L):t + 1], stats=stats)
        batch = dataset.make_windows(rows, K, L)
        s = detection.score_batch(model, batch.windows[-1:], batch.contexts[-1][None])[0]
        labels[t] = s >= thresholds
        latencies[t] = clock() - t0
        scores[t] = s
    return scores, labels, latencies


def run_round(wl, inputs, files, tracer):
    rnd = Round(tracer)
    steps = _cli_steps if wl.via_cli else _api_steps
    try:
        out = steps(wl, inputs, files, rnd)
    except Exception as exc:
        # a step that raises ends the round: all its operations count as failed
        rnd.failed_steps = STEPS
        rnd.checks = [(name, False, f"{type(exc).__name__}: {exc}") for name in CHECKS]
        return rnd
    _check_outputs(wl, inputs, rnd, *out)
    return rnd


def _api_steps(wl, inputs, files, rnd):
    tracer = rnd.tracer
    with tracer.span("bench.round") as round_span:
        with tracer.span("bench.setup"):
            norm, stats = dataset.fit_normalize(dataset.RawSeries(inputs.train))
            test_ts = dataset.apply_normalize(dataset.RawSeries(inputs.test), stats)
            windows = dataset.make_windows(norm, wl.window_size, wl.context_cap)
            train_b, val_b = dataset.split_train_val(windows, 0.8)
            net = TranAD(ModelConfig(m=wl.m, window_size=wl.window_size,
                                     context_cap=wl.context_cap, dropout=0.0,
                                     init_seed=wl.model_seed))
        cfg = training.TrainConfig(epochs=wl.epochs, seed=wl.train_seed, lr=wl.lr,
                                   batch_size=wl.batch_size, lr_decay_every_epochs=100)
        with tracer.span("bench.train"):
            training.fit(net, train_b, val_b, cfg, progress=False)
        with tracer.span("bench.thresholds"):
            train_scores = detection.score_series(net, norm)
            pot_cfg = pot.PotConfig(risk=wl.pot_risk, low_quantile=wl.pot_low_quantile)
            thresholds = pot.fit_thresholds(train_scores, pot_cfg)
        with tracer.span("bench.detect"):
            records = detection.detect_stream(net, test_ts, thresholds)
        with tracer.span("bench.stream"):
            streamed = stream(net, test_ts.values, stats, thresholds.thresholds,
                              wl.stream_rows)
        with tracer.span("bench.evaluate"):
            rankings = detection.diagnose(records)
            scores = np.array([r.scores for r in records])
            labels = np.array([r.labels for r in records])
            pred = np.array([r.label for r in records], dtype=np.int8)
            truth = inputs.labels.any(axis=1).astype(np.int8)
            reports = {pa: metrics.evaluate(scores.max(axis=1), pred, truth, point_adjusted=pa,
                                            rankings=rankings, dim_truth=inputs.labels).to_dict()
                       for pa in (False, True)}
    _close_round(rnd, round_span, streamed)
    return train_scores, thresholds.thresholds, scores, labels, pred, streamed, reports


def write_cli_inputs(wl, inputs, directory):
    """The CSV files and config the CLI workload reads (input generation,
    outside every timed phase)."""
    os.makedirs(directory, exist_ok=True)
    files = {k: os.path.join(directory, f) for k, f in (
        ("train", "train.csv"), ("test", "test.csv"), ("labels", "labels.csv"),
        ("config", "config.json"), ("run", "run"))}
    for key, arr, fmt in (("train", inputs.train, "%.17g"), ("test", inputs.test, "%.17g"),
                          ("labels", inputs.labels, "%d")):
        np.savetxt(files[key], arr, fmt=fmt, delimiter=",")
    config = {"window_size": wl.window_size, "context_cap": wl.context_cap, "dropout": 0.0,
              "train": {"epochs": wl.epochs, "batch_size": wl.batch_size, "lr": wl.lr,
                        "lr_decay_every_epochs": 100},
              "pot": {"risk": wl.pot_risk, "low_quantile": wl.pot_low_quantile}}
    with open(files["config"], "w") as f:
        json.dump(config, f)
    return files


def _cli(argv):
    code = cli.main(argv + ["--quiet"])
    if code != 0:
        raise RuntimeError(f"tranad {argv[0]} exited with {code}")


def _cli_steps(wl, inputs, files, rnd):
    tracer = rnd.tracer
    run = files["run"]
    common = ["--config", files["config"], "--out", run]
    checkpoint = os.path.join(run, "checkpoint.bin")
    report = os.path.join(run, "detection.csv")
    with tracer.span("bench.round") as round_span:
        with tracer.span("bench.train"):
            _cli(["train", "--seed", str(wl.train_seed), "--data", files["train"]] + common)
        with tracer.span("bench.detect"):
            _cli(["detect", "--data", files["train"], "--test", files["test"],
                  "--checkpoint", checkpoint, "--stats", os.path.join(run, "stats.json")]
                 + common)
        with tracer.span("bench.stream"):
            net, _ = TranAD.load(checkpoint)
            with open(os.path.join(run, "stats.json")) as f:
                stats = dataset.NormStats(**json.load(f))
            test_ts = dataset.apply_normalize(dataset.RawSeries(inputs.test), stats)
            thresholds = _report_thresholds(report)
            streamed = stream(net, test_ts.values, stats, thresholds, wl.stream_rows)
        with tracer.span("bench.evaluate"):
            _cli(["eval", "--report", report, "--labels", files["labels"]] + common)
    _close_round(rnd, round_span, streamed)
    table = np.loadtxt(report, delimiter=",", skiprows=2, ndmin=2)
    m = wl.m
    scores, labels = table[:, 1:1 + m], table[:, 1 + m:1 + 2 * m].astype(np.int8)
    pred = table[:, -1].astype(np.int8)
    with open(os.path.join(run, "eval.json")) as f:
        ev = json.load(f)
    reports = {False: ev["raw"], True: ev["point_adjusted"]}
    train_scores = rnd.score_spans()[0].result
    return train_scores, thresholds, scores, labels, pred, streamed, reports


def _report_thresholds(path):
    with open(path) as f:
        header = f.readline()
    model = json.loads(header.split(" ", 2)[2])
    return np.array([d["threshold"] for d in model["dims"]])


def _close_round(rnd, round_span, streamed):
    fit = rnd.fit_span()
    rnd.setup_s = fit.start - round_span.start
    rnd.pipeline_s = round_span.end - fit.start
    rnd.latencies = streamed[2]


def _check_outputs(wl, inputs, rnd, train_scores, z, scores, labels, pred, streamed, reports):
    s_scores, s_labels, _ = streamed
    n = wl.stream_rows
    rnd.check("stream_scores_bit_equal", lambda: np.array_equal(s_scores, scores[:n]))
    rnd.check("stream_labels_bit_equal", lambda: np.array_equal(s_labels, labels[:n]))
    rnd.check("labels_are_scores_ge_thresholds",
              lambda: np.array_equal(labels, (scores >= z).astype(np.int8)))
    rnd.check("label_is_any_dim_label",
              lambda: np.array_equal(pred, labels.any(axis=1).astype(np.int8)))
    rnd.check("thresholds_ge_train_quantile",
              lambda: np.all(z >= np.quantile(train_scores, 1.0 - wl.pot_low_quantile, axis=0)))
    for pa, name in ((False, "raw_report_matches_oracle"), (True, "pa_report_matches_oracle")):
        rnd.check(name, lambda pa=pa: _matches(reports[pa],
                                               oracle.report(scores, pred, inputs.labels, pa)))
    raw, adjusted = reports[False], reports[True]
    rnd.check("auc_above_half", lambda: raw["auc"] > 0.5)
    # F1 has no floor: whether POT puts a dimension's threshold above a
    # gross spike depends on the seed, so an F1 floor would fail on some
    # seeds only.  F1 is reported as a metric instead.
    rnd.check("auc_floor", lambda: raw["auc"] >= wl.auc_floor)
    fit = rnd.fit_span().result
    rnd.quality = {"f1": raw["f1"], "f1_pa": adjusted["f1"], "auc": raw["auc"],
                   "hitrate_100": raw["hitrate_100"], "ndcg_100": raw["ndcg_100"],
                   "val_loss": min(e.val_score for e in fit.epochs)}


def _matches(program, recomputed):
    bad = [k for k in REPORT_FIELDS if not abs(program[k] - recomputed[k]) <= TOLERANCE]
    if bad:
        raise AssertionError("differ: " + ", ".join(
            f"{k} {program[k]!r} vs {recomputed[k]!r}" for k in bad))
    return True
