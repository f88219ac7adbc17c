"""Per-layer metrics cut from the spans of one traced round.

Names ending in `_s` are per-round totals, names ending in `_ms` are
per-call medians, and counts repeat exactly from run to run.
"""

from __future__ import annotations

import statistics

from spans import median_ms, total

UNITS = {
    "dataset.windows_s": "s",
    "model.forward_train_ms": "ms",
    "model.forward_stream_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.optimizer_ms": "ms",
    "autodiff.tape_ops_per_step": "count",
    "training.epoch_s": "s",
    "training.maml_s": "s",
    "training.validation_s": "s",
    "training.steps_per_epoch": "count",
    "training.partial_steps_per_epoch": "count",
    "pot.fit_s": "s",
    "pot.gpd_dims": "count",
    "detection.score_series_s": "s",
    "detection.detect_stream_s": "s",
    "detection.diagnose_s": "s",
    "metrics.evaluate_s": "s",
    # only the CLI workload parses CSV files and runs the commands; these go
    # to the trace files, not to the printed metrics every workload shares
    "dataset.load_csv_s": "s",
    "cli.train_s": "s",
    "cli.detect_s": "s",
    "cli.eval_s": "s",
}
CLI_ONLY = ("dataset.load_csv_s", "cli.train_s", "cli.detect_s", "cli.eval_s")
REPORTED = [k for k in UNITS if k not in CLI_ONLY] + ["trace.overhead_s"]

EPOCH = "training.train_epoch"


def layer_metrics(tr, batch_size):
    # each optimizer step of an epoch, with the batch size of its forward
    steps, last_b = [], None
    for s in tr.spans:
        if s.name == "model.forward_two_phase":
            last_b = s.info["B"]
        elif s.name == "training.partitioned_grads" and tr.has_ancestor(s, EPOCH):
            steps.append((s, last_b))
    full = [s for s, b in steps if b == batch_size]
    epochs = len(tr.named(EPOCH))
    forwards = tr.named("model.forward_two_phase", under=EPOCH)
    out = {
        "dataset.windows_s": total(tr.named("dataset.make_windows", outside="bench.stream")),
        "model.forward_train_ms": median_ms(
            [s for s in forwards if s.info["grad"] and s.info["B"] == batch_size]),
        "model.forward_stream_ms": median_ms(
            tr.named("model.forward_two_phase", under="bench.stream")),
        "autodiff.backward_ms": median_ms(full),
        "autodiff.optimizer_ms": median_ms(tr.named("autodiff.AdamW.step", under=EPOCH)),
        "autodiff.tape_ops_per_step": statistics.median(s.info["ops"] for s in full),
        "training.epoch_s": statistics.median(s.seconds for s in tr.named(EPOCH)),
        "training.maml_s": statistics.median(
            s.seconds for s in tr.named("training.maml_step")),
        "training.validation_s": statistics.median(
            s.seconds for s in tr.named("training.validation_score")),
        "training.steps_per_epoch": len(steps) // epochs,
        "training.partial_steps_per_epoch": (len(steps) - len(full)) // epochs,
        "pot.fit_s": total(tr.named("pot.fit_thresholds")),
        "pot.gpd_dims": sum(d.method == "gpd" for s in tr.named("pot.fit_thresholds")
                            for d in s.result.dims),
        "detection.score_series_s": total(tr.named("detection.score_series")),
        "detection.detect_stream_s": total(tr.named("detection.detect_stream")),
        "detection.diagnose_s": total(tr.named("detection.diagnose")),
        "metrics.evaluate_s": total(tr.named("metrics.evaluate")),
    }
    csv = tr.named("dataset.load_csv")
    if csv:
        out["dataset.load_csv_s"] = total(csv)
        for s in tr.named("cli.main"):
            key = f"cli.{s.info['command']}_s"
            out[key] = out.get(key, 0.0) + s.seconds
    return out


def merge_self_times(tracers):
    merged = {}
    for tr in tracers:
        for name, (calls, tot, own) in tr.self_times().items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += tot
            row[2] += own
    return merged
