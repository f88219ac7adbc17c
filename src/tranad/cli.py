"""Command-line surface: synth, train, detect, eval, inspect.

Configuration precedence is flags > config file > defaults.  Every command
is deterministic given the same inputs and seed; outputs are written through
temp files and renamed, and partial outputs are removed on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy as np

from . import dataset, detection, metrics, pot, training
from .errors import (ConfigMismatch, ParseError, ShapeMismatch, TranadError, check_fields,
                     check_int, check_real)
from .model import ModelConfig, TranAD

FLOAT_FMT = "%.17g"


def derive_seed(seed, tag):
    """Per-module seed: base seed mixed with a stable hash of the module tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 31)


# The top-level config keys the commands read, with their defaults.  The
# other keys a config may hold are the ModelConfig fields bar m and
# init_seed, which come from the data and the run seed.
SETTINGS = {"seed": 0, "eps": dataset.DEFAULT_EPS, "split_ratio": 0.8,
            "synth": {}, "train": {}, "pot": {}}
# the sections whose keys are checked on load, whichever command reads them
SECTIONS = {"train": training.TrainConfig, "pot": pot.PotConfig}
MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig)
                   if f.name not in ("m", "init_seed"))


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        try:
            cfg = json.load(f)
        except ValueError as exc:
            raise ParseError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigMismatch(f"config {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(SETTINGS) - set(MODEL_KEYS))
    if unknown:
        raise ConfigMismatch(f"unknown config keys: {', '.join(unknown)}")
    for key, default in SETTINGS.items():
        if isinstance(default, dict) and not isinstance(cfg.get(key, default), dict):
            raise ConfigMismatch(f"config section {key!r} must be a JSON object")
    for key, cls in SECTIONS.items():
        check_fields(cls, _setting(cfg, key), key)
    if "seed" in _setting(cfg, "train"):
        raise ConfigMismatch("train.seed is not a setting: the top-level seed derives it")
    check_real("config", "eps", _setting(cfg, "eps"), lambda v: v > 0, "> 0")
    return cfg


def _setting(cfg, key, flag_value=None):
    """A top-level value: the flag if given, else the config's, else the default."""
    if flag_value is not None:
        return flag_value
    return cfg.get(key, SETTINGS[key])


class _OutputTracker:
    """Write-then-rename file creation with cleanup of partial outputs."""

    def __init__(self):
        self.written = []

    def write_text(self, path, text):
        self.write_binary(path, lambda tmp: pathlib.Path(tmp).write_text(text))

    def write_binary(self, path, writer):
        tmp = str(path) + ".tmp"
        try:
            writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            pathlib.Path(tmp).unlink(missing_ok=True)
            raise
        self.written.append(str(path))

    def cleanup(self):
        for p in self.written:
            try:
                os.remove(p)
            except OSError:
                pass


def _matrix_csv(values, fmt=FLOAT_FMT):
    return "\n".join(",".join(fmt % v for v in row) for row in values) + "\n"


# -- commands -----------------------------------------------------------------


def cmd_synth(args, cfg, out):
    spec_dict = dict(_setting(cfg, "synth"))
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = dataset.SynthSpec.from_dict(spec_dict)
    series = dataset.synth_generate(spec)
    out.write_text(os.path.join(args.out, "values.csv"), _matrix_csv(series.values))
    out.write_text(os.path.join(args.out, "labels.csv"),
                   _matrix_csv(series.labels, fmt="%d"))
    out.write_text(os.path.join(args.out, "synth_spec.json"),
                   json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _model_config_from(cfg, m, seed):
    # m comes from the data and init_seed from the run seed, not the config
    fields = {key: cfg[key] for key in MODEL_KEYS if key in cfg}
    return ModelConfig(m=m, init_seed=derive_seed(seed, "model-init"), **fields)


def cmd_train(args, cfg, out):
    seed = _setting(cfg, "seed", args.seed)
    train_cfg = training.TrainConfig(**dict(_setting(cfg, "train"),
                                            seed=derive_seed(seed, "training")))
    raw = dataset.load_csv(args.data, has_header=args.header)
    normalized, stats = dataset.fit_normalize(raw, eps=_setting(cfg, "eps"))
    model_cfg = _model_config_from(cfg, raw.m, seed)
    windows = dataset.make_windows(normalized, model_cfg.window_size, model_cfg.context_cap)
    train_b, val_b = dataset.split_train_val(windows, _setting(cfg, "split_ratio"))
    model = TranAD(model_cfg)
    report = training.fit(model, train_b, val_b, train_cfg,
                          progress=not args.quiet)
    out.write_binary(os.path.join(args.out, "checkpoint.bin"),
                     lambda p: model.save(p, extra={"train_config": train_cfg.to_dict()}))
    out.write_text(os.path.join(args.out, "stats.json"), json.dumps({
        "min": stats.min.tolist(), "max": stats.max.tolist(), "eps": stats.eps,
    }, sort_keys=True) + "\n")
    out.write_text(os.path.join(args.out, "train_report.json"),
                   json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _load_stats(path):
    """Read a stats.json: a JSON object of exactly `eps` and equally long
    lists of finite numbers `min` and `max`, else a ParseError."""
    with open(path) as f:
        try:
            d = json.load(f, parse_int=float)   # an integer too large for a float is inf
        except ValueError as exc:
            raise ParseError(f"stats {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ParseError(f"stats {path} must hold a JSON object")
    check_fields(dataset.NormStats, d, "stats", error=ParseError)
    lo, hi = d.get("min"), d.get("max")
    if not ("eps" in d and isinstance(lo, list) and isinstance(hi, list) and len(lo) == len(hi)
            and all(type(v) is float and np.isfinite(v) for v in lo + hi)):
        raise ParseError(f"stats {path} must hold eps and equally long lists of "
                         f"finite numbers min and max")
    return dataset.NormStats(min=lo, max=hi, eps=d["eps"])


def _load_for_scoring(args, *paths):
    """The checkpoint's model and each CSV of `paths` normalized with the
    stats file; ConfigMismatch unless every CSV has the model's width."""
    model, _ = TranAD.load(args.checkpoint)
    stats = _load_stats(args.stats)
    raws = [dataset.load_csv(path, has_header=args.header) for path in paths]
    for raw in raws:
        if raw.m != model.config.m:
            raise ConfigMismatch(
                f"checkpoint expects m={model.config.m}, data has m={raw.m}")
    return [model] + [dataset.apply_normalize(raw, stats) for raw in raws]


def cmd_detect(args, cfg, out):
    model, train_ts, test_ts = _load_for_scoring(args, args.data, args.test)
    pot_cfg = pot.PotConfig(**_setting(cfg, "pot"))
    train_scores = detection.score_series(model, train_ts)
    thresholds = pot.fit_thresholds(train_scores, pot_cfg)
    records = detection.detect_stream(model, test_ts, thresholds)

    # every cell is a float >= 0, and %.17g prints the integral ones as integers
    table = np.column_stack([[rec.timestamp for rec in records], [rec.scores for rec in records],
                             [rec.labels for rec in records], [rec.label for rec in records]])
    head = ["# threshold_model " + json.dumps(thresholds.to_dict(), sort_keys=True),
            ",".join(_report_columns(model.config.m))]
    out.write_text(os.path.join(args.out, "detection.csv"),
                   "\n".join(head) + "\n" + _matrix_csv(table))
    return 0


def _report_columns(m):
    return (["t"] + [f"s_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(m)]
            + ["y"])


def read_detection_report(path):
    """Parse a detection.csv back into (threshold_model, scores, dim_labels,
    agg_labels).  Raises ParseError on a byte that is not UTF-8, a missing or
    undecodable header, or a row that is short, not numeric, out of time order
    (`t` must run 0, 1, ...), or holds a non-finite score or a non-0/1 label."""
    lines = [ln.rstrip("\n") for ln in io.StringIO(dataset.read_text(path), newline=None)]
    head = lines[0].split(" ", 2) if lines else []
    if head[:2] != ["#", "threshold_model"] or len(head) < 3:
        raise ParseError(f"{path}: the first line is not a '# threshold_model' header",
                         row=1)
    try:
        thresholds = pot.ThresholdModel.from_dict(json.loads(head[2]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: undecodable threshold model header: {exc!r}",
                         row=1) from None
    m = len(thresholds.dims)
    columns = _report_columns(m)
    if len(lines) < 2 or lines[1] != ",".join(columns):
        raise ParseError(f"{path}: the second line is not the column header "
                         f"{','.join(columns)}", row=2)
    scores, dim_labels, agg = [], [], []
    for row, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ParseError(f"{path} row {row}: expected {len(columns)} cells, "
                             f"got {len(parts)}", row=row)
        if parts[0] != str(len(scores)):
            raise ParseError(f"{path} row {row}: t must be {len(scores)}, got {parts[0]!r}",
                             row=row)
        try:
            scores.append([float(x) for x in parts[1:1 + m]])
            dim_labels.append([int(x) for x in parts[1 + m:1 + 2 * m]])
            agg.append(int(parts[-1]))
        except ValueError as exc:
            raise ParseError(f"{path} row {row}: {exc}", row=row) from None
        if not (np.isfinite(scores[-1]).all() and set(dim_labels[-1] + agg[-1:]) <= {0, 1}):
            raise ParseError(f"{path} row {row}: scores must be finite, labels 0 or 1", row=row)
    return thresholds, np.array(scores), np.array(dim_labels, dtype=np.int8), \
        np.array(agg, dtype=np.int8)


def cmd_eval(args, cfg, out):
    _, scores, _, agg_pred = read_detection_report(args.report)
    result = {"detection": None}
    if args.labels:
        dim_truth = dataset.load_labels(args.labels, has_header=args.header)
        if dim_truth.shape != scores.shape:
            raise ShapeMismatch(f"labels {args.labels} have shape {dim_truth.shape}, "
                                f"the report's scores {scores.shape}")
        agg_truth = dim_truth.any(axis=1).astype(np.int8)
        agg_scores = scores.max(axis=1)
        rankings = detection.rank_dimensions(scores)
        result = {mode: metrics.evaluate(agg_scores, agg_pred, agg_truth, point_adjusted=pa,
                                         rankings=rankings, dim_truth=dim_truth).to_dict()
                  for mode, pa in (("raw", False), ("point_adjusted", True))}
    else:
        print("no labels given: detection metrics skipped", file=sys.stderr)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    out.write_text(os.path.join(args.out, "eval.json"), text)
    if "raw" in result:
        keys = sorted(result["raw"])
        csv_lines = ["mode," + ",".join(keys)] + [
            mode + "," + ",".join("" if result[mode][k] is None else str(result[mode][k])
                                  for k in keys)
            for mode in ("raw", "point_adjusted")]
        out.write_text(os.path.join(args.out, "eval.csv"), "\n".join(csv_lines) + "\n")
    return 0


def cmd_inspect(args, cfg, out):
    model, ts = _load_for_scoring(args, args.data)
    batch = dataset.make_windows(ts, model.config.window_size, model.config.context_cap)
    K = model.config.window_size
    att_lines = [
        "# masked self-attention weights of the last window row; "
        f"one row per (timestamp, head) with K={K} weights",
        "t,head," + ",".join(f"w_{k + 1}" for k in range(K)),
    ]
    focus_lines = [
        "# phase-2 focus score at the last window row; one row per timestamp "
        f"with m={model.config.m} entries",
        "t," + ",".join(f"f_{d + 1}" for d in range(model.config.m)),
    ]

    def inspect(W, C, rows):
        res = model.forward_two_phase(W, C, decode_rows=detection.LAST_ROW)
        t = np.arange(rows.start, rows.stop)
        B, h = res.window_attention.shape[:2]   # weights (B, h, K, K)
        return (np.column_stack([np.repeat(t, h), np.tile(np.arange(h), B),
                                 res.window_attention[:, :, -1].reshape(B * h, K)]),
                np.column_stack([t, res.focus.data[:, -1]]))

    att_rows, focus_rows = zip(*detection.map_chunks(model, batch, inspect))
    dataset.check_finite(np.concatenate(focus_rows)[:, 1:], "focus")
    out.write_text(os.path.join(args.out, "attention.csv"),
                   "\n".join(att_lines) + "\n" + _matrix_csv(np.concatenate(att_rows)))
    out.write_text(os.path.join(args.out, "focus.csv"),
                   "\n".join(focus_lines) + "\n" + _matrix_csv(np.concatenate(focus_rows)))
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(p, seed=False, header=True):
    """The flags of every command, plus --seed and --header where it reads them."""
    p.add_argument("--config", default=None, help="JSON config file")
    if seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    if header:
        p.add_argument("--header", action="store_true",
                       help="input CSVs carry a header row")
    p.add_argument("--quiet", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tranad",
        description="Multivariate time-series anomaly detection and diagnosis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic series")
    _add_common(p, seed=True, header=False)

    p = sub.add_parser("train", help="train a model on a values CSV")
    _add_common(p, seed=True)
    p.add_argument("--data", required=True, help="training values CSV")

    p = sub.add_parser("detect", help="score a test series against a checkpoint")
    _add_common(p)
    p.add_argument("--data", required=True, help="training values CSV (POT fit)")
    p.add_argument("--test", required=True, help="test values CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True, help="normalization stats JSON")

    p = sub.add_parser("eval", help="metrics over a detection report")
    _add_common(p)
    p.add_argument("--report", required=True, help="detection.csv from `detect`")
    p.add_argument("--labels", default=None, help="ground-truth labels CSV")

    p = sub.add_parser("inspect", help="dump attention and focus scores")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--data", required=True)

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = _OutputTracker()
    try:
        cfg = _load_config(args.config)
        check_int("config", "seed", _setting(cfg, "seed", getattr(args, "seed", None)), 0)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](args, cfg, out)
    except TranadError as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        out.cleanup()
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
