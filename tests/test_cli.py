"""End-to-end command-line surface on a tiny synthetic series."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tranad import cli, training
from tranad.errors import InvalidConfig, ParseError
from tranad.model import TranAD

SYNTH_TRAIN = {
    "synth": {"T": 160, "m": 2, "seed": 21, "noise_sigma": 0.2},
}
SYNTH_TEST = {
    "synth": {"T": 160, "m": 2, "seed": 22, "noise_sigma": 0.2, "anomalies": [
        {"kind": "spike", "start": 60, "length": 3, "dims": [0],
         "magnitude": 15.0},
        {"kind": "burst", "start": 120, "length": 2, "dims": [0, 1],
         "magnitude": -15.0},
    ]},
}
RUN_CFG = {
    "window_size": 4, "context_cap": 8, "dropout": 0.0,
    "train": {"epochs": 1, "batch_size": 32, "lr": 0.005},
    "pot": {"risk": 1e-4, "low_quantile": 0.05},
}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_json(text):
    """json.loads that fails on the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> detect -> eval -> inspect, all through main()."""
    root = tmp_path_factory.mktemp("pipe")
    train_dir, test_dir, run_dir = root / "train", root / "test", root / "run"
    assert cli.main(["synth", "--config",
                     write_cfg(root / "strain.json", SYNTH_TRAIN),
                     "--out", str(train_dir)]) == 0
    assert cli.main(["synth", "--config",
                     write_cfg(root / "stest.json", SYNTH_TEST),
                     "--out", str(test_dir)]) == 0
    cfg = write_cfg(root / "run.json", RUN_CFG)
    assert cli.main(["train", "--config", cfg, "--seed", "5", "--quiet",
                     "--data", str(train_dir / "values.csv"),
                     "--out", str(run_dir)]) == 0
    assert cli.main(["detect", "--config", cfg,
                     "--data", str(train_dir / "values.csv"),
                     "--test", str(test_dir / "values.csv"),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--stats", str(run_dir / "stats.json"),
                     "--out", str(run_dir)]) == 0
    assert cli.main(["eval", "--report", str(run_dir / "detection.csv"),
                     "--labels", str(test_dir / "labels.csv"),
                     "--out", str(run_dir)]) == 0
    assert cli.main(["inspect", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--stats", str(run_dir / "stats.json"),
                     "--data", str(test_dir / "values.csv"),
                     "--out", str(run_dir)]) == 0
    return root, train_dir, test_dir, run_dir, cfg


class TestSynth:
    def test_outputs_and_shapes(self, pipeline):
        _, train_dir, _, _, _ = pipeline
        values = (train_dir / "values.csv").read_text().strip().splitlines()
        labels = (train_dir / "labels.csv").read_text().strip().splitlines()
        assert len(values) == len(labels) == 160
        spec = json.loads((train_dir / "synth_spec.json").read_text())
        assert spec["T"] == 160 and spec["m"] == 2

    def test_rerun_identical_bytes(self, pipeline, tmp_path):
        _, train_dir, _, _, _ = pipeline
        cfg = write_cfg(tmp_path / "s.json", SYNTH_TRAIN)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "values.csv").read_bytes() == \
            (train_dir / "values.csv").read_bytes()

    def test_seed_flag_equals_config_seed(self, tmp_path):
        flag, config = tmp_path / "flag", tmp_path / "config"
        assert cli.main(["synth", "--config", write_cfg(tmp_path / "a.json", SYNTH_TRAIN),
                         "--seed", "7", "--out", str(flag)]) == 0
        cfg = {"synth": dict(SYNTH_TRAIN["synth"], seed=7)}
        assert cli.main(["synth", "--config", write_cfg(tmp_path / "b.json", cfg),
                         "--out", str(config)]) == 0
        for name in ("values.csv", "labels.csv", "synth_spec.json"):
            assert (flag / name).read_bytes() == (config / name).read_bytes()

    def test_overlap_fails_with_message(self, tmp_path, capsys):
        bad = {"synth": {"T": 100, "m": 1, "anomalies": [
            {"kind": "spike", "start": 10, "length": 5, "dims": [0],
             "magnitude": 5.0},
            {"kind": "spike", "start": 12, "length": 2, "dims": [0],
             "magnitude": 5.0}]}}
        cfg = write_cfg(tmp_path / "bad.json", bad)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "t=12" in err and "dim=0" in err
        assert not (tmp_path / "values.csv").exists()


class TestTrain:
    def test_artifacts(self, pipeline):
        _, _, _, run_dir, _ = pipeline
        assert (run_dir / "checkpoint.bin").exists()
        stats = json.loads((run_dir / "stats.json").read_text())
        assert len(stats["min"]) == 2
        report = json.loads((run_dir / "train_report.json").read_text())
        assert len(report["epochs"]) == 1
        assert "seconds" not in report["epochs"][0]

    def test_missing_input_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(tmp_path / "absent.csv"),
                         "--out", str(out), "--quiet"]) == 1
        assert not (out / "checkpoint.bin").exists()

    def test_failed_write_leaves_no_partial_output(self, pipeline, tmp_path, capsys,
                                                   monkeypatch):
        _, train_dir, _, _, cfg = pipeline

        def disk_full(self, path, extra=None):
            with open(path, "wb") as f:
                f.write(b"TRUNC")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(TranAD, "save", disk_full)
        out = tmp_path / "out"
        code = cli.main(["train", "--config", cfg, "--quiet",
                         "--data", str(train_dir / "values.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("io error:") and "Traceback" not in err
        assert_left_nothing(out)

    def test_ablation_settings_take_effect(self, pipeline, tmp_path, capsys):
        # an ablation is a `train` setting, recorded in the checkpoint; the
        # flags that once restated the settings are usage errors
        _, train_dir, _, run_dir, _ = pipeline
        full = (run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)[1]
        for key, flag in (("use_self_condition", "--no-self-condition"),
                          ("use_adversarial", "--no-adversarial"), ("use_maml", "--no-maml")):
            out = tmp_path / key
            argv = ["train", "--seed", "5", "--quiet", "--data", str(train_dir / "values.csv"),
                    "--out", str(out)]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [flag])
            assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
            cfg = dict(RUN_CFG, train=dict(RUN_CFG["train"], **{key: False}))
            assert cli.main(argv + ["--config", write_cfg(tmp_path / f"{key}.json", cfg)]) == 0
            header, payload = (out / "checkpoint.bin").read_bytes().split(b"\n", 1)
            assert json.loads(header)["extra"]["train_config"][key] is False
            assert payload != full, key

    def test_empty_validation_writes_null(self, tmp_path, capsys, monkeypatch):
        # two rows give two windows, and the split's ratio 0.8 trains on both
        data, out = tmp_path / "values.csv", tmp_path / "out"
        data.write_text("0.1,0.9\n0.4,0.2\n")
        monkeypatch.setattr(training, "PATIENCE", 1)
        cfg = write_cfg(tmp_path / "cfg.json", {"train": {"epochs": 6}})
        assert cli.main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 0
        assert "val -" in capsys.readouterr().err
        report = strict_json((out / "train_report.json").read_text())
        epochs = report["epochs"]
        assert [e["val_score"] for e in epochs] == [None] * len(epochs)
        # without validation, early stopping tracks the mean L1
        l1 = [e["mean_l1"] for e in epochs]
        assert report["best_epoch"] == 1 + l1.index(min(l1))
        if report["stop_reason"].startswith("early stop"):
            assert len(epochs) == report["best_epoch"] + 1


class TestDetect:
    def test_report_rows_and_roundtrip(self, pipeline):
        _, _, test_dir, run_dir, _ = pipeline
        th, scores, dim_labels, agg = cli.read_detection_report(
            run_dir / "detection.csv")
        assert scores.shape == (160, 2)
        np.testing.assert_array_equal(agg, dim_labels.any(axis=1).astype(np.int8))
        assert len(th.dims) == 2

    def test_rerun_identical(self, pipeline, tmp_path):
        _, train_dir, test_dir, run_dir, cfg = pipeline
        assert cli.main(["detect", "--config", cfg,
                         "--data", str(train_dir / "values.csv"),
                         "--test", str(test_dir / "values.csv"),
                         "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--stats", str(run_dir / "stats.json"),
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "detection.csv").read_bytes() == \
            (run_dir / "detection.csv").read_bytes()

    def test_dimension_mismatch(self, pipeline, tmp_path, capsys):
        _, train_dir, _, run_dir, cfg = pipeline
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,5,6\n")
        assert cli.main(["detect", "--config", cfg,
                         "--data", str(train_dir / "values.csv"),
                         "--test", str(bad),
                         "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--stats", str(run_dir / "stats.json"),
                         "--out", str(tmp_path)]) == 1
        assert "m=" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--test", "--data"])
    def test_non_finite_score_names_its_timestamp(self, pipeline, tmp_path, capsys, flag):
        # a value far outside the training range gives non-finite scores from
        # the timestamp it enters a window; in --data they would fit NaN thresholds
        argv = detect_argv(pipeline, tmp_path / "out")
        at = argv.index(flag) + 1
        argv[at] = with_outlier_row(Path(argv[at]), tmp_path / "outlier.csv", 70)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite score at timestamp 70" in err
        assert_left_nothing(tmp_path / "out")


def with_outlier_row(src, dst, t, row="1e200,1"):
    """A copy of the values CSV `src` whose row t is `row`."""
    rows = src.read_text().splitlines()
    rows[t] = row
    dst.write_text("\n".join(rows) + "\n")
    return str(dst)


def detect_argv(pipeline, out, cfg=None, checkpoint=None):
    _, train_dir, test_dir, run_dir, run_cfg = pipeline
    return ["detect", "--config", cfg or run_cfg,
            "--data", str(train_dir / "values.csv"),
            "--test", str(test_dir / "values.csv"),
            "--checkpoint", str(checkpoint or run_dir / "checkpoint.bin"),
            "--stats", str(run_dir / "stats.json"), "--out", str(out)]


def assert_failed(code, capsys, *names):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    for name in names:
        assert name in err


def assert_left_nothing(out):
    """A failed command removed the --out directory it made, with all it wrote."""
    assert not out.exists()


def set_cell(r, c, value):
    """A mutation of CSV rows (lists of cells) that sets cell (r, c)."""
    def mutate(rows):
        rows[r][c] = value
        return rows
    return mutate


def set_report_cell(r, c, value):
    """The same mutation of report lines, each split at its commas."""
    return lambda lines: [",".join(row) for row in
                          set_cell(r, c, value)([ln.split(",") for ln in lines])]


class TestBadInputs:
    """Unknown config keys and damaged checkpoints end with exit 1, one
    `error:` line and no partial outputs."""

    def test_unknown_train_key(self, pipeline, tmp_path, capsys):
        _, train_dir, _, _, _ = pipeline
        cfg = write_cfg(tmp_path / "c.json", {"train": {"epochs": 1, "bogus": 1}})
        out = tmp_path / "out"
        code = cli.main(["train", "--config", cfg, "--quiet", "--out", str(out),
                         "--data", str(train_dir / "values.csv")])
        assert_failed(code, capsys, "bogus")
        assert not out.exists()    # the config is checked before anything is made

    def test_unknown_pot_key(self, pipeline, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", dict(RUN_CFG, pot={"bogus": 1}))
        assert_failed(cli.main(detect_argv(pipeline, tmp_path, cfg=cfg)), capsys, "bogus")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("synth", [
        {"T": 50, "bogus": 1},
        {"T": 50, "anomalies": [{"kind": "spike", "start": 1, "length": 1,
                                 "dims": [0], "magnitude": 5.0, "bogus": 1}]},
    ])
    def test_unknown_synth_key(self, tmp_path, capsys, synth):
        cfg = write_cfg(tmp_path / "c.json", {"synth": synth})
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", cfg, "--out", str(out)]),
                      capsys, "bogus")
        assert_left_nothing(out)

    def test_checkpoint_with_removed_model_keys(self, pipeline, tmp_path, capsys):
        # the model_config a checkpoint of the earlier format carried
        _, _, _, run_dir, _ = pipeline
        header, payload = (run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        meta["extra"]["model_config"].update(d_model=4, scale_mode="head_dim",
                                             focus_target="context")
        old = tmp_path / "old.bin"
        old.write_bytes(json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
        code = cli.main(detect_argv(pipeline, tmp_path, checkpoint=old))
        assert_failed(code, capsys, "d_model", "focus_target", "scale_mode")
        assert not (tmp_path / "detection.csv").exists()

    def test_checkpoint_with_fixed_settings(self, pipeline, tmp_path, capsys):
        # a checkpoint written while the head count, hidden width and lr decay
        # were settings: retrain
        _, _, _, run_dir, _ = pipeline
        header, payload = (run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        meta["extra"]["model_config"].update(n_heads=2, ff_hidden=64)
        meta["extra"]["train_config"]["lr_decay"] = 0.5
        old = tmp_path / "old.bin"
        old.write_bytes(json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
        code = cli.main(detect_argv(pipeline, tmp_path, checkpoint=old))
        assert_failed(code, capsys, "model_config", "ff_hidden", "n_heads")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("edit, names", [
        (lambda extra: extra["model_config"].pop("m"), ["missing model_config keys: m"]),
        (lambda extra: extra.pop("model_config"), ["model_config must be a JSON object"]),
        (lambda extra: extra.update(model_config=[2, 4]), ["model_config must be a JSON object"]),
        (lambda extra: extra["model_config"].update(window_size="4"), ["window_size"]),
    ], ids=["missing-m", "missing", "list", "string-window"])
    def test_checkpoint_with_malformed_model_config(self, pipeline, tmp_path, capsys, edit,
                                                    names):
        # the sha256 covers the payload only, so a header edit reaches the model config
        _, _, _, run_dir, _ = pipeline
        header, payload = (run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        edit(meta["extra"])
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
        out = tmp_path / "out"
        assert_failed(cli.main(detect_argv(pipeline, out, checkpoint=bad)), capsys, *names)
        assert_left_nothing(out)

    def test_truncated_checkpoint(self, pipeline, tmp_path, capsys):
        _, _, _, run_dir, _ = pipeline
        header, payload = (run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)
        cut = tmp_path / "cut.bin"
        cut.write_bytes(header + b"\n" + payload[:1003])
        assert_failed(cli.main(detect_argv(pipeline, tmp_path, checkpoint=cut)),
                      capsys, "truncated")
        assert not (tmp_path / "detection.csv").exists()

    def test_bit_flipped_checkpoint(self, pipeline, tmp_path, capsys):
        _, _, _, run_dir, _ = pipeline
        data = bytearray((run_dir / "checkpoint.bin").read_bytes())
        data[-100] ^= 0x10
        flipped = tmp_path / "flipped.bin"
        flipped.write_bytes(bytes(data))
        out = tmp_path / "out"
        assert_failed(cli.main(detect_argv(pipeline, out, checkpoint=flipped)),
                      capsys, "sha256")
        assert_left_nothing(out)

    @pytest.mark.parametrize("anomaly, names", [
        ({"kind": "bump"}, ["bump"]),
        ({"dims": [5]}, ["dims"]),
        ({"dims": [-1]}, ["dims"]),
        ({"dims": 0}, ["dims"]),
        ({"start": 48}, ["outside"]),
        ({"start": -1}, ["start"]),
        ({"length": 0}, ["length"]),
        ({"magnitude": float("nan")}, ["magnitude"]),
        ({"magnitude": float("inf")}, ["magnitude"]),
    ])
    def test_bad_synth_anomaly(self, tmp_path, capsys, anomaly, names):
        spec = dict({"kind": "spike", "start": 10, "length": 3, "dims": [0],
                     "magnitude": 5.0}, **anomaly)
        cfg = write_cfg(tmp_path / "c.json", {"synth": {"T": 50, "m": 2,
                                                        "anomalies": [spec]}})
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", cfg, "--out", str(out)]),
                      capsys, *names)
        assert_left_nothing(out)


    @pytest.mark.parametrize("cfg, names", [
        # removed settings, unknown keys now: the heads number m, the hidden
        # width is 64, the lr halves, and a GPD needs 10 excesses
        ({"n_heads": 3}, ["unknown config keys", "n_heads"]),
        ({"ff_hidden": 32}, ["unknown config keys", "ff_hidden"]),
        ({"train": {"lr_decay": 0.1}}, ["unknown train keys", "lr_decay"]),
        ({"pot": {"min_excesses": 5}}, ["unknown pot keys", "min_excesses"]),
        ({"dropout": 1.5}, ["dropout"]),
        ({"window_size": 4, "context_cap": 2}, ["context_cap"]),
        ({"train": {"epsilon": 1.0}}, ["unknown train keys", "epsilon"]),   # training.EPSILON
        ({"train": {"batch_size": 0}}, ["batch_size"]),
        ({"windw_size": 4}, ["windw_size"]),
        ({"m": 3, "init_seed": 1}, ["init_seed", "m"]),
        ({"train": 5}, ["train"]),
        ({"split_ratio": 0}, ["unknown config keys", "split_ratio"]),   # the split keeps 0.8
        ({"n_enc_layers": 1}, ["n_enc_layers"]),       # a removed model option
        ({"score_reduce": "last_row"}, ["score_reduce"]),          # removed settings
        ({"train": {"n_semantics": "epoch"}}, ["n_semantics"]),
        ({"seed": "abc"}, ["seed"]),
        ({"seed": None}, ["seed"]),
        ({"seed": 1.5}, ["seed"]),
        ({"seed": True}, ["seed"]),
        ({"seed": -3}, ["seed"]),
        ({"train": {"seed": 3}}, ["train.seed", "top-level seed"]),   # the only seed is top-level
        # fixed as well: training.META_LR and PATIENCE, AdamW's decay, dataset.DEFAULT_EPS
        ({"train": {"meta_lr": 0.0}}, ["unknown train keys", "meta_lr"]),
        ({"train": {"weight_decay": 0.0}}, ["unknown train keys", "weight_decay"]),
        ({"train": {"early_stop_patience": 1}}, ["unknown train keys", "early_stop_patience"]),
        ({"eps": 1e-4}, ["unknown config keys", "eps"]),
        ({"train": {"lr": 10 ** 400}}, ["lr"]),     # beyond a float's range
        ({"train": {"use_maml": 1}}, ["train use_maml must be true or false"]),
        ({"synth": [1]}, ["synth must be a JSON object"]),   # checked by every command
    ])
    def test_bad_train_config(self, pipeline, tmp_path, capsys, cfg, names):
        _, train_dir, _, _, _ = pipeline
        out = tmp_path / "out"
        code = cli.main(["train", "--config", write_cfg(tmp_path / "c.json", cfg),
                         "--quiet", "--out", str(out),
                         "--data", str(train_dir / "values.csv")])
        assert_failed(code, capsys, *names)
        assert_left_nothing(out)

    @pytest.mark.parametrize("data, names", [
        (b"0.1,0.2\n\xff\xfe,0.3\n", ["bad.csv line 2", "not UTF-8"]),
        (b"0.1,0.2\n" + b"1" * 200_000 + b",0.3\n", ["bad.csv line 2", "field larger"]),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_csv(self, tmp_path, capsys, data, names):
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_bytes(data)
        code = cli.main(["train", "--quiet", "--data", str(bad), "--out", str(out)])
        assert_failed(code, capsys, *names)
        assert_left_nothing(out)

    def test_train_range_overflow_names_its_column(self, tmp_path, capsys):
        # max - min of column 1 (counting from 0) is 2e308, past the largest
        # float; a numpy overflow warning would fail the test as an error
        data, out = tmp_path / "wide.csv", tmp_path / "out"
        data.write_text("".join(f"1,{v}\n" for v in ("1e308", "-1e308") * 80))
        code = cli.main(["train", "--quiet", "--data", str(data), "--out", str(out)])
        assert_failed(code, capsys, "column 1", "overflows")
        assert_left_nothing(out)

    @pytest.mark.parametrize("command, cfg", [
        ("synth", {"synth": {"T": 10 ** 15}}),
        ("train", {"window_size": 10 ** 15, "context_cap": 10 ** 15}),
    ], ids=["synth-rows", "train-window"])
    def test_oversized_shape(self, pipeline, tmp_path, capsys, command, cfg):
        # petabytes: numpy refuses the request at once and allocates nothing;
        # the failed command removes both directories it made for --out
        _, train_dir, _, _, _ = pipeline
        out = tmp_path / "new" / "out"
        argv = [command, "--quiet", "--config", write_cfg(tmp_path / "c.json", cfg),
                "--out", str(out)]
        if command == "train":
            argv += ["--data", str(train_dir / "values.csv")]
        assert_failed(cli.main(argv), capsys, "allocate")
        assert_left_nothing(tmp_path / "new")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_normalize_overflow_names_its_timestamp(self, pipeline, tmp_path, capsys):
        # 1e308 - (-1e308) overflows; a numpy overflow warning would fail the
        # test as an error
        _, train_dir, test_dir, _, cfg = pipeline
        data = with_outlier_row(train_dir / "values.csv", tmp_path / "train.csv", 10, "-1e308,0")
        test = with_outlier_row(test_dir / "values.csv", tmp_path / "test.csv", 30, "1e308,0")
        run, out = tmp_path / "run", tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--quiet", "--data", data,
                         "--out", str(run)]) == 0
        code = cli.main(["detect", "--config", cfg, "--data", data, "--test", test,
                         "--checkpoint", str(run / "checkpoint.bin"),
                         "--stats", str(run / "stats.json"), "--out", str(out)])
        assert_failed(code, capsys, "non-finite normalized value at timestamp 30")
        assert_left_nothing(out)

    @pytest.mark.parametrize("argv", [
        ["detect", "--seed", "3", "--data", "a.csv", "--test", "b.csv",
         "--checkpoint", "c.bin", "--stats", "s.json"],
        ["eval", "--seed", "3", "--report", "r.csv"],
        ["inspect", "--seed", "3", "--checkpoint", "c.bin", "--stats", "s.json",
         "--data", "a.csv"],
        ["synth", "--header"],
    ])
    def test_flag_a_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        # --seed only where a seed is drawn from, --header only where a CSV is read
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_fails_before_reading_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["train", "--seed", "-3", "--quiet", "--out", str(out),
                         "--data", str(tmp_path / "absent.csv")])
        assert_failed(code, capsys, "seed", "-3")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{", "[1, 2]"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", str(cfg), "--out", str(out)]),
                      capsys, "c.json")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--stats"])
    def test_json_input_not_utf8(self, pipeline, tmp_path, capsys, flag):
        # config and stats files are decoded as UTF-8, whatever the locale
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(b'{"seed": 1,\n"\xff": 2}\n')
        argv = detect_argv(pipeline, out)
        argv[argv.index(flag) + 1] = str(bad)
        assert_failed(cli.main(argv), capsys, "bad.json line 2 is not UTF-8")
        assert_left_nothing(out)

    def test_bad_pot_value(self, pipeline, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", dict(RUN_CFG, pot={"risk": 0.5}))
        assert_failed(cli.main(detect_argv(pipeline, tmp_path, cfg=cfg)), capsys, "risk")
        assert not (tmp_path / "detection.csv").exists()

    def test_unknown_score_reduce_fails_before_reading_files(self, pipeline, tmp_path,
                                                             capsys):
        # score_reduce is no longer a setting: a config naming it names an unknown key
        cfg = write_cfg(tmp_path / "c.json", dict(RUN_CFG, score_reduce="last_row"))
        with pytest.raises(InvalidConfig, match="score_reduce"):
            cli._load_config(cfg)
        argv = detect_argv(pipeline, tmp_path, cfg=cfg, checkpoint=tmp_path / "absent.bin")
        assert_failed(cli.main(argv), capsys, "unknown config keys", "score_reduce")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("synth, names", [
        # a removed setting: every dimension has its one default sinusoid, and
        # whatever value the key carries, it is refused as an unknown key
        ({"sinusoids": []}, ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 50, "phase": 0, "bogus": 1}]]},
         ["unknown synth keys: sinusoids"]),
        ({"sinusoids": 5}, ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [5]}, ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [[], [], []]}, ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [[{"amplitude": "a", "period": 50, "phase": 0}]]},
         ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 0, "phase": 0}]]},
         ["unknown synth keys: sinusoids"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 50, "phase": float("inf")}]]},
         ["unknown synth keys: sinusoids"]),
        ({"noise_sigma": -1}, ["noise_sigma"]),
        ({"noise_sigma": "a"}, ["noise_sigma"]),
        ({"noise_sigma": float("nan")}, ["noise_sigma"]),
        ({"anomalies": [{"kind": "spike", "start": 1, "length": 1, "dims": [0]}]},
         ["missing synth anomaly keys: magnitude"]),
        ({"anomalies": [["spike", 1, 1, [0], 5.0]]}, ["synth anomaly must be a JSON object"]),
        ({"anomalies": [None]}, ["synth anomaly must be a JSON object"]),
        ({"anomalies": 5}, ["synth anomalies must be a list"]),
        ({"noise_sigma": 10 ** 400}, ["noise_sigma"]),
        ({"anomalies": [{"kind": "spike", "start": 1, "length": 1, "dims": [0],
                         "magnitude": 10 ** 400}]}, ["magnitude"]),
    ], ids=["unknown-keys", "extra-key", "not-a-list", "not-lists", "more-than-m",
            "amplitude-string", "period-zero", "phase-inf", "sigma-negative",
            "sigma-string", "sigma-nan", "anomaly-missing-key", "anomaly-list",
            "anomaly-null", "anomalies-not-a-list", "sigma-huge-int", "magnitude-huge-int"])
    def test_bad_synth_spec(self, tmp_path, capsys, synth, names):
        cfg = write_cfg(tmp_path / "c.json", {"synth": dict({"T": 50, "m": 2}, **synth)})
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", cfg, "--out", str(out)]),
                      capsys, *names)
        assert_left_nothing(out)

    @pytest.mark.parametrize("mutate, names", [
        (set_cell(0, 0, "0.5"), ["(0,0)", "{0,1}"]),
        (set_cell(3, 0, "2"), ["(3,0)", "{0,1}"]),
        (set_cell(3, 1, "300"), ["(3,1)", "{0,1}"]),
        (set_cell(5, 1, "x"), ["non-numeric"]),
        (lambda rows: [r + ["0"] for r in rows], ["(160, 3)", "(160, 2)"]),
        (lambda rows: [r[:1] for r in rows], ["(160, 1)", "(160, 2)"]),
        (lambda rows: rows[:-1], ["(159, 2)", "(160, 2)"]),
    ], ids=["half", "two", "three-hundred", "non-numeric", "three-columns", "one-column",
            "short"])
    def test_bad_eval_labels(self, pipeline, tmp_path, capsys, mutate, names):
        _, _, test_dir, run_dir, _ = pipeline
        rows = [ln.split(",") for ln in (test_dir / "labels.csv").read_text().splitlines()]
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(",".join(r) + "\n" for r in mutate(rows)))
        out = tmp_path / "out"
        code = cli.main(["eval", "--report", str(run_dir / "detection.csv"),
                         "--labels", str(labels), "--out", str(out)])
        assert_failed(code, capsys, *names)
        assert_left_nothing(out)

    @pytest.mark.parametrize("command", ["detect", "inspect"])
    @pytest.mark.parametrize("text, names", [
        ("{", ["not valid JSON"]),
        ("[0, 1]", ["JSON object"]),
        ('{"min": [0, 0]}', ["eps and equally long"]),
        ('{"min": [0, 0], "max": [1, 1], "eps": 1e-8, "bogus": 1}', ["bogus"]),
        ('{"min": [0, "a"], "max": [1, 1], "eps": 1e-8}', ["finite numbers min and max"]),
        ('{"min": [0, true], "max": [1, 1], "eps": 1e-8}', ["finite numbers min and max"]),
        ('{"min": [0, NaN], "max": [1, 1], "eps": 1e-8}', ["finite numbers min and max"]),
        ('{"min": [0, 0], "max": [1, 1%s], "eps": 1e-8}' % ("0" * 400),
         ["finite numbers min and max"]),
        ('{"min": [0], "max": [1, 1], "eps": 1e-8}', ["equally long lists"]),
        ('{"min": [0, 0], "max": [1, 1], "eps": 0}', ["eps"]),
        ('{"min": [0, 2], "max": [1, 1], "eps": 1e-8}', ["min exceeds max"]),
        ('{"min": [-1e308, 0], "max": [1e308, 1], "eps": 1e-8}', ["column 0", "overflows"]),
    ], ids=["not-json", "not-object", "missing-keys", "unknown-key", "string", "bool", "nan",
            "huge-int", "unequal", "eps-zero", "min-above-max", "range-overflow"])
    def test_bad_stats(self, pipeline, tmp_path, capsys, command, text, names):
        _, train_dir, test_dir, run_dir, cfg = pipeline
        stats = tmp_path / "stats.json"
        stats.write_text(text)
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--data", str(train_dir / "values.csv"),
                "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--stats", str(stats), "--out", str(out)]
        if command == "detect":
            argv += ["--test", str(test_dir / "values.csv")]
        assert_failed(cli.main(argv), capsys, *names)
        assert_left_nothing(out)

    @pytest.mark.parametrize("mutate, names", [
        (lambda lines: ["garbage", "1,2"], ["threshold_model"]),
        (lambda lines: [], ["threshold_model"]),
        (lambda lines: ["# threshold_model {"] + lines[1:], ["undecodable"]),
        (lambda lines: ['# threshold_model {"dims": 3}'] + lines[1:], ["undecodable"]),
        (lambda lines: lines[:1] + lines[2:], ["column header"]),
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:], ["row 6"]),
        (lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:],
         ["row 6"]),
        (set_report_cell(5, -1, "7"), ["row 6", "labels 0 or 1"]),
        (set_report_cell(5, 3, "7"), ["row 6", "labels 0 or 1"]),
        (set_report_cell(5, 1, "nan"), ["row 6", "finite"]),
        (set_report_cell(5, 2, "inf"), ["row 6", "finite"]),
        (lambda lines: lines[:2] + ["x" + ln[ln.index(","):] for ln in lines[2:]],
         ["row 3", "non-numeric"]),
        (lambda lines: lines[:2] + lines[:1:-1], ["row 3", "t must be 0"]),
        # of two faults the first in the file is reported, and a row is named
        # by its file line, blank lines counted
        (lambda lines: set_report_cell(9, 1, "x")(lines[:2] + lines[3:1:-1] + lines[4:]),
         ["row 3", "t must be 0"]),
        (lambda lines: lines[:2] + [""] + set_report_cell(5, 1, "nan")(lines)[2:],
         ["row 7", "finite"]),
        # a header that decodes to an invalid POT config
        (lambda lines: [lines[0].replace('"risk": 0.0001', '"risk": 0.5')] + lines[1:],
         ["undecodable", "risk"]),
    ])
    def test_bad_report(self, pipeline, tmp_path, capsys, mutate, names):
        _, _, test_dir, run_dir, _ = pipeline
        lines = (run_dir / "detection.csv").read_text().splitlines()
        report = tmp_path / "detection.csv"
        report.write_text("".join(ln + "\n" for ln in mutate(lines)))
        out = tmp_path / "out"
        code = cli.main(["eval", "--report", str(report), "--out", str(out),
                         "--labels", str(test_dir / "labels.csv")])
        assert_failed(code, capsys, *names)
        assert_left_nothing(out)

    def test_report_not_utf8(self, pipeline, tmp_path, capsys):
        _, _, _, run_dir, _ = pipeline
        lines = (run_dir / "detection.csv").read_bytes().split(b"\n")
        report, out = tmp_path / "detection.csv", tmp_path / "out"
        report.write_bytes(b"\n".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:]))
        with pytest.raises(ParseError) as exc:
            cli.read_detection_report(report)
        assert exc.value.row == 3
        code = cli.main(["eval", "--report", str(report), "--out", str(out)])
        assert_failed(code, capsys, "detection.csv line 3", "not UTF-8")
        assert_left_nothing(out)

    def test_report_with_fixed_setting(self, pipeline, tmp_path, capsys):
        # a report written while POT's fewest excesses was a setting: rerun detect
        _, _, _, run_dir, _ = pipeline
        lines = (run_dir / "detection.csv").read_text().splitlines(keepends=True)
        head = json.loads(lines[0].split(" ", 2)[2])
        head["config"]["min_excesses"] = 10
        report, out = tmp_path / "detection.csv", tmp_path / "out"
        report.write_text("# threshold_model " + json.dumps(head) + "\n" + "".join(lines[1:]))
        with pytest.raises(ParseError, match="min_excesses") as exc:
            cli.read_detection_report(report)
        assert exc.value.row == 1
        code = cli.main(["eval", "--report", str(report), "--out", str(out)])
        assert_failed(code, capsys, "undecodable", "min_excesses")
        assert_left_nothing(out)


# edits of a report's lines: a body cell set to a number, nan, inf, text or
# nothing; a line dropped, repeated, swapped with another or put in blank;
# characters of a header line replaced
TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=3)
CELL = (st.floats().map(repr) | TEXT
        | st.sampled_from(["0", "1", "1.0", "1e0", "2", "-0", "nan", "-inf", "1e999", ""]))
EDIT = st.tuples(st.sampled_from(["cell"] * 4 + ["drop", "repeat", "swap", "blank", "head"]),
                 st.integers(0, 400), st.integers(0, 400), CELL)


def edit_lines(lines, edit):
    kind, i, j, text = edit
    lines = list(lines)
    if kind == "cell":
        i = 2 + i % (len(lines) - 2)
        cells = lines[i].split(",")
        cells[j % len(cells)] = text
        lines[i] = ",".join(cells)
    elif kind == "head":
        lines[i % 2] = lines[i % 2][:j] + text + lines[i % 2][j + len(text):]
    elif kind == "drop":
        del lines[i % len(lines)]
    elif kind == "repeat":
        lines.insert(i % len(lines), lines[i % len(lines)])
    elif kind == "swap":
        i, j = i % len(lines), j % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.insert(i % len(lines), "")
    return lines


@given(edits=st.lists(EDIT, max_size=4), eol=st.sampled_from(["\n", "\r\n"]))
def test_report_text_reads_whole_or_raises_a_parse_error(pipeline, edits, eol):
    # a 20-row report of m=2, edited
    lines = (pipeline[3] / "detection.csv").read_text().splitlines()[:22]
    for e in edits:
        lines = edit_lines(lines, e)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "detection.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("".join(ln + eol for ln in lines))
        try:
            thresholds, scores, dim_labels, agg = cli.read_detection_report(path)
        except ParseError:
            return
    T, m = len(agg), len(thresholds.dims)
    assert scores.shape == dim_labels.shape == (T, m) and agg.shape == (T,)
    assert scores.dtype == np.float64 and np.isfinite(scores).all()
    assert dim_labels.dtype == agg.dtype == np.int8
    assert set(np.unique(dim_labels)) | set(np.unique(agg)) <= {0, 1}


def whole_or_clean_failure(argv, inputs, outputs):
    """Write `inputs` ({name: bytes}) into a new directory and run `argv(dir,
    out)`.  The command exits 0 having written exactly `outputs` into `out`,
    or exits 1 with one `error:` line and leaves the directory as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in inputs.items():
            (tmp / name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv(tmp, tmp / "out"))
        if code == 0:
            assert sorted(os.listdir(tmp / "out")) == sorted(outputs)
        else:
            assert code == 1
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
            assert sorted(os.listdir(tmp)) == sorted(inputs)


# damage to a checkpoint: single bytes XORed at up to three places, a cut, or
# bytes appended; a one-byte flip cannot make a shape setting much larger
DAMAGE = (st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 20000),
                                                        st.integers(1, 255)),
                                              min_size=1, max_size=3))
          | st.tuples(st.just("cut"), st.integers(0, 20000))
          | st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)))


def damaged(data, damage):
    kind, arg = damage
    if kind == "cut":
        return data[:arg % len(data)]
    if kind == "append":
        return data + arg
    data = bytearray(data)
    for i, mask in arg:
        data[i % len(data)] ^= mask
    return bytes(data)


@settings(max_examples=100)
@given(damage=DAMAGE)
def test_detect_on_a_damaged_checkpoint_runs_whole_or_fails_clean(pipeline, damage):
    ckpt = damaged((pipeline[3] / "checkpoint.bin").read_bytes(), damage)
    whole_or_clean_failure(lambda tmp, out: detect_argv(pipeline, out,
                                                        checkpoint=tmp / "checkpoint.bin"),
                           {"checkpoint.bin": ckpt}, ["detection.csv"])


NUMBER = st.floats(-3, 3) | st.floats() | st.integers() | st.sampled_from([10 ** 400, True, "0"])
STATS = st.fixed_dictionaries({}, optional={
    "min": st.lists(NUMBER, max_size=3), "max": st.lists(NUMBER, max_size=3),
    "eps": NUMBER, "bogus": NUMBER}).map(json.dumps)
# characters of the trained stats.json text replaced
TEXT_EDIT = st.tuples(st.integers(0, 200), st.text("0123456789.-+eE,[]{}\":aNn ", max_size=3))


@settings(max_examples=100)
@given(text=STATS, edits=st.lists(TEXT_EDIT, max_size=3), trained=st.booleans())
def test_detect_on_stats_text_runs_whole_or_fails_clean(pipeline, text, edits, trained):
    if trained:
        text = (pipeline[3] / "stats.json").read_text()
    for i, new in edits:
        i %= len(text) + 1
        text = text[:i] + new + text[i + len(new):]
    _, train_dir, test_dir, run_dir, cfg = pipeline
    argv = lambda tmp, out: ["detect", "--config", cfg, "--data", str(train_dir / "values.csv"),
                             "--test", str(test_dir / "values.csv"),
                             "--checkpoint", str(run_dir / "checkpoint.bin"),
                             "--stats", str(tmp / "stats.json"), "--out", str(out)]
    whole_or_clean_failure(argv, {"stats.json": text.encode()}, ["detection.csv"])


@given(edits=st.lists(EDIT, max_size=4), eol=st.sampled_from(["\n", "\r\n"]))
def test_eval_on_report_text_runs_whole_or_fails_clean(pipeline, edits, eol):
    # the 20-row report of the property above, with one anomalous row in its labels
    lines = (pipeline[3] / "detection.csv").read_text().splitlines()[:22]
    for e in edits:
        lines = edit_lines(lines, e)
    labels = "".join("1,0\n" if t == 5 else "0,0\n" for t in range(20))
    argv = lambda tmp, out: ["eval", "--report", str(tmp / "detection.csv"),
                             "--labels", str(tmp / "labels.csv"), "--out", str(out)]
    whole_or_clean_failure(argv, {"detection.csv": "".join(ln + eol for ln in lines).encode(),
                                  "labels.csv": labels.encode()}, ["eval.csv", "eval.json"])


class TestEval:
    def test_failed_write_removes_what_it_wrote(self, pipeline, tmp_path, capsys):
        # eval.json is written, then eval.csv cannot replace the directory of
        # that name: the command removes eval.json and keeps the --out it found
        _, _, test_dir, run_dir, _ = pipeline
        (tmp_path / "eval.csv").mkdir()
        code = cli.main(["eval", "--report", str(run_dir / "detection.csv"),
                         "--labels", str(test_dir / "labels.csv"), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("io error:") and "Is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]
        assert (tmp_path / "eval.csv").is_dir()

    def test_both_modes_reported(self, pipeline):
        _, _, _, run_dir, _ = pipeline
        result = json.loads((run_dir / "eval.json").read_text())
        assert set(result) == {"raw", "point_adjusted"}
        for mode in ("raw", "point_adjusted"):
            for key in ("precision", "recall", "f1", "auc", "hitrate_100",
                        "ndcg_150"):
                assert key in result[mode]
        assert result["point_adjusted"]["point_adjusted"] is True

    def test_csv_matches_json(self, pipeline):
        _, _, _, run_dir, _ = pipeline
        result = json.loads((run_dir / "eval.json").read_text())
        lines = (run_dir / "eval.csv").read_text().strip().splitlines()
        header = lines[0].split(",")[1:]
        raw_row = lines[1].split(",")
        assert raw_row[0] == "raw"
        for key, cell in zip(header, raw_row[1:]):
            assert str(result["raw"][key]) == cell

    def test_labels_header_honoured(self, pipeline, tmp_path):
        _, _, test_dir, run_dir, _ = pipeline
        labels = tmp_path / "labels.csv"
        labels.write_text("y_1,y_2\n" + (test_dir / "labels.csv").read_text())
        assert cli.main(["eval", "--report", str(run_dir / "detection.csv"), "--header",
                         "--labels", str(labels), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "eval.json").read_bytes() == (run_dir / "eval.json").read_bytes()

    def test_undefined_auc_is_null(self, pipeline, tmp_path):
        # all-zero labels leave the AUC and the diagnosis metrics undefined
        _, _, _, run_dir, _ = pipeline
        labels = tmp_path / "labels.csv"
        labels.write_text("0,0\n" * 160)
        assert cli.main(["eval", "--report", str(run_dir / "detection.csv"),
                         "--labels", str(labels), "--out", str(tmp_path)]) == 0
        result = strict_json((tmp_path / "eval.json").read_text())
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        header = lines[0].split(",")
        for mode, line in zip(("raw", "point_adjusted"), lines[1:]):
            assert result[mode]["auc"] is None and result[mode]["degenerate"] is True
            cells = dict(zip(header, line.split(",")))
            assert cells["mode"] == mode
            for key, value in result[mode].items():
                assert cells[key] == ("" if value is None else str(value))
            assert cells["auc"] == cells["hitrate_100"] == ""

    def test_labels_absent_skips_metrics(self, pipeline, tmp_path, capsys):
        _, _, _, run_dir, _ = pipeline
        assert cli.main(["eval", "--report", str(run_dir / "detection.csv"),
                         "--out", str(tmp_path)]) == 0
        assert "skipped" in capsys.readouterr().err
        result = json.loads((tmp_path / "eval.json").read_text())
        assert result == {"detection": None}


class TestInspect:
    def test_attention_rows_stochastic(self, pipeline):
        _, _, _, run_dir, _ = pipeline
        lines = (run_dir / "attention.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        for ln in lines[2:]:
            weights = [float(x) for x in ln.split(",")[2:]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    def test_non_finite_focus_names_its_timestamp(self, pipeline, tmp_path, capsys):
        _, _, test_dir, run_dir, _ = pipeline
        data = with_outlier_row(test_dir / "values.csv", tmp_path / "outlier.csv", 70)
        assert cli.main(["inspect", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--stats", str(run_dir / "stats.json"), "--data", data,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite focus at timestamp 70" in err
        assert_left_nothing(tmp_path / "out")

    def test_focus_nonnegative(self, pipeline):
        _, _, _, run_dir, _ = pipeline
        lines = (run_dir / "focus.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 160
        for ln in lines[2:]:
            assert all(float(x) >= 0 for x in ln.split(",")[1:])


class TestSeedDerivation:
    def test_stable_and_tag_dependent(self):
        assert cli.derive_seed(0, "model-init") == cli.derive_seed(0, "model-init")
        assert cli.derive_seed(0, "model-init") != cli.derive_seed(0, "training")
        assert cli.derive_seed(1, "model-init") != cli.derive_seed(0, "model-init")


# Runs each argv list of argv[2] (JSON) through cli.main in this fresh
# interpreter, and prints per command its exit code and the scipy modules loaded
COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tranad import cli
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(["import", 0, scipy()]))
for argv in json.loads(sys.argv[2]):
    print(json.dumps([argv[0], cli.main(argv), scipy()]))
"""


class TestColdStart:
    def test_only_detect_imports_scipy(self, pipeline, tmp_path):
        # a fresh interpreter, as the one that pytest runs in has loaded scipy;
        # 16 of 160 training scores exceed the initial threshold, so detect fits a GPD
        root, _, test_dir, run_dir, _ = pipeline
        cfg = write_cfg(tmp_path / "cfg.json", dict(RUN_CFG, pot={"low_quantile": 0.1}))
        data, run = str(tmp_path / "synth" / "values.csv"), tmp_path / "run"
        model = ["--checkpoint", str(run / "checkpoint.bin"), "--stats", str(run / "stats.json")]
        commands = [
            ["synth", "--config", str(root / "strain.json"), "--out", str(tmp_path / "synth")],
            ["train", "--config", cfg, "--quiet", "--data", data, "--out", str(run)],
            ["inspect", *model, "--data", data, "--out", str(run)],
            ["eval", "--report", str(run_dir / "detection.csv"),
             "--labels", str(test_dir / "labels.csv"), "--out", str(run)],
            ["detect", "--config", cfg, *model, "--data", data, "--test", data,
             "--out", str(run)],
        ]
        package = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", COLD_START, package, json.dumps(commands)],
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        steps = [json.loads(ln) for ln in child.stdout.splitlines()]
        assert [name for name, _, _ in steps] == ["import", "synth", "train", "inspect",
                                                   "eval", "detect"]
        assert all(code == 0 for _, code, _ in steps)
        assert all(loaded == [] for _, _, loaded in steps[:-1])
        assert "scipy.optimize" in steps[-1][2]
