"""End-to-end command-line surface on a tiny synthetic series."""

import json

import numpy as np
import pytest

from tranad import cli
from tranad.errors import ConfigMismatch

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

    def test_ablation_flags_accepted(self, pipeline, tmp_path):
        root, train_dir, _, _, cfg = pipeline
        out = tmp_path / "ablate"
        assert cli.main(["train", "--config", cfg, "--seed", "5", "--quiet",
                         "--no-maml", "--no-adversarial", "--no-self-condition",
                         "--data", str(train_dir / "values.csv"),
                         "--out", str(out)]) == 0
        assert (out / "checkpoint.bin").exists()


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


def set_cell(r, c, value):
    """A mutation of CSV rows (lists of cells) that sets cell (r, c)."""
    def mutate(rows):
        rows[r][c] = value
        return rows
    return mutate


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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("cfg, names", [
        ({"n_heads": 3}, ["n_heads"]),                 # 3 does not divide 2m = 4
        ({"dropout": 1.5}, ["dropout"]),
        ({"window_size": 4, "context_cap": 2}, ["context_cap"]),
        ({"train": {"epsilon": 1.0}}, ["epsilon"]),
        ({"train": {"batch_size": 0}}, ["batch_size"]),
        ({"windw_size": 4}, ["windw_size"]),
        ({"m": 3, "init_seed": 1}, ["init_seed", "m"]),
        ({"train": 5}, ["train"]),
        ({"split_ratio": 0}, ["split_ratio"]),
        ({"n_enc_layers": 1}, ["n_enc_layers"]),       # a removed model option
        ({"score_reduce": "last_row"}, ["score_reduce"]),          # removed settings
        ({"train": {"n_semantics": "epoch"}}, ["n_semantics"]),
    ])
    def test_bad_train_config(self, pipeline, tmp_path, capsys, cfg, names):
        _, train_dir, _, _, _ = pipeline
        out = tmp_path / "out"
        code = cli.main(["train", "--config", write_cfg(tmp_path / "c.json", cfg),
                         "--quiet", "--out", str(out),
                         "--data", str(train_dir / "values.csv")])
        assert_failed(code, capsys, *names)
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("text", ["{", "[1, 2]"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", str(cfg), "--out", str(out)]),
                      capsys, "c.json")
        assert not out.exists()

    def test_bad_pot_value(self, pipeline, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", dict(RUN_CFG, pot={"risk": 0.5}))
        assert_failed(cli.main(detect_argv(pipeline, tmp_path, cfg=cfg)), capsys, "risk")
        assert not (tmp_path / "detection.csv").exists()

    def test_unknown_score_reduce_fails_before_reading_files(self, pipeline, tmp_path,
                                                             capsys):
        # score_reduce is no longer a setting: a config naming it is a mismatch
        cfg = write_cfg(tmp_path / "c.json", dict(RUN_CFG, score_reduce="last_row"))
        with pytest.raises(ConfigMismatch, match="score_reduce"):
            cli._load_config(cfg)
        argv = detect_argv(pipeline, tmp_path, cfg=cfg, checkpoint=tmp_path / "absent.bin")
        assert_failed(cli.main(argv), capsys, "unknown config keys", "score_reduce")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("synth, names", [
        ({"sinusoids": [[{"amp": 1}]]}, ["sinusoids"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 50, "phase": 0, "bogus": 1}]]},
         ["sinusoids"]),
        ({"sinusoids": 5}, ["sinusoids"]),
        ({"sinusoids": [5]}, ["sinusoids"]),
        ({"sinusoids": [[], [], []]}, ["sinusoids", "m=2"]),
        ({"sinusoids": [[{"amplitude": "a", "period": 50, "phase": 0}]]}, ["amplitude"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 0, "phase": 0}]]}, ["period"]),
        ({"sinusoids": [[{"amplitude": 1, "period": 50, "phase": float("inf")}]]},
         ["phase"]),
        ({"noise_sigma": -1}, ["noise_sigma"]),
        ({"noise_sigma": "a"}, ["noise_sigma"]),
        ({"noise_sigma": float("nan")}, ["noise_sigma"]),
    ], ids=["unknown-keys", "extra-key", "not-a-list", "not-lists", "more-than-m",
            "amplitude-string", "period-zero", "phase-inf", "sigma-negative",
            "sigma-string", "sigma-nan"])
    def test_bad_synth_spec(self, tmp_path, capsys, synth, names):
        cfg = write_cfg(tmp_path / "c.json", {"synth": dict({"T": 50, "m": 2}, **synth)})
        out = tmp_path / "out"
        assert_failed(cli.main(["synth", "--config", cfg, "--out", str(out)]),
                      capsys, *names)
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
    ], ids=["not-json", "not-object", "missing-keys", "unknown-key", "string", "bool", "nan",
            "huge-int", "unequal", "eps-zero", "min-above-max"])
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
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mutate, names", [
        (lambda lines: ["garbage", "1,2"], ["threshold_model"]),
        (lambda lines: [], ["threshold_model"]),
        (lambda lines: ["# threshold_model {"] + lines[1:], ["undecodable"]),
        (lambda lines: ['# threshold_model {"dims": 3}'] + lines[1:], ["undecodable"]),
        (lambda lines: lines[:1] + lines[2:], ["column header"]),
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:], ["row 6"]),
        (lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:],
         ["row 6"]),
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
        assert list(out.iterdir()) == []


class TestEval:
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
