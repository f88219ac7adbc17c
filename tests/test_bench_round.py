"""One reduced round of each benchmark workload runs every step and passes
the benchmark's own output checks, untraced and traced."""

import dataclasses
import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# Below t_test 400 the hard regime's event grid is too small to draw from.
SIZES = {"train-m3": {"t_train": 600, "t_test": 800, "stream_rows": 60},
         "wide-m38": {"t_train": 300, "t_test": 400, "stream_rows": 40}}
# Quality floors are set for full-size inputs; a reduced round need not reach them.
QUALITY_CHECKS = ("auc_above_half", "auc_floor")


@pytest.mark.parametrize("targets", ["PROBES", "LAYERS"])
@pytest.mark.parametrize("name", sorted(SIZES))
def test_reduced_round_passes_its_checks(monkeypatch, tmp_path, name, targets):
    monkeypatch.syspath_prepend(BENCH)
    pipeline = importlib.import_module("pipeline")
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    wl = dataclasses.replace(workloads.WORKLOADS[name], **SIZES[name])
    inputs = workloads.make_inputs(wl, 0)
    files = pipeline.write_cli_inputs(wl, inputs, str(tmp_path)) if wl.via_cli else None
    tracer = spans.Tracer()
    tracer.install(getattr(pipeline, targets), pipeline.PACKAGE)
    try:
        rnd = pipeline.run_round(wl, inputs, files, tracer)
    finally:
        tracer.remove()
    assert rnd.failed_steps == 0
    assert [check for check, *_ in rnd.checks] == list(pipeline.CHECKS)
    failed = [(check, detail) for check, ok, detail in rnd.checks
              if not ok and check not in QUALITY_CHECKS]
    assert failed == []
