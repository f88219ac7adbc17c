"""The package names the benchmark's traced rounds wrap still exist."""

import importlib
import os

from tranad import autodiff

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_traced_layer_exists(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    pipeline = importlib.import_module("pipeline")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in pipeline.LAYERS if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_grad_flag_is_a_module_bool():
    # the traced rounds' forward spans read the flag itself, not an accessor
    assert isinstance(autodiff._GRAD_ENABLED, bool)
