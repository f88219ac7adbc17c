"""The settings surface: the exact keys a config may hold, pinned so that a
new setting takes a deliberate test edit, and config dicts of any JSON shape
that either build or fail with a typed error."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from tranad import cli, dataset, pot, training
from tranad.errors import TranadError
from tranad.model import ModelConfig


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_settings_surface():
    assert set(cli.SETTINGS) | set(cli.MODEL_KEYS) == {
        "seed", "synth", "train", "pot", "window_size", "context_cap", "dropout"}
    # m comes from the data and init_seed from the top-level seed
    assert field_names(ModelConfig) == {"m", "window_size", "context_cap", "dropout",
                                        "init_seed"}
    # seed comes from the top-level seed too; a config's train.seed is an error
    assert field_names(training.TrainConfig) == {
        "epochs", "batch_size", "lr", "seed", "use_self_condition", "use_adversarial",
        "use_maml", "lr_decay_every_epochs"}
    assert field_names(pot.PotConfig) == {"risk", "low_quantile"}
    assert field_names(dataset.SynthSpec) == {"T", "m", "seed", "noise_sigma", "anomalies"}
    assert field_names(dataset.Anomaly) == {"kind", "start", "length", "dims", "magnitude"}
    assert cli.SECTIONS == {"train": training.TrainConfig, "pot": pot.PotConfig}


# every value JSON can carry, integers past a float's range included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 400, -10 ** 400])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


def mutated(fields):
    """Dicts that hold some of `fields`, each a valid draw or any JSON value,
    and perhaps keys of no field."""
    some = st.fixed_dictionaries({}, optional={k: v | JSON for k, v in fields.items()})
    extra = st.dictionaries(st.sampled_from(["bogus", "eps", "meta_lr"]) | st.text(max_size=6),
                            JSON, max_size=2)
    return st.builds(lambda a, b: {**b, **a}, some, extra)


ANOMALY = {"kind": st.sampled_from(dataset.ANOMALY_KINDS), "start": st.integers(0, 60),
           "length": st.integers(1, 10), "dims": st.lists(st.integers(0, 3), max_size=3),
           "magnitude": st.floats(-20, 20)}
SYNTH = {"T": st.integers(1, 80), "m": st.integers(1, 4), "seed": st.integers(0, 9),
         "noise_sigma": st.floats(0, 1),
         "anomalies": st.lists(mutated(ANOMALY) | JSON, max_size=3)}
MODEL = {"m": st.integers(1, 4), "window_size": st.integers(1, 10),
         "context_cap": st.integers(1, 30), "dropout": st.floats(0, 0.9),
         "init_seed": st.integers(0, 9)}


@pytest.mark.parametrize("build, fields", [(dataset.SynthSpec.from_dict, SYNTH),
                                           (ModelConfig.from_dict, MODEL)],
                         ids=["synth", "model"])
@given(data=st.data())
def test_config_dicts_build_or_raise_a_typed_error(build, fields, data):
    d = data.draw(mutated(fields) | JSON)
    try:
        build(d)
    except TranadError:
        pass
