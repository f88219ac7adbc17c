"""CSV ingestion, normalization, windowing, splitting, synthetic generation."""

import dataclasses
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tranad import dataset, detection
from tranad.errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
    TranadError,
)
from tranad.model import ModelConfig, TranAD


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("0,1\n2,3\n4,5\n")
        raw = dataset.load_csv(p)
        assert (raw.T, raw.m) == (3, 2)
        np.testing.assert_array_equal(raw.values, [[0, 1], [2, 3], [4, 5]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            dataset.load_csv(p)

    def test_label_shape_mismatch(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("\n".join("1,2" for _ in range(10)) + "\n")
        lab = tmp_path / "l.csv"
        lab.write_text("\n".join("0,0" for _ in range(9)) + "\n")
        with pytest.raises(ShapeMismatch):
            dataset.RawSeries(values=dataset.load_csv(v).values,
                              labels=dataset.load_labels(lab))

    @pytest.mark.parametrize("shape", [(4,), (0, 2), (2, 0), (2, 2, 1)])
    def test_values_not_a_nonempty_matrix(self, shape):
        with pytest.raises(ShapeMismatch, match="values must be T x m"):
            dataset.RawSeries(values=np.zeros(shape))

    def test_non_numeric_cell_coordinates(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            dataset.load_csv(p)
        # the row is the file line, from 1; the column counts from 0
        assert exc.value.row == 2 and exc.value.col == 1
        assert str(exc.value) == f"{p} row 2: non-numeric cell 'oops' at col 1"

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("a,b\n1,2\n")
        raw = dataset.load_csv(p, has_header=True)
        assert raw.T == 1

    def test_bad_label_value(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("1,2\n")
        lab = tmp_path / "l.csv"
        lab.write_text("0,2\n")
        with pytest.raises(ParseError):
            dataset.load_labels(lab)


# cells a CSV may hold: numbers and labels, or text a parser trips on
NUMBER = (st.floats().map(repr) | st.integers().map(str)
          | st.sampled_from(["0", "1", "nan", "1e999", "-0", " 1 "]))
CELL = NUMBER | st.text(max_size=4) | st.sampled_from(["", "\x00", '"1,2"', '"0,1"'])
# rows of numbers of one width, or of any cells and widths
ROWS = (st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(NUMBER, min_size=w, max_size=w),
                                                     max_size=6))
        | st.lists(st.lists(CELL, max_size=4), max_size=6))


@given(rows=ROWS, eol=st.sampled_from(["\n", "\r\n", "\r"]), has_header=st.booleans())
def test_csv_text_loads_finite_or_raises_a_typed_error(rows, eol, has_header):
    text = "".join(",".join(row) + eol for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cells.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        for load in (lambda: dataset.load_csv(path, has_header).values,
                     lambda: dataset.load_labels(path, has_header)):
            try:
                values = load()
            except TranadError:
                continue
            assert values.ndim == 2 and values.size > 0 and np.isfinite(values).all()


class TestNormalize:
    def test_hand_arithmetic(self):
        raw = dataset.RawSeries(values=np.array([[0.0], [5.0], [10.0]]))
        ts, stats = dataset.fit_normalize(raw)
        assert stats.eps == dataset.DEFAULT_EPS == 1e-8
        np.testing.assert_allclose(
            ts.values[:, 0], [0.0, 5.0 / (10 + 1e-8), 10.0 / (10 + 1e-8)], rtol=1e-12)

    def test_constant_column(self):
        raw = dataset.RawSeries(values=np.full((3, 1), 7.0))
        ts, _ = dataset.fit_normalize(raw)
        np.testing.assert_array_equal(ts.values, np.zeros((3, 1)))

    def test_min_maps_to_zero(self):
        raw = dataset.RawSeries(values=np.array([[3.0, -2.0], [9.0, 4.0]]))
        ts, _ = dataset.fit_normalize(raw)
        np.testing.assert_array_equal(ts.values.min(axis=0), [0.0, 0.0])

    def test_non_finite_rejected(self):
        values = np.ones((9, 2))
        values[7, 1] = np.nan
        with pytest.raises(NonFiniteInput,
                           match="non-finite value in series 'x.csv' at timestamp 7"):
            dataset.RawSeries(values=values, name="x.csv")

    def test_apply_at_training_max_below_one(self):
        raw = dataset.RawSeries(values=np.array([[0.0], [10.0]]))
        _, stats = dataset.fit_normalize(raw)
        ts = dataset.apply_normalize(dataset.RawSeries(values=np.array([[10.0]])), stats)
        assert 0.0 < ts.values[0, 0] < 1.0

    def test_apply_at_training_min_is_zero(self):
        raw = dataset.RawSeries(values=np.array([[2.0], [10.0]]))
        _, stats = dataset.fit_normalize(raw)
        ts = dataset.apply_normalize(dataset.RawSeries(values=np.array([[2.0]])), stats)
        assert ts.values[0, 0] == 0.0

    def test_dimension_mismatch(self):
        raw = dataset.RawSeries(values=np.zeros((2, 2)))
        _, stats = dataset.fit_normalize(raw)
        with pytest.raises(ShapeMismatch):
            dataset.apply_normalize(dataset.RawSeries(values=np.zeros((2, 3))), stats)

    def test_idempotence_against_stats(self):
        rng = np.random.default_rng(5)
        raw = dataset.RawSeries(values=rng.normal(size=(50, 3)))
        ts, stats = dataset.fit_normalize(raw)
        again = dataset.apply_normalize(raw, stats)
        np.testing.assert_array_equal(ts.values, again.values)



def assert_read_only_views(batch, *arrays):
    """Each array views the batch's one copy of the series, and writing to it
    raises."""
    for a in arrays:
        assert not a.flags.writeable
        assert np.shares_memory(a, batch.contexts.rows)
        with pytest.raises(ValueError):
            a[...] = 0.0


class TestMakeWindows:
    def _series(self, T, m=1):
        vals = np.arange(T * m, dtype=float).reshape(T, m)
        stats = dataset.NormStats(min=np.zeros(m), max=np.ones(m))
        return dataset.TimeSeries(values=vals, stats=stats)

    def test_full_window_no_padding(self):
        ts = self._series(5)
        batch = dataset.make_windows(ts, 3, 4)
        np.testing.assert_array_equal(batch.windows[4][:, 0], [2.0, 3.0, 4.0])

    def test_replication_padding_at_start(self):
        ts = self._series(5)
        batch = dataset.make_windows(ts, 3, 4)
        np.testing.assert_array_equal(batch.windows[0][:, 0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(batch.windows[1][:, 0], [0.0, 0.0, 1.0])

    def test_context_cap(self):
        ts = self._series(5)
        batch = dataset.make_windows(ts, 3, 4)
        np.testing.assert_array_equal(batch.contexts[4][:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_window_count_equals_T(self):
        for K in (1, 2, 5, 9):
            batch = dataset.make_windows(self._series(9), K, 20)
            assert len(batch) == 9

    def test_matches_per_timestamp_loop(self):
        rng = np.random.default_rng(0)
        for T, m, K in ((3, 2, 5), (5, 2, 5), (40, 38, 10), (6, 1, 1)):
            x = rng.normal(size=(T, m))
            ts = dataset.TimeSeries(values=x, stats=None)
            batch = dataset.make_windows(ts, K, K + 2)
            expected = np.empty((T, K, m))
            for t in range(T):
                span = x[max(0, t - K + 1):t + 1]
                pad = np.repeat(span[:1], K - span.shape[0], axis=0)
                expected[t] = np.concatenate([pad, span], axis=0)
            np.testing.assert_array_equal(batch.windows, expected)
            np.testing.assert_array_equal(batch.contexts.rows, x, strict=True)
            assert_read_only_views(batch, batch.windows, batch.contexts[-1])

    def test_no_padding_from_K(self):
        ts = self._series(8)
        batch = dataset.make_windows(ts, 4, 8)
        for t in range(3, 8):
            np.testing.assert_array_equal(
                batch.windows[t][:, 0], np.arange(t - 3, t + 1, dtype=float))

    def test_window_size_below_one_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="window_size"):
            dataset.make_windows(self._series(5), 0, 4)

    def test_context_cap_below_window_size_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="context_cap"):
            dataset.make_windows(self._series(5), 3, 2)

    def test_empty_series_is_empty_input(self):
        with pytest.raises(EmptyInput, match="empty series"):
            dataset.make_windows(self._series(0), 3, 4)

    @given(st.integers(1, 12).flatmap(lambda K: st.tuples(
        st.integers(1, 90), st.just(K), st.integers(K, 40), st.integers(1, 5),
        st.integers(0, 2**32 - 1))))
    def test_gather_equals_padded_sliding_windows(self, case):
        T, K, L, m, seed = case
        x = np.random.default_rng(seed).normal(size=(T, m))
        original = x.copy()
        # the reference: replication pad, every length-K run, contiguous copy
        padded = np.concatenate([np.repeat(x[:1], K - 1, axis=0), x])
        want = np.ascontiguousarray(sliding_window_view(padded, K, axis=0).transpose(0, 2, 1))
        ts = dataset.TimeSeries(values=x, stats=None)
        batch = dataset.make_windows(ts, K, L)
        assert batch.windows.dtype == np.float64
        assert batch.windows.shape == want.shape
        assert batch.windows.tobytes() == want.tobytes()
        assert len(batch.contexts) == T
        for t, context in enumerate(batch.contexts):
            np.testing.assert_array_equal(context, x[max(0, t + 1 - L):t + 1], strict=True)
        groups = dataset.batch_groups(batch, 7)
        for W, C, rows in groups:
            assert C.tobytes() == np.stack(
                [batch.contexts[i] for i in range(rows.start, rows.stop)]).tobytes()
        # the windows and contexts are views of the batch's own copy of the
        # series: writing to them raises, and writing to the series does not
        # reach them
        assert_read_only_views(batch, batch.windows, *batch.contexts, *groups[-1][:2])
        x[...] = -1.0
        assert batch.windows.tobytes() == want.tobytes()
        np.testing.assert_array_equal(batch.contexts[-1], original[max(0, T - L):])


class TestSplit:
    def _batch(self, T):
        stats = dataset.NormStats(min=np.zeros(1), max=np.ones(1))
        ts = dataset.TimeSeries(values=np.arange(T, dtype=float)[:, None], stats=stats)
        return dataset.make_windows(ts, 2, 3)

    def test_eighty_twenty(self):
        tr, va = dataset.split_train_val(self._batch(10), 0.8)
        assert (len(tr), len(va)) == (8, 2)

    def test_degenerate_single_window(self):
        tr, va = dataset.split_train_val(self._batch(1), 0.8)
        assert (len(tr), len(va)) == (1, 0)

    @pytest.mark.parametrize("ratio", [-0.5, 0, 1.5, float("nan")])
    def test_ratio_outside_unit_interval_is_invalid_config(self, ratio):
        with pytest.raises(InvalidConfig, match="ratio"):
            dataset.split_train_val(self._batch(10), ratio)

    def test_ceiling_rule(self):
        tr, va = dataset.split_train_val(self._batch(5), 0.5)
        assert (len(tr), len(va)) == (3, 2)

    def test_contiguous(self):
        tr, va = dataset.split_train_val(self._batch(10), 0.8)
        # the series holds its own timestamps, so a window's last row names it
        np.testing.assert_array_equal(tr.windows[:, -1, 0], np.arange(8))
        np.testing.assert_array_equal(va.windows[:, -1, 0], np.arange(8, 10))
        assert [c[-1, 0] for c in va.contexts] == [8.0, 9.0]


def test_smd_sized_series_windows_in_about_one_copy():
    # SMD machine-1-1's training split, 28,479 x 38, at K=10 and L=100: the
    # windows and contexts are views, so windowing, splitting, grouping and a
    # chunk pass allocate about one padded copy of the series, where stacked
    # copies would take (K + L) of them
    x = np.random.default_rng(0).uniform(size=(28_479, 38))
    ts = dataset.TimeSeries(values=x, stats=None)
    model = TranAD(ModelConfig(m=38, window_size=10, context_cap=100))
    tracemalloc.start()
    try:
        batch = dataset.make_windows(ts, 10, 100)
        groups = [dataset.batch_groups(b, 128) for b in dataset.split_train_val(batch, 0.8)]
        shapes = detection.map_chunks(model, batch, lambda W, C, rows: (W.shape, C.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes, f"{peak / x.nbytes:.1f}x the series"
    assert sum(W.shape[0] for part in groups for W, _, _ in part) == len(batch)
    assert sum(W[0] for W, C in shapes) == len(batch)
    assert (100, 38) in {C[1:] for W, C in shapes}


class TestSynth:
    def test_no_anomalies_labels_zero(self):
        raw = dataset.synth_generate(dataset.SynthSpec(T=1000, m=2, seed=1))
        assert raw.labels.sum() == 0

    def test_spike_labels_exact_cells(self):
        spec = dataset.SynthSpec(T=1000, m=2, seed=1, anomalies=[
            {"kind": "spike", "start": 500, "length": 3, "dims": [0],
             "magnitude": 5.0}])
        raw = dataset.synth_generate(spec)
        expected = np.zeros((1000, 2), dtype=np.int8)
        expected[500:503, 0] = 1
        np.testing.assert_array_equal(raw.labels, expected)

    def test_injection_shifts_values(self):
        base = dataset.synth_generate(dataset.SynthSpec(T=100, m=1, seed=2,
                                                        noise_sigma=0.1))
        spec = dataset.SynthSpec(T=100, m=1, seed=2, noise_sigma=0.1, anomalies=[
            {"kind": "spike", "start": 50, "length": 1, "dims": [0],
             "magnitude": 6.0}])
        spiked = dataset.synth_generate(spec)
        assert spiked.values[50, 0] == pytest.approx(base.values[50, 0] + 0.6)

    def test_determinism(self):
        spec = dict(T=500, m=3, seed=9, noise_sigma=0.2)
        a = dataset.synth_generate(dataset.SynthSpec(**spec))
        b = dataset.synth_generate(dataset.SynthSpec(**spec))
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("T, m", [(1, 1), (7, 3), (500, 38), (2000, 5)])
    def test_sinusoids_equal_the_per_dimension_loop(self, T, m):
        # the reference: one sinusoid per dimension, added column by column
        t = np.arange(T, dtype=np.float64)
        want = np.zeros((T, m))
        for d in range(m):
            want[:, d] += np.sin(2 * np.pi * t / (100.0 + 30.0 * d) + 0.7 * d)
        got = dataset.synth_generate(dataset.SynthSpec(T=T, m=m, noise_sigma=0.0)).values
        np.testing.assert_array_equal(got, want)

    def test_overlap_rejected(self):
        spec = dataset.SynthSpec(T=100, m=1, anomalies=[
            {"kind": "spike", "start": 10, "length": 5, "dims": [0], "magnitude": 5.0},
            {"kind": "level_shift", "start": 12, "length": 3, "dims": [0],
             "magnitude": 5.0}])
        with pytest.raises(InvalidConfig, match="anomalies overlap"):
            dataset.synth_generate(spec)

    def test_spec_roundtrip(self):
        spec = dataset.SynthSpec(T=100, m=2, seed=3, anomalies=[
            {"kind": "burst", "start": 10, "length": 2, "dims": [0, 1],
             "magnitude": 4.0}])
        again = dataset.SynthSpec.from_dict(dataclasses.asdict(spec))
        assert dataclasses.asdict(again) == dataclasses.asdict(spec)
