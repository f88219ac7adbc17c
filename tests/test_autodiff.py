"""Tape engine, layer primitives, optimizer and checkpoint format."""

import math

import numpy as np
import pytest

from tranad import autodiff as ad
from tranad.autodiff import AdamW, ParamStore, Tensor
from tranad.errors import CorruptCheckpoint, MissingGradient, ShapeMismatch


def finite_difference(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f(x)
        x[idx] = orig - h
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


class TestMatmul:
    def test_identity(self):
        a = np.eye(3)
        b = np.arange(9.0).reshape(3, 3)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_array_equal(out.data, b)

    def test_hand_arithmetic(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))

    def test_gradients(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
        np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_no_overflow(self):
        out = ad.softmax(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 0], 1.0, atol=1e-12)

    def test_closed_form(self):
        out = ad.softmax(Tensor([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], rtol=1e-12)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(3).normal(size=(6, 9))
        out = ad.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-9)
        assert ((out.data > 0) & (out.data < 1)).all()


class TestLayerNorm:
    def test_constant_row_is_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.full(4, 2.5))
        out = ad.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, np.full((2, 4), 2.5), atol=1e-9)

    def test_closed_form(self):
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), eps=1e-5)
        expected = np.array([[1.0, -1.0]]) / math.sqrt(1 + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert Tensor(0.0).sigmoid().data == 0.5

    def test_relu(self):
        np.testing.assert_array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_dropout_inference_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = ad.dropout(x, 0.5, training=False, rng=None)
        assert out is x

    def test_dropout_training_mask(self):
        x = Tensor(np.ones((100, 100)))
        out = ad.dropout(x, 0.25, training=True, rng=np.random.default_rng(1))
        vals = np.unique(out.data)
        np.testing.assert_allclose(sorted(vals), [0.0, 1 / 0.75])

    def test_dropout_deterministic_masks(self):
        x = Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.3, True, np.random.default_rng(42)).data
        b = ad.dropout(x, 0.3, True, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_masked_fill_blocks_gradient(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        mask = np.array([[False, True], [False, False]])
        ad.masked_fill(x, mask, -1e9).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [1.0, 1.0]])


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_composed_graph_vs_finite_difference(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 3))
        x0 = rng.normal(size=(2, 4))

        def f(arr):
            x = Tensor(arr)
            h = (x @ Tensor(w)).relu().sigmoid()
            return float(ad.softmax(h).sum().data * 0.5 + (h * h).mean().data)

        x = Tensor(x0.copy(), requires_grad=True)
        h = (x @ Tensor(w)).relu().sigmoid()
        loss = ad.softmax(h).sum() * 0.5 + (h * h).mean()
        loss.backward()
        fd = finite_difference(f, x0.copy())
        np.testing.assert_allclose(x.grad, fd, rtol=1e-4, atol=1e-8)

    def test_accumulation_is_exactly_double(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_sequential_backward_on_shared_graph(self):
        # two losses sharing intermediates must not contaminate each other
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * x
        l1 = h.sum()
        l2 = (h * h).sum()
        l1.backward()
        g1 = x.grad.copy()
        x.zero_grad()
        l2.backward()
        g2 = x.grad.copy()
        np.testing.assert_allclose(g1, [2.0, 4.0])
        np.testing.assert_allclose(g2, [4.0, 32.0])   # d/dx x^4 = 4x^3

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward()

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = (x * 2.0).sum()
        assert not out.requires_grad


class TestParamStore:
    def test_duplicate_path_rejected(self):
        store = ParamStore()
        store.add("a.W", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("a.W", np.zeros(2))

    def test_snapshot_load_roundtrip(self):
        store = ParamStore()
        store.add("b", np.arange(3.0))
        store.add("a", np.ones((2, 2)))
        snap = store.snapshot()
        store["a"].data[:] = 0.0
        store.load(snap)
        np.testing.assert_array_equal(store["a"].data, np.ones((2, 2)))
        assert [k for k, _ in store.items()] == ["a", "b"]


class TestAdamW:
    def _store(self, value=1.0):
        store = ParamStore()
        store.add("theta", np.array([value]))
        return store

    def test_zero_grad_zero_decay_is_noop(self):
        store = self._store()
        opt = AdamW(store, lr=0.01, weight_decay=0.0)
        store["theta"].grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(store["theta"].data, [1.0])

    def test_quadratic_descends(self):
        store = self._store()
        opt = AdamW(store, lr=0.01, weight_decay=0.0)
        store["theta"].grad = store["theta"].data.copy()   # grad of 0.5 theta^2
        opt.step()
        assert store["theta"].data[0] < 1.0

    def test_scheduler_halves_lr(self):
        store = self._store()
        opt = AdamW(store, lr=0.01, weight_decay=0.0, scheduler_interval=3)
        for _ in range(3):
            store["theta"].grad = np.zeros(1)
            opt.step()
        assert opt.lr == pytest.approx(0.005)

    def test_missing_gradient(self):
        store = self._store()
        opt = AdamW(store)
        with pytest.raises(MissingGradient):
            opt.step()


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        arrays = {"z": np.arange(6.0).reshape(2, 3), "a": np.array([1.5])}
        path = tmp_path / "ckpt.bin"
        ad.save_arrays(path, arrays, extra={"note": 1})
        loaded, extra = ad.load_arrays(path)
        assert extra == {"note": 1}
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_rewrite_is_byte_identical(self, tmp_path):
        arrays = {"w": np.random.default_rng(0).normal(size=(3, 3))}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        ad.save_arrays(p1, arrays)
        ad.save_arrays(p2, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format_version": 999, "params": []}\n')
        with pytest.raises(CorruptCheckpoint):
            ad.load_arrays(path)

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:-1003],                 # payload cut short
        lambda b: b + b"\0",                 # a byte after the last array
        lambda b: b"\xff" + b,               # header is not UTF-8
        lambda b: b"[" + b,                  # header is not JSON
    ])
    def test_corrupt_payload_rejected(self, tmp_path, mutate):
        path = tmp_path / "ckpt.bin"
        ad.save_arrays(path, {"w": np.zeros((20, 20)), "b": np.zeros(20)})
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(CorruptCheckpoint):
            ad.load_arrays(path)
