"""Tape engine, layer primitives, optimizer and checkpoint format."""

import json
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


def softmax_rows(logits):
    """Softmax over the last axis of `logits`, read off attention weights:
    one width-1 query of ones per row against the logits as keys."""
    x = np.asarray(logits, dtype=float)
    _, w = ad.attention(Tensor(np.ones(x.shape[:-1] + (1, 1))), Tensor(x[..., None]),
                        Tensor(np.zeros(x.shape + (1,))), n_heads=1, want_weights=True)
    return w[..., 0, 0, :]


class TestMatmul:
    """The matrix product, through linear (x @ W + b) with a zero bias."""

    def test_identity(self):
        a = np.eye(3)
        b = np.arange(9.0).reshape(3, 3)
        out = ad.linear(Tensor(a), Tensor(b), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_arithmetic(self):
        out = ad.linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]),
                        Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                      Tensor(np.zeros(5)))

    def test_gradients(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
        ad.linear(a, b, Tensor(np.zeros(1))).sum().backward()
        np.testing.assert_allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
        np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


class TestSoftmax:
    """The softmax inside the attention node."""

    def test_uniform(self):
        out = softmax_rows([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]])

    def test_no_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_closed_form(self):
        out = softmax_rows([[math.log(2.0), 0.0]])
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], rtol=1e-12)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(3).normal(size=(6, 9))
        out = softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(6), atol=1e-9)
        assert ((out > 0) & (out < 1)).all()


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
        # the attention mask: a masked key and value get exactly no gradient
        q, k, v = (Tensor(np.arange(2.0).reshape(2, 1) + i, requires_grad=True)
                   for i in range(3))
        mask = np.array([[False, True], [False, False]])
        out, _ = ad.attention(q, k, v, n_heads=1, mask=mask)
        out[0].sum().backward()
        np.testing.assert_array_equal(k.grad[1], [0.0])
        np.testing.assert_array_equal(v.grad, [[1.0], [0.0]])


def check_node_gradients(fn, arrays, seed=0):
    """Backward of sum(R * fn(*inputs)) for a random R against central
    differences, for every input of the node `fn`."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    R = np.random.default_rng(seed).normal(size=out.shape)
    (out * Tensor(R)).sum().backward()
    for i, t in enumerate(tensors):
        def f(x, i=i):
            args = [Tensor(x if j == i else a) for j, a in enumerate(arrays)]
            return float((fn(*args).data * R).sum())
        fd = finite_difference(f, arrays[i].copy())
        np.testing.assert_allclose(t.grad, fd, rtol=1e-6, atol=1e-9, err_msg=f"input {i}")


class TestFusedNodes:
    """The one-node layers against finite differences."""

    def test_linear_3d_input(self):
        rng = np.random.default_rng(11)
        check_node_gradients(ad.linear, [rng.normal(size=(2, 3, 4)),
                                         rng.normal(size=(4, 5)), rng.normal(size=5)])

    def test_layer_norm(self):
        rng = np.random.default_rng(12)
        check_node_gradients(ad.layer_norm, [rng.normal(size=(2, 3, 6)),
                                             rng.normal(size=6), rng.normal(size=6)])

    @pytest.mark.parametrize("masked", [False, True])
    def test_self_attention_three_heads(self, masked):
        rng = np.random.default_rng(13)
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1) if masked else None
        check_node_gradients(lambda q, k, v: ad.attention(q, k, v, 3, mask=mask)[0],
                             [rng.normal(size=(2, 4, 6)) for _ in range(3)])

    def test_cross_attention_two_heads(self):
        rng = np.random.default_rng(14)
        check_node_gradients(lambda q, k, v: ad.attention(q, k, v, 2)[0],
                             [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)),
                              rng.normal(size=(2, 5, 6))])


def attention_cotangents_explicit(q, k, v, g, n_heads, mask):
    """Attention backward with the softmax row term summed over the keys,
    (gs * w).sum(-1), and the scale applied to the full score cotangent."""
    split = lambda x: ad._heads(x, n_heads)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scale = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    logits = qh @ kh.swapaxes(-1, -2) * scale
    if mask is not None:
        logits = np.where(mask, ad.MASK_LOGIT, logits)
    w = softmax_rows(logits)
    gs = gh @ vh.swapaxes(-1, -2)
    gs = (gs - (gs * w).sum(axis=-1, keepdims=True)) * w * scale
    return (ad._merge(gs @ kh), ad._merge(gs.swapaxes(-1, -2) @ qh),
            ad._merge(w.swapaxes(-1, -2) @ gh))


@pytest.mark.parametrize("n_heads, masked", [(3, False), (3, True), (6, True), (1, False)])
def test_attention_backward_matches_explicit_row_term(n_heads, masked):
    rng = np.random.default_rng(n_heads + masked)
    q, k, v, g = (rng.normal(size=(2, 5, 6)) for _ in range(4))
    mask = np.triu(np.ones((5, 5), dtype=bool), k=1) if masked else None
    out, _ = ad.attention(*(Tensor(x, requires_grad=True) for x in (q, k, v)),
                          n_heads, mask=mask)
    got = out._backward(g, (True, True, True))
    for name, a, b in zip("qkv", got, attention_cotangents_explicit(q, k, v, g, n_heads, mask)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


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

        b = rng.normal(size=3)

        def graph(x):
            h = ad.linear(x, Tensor(w), Tensor(b)).relu().sigmoid()
            att, _ = ad.attention(h, h, h, n_heads=1)
            return att.sum() * 0.5 + (h * h).mean()

        def f(arr):
            return float(graph(Tensor(arr)).data)

        x = Tensor(x0.copy(), requires_grad=True)
        loss = graph(x)
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

    def test_leaf_grads_are_separate_arrays(self):
        # the add node hands one cotangent to both parents
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        (x + y).sum().backward()
        x.grad *= 3.0
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

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
        # one buffer in path order, every parameter a view into it
        np.testing.assert_array_equal(store.flat, [1, 1, 1, 1, 0, 1, 2])
        assert all(np.shares_memory(p.data, store.flat) for _, p in store.items())


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


def edit_header(edit):
    """A checkpoint mutation that applies `edit` to the decoded header."""
    def mutate(b):
        header, payload = b.split(b"\n", 1)
        h = json.loads(header)
        edit(h)
        return json.dumps(h).encode() + b"\n" + payload
    return mutate


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
        lambda b: b[:-5] + bytes([b[-5] ^ 1]) + b[-4:],     # one payload bit flipped
        edit_header(lambda h: h.pop("params")),
        edit_header(lambda h: h.update(params={"w": [20, 20]})),
        edit_header(lambda h: h["params"].__setitem__(0, "w")),
        edit_header(lambda h: h["params"][0].update(shape=[20.5, 20])),
        edit_header(lambda h: h["params"][1].update(path=h["params"][0]["path"])),
        edit_header(lambda h: h.pop("sha256")),
        edit_header(lambda h: h.update(format_version=1)),   # written before sha256
    ])
    def test_corrupt_payload_rejected(self, tmp_path, mutate):
        path = tmp_path / "ckpt.bin"
        ad.save_arrays(path, {"w": np.zeros((20, 20)), "b": np.zeros(20)})
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(CorruptCheckpoint):
            ad.load_arrays(path)
