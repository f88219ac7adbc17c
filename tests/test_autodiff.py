"""Tape engine, layer primitives, optimizer and checkpoint format."""

import json
import math

import numpy as np
import pytest

from tranad import autodiff as ad
from tranad.autodiff import AdamW, ParamStore, Tensor
from tranad.errors import CorruptCheckpoint, ShapeMismatch

from conftest import plain_attention


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
    _, w = plain_attention(Tensor(np.ones(x.shape[:-1] + (1, 1))), Tensor(x[..., None]),
                           Tensor(np.zeros(x.shape + (1,))), n_heads=1)
    return w[..., 0, 0, :]


def vjp(out, R):
    """{leaf: gradient of sum(R * out)}: one reverse walk seeded with R."""
    order = ad.tape_order([out], {})[0]
    return ad.reverse_walk([(out, np.asarray(R, dtype=float))], order,
                           dict.fromkeys(map(id, order), 1), 1)


def total(x):
    """The sum of a (1, n) tensor as a one-element tensor, through the window
    embedding with a column of ones; the one-row position table is sin 0 = 0."""
    return ad.embed(x, Tensor(np.ones((x.shape[-1], 1))), Tensor(np.zeros(1)))


def square(x):
    """x * x, through the focus node against a zero target."""
    return ad.squared_deviation(x, np.zeros(x.shape))


class TestMatmul:
    """The matrix product, through the window embedding ((x @ W + b) + PE)
    with a zero bias."""

    def test_identity(self):
        a = np.eye(4)
        b = np.arange(16.0).reshape(4, 4)
        out = ad.embed(Tensor(a), Tensor(b), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, b + ad.position_encoding(4, 4))

    def test_hand_arithmetic(self):
        out = ad.embed(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]),
                       Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0 + math.sin(1.0)]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.embed(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                     Tensor(np.zeros(5)))

    def test_gradients(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
        grads = vjp(ad.embed(a, b, Tensor(np.zeros(1))), np.ones((2, 1)))
        np.testing.assert_allclose(grads[a], [[5.0, 6.0], [5.0, 6.0]])
        np.testing.assert_allclose(grads[b], [[4.0], [6.0]])


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

    @pytest.mark.parametrize("masked, nan", [(True, False), (False, True), (True, True)])
    def test_row_max_matches_axis_max(self, masked, nan):
        # the segmented row max against max(axis=-1): causally masked rows
        # hold one to seven live logits, and a NaN query entry fills a whole
        # row with NaN while a NaN key entry puts one NaN in every row it
        # reaches unmasked
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(scale=30.0, size=(3, 7, 6)) for _ in range(3))
        if nan:
            q[0, 2, 1] = k[1, 4, 0] = np.nan
        mask = np.triu(np.ones((7, 7), dtype=bool), k=1) if masked else None
        with ad.no_grad():
            _, got = plain_attention(Tensor(q), Tensor(k), Tensor(v), 3, mask=mask)
        # the identity projection spreads a NaN over its row
        q, k = q @ np.eye(6), k @ np.eye(6)
        w = ad._heads(q, 3) @ ad._heads(k, 3).swapaxes(-1, -2)
        w *= 1.0 / np.sqrt(2)
        if mask is not None:
            np.copyto(w, ad.MASK_LOGIT, where=mask)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        assert np.isnan(got).any() == nan
        np.testing.assert_array_equal(got.view(np.uint64), w.view(np.uint64))


class TestLayerNorm:
    """The normalization inside `add_norm`, with a zero residual."""

    def test_constant_row_is_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.full(4, 2.5))
        out = ad.add_norm(x, Tensor(np.zeros((2, 4))), (gain, bias))
        np.testing.assert_allclose(out.data, np.full((2, 4), 2.5), atol=1e-9)

    def test_closed_form(self):
        out = ad.add_norm(Tensor([[0.5, -1.5]]), Tensor([[0.5, 0.5]]),
                          (Tensor(np.ones(2)), Tensor(np.zeros(2))))
        expected = np.array([[1.0, -1.0]]) / math.sqrt(1 + ad.NORM_EPS)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


class TestElementwise:
    def test_sigmoid_zero(self):
        # the decoder's output sigmoid inside `feed_forward`
        zeros = [Tensor(np.zeros(shape)) for shape in ((1, 2), 2, (2, 1), 1)]
        assert ad.feed_forward(Tensor(np.ones((1, 1))), zeros, sigmoid=True).data == 0.5

    def test_relu(self):
        # the hidden ReLU inside `feed_forward`, between identity layers
        eye = [Tensor(np.eye(2)), Tensor(np.zeros(2))] * 2
        np.testing.assert_array_equal(ad.feed_forward(Tensor([-1.0, 2.0]), eye).data,
                                      [0.0, 2.0])

    def test_dropout_inference_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = ad.dropout(x, 0.5, rng=None)
        assert out is x

    def test_dropout_training_mask(self):
        x = Tensor(np.ones((100, 100)))
        out = ad.dropout(x, 0.25, rng=np.random.default_rng(1))
        vals = np.unique(out.data)
        np.testing.assert_allclose(sorted(vals), [0.0, 1 / 0.75])

    def test_dropout_deterministic_masks(self):
        x = Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.3, np.random.default_rng(42)).data
        b = ad.dropout(x, 0.3, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_masked_fill_blocks_gradient(self):
        # the attention mask: a masked key and value get exactly no gradient
        q, k, v = (Tensor(np.arange(2.0).reshape(2, 1) + i, requires_grad=True)
                   for i in range(3))
        mask = np.array([[False, True], [False, False]])
        out, _ = plain_attention(q, k, v, n_heads=1, mask=mask)
        grads = vjp(out, [[1.0], [0.0]])      # the first output row
        np.testing.assert_array_equal(grads[k][1], [0.0])
        np.testing.assert_array_equal(grads[v], [[1.0], [0.0]])


def check_node_gradients(fn, arrays, seed=0):
    """Backward of sum(R * fn(*inputs)) for a random R against central
    differences, for every input of the node `fn`."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    R = np.random.default_rng(seed).normal(size=out.shape)
    grads = vjp(out, R)
    for i, t in enumerate(tensors):
        def f(x, i=i):
            args = [Tensor(x if j == i else a) for j, a in enumerate(arrays)]
            return float((fn(*args).data * R).sum())
        fd = finite_difference(f, arrays[i].copy())
        np.testing.assert_allclose(grads[t], fd, rtol=1e-6, atol=1e-9, err_msg=f"input {i}")


class TestFusedNodes:
    """The one-node layers against finite differences."""

    def test_linear_3d_input(self):
        # the window embedding, a linear layer plus the constant position table
        rng = np.random.default_rng(11)
        check_node_gradients(ad.embed, [rng.normal(size=(2, 3, 4)),
                                        rng.normal(size=(4, 6)), rng.normal(size=6)])

    def test_layer_norm(self):
        # the residual norm, through both inputs of its sum
        rng = np.random.default_rng(12)
        check_node_gradients(lambda x, r, gain, bias: ad.add_norm(x, r, (gain, bias)),
                             [rng.normal(size=(2, 3, 6)), rng.normal(size=(2, 3, 6)),
                              rng.normal(size=6), rng.normal(size=6)])

    @pytest.mark.parametrize("masked", [False, True])
    def test_self_attention_three_heads(self, masked):
        # one input as query, key and value, as in the encoders
        rng = np.random.default_rng(13)
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1) if masked else None
        check_node_gradients(lambda x, *w: ad.attention(x, x, x, w, 3, mask=mask)[0],
                             [rng.normal(size=(2, 4, 6))]
                             + [rng.normal(size=s) for _ in range(4) for s in ((6, 6), 6)])

    def test_attention_key_count_must_match_value_count(self):
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.normal(size=(2, n, 4))) for n in (3, 5, 4))
        weights = [Tensor(rng.normal(size=s)) for _ in range(4) for s in ((4, 4), 4)]
        with pytest.raises(ShapeMismatch, match="key count 5 != value count 4"):
            ad.attention(q, k, v, weights, 2)

    def test_cross_attention_two_heads(self):
        # queries from one input, keys and values from another; the value
        # and output projections change the width
        rng = np.random.default_rng(14)
        shapes = [(2, 3, 4), (2, 5, 4), (4, 4), 4, (4, 4), 4, (4, 6), 6, (6, 5), 5]
        check_node_gradients(lambda q, kv, *w: ad.attention(q, kv, kv, w, 2)[0],
                             [rng.normal(size=s) for s in shapes])

    @pytest.mark.parametrize("sigmoid", [False, True])
    def test_feed_forward(self, sigmoid):
        rng = np.random.default_rng(15)
        check_node_gradients(lambda x, *w: ad.feed_forward(x, w, sigmoid=sigmoid),
                             [rng.normal(size=s) for s in ((2, 3, 4), (4, 5), 5, (5, 3), 3)])

    @pytest.mark.parametrize("rows", [3, 7])
    def test_concat_aligned(self, rows):
        # the focus (5 rows) beside a shorter context, which keeps its last
        # rows, and beside a longer one, which pads it with zeros above; the
        # position table of the context's length is added to both
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(2, rows, 4)), rng.normal(size=(2, 5, 2))
        out, n = ad.concat_aligned(Tensor(a), Tensor(b)).data, min(rows, 5)
        pe = ad.position_encoding(rows, 6)
        np.testing.assert_array_equal(out[..., :4], a + pe[:, :4])
        np.testing.assert_array_equal(out[:, rows - n:, 4:], b[:, 5 - n:] + pe[rows - n:, 4:])
        np.testing.assert_array_equal(out[:, :rows - n, 4:], np.broadcast_to(
            pe[:rows - n, 4:], (2, rows - n, 2)))
        check_node_gradients(ad.concat_aligned, [a, b])

    def test_squared_deviation(self):
        # the focus score against a target array, with one entry on target
        rng = np.random.default_rng(18)
        target, x = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        x[0, 1, 2] = target[0, 1, 2]
        np.testing.assert_array_equal(ad.squared_deviation(Tensor(x), target).data,
                                      (x - target) ** 2)
        check_node_gradients(lambda t: ad.squared_deviation(t, target), [x])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mix(self, sign):
        # L1 (+) and L2 (-) of the schedule from two scalar loss terms
        p, d, w = np.array(0.7), np.array(1.9), 1.05 ** -3
        out = ad.mix(Tensor(p), Tensor(d), w, sign)
        assert float(out.data) == float(p) * w + sign * float(d) * (1.0 - w)
        check_node_gradients(lambda a, b: ad.mix(a, b, w, sign), [p, d])

    def test_mean_frobenius_with_a_zero_norm(self):
        # the second window is reconstructed exactly: the square root's
        # guard gives it a zero gradient, as the symmetric difference does
        rng = np.random.default_rng(16)
        target = rng.normal(size=(3, 4, 2))
        x = rng.normal(size=(3, 4, 2))
        x[1] = target[1]
        check_node_gradients(lambda t: ad.mean_frobenius(t, target), [x])
        leaf = Tensor(x, requires_grad=True)
        np.testing.assert_array_equal(ad.mean_frobenius(leaf, target).backward()[leaf][1], 0.0)


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
    out, _ = plain_attention(*(Tensor(x, requires_grad=True) for x in (q, k, v)),
                             n_heads, mask=mask)
    # the cotangents of the three inputs, through the identity projections
    got = out._backward(g, (True, False, False) * 3 + (False, False))[0:9:3]
    for name, a, b in zip("qkv", got, attention_cotangents_explicit(q, k, v, g, n_heads, mask)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        np.testing.assert_array_equal(total(square(x)).backward()[x], [[2.0, 4.0]])

    def test_composed_graph_vs_finite_difference(self):
        # an encoder layer and a decoder built from the fused nodes, as the
        # model builds them, under two loss terms
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 3, 2))

        def params(*shapes):
            return [Tensor(rng.normal(size=s)) for s in shapes]

        embed = params((2, 4), 4)
        attn = params(*[(4, 4), 4] * 4)
        norm1, norm2 = params(4, 4), params(4, 4)
        ff, dec = params((4, 5), 5, (5, 4), 4), params((4, 5), 5, (5, 2), 2)
        target, mask = rng.uniform(size=(2, 3, 2)), np.triu(np.ones((3, 3), dtype=bool), k=1)

        def graph(x):
            e = ad.embed(x, *embed)
            h = ad.add_norm(e, ad.attention(e, e, e, attn, 2, mask=mask)[0], norm1)
            h = ad.add_norm(h, ad.feed_forward(h, ff), norm2)
            out = ad.feed_forward(h, dec, sigmoid=True)
            focus = ad.squared_deviation(out, target)
            return ad.mix(ad.mean_frobenius(out, target), ad.mean_frobenius(focus, target),
                          2 / 3, -1.0)

        def f(arr):
            return float(graph(Tensor(arr)).data)

        x = Tensor(x0.copy(), requires_grad=True)
        grads = graph(x).backward()
        fd = finite_difference(f, x0.copy())
        np.testing.assert_allclose(grads[x], fd, rtol=1e-4, atol=1e-8)

    def test_gradients_are_values_not_tensor_state(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        h = square(x)
        loss = total(h)
        first, second = loss.backward(), loss.backward()
        assert list(first) == list(second) == [x]
        np.testing.assert_array_equal(first[x], second[x])
        assert not np.shares_memory(first[x], second[x])
        for t in (x, h, loss):
            assert not hasattr(t, "grad") and not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            x.grad = first[x]     # a stale write fails instead of detaching

    def test_sequential_backward_on_shared_graph(self):
        # two losses sharing intermediates must not contaminate each other
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        h = square(x)
        l1 = total(h)
        l2 = total(square(h))
        g1 = l1.backward()[x]
        g2 = l2.backward()[x]
        np.testing.assert_allclose(g1, [[2.0, 4.0]])
        np.testing.assert_allclose(g2, [[4.0, 32.0]])   # d/dx x^4 = 4x^3

    def test_leaf_grads_are_separate_arrays(self):
        # the residual norm hands one cotangent to both inputs of its sum
        x = Tensor(np.array([[0.0, 1.0, 3.0]]), requires_grad=True)
        y = Tensor(np.array([[1.0, 0.0, 0.0]]), requires_grad=True)
        norm = (Tensor(np.array([1.0, 2.0, 3.0])), Tensor(np.zeros(3)))
        grads = total(ad.add_norm(x, y, norm)).backward()
        expected = grads[y].copy()
        np.testing.assert_array_equal(grads[x], expected)
        assert np.abs(expected).max() > 0.1
        grads[x] *= 3.0
        np.testing.assert_array_equal(grads[y], expected)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward()

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = square(x)
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

    def test_unknown_attribute_is_absent(self):
        # only the laid-out buffers are built on first use; any other name is missing
        assert not hasattr(ParamStore(), "bogus")

    def test_built_inside_no_grad_still_trains(self):
        store = ParamStore()
        with ad.no_grad():
            p = store.add("a", np.ones(2))
        assert p.requires_grad
        # each parameter's gradient slice is its part of the one flat buffer
        assert np.shares_memory(store.grad_slice[p], store.grad)


class TestAdamW:
    def _store(self, value=1.0):
        store = ParamStore()
        store.add("theta", np.array([value]))
        return store

    def test_zero_grad_zero_decay_is_noop(self):
        store = self._store()
        opt = AdamW(store, lr=0.01, weight_decay=0.0)
        store.grad[:] = 0.0
        opt.step()
        np.testing.assert_array_equal(store["theta"].data, [1.0])

    def test_quadratic_descends(self):
        store = self._store()
        opt = AdamW(store, lr=0.01, weight_decay=0.0)
        store.grad[:] = store.flat   # grad of 0.5 theta^2
        opt.step()
        assert store["theta"].data[0] < 1.0


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
