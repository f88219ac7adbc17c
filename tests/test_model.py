"""Network components: position encoding, attention, encoders, decoders and
the two-phase forward pass."""

import dataclasses
import math

import numpy as np
import pytest

from tranad import autodiff as ad
from tranad import training
from tranad.autodiff import Tensor, position_encoding
from tranad.errors import ShapeMismatch, TranadError
from tranad.model import ModelConfig, TranAD, causal_mask

from conftest import plain_attention


def small_model(m=2, K=4, cap=8, seed=0, dropout=0.0, **kw):
    cfg = ModelConfig(m=m, window_size=K, context_cap=cap, init_seed=seed,
                      dropout=dropout, **kw)
    return TranAD(cfg)


def random_inputs(model, B=1, L=None, seed=1):
    rng = np.random.default_rng(seed)
    K, m = model.config.window_size, model.config.m
    L = L or model.config.context_cap
    return rng.uniform(size=(B, K, m)), rng.uniform(size=(B, L, m))


class TestPositionEncoding:
    def test_position_zero(self):
        pe = position_encoding(4, 6)
        np.testing.assert_array_equal(pe[0, 0::2], np.zeros(3))
        np.testing.assert_array_equal(pe[0, 1::2], np.ones(3))

    def test_bounded(self):
        pe = position_encoding(50, 8)
        assert np.abs(pe).max() <= 1.0

    def test_closed_form(self):
        pe = position_encoding(2, 128)
        assert pe[1, 0] == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_cached_table_read_only_and_closed_form(self):
        pe = position_encoding(7, 6)
        assert pe is position_encoding(7, 6)
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        for p in range(7):
            for i in range(3):
                angle = p / 10000.0 ** (2 * i / 6)
                assert pe[p, 2 * i] == pytest.approx(math.sin(angle), rel=1e-12, abs=1e-15)
                assert pe[p, 2 * i + 1] == pytest.approx(math.cos(angle), rel=1e-12)

    def test_position_encode_adds_table(self):
        # both encoder input blocks add the table of their output's shape
        embedded = ad.embed(Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 4))),
                            Tensor(np.zeros(4)))
        context = ad.concat_aligned(Tensor(np.zeros((2, 5, 2))), Tensor(np.zeros((2, 3, 2))))
        np.testing.assert_array_equal(embedded.data[1], position_encoding(3, 4))
        np.testing.assert_array_equal(context.data[1], position_encoding(5, 4))


class TestAttention:
    def test_single_key(self):
        Q = Tensor(np.array([[1.0, 2.0]]))
        K = Tensor(np.array([[0.3, -0.1]]))
        V = Tensor(np.array([[5.0, 6.0]]))
        out, w = plain_attention(Q, K, V, n_heads=1)
        np.testing.assert_allclose(w[0], [[1.0]])      # the one head
        np.testing.assert_allclose(out.data, [[5.0, 6.0]])

    def test_uniform_logits_give_value_mean(self):
        Q = Tensor(np.zeros((2, 3)))
        K = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        V = Tensor(np.arange(8.0).reshape(4, 2))
        out, _ = plain_attention(Q, K, V, n_heads=1)
        np.testing.assert_allclose(out.data, np.tile(V.data.mean(axis=0), (2, 1)))

    def test_hand_two_by_two(self):
        eye = np.eye(2)
        # one head of width 2: the logits are scaled by sqrt(2)
        out, w = plain_attention(Tensor(eye), Tensor(eye), Tensor(eye), n_heads=1)
        logits = eye @ eye.T / math.sqrt(2.0)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected_w = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w[0], expected_w, rtol=1e-12)
        np.testing.assert_allclose(out.data, expected_w @ eye, rtol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeMismatch):
            plain_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                            Tensor(np.zeros((2, 4))), n_heads=1)


class TestMultiHead:
    def test_causal_mask_cached_read_only(self):
        mask = causal_mask(4, 4)
        assert mask is causal_mask(4, 4) and not mask.flags.writeable
        np.testing.assert_array_equal(mask, np.triu(np.ones((4, 4), dtype=bool), k=1))

    @staticmethod
    def _window_self_attention(model, x):
        x = Tensor(x)
        return ad.attention(x, x, x, model.self_attn, model.config.m, mask=causal_mask(4, 4))

    def test_masked_first_row_degenerate(self):
        model = small_model()
        x = np.random.default_rng(2).normal(size=(1, 4, 4))
        _, w = self._window_self_attention(model, x)
        # row 0 can only see position 0
        np.testing.assert_allclose(w[0, :, 0, 0], np.ones(model.config.m))
        np.testing.assert_allclose(w[0, :, 0, 1:], 0.0, atol=1e-300)

    def test_causality_under_perturbation(self):
        model = small_model()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 4))
        base, _ = self._window_self_attention(model, x)
        for t in range(3):
            pert = x.copy()
            pert[0, t + 1:] += rng.normal(size=pert[0, t + 1:].shape)
            out, _ = self._window_self_attention(model, pert)
            np.testing.assert_array_equal(out.data[0, :t + 1], base.data[0, :t + 1])


class TestEncoders:
    def test_context_encoding_shape(self):
        model = small_model(m=3, K=4, cap=10)
        C = Tensor(np.random.default_rng(0).uniform(size=(2, 7, 3)))
        F = Tensor(np.zeros((2, 4, 3)))
        out = model.encode_context(C, F)
        assert out.shape == (2, 7, model.config.d_model)

    def test_focus_changes_encoding(self):
        model = small_model()
        C = Tensor(np.random.default_rng(1).uniform(size=(1, 6, 2)))
        zero = Tensor(np.zeros((1, 4, 2)))
        hot = Tensor(np.full((1, 4, 2), 0.5))
        a = model.encode_context(C, zero)
        b = model.encode_context(C, hot)
        assert np.abs(a.data - b.data).max() > 1e-8

    def test_context_dim_mismatch(self):
        model = small_model(m=2)
        with pytest.raises(ShapeMismatch):
            model.encode_context(Tensor(np.zeros((1, 5, 3))),
                                 Tensor(np.zeros((1, 4, 3))))

    def test_window_dim_mismatch(self):
        model = small_model(m=2)
        with pytest.raises(ShapeMismatch, match="window has 3 dims"):
            model.encode_window(Tensor(np.zeros((1, 4, 3))))

    def test_window_encoding_shape(self):
        model = small_model(m=2, K=4)
        W, C = random_inputs(model)
        ctx = model.encode_context(Tensor(C), Tensor(np.zeros((1, 4, 2))))
        win, _ = model.encode_window(Tensor(W))
        out = model.attend_context(win, ctx)
        assert out.shape == (1, 4, model.config.d_model)


class TestTwoPhase:
    def test_output_ranges(self):
        model = small_model()
        W, C = random_inputs(model)
        out = model.forward_two_phase(W, C)
        for o in (out.O1, out.O2, out.O2_hat):
            assert ((o.data > 0) & (o.data < 1)).all()

    def test_focus_is_squared_phase1_deviation(self):
        model = small_model()
        W, C = random_inputs(model)
        out = model.forward_two_phase(W, C)
        np.testing.assert_allclose(out.focus.data, (out.O1.data - W) ** 2,
                                   rtol=1e-12)

    def test_self_condition_off_zeroes_focus(self):
        model = small_model()
        W, C = random_inputs(model)
        out = model.forward_two_phase(W, C, self_condition=False)
        np.testing.assert_array_equal(out.focus.data, np.zeros_like(W))

    def test_zero_focus_makes_phases_agree(self):
        # with self-conditioning disabled both phases see identical inputs,
        # so the conditioned output equals the phase-1 decoder-2 output
        model = small_model()
        W, C = random_inputs(model)
        out = model.forward_two_phase(W, C, self_condition=False)
        np.testing.assert_allclose(out.O2_hat.data, out.O2.data, atol=1e-12)

    def test_deterministic(self):
        model = small_model(dropout=0.1)
        W, C = random_inputs(model)
        a = model.forward_two_phase(W, C, rng=np.random.default_rng(5))
        b = model.forward_two_phase(W, C, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.O2_hat.data, b.O2_hat.data)

    def test_shape_stability(self):
        model = small_model(m=3, K=5, cap=9)
        for seed in range(3):
            W, C = random_inputs(model, B=2, seed=seed)
            out = model.forward_two_phase(W, C)
            assert out.O1.shape == out.O2.shape == out.O2_hat.shape == (2, 5, 3)

    def test_window_attention_row_stochastic(self):
        model = small_model()
        W, C = random_inputs(model, B=2)
        for decode_rows in (None, slice(-1, None)):
            w = model.forward_two_phase(W, C, decode_rows=decode_rows).window_attention
            assert w.shape == (2, model.config.m, 4, 4)
            np.testing.assert_allclose(w.sum(axis=-1), np.ones(w.shape[:-1]), atol=1e-12)

    def test_window_attention_is_encode_window_weights(self):
        # both phases cross-attend from one window self-attention, whose
        # weights the pass returns as they are
        model = small_model()
        W, C = random_inputs(model, B=2)
        _, expected = model.encode_window(Tensor(W))
        np.testing.assert_array_equal(model.forward_two_phase(W, C).window_attention, expected)

    def test_gradient_reaches_every_parameter(self):
        model = small_model(seed=3)
        W, C = random_inputs(model, seed=4)
        out = model.forward_two_phase(W, C)
        Wt = Tensor(W)
        p1 = training.loss_phase1(out.O1, out.O2, Wt)
        adv = training.loss_adversarial(out.O2_hat, Wt)
        L1, L2 = training.loss_combined(p1, adv, n=1)
        one = np.ones_like(L1.data)    # the gradient of L1 + L2
        order = ad.tape_order([L1, L2], {})[0]
        grads = ad.reverse_walk([(L1, one), (L2, one)], order,
                                dict.fromkeys(map(id, order), 1), 1)
        for path, p in model.params.items():
            assert p in grads and np.abs(grads[p]).max() > 0, path


class TestPersistence:
    def test_save_load_preserves_outputs(self, tmp_path):
        model = small_model(m=2, K=4, seed=8)
        W, C = random_inputs(model, seed=9)
        before = model.forward_two_phase(W, C).O2_hat.data
        path = tmp_path / "ckpt.bin"
        model.save(path, extra={"tag": "x"})
        loaded, extra = TranAD.load(path)
        assert extra["tag"] == "x"
        after = loaded.forward_two_phase(W, C).O2_hat.data
        np.testing.assert_array_equal(before, after)
        assert all(np.shares_memory(p.data, loaded.params.flat)
                   for _, p in loaded.params.items())

    @pytest.mark.parametrize("change", [
        lambda arrays: arrays.pop("decoder1.ff.l1.b"),
        lambda arrays: arrays.update(extra=np.zeros(3)),
        lambda arrays: arrays.update({"decoder1.ff.l1.b": np.zeros(3)}),
    ])
    def test_load_rejects_arrays_not_the_models(self, tmp_path, change):
        model = small_model(m=2, K=4, seed=8)
        arrays = model.params.snapshot()
        change(arrays)
        path = tmp_path / "ckpt.bin"
        ad.save_arrays(path, arrays, extra={"model_config": dataclasses.asdict(model.config)})
        with pytest.raises(TranadError):
            TranAD.load(path)
