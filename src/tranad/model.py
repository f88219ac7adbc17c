"""Two-encoder / twin-decoder reconstruction network with focus-score
self-conditioning.

The context encoder ingests the (capped) sequence slice up to the current
timestamp concatenated with the focus score; the window encoder runs masked
self-attention over the input window and cross-attends into the context
encoding; two architecturally identical, independently parameterized decoders
map the window encoding back to the data space through a sigmoid.

A forward pass runs twice: phase 1 with a zero focus score produces both
reconstructions O1 and O2; the element-wise squared deviation of O1 from the
window becomes the focus score for phase 2, which produces the conditioned
reconstruction O2_hat.  Gradients flow through both phases, including through
the focus score.  The window's embedding and masked self-attention see the
window alone, so they run once and both phases cross-attend from that result.

`TranAD` holds each block's weights as a tuple and calls the `autodiff`
blocks itself, so every op a pass records is one block node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ParamStore
from .errors import ShapeMismatch, check_fields, check_int, check_real

FF_HIDDEN = 64    # hidden width of the encoder's and decoders' feed-forward blocks


@dataclass
class ModelConfig:
    """Each attention block has m heads, one per data dimension, of width 2."""

    m: int
    window_size: int = 10
    context_cap: int = 100
    dropout: float = 0.1
    init_seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 1), ("window_size", 1), ("init_seed", 0)):
            check_int("model", name, getattr(self, name), low)
        check_int("model", "context_cap", self.context_cap, self.window_size)
        check_real("model", "dropout", self.dropout, lambda p: 0 <= p < 1, "in [0, 1)")

    @property
    def d_model(self):
        """Encoder width: m data columns concatenated with m focus columns."""
        return 2 * self.m

    @classmethod
    def from_dict(cls, d):
        return cls(**check_fields(cls, d, "model_config"))


@dataclass
class TwoPhaseOutput:
    """Reconstructions of one two-phase pass: O1/O2/O2_hat are (B, K, m)
    Tensors training differentiates through (O2 is None and O2_hat holds the
    decoded rows in a `decode_rows` pass); `focus` is the phase-2 focus and
    `window_attention` the (B, h, K, K) masked self-attention weights of the
    window, which both phases share."""

    O1: Tensor
    O2: Tensor
    O2_hat: Tensor
    focus: Tensor
    window_attention: np.ndarray


@functools.cache
def causal_mask(n_queries, n_keys):
    """(n_queries, n_keys) booleans, True where a key lies after its query
    row.  Built once per shape and returned read-only, like the position
    table."""
    mask = np.triu(np.ones((n_queries, n_keys), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def linear_weights(store, prefix, d_in, d_out, rng):
    """(W, b) of a layer x @ W + b, W uniform in +-1/sqrt(d_in), b zero."""
    bound = 1.0 / np.sqrt(d_in)
    return (store.add(f"{prefix}.W", rng.uniform(-bound, bound, size=(d_in, d_out))),
            store.add(f"{prefix}.b", np.zeros(d_out)))


def attention_weights(store, prefix, d_model, rng):
    """(Wq, bq, Wk, bk, Wv, bv, Wo, bo) of a multi-head attention block."""
    return sum((linear_weights(store, f"{prefix}.{name}", d_model, d_model, rng)
                for name in ("q", "k", "v", "out")), ())


def feed_forward_weights(store, prefix, d_in, hidden, d_out, rng):
    """(W1, b1, W2, b2) of a two-layer position-wise network with ReLU."""
    return (linear_weights(store, f"{prefix}.l1", d_in, hidden, rng)
            + linear_weights(store, f"{prefix}.l2", hidden, d_out, rng))


def norm_weights(store, prefix, width):
    """(gain, bias) of a LayerNorm."""
    return (store.add(f"{prefix}.gain", np.ones(width)),
            store.add(f"{prefix}.bias", np.zeros(width)))


class TranAD:
    """The full network plus its parameter store."""

    def __init__(self, config):
        self.config = config
        self.params = store = ParamStore()
        rng = np.random.default_rng(config.init_seed)
        d, m = config.d_model, config.m
        # the context reaches width 2m by the focus concatenation; the window
        # gets there through a learned projection
        self.window_embed = linear_weights(store, "embed.window", m, d, rng)
        # the context encoder: self-attention and feed-forward sublayers, each
        # with a residual norm
        self.context_attn = attention_weights(store, "encoder1.l0.attn", d, rng)
        self.context_ln1 = norm_weights(store, "encoder1.l0.ln1", d)
        self.context_ff = feed_forward_weights(store, "encoder1.l0.ff", d, FF_HIDDEN, d, rng)
        self.context_ln2 = norm_weights(store, "encoder1.l0.ln2", d)
        # the window encoder: masked self-attention over the window, then
        # cross-attention into the context encoding, each with a residual norm
        self.self_attn = attention_weights(store, "window_encoder.self_attn", d, rng)
        self.window_ln1 = norm_weights(store, "window_encoder.ln1", d)
        self.cross_attn = attention_weights(store, "window_encoder.cross_attn", d, rng)
        self.window_ln2 = norm_weights(store, "window_encoder.ln2", d)
        # each decoder: feed-forward d_model -> FF_HIDDEN -> m, then a sigmoid
        self.decoder1, self.decoder2 = (
            feed_forward_weights(store, f"{name}.ff", d, FF_HIDDEN, m, rng)
            for name in ("decoder1", "decoder2"))

    def _residual(self, x, sublayer, norm, rng):
        """LayerNorm(x + dropout(sublayer)), dropout skipped with rng None."""
        sublayer = sublayer if rng is None else ad.dropout(sublayer, self.config.dropout, rng)
        return ad.add_norm(x, sublayer, norm)

    # -- encoding -------------------------------------------------------------

    def encode_context(self, C, F, rng=None):
        """First encoder: put the K x m focus score beside the last rows of
        the context (zeros above them) with the position table, then run
        self-attention and feed-forward sublayers."""
        if C.shape[-1] != self.config.m:
            raise ShapeMismatch(f"context has {C.shape[-1]} dims, "
                                f"model expects {self.config.m}")
        x = ad.concat_aligned(C, F)
        x = self._residual(x, ad.attention(x, x, x, self.context_attn, self.config.m)[0],
                           self.context_ln1, rng)
        return self._residual(x, ad.feed_forward(x, self.context_ff), self.context_ln2, rng)

    def encode_window(self, W, rng=None):
        """Embed the window with the position table and run its masked
        self-attention: the part of the window encoder both phases share.
        Returns (encoding, weights)."""
        if W.shape[-1] != self.config.m:
            raise ShapeMismatch(f"window has {W.shape[-1]} dims, "
                                f"model expects {self.config.m}")
        x = ad.embed(W, *self.window_embed)
        K = x.shape[-2]
        att, weights = ad.attention(x, x, x, self.self_attn, self.config.m,
                                    mask=causal_mask(K, K))
        return self._residual(x, att, self.window_ln1, rng), weights

    def attend_context(self, win, ctx, rng=None):
        """The window encoder's second half: cross-attention from the window
        encoding into a context encoding as keys and values."""
        cross = ad.attention(win, ctx, ctx, self.cross_attn, self.config.m)[0]
        return self._residual(win, cross, self.window_ln2, rng)

    # -- the two-phase pass ---------------------------------------------------

    def forward_two_phase(self, W, C, rng=None, self_condition=True, decode_rows=None):
        """Run both phases on a batch.

        W: (B, K, m) array; C: (B, L, m) array with one shared context length
        per call.  `rng` draws the dropout masks; with rng None no dropout
        runs, as in validation and scoring.  Returns a TwoPhaseOutput of
        (B, K, m) tensors.

        `decode_rows`, a slice of window rows, limits phase 2's cross-attention
        and decoder 2 to those rows and skips O2.  Phase 1 and the phase-2
        context encoder run whole: the focus reads all of O1, and every
        context row is a phase-2 key and value.  The rows are sliced from the
        window encoding's array, which records no tape: such a pass is for
        scoring under `no_grad`, and phase 2 passes no gradient to the window
        encoding.
        """
        W, C = Tensor(W), Tensor(C)
        zero_focus = Tensor(np.zeros(W.shape))
        ctx1 = self.encode_context(C, zero_focus, rng)
        win, self_w = self.encode_window(W, rng)
        I23 = self.attend_context(win, ctx1, rng)
        O1 = ad.feed_forward(I23, self.decoder1, sigmoid=True)
        O2 = ad.feed_forward(I23, self.decoder2, sigmoid=True) if decode_rows is None else None

        focus = ad.squared_deviation(O1, W.data)
        phase2_focus = focus if self_condition else zero_focus

        ctx2 = self.encode_context(C, phase2_focus, rng)
        win2 = win if decode_rows is None else Tensor(win.data[:, decode_rows])
        I23_2 = self.attend_context(win2, ctx2, rng)
        O2_hat = ad.feed_forward(I23_2, self.decoder2, sigmoid=True)
        return TwoPhaseOutput(O1=O1, O2=O2, O2_hat=O2_hat, focus=phase2_focus,
                              window_attention=self_w)

    # -- persistence ----------------------------------------------------------

    def save(self, path, extra=None):
        meta = {"model_config": asdict(self.config), **(extra or {})}
        ad.save_arrays(path, self.params.snapshot(), extra=meta)

    @classmethod
    def load(cls, path):
        arrays, extra = ad.load_arrays(path)
        model = cls(ModelConfig.from_dict(extra.get("model_config")))
        model.params.load(arrays)   # ShapeMismatch unless the arrays are the model's
        return model, extra
