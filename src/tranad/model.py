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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ParamStore
from .errors import CorruptCheckpoint, DimensionMismatch, check_fields, check_int, check_real

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

    def to_dict(self):
        return asdict(self)

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
def position_encoding(length, width):
    """Sinusoidal position table: PE[p, 2i] = sin(p / 10000^(2i/d)),
    PE[p, 2i+1] = cos of the same argument.  Built once per shape and
    returned read-only, since every caller shares it."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(0, width, 2).astype(np.float64)
    angle = pos / np.power(10000.0, i / width)
    pe = np.empty((length, width))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def position_encode(x):
    """Add the sinusoidal table to a (..., L, d) tensor."""
    L, d = x.shape[-2], x.shape[-1]
    return x + Tensor(position_encoding(L, d))


class Linear:
    def __init__(self, store, prefix, d_in, d_out, rng):
        bound = 1.0 / np.sqrt(d_in)
        self.W = store.add(f"{prefix}.W", rng.uniform(-bound, bound, size=(d_in, d_out)))
        self.b = store.add(f"{prefix}.b", np.zeros(d_out))

    def __call__(self, x):
        return ad.linear(x, self.W, self.b)


class MultiHeadAttention:
    """Per-head linear projections, scaled attention, concat, output map."""

    def __init__(self, store, prefix, d_model, n_heads, rng):
        self.n_heads = n_heads
        self.wq = Linear(store, f"{prefix}.q", d_model, d_model, rng)
        self.wk = Linear(store, f"{prefix}.k", d_model, d_model, rng)
        self.wv = Linear(store, f"{prefix}.v", d_model, d_model, rng)
        self.wo = Linear(store, f"{prefix}.out", d_model, d_model, rng)

    def __call__(self, Q, K, V, masked=False):
        mask = np.triu(np.ones((Q.shape[-2], K.shape[-2]), dtype=bool), k=1) if masked else None
        out, weights = ad.attention(self.wq(Q), self.wk(K), self.wv(V), self.n_heads,
                                    mask=mask)
        return self.wo(out), weights


class FeedForward:
    """Two-layer position-wise network with ReLU."""

    def __init__(self, store, prefix, d_in, hidden, d_out, rng):
        self.l1 = Linear(store, f"{prefix}.l1", d_in, hidden, rng)
        self.l2 = Linear(store, f"{prefix}.l2", hidden, d_out, rng)

    def __call__(self, x):
        return self.l2(self.l1(x).relu())


class LayerNorm:
    def __init__(self, store, prefix, width):
        self.gain = store.add(f"{prefix}.gain", np.ones(width))
        self.bias = store.add(f"{prefix}.bias", np.zeros(width))

    def __call__(self, x):
        return ad.layer_norm(x, self.gain, self.bias)


class EncoderLayer:
    """Self-attention + feed-forward sublayers, each with residual + norm."""

    def __init__(self, store, prefix, cfg, rng):
        d = cfg.d_model
        self.attn = MultiHeadAttention(store, f"{prefix}.attn", d, cfg.m, rng)
        self.ln1 = LayerNorm(store, f"{prefix}.ln1", d)
        self.ff = FeedForward(store, f"{prefix}.ff", d, FF_HIDDEN, d, rng)
        self.ln2 = LayerNorm(store, f"{prefix}.ln2", d)
        self.dropout = cfg.dropout

    def __call__(self, x, rng):
        att = self.attn(x, x, x)[0]
        att = ad.dropout(att, self.dropout, rng)
        x = self.ln1(x + att)
        ff = ad.dropout(self.ff(x), self.dropout, rng)
        return self.ln2(x + ff)


class WindowEncoder:
    """Masked self-attention over the window (`attend_self`), then (call)
    cross-attention from it into the context encoding as keys/values."""

    def __init__(self, store, cfg, rng):
        d = cfg.d_model
        self.self_attn = MultiHeadAttention(store, "window_encoder.self_attn", d, cfg.m, rng)
        self.ln1 = LayerNorm(store, "window_encoder.ln1", d)
        self.cross_attn = MultiHeadAttention(store, "window_encoder.cross_attn", d, cfg.m, rng)
        self.ln2 = LayerNorm(store, "window_encoder.ln2", d)
        self.dropout = cfg.dropout

    def attend_self(self, I2, rng):
        att, self_w = self.self_attn(I2, I2, I2, masked=True)
        att = ad.dropout(att, self.dropout, rng)
        return self.ln1(I2 + att), self_w

    def __call__(self, I2_2, ctx_encoding, rng):
        cross = self.cross_attn(I2_2, ctx_encoding, ctx_encoding)[0]
        cross = ad.dropout(cross, self.dropout, rng)
        return self.ln2(I2_2 + cross)


class Decoder:
    """Position-wise feed-forward d_model -> hidden -> m, then sigmoid."""

    def __init__(self, store, prefix, cfg, rng):
        self.ff = FeedForward(store, f"{prefix}.ff", cfg.d_model, FF_HIDDEN, cfg.m, rng)

    def __call__(self, x):
        return self.ff(x).sigmoid()


class TranAD:
    """The full network plus its parameter store."""

    def __init__(self, config):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.init_seed)
        # the context reaches width 2m by the focus concatenation; the window
        # gets there through a learned projection
        self.window_embed = Linear(self.params, "embed.window", config.m,
                                   config.d_model, rng)
        self.context_encoder = EncoderLayer(self.params, "encoder1.l0", config, rng)
        self.window_encoder = WindowEncoder(self.params, config, rng)
        self.decoder1 = Decoder(self.params, "decoder1", config, rng)
        self.decoder2 = Decoder(self.params, "decoder2", config, rng)

    # -- encoding -------------------------------------------------------------

    def _align_focus(self, F, length):
        """Zero-pad the K x m focus score at the front (or keep its tail) so
        it lines up with the last rows of a length-`length` sequence."""
        B, K, m = F.shape
        if length == K:
            return F
        if length < K:
            return F[:, K - length:, :]
        zeros = Tensor(np.zeros((B, length - K, m)))
        return ad.concat([zeros, F], axis=1)

    def encode_context(self, C, F, rng=None):
        """First encoder: concat the focus score onto the context,
        position-encode, and run the encoder layer."""
        if C.shape[-1] != self.config.m:
            raise DimensionMismatch(f"context has {C.shape[-1]} dims, "
                                    f"model expects {self.config.m}")
        aligned = self._align_focus(F, C.shape[1])
        x = position_encode(ad.concat([C, aligned], axis=2))
        return self.context_encoder(x, rng)

    def encode_window(self, W, rng=None):
        """Embed, position-encode and self-attend the window: the part of the
        window encoder both phases share.  Returns (encoding, weights)."""
        if W.shape[-1] != self.config.m:
            raise DimensionMismatch(f"window has {W.shape[-1]} dims, "
                                    f"model expects {self.config.m}")
        I2 = position_encode(self.window_embed(W))
        return self.window_encoder.attend_self(I2, rng)

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
        context row is a phase-2 key and value.
        """
        W, C = Tensor(W), Tensor(C)
        B, K, m = W.shape

        zero_focus = Tensor(np.zeros((B, K, m)))
        ctx1 = self.encode_context(C, zero_focus, rng)
        win, self_w = self.encode_window(W, rng)
        I23 = self.window_encoder(win, ctx1, rng)
        O1 = self.decoder1(I23)
        O2 = self.decoder2(I23) if decode_rows is None else None

        diff = O1 - W
        focus = diff * diff
        phase2_focus = focus if self_condition else zero_focus

        ctx2 = self.encode_context(C, phase2_focus, rng)
        win2 = win if decode_rows is None else win[:, decode_rows]
        I23_2 = self.window_encoder(win2, ctx2, rng)
        O2_hat = self.decoder2(I23_2)
        return TwoPhaseOutput(O1=O1, O2=O2, O2_hat=O2_hat, focus=phase2_focus,
                              window_attention=self_w)

    # -- persistence ----------------------------------------------------------

    def save(self, path, extra=None):
        meta = {"model_config": self.config.to_dict(), **(extra or {})}
        ad.save_arrays(path, self.params.snapshot(), extra=meta)

    @classmethod
    def load(cls, path):
        arrays, extra = ad.load_arrays(path)
        if not isinstance(extra.get("model_config"), dict):
            raise CorruptCheckpoint(f"{path} holds no model configuration")
        model = cls(ModelConfig.from_dict(extra["model_config"]))
        model.params.load(arrays)   # ShapeMismatch unless the arrays are the model's
        return model, extra
