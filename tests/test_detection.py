"""Online scoring, threshold labeling and root-cause ranking."""

import numpy as np
import pytest

from tranad import dataset, detection, model as model_module, pot
from tranad.autodiff import Tensor
from tranad.model import ModelConfig, TranAD


@pytest.fixture(scope="module")
def scored_setup():
    raw = dataset.synth_generate(dataset.SynthSpec(T=80, m=2, seed=4,
                                                   noise_sigma=0.1))
    norm, stats = dataset.fit_normalize(raw)
    model = TranAD(ModelConfig(m=2, window_size=4, context_cap=8,
                               init_seed=1, dropout=0.0))
    return model, norm


def make_threshold_model(values, cfg=None):
    cfg = cfg or pot.PotConfig()
    dims = [pot.DimThreshold(initial_threshold=v, gamma=0.0, sigma=0.0,
                             n_excesses=0, n_samples=0, threshold=v,
                             method="constant")
            for v in values]
    return pot.ThresholdModel(dims=dims, config=cfg)


class TestScoring:
    def test_scores_nonnegative(self, scored_setup):
        model, norm = scored_setup
        scores = detection.score_series(model, norm)
        assert scores.shape == (norm.T, norm.m)
        assert (scores >= 0).all()

    def test_score_matches_forward_outputs(self, scored_setup):
        model, norm = scored_setup
        batch = dataset.make_windows(norm, 4, 8)
        t = 20
        W, C = batch.windows[t], batch.contexts[t]
        out = model.forward_two_phase(W[None], C[None])
        expected = 0.5 * (out.O1.data[0, -1] - W[-1]) ** 2 \
            + 0.5 * (out.O2_hat.data[0, -1] - W[-1]) ** 2
        got = detection.score_batch(model, W[None], C[None])[0]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_online_causality_truncation(self, scored_setup):
        model, norm = scored_setup
        full = detection.score_series(model, norm)
        cut = 30
        prefix = dataset.TimeSeries(values=norm.values[:cut], stats=norm.stats)
        truncated = detection.score_series(model, prefix)
        np.testing.assert_array_equal(full[:cut], truncated)

    @pytest.mark.parametrize("T", [detection.SCORE_CHUNK - 1, detection.SCORE_CHUNK,
                                   detection.SCORE_CHUNK + 1, 2 * detection.SCORE_CHUNK + 29])
    def test_chunks_match_per_prefix_scores(self, scored_setup, T):
        # every row, the first context_cap - 1 short-context ones included,
        # equals the score of the one window a stream cut at that row ends with
        model, norm = scored_setup
        values = np.tile(norm.values, (2, 1))[:T]
        series = dataset.TimeSeries(values=values, stats=norm.stats)
        full = detection.score_series(model, series)
        for t in range(T):
            prefix = dataset.TimeSeries(values=values[:t + 1], stats=norm.stats)
            batch = dataset.make_windows(prefix, 4, 8)
            np.testing.assert_array_equal(
                full[t], detection.score_batch(model, batch.windows[-1:],
                                               batch.contexts[-1][None])[0])

    def test_deterministic(self, scored_setup):
        model, norm = scored_setup
        a = detection.score_series(model, norm)
        b = detection.score_series(model, norm)
        np.testing.assert_array_equal(a, b)


class TestDetectStream:
    def test_all_below_thresholds(self, scored_setup):
        model, norm = scored_setup
        th = make_threshold_model([1e9, 1e9])
        records = detection.detect_stream(model, norm, th)
        assert len(records) == norm.T
        assert all(r.label == 0 and not r.labels.any() for r in records)

    def test_or_semantics(self, scored_setup):
        model, norm = scored_setup
        scores = detection.score_series(model, norm)
        # threshold dimension 0 to fire at exactly its max-score timestamp
        t_star = int(np.argmax(scores[:, 0]))
        th = make_threshold_model([scores[:, 0].max(), 1e9])
        records = detection.detect_stream(model, norm, th)
        assert records[t_star].label == 1
        assert records[t_star].labels[0] == 1 and records[t_star].labels[1] == 0

    def test_label_monotonicity(self, scored_setup):
        model, norm = scored_setup
        scores = detection.score_series(model, norm)
        lo = make_threshold_model([np.median(scores[:, 0]),
                                   np.median(scores[:, 1])])
        hi = make_threshold_model([np.median(scores[:, 0]) * 2,
                                   np.median(scores[:, 1]) * 2])
        rec_lo = detection.detect_stream(model, norm, lo)
        rec_hi = detection.detect_stream(model, norm, hi)
        for a, b in zip(rec_lo, rec_hi):
            assert (b.labels <= a.labels).all()


class TestDiagnose:
    def _records(self, score_rows):
        return [detection.ScoreRecord(timestamp=t, scores=np.array(s),
                                      labels=np.zeros(len(s), dtype=np.int8),
                                      label=0)
                for t, s in enumerate(score_rows)]

    def test_descending_sort(self):
        rankings = detection.diagnose(self._records([[0.9, 0.1, 0.5]]))
        assert rankings[0] == [0, 2, 1]

    def test_tie_rule(self):
        rankings = detection.diagnose(self._records([[0.5, 0.5, 0.5, 0.5]]))
        assert rankings[0] == [0, 1, 2, 3]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(size=6)          # distinct with probability 1
        perm = rng.permutation(6)
        base = detection.diagnose(self._records([scores]))[0]
        permuted = detection.diagnose(self._records([scores[perm]]))[0]
        # mapping the permuted ranking back through perm recovers the base one
        assert [int(perm[d]) for d in permuted] == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detection.diagnose([])


# -- the layers as separate tape ops, before they became one node each -------


def unfused_linear(self, x):
    return Tensor(x.data @ self.W.data + self.b.data)


def unfused_layer_norm(self, x):
    d = x.data
    inv_n = 1.0 / float(d.shape[-1])
    centered = d + (-(d.sum(axis=-1, keepdims=True) * inv_n))
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return Tensor(centered / np.sqrt(var + 1e-5) * self.gain.data + self.bias.data)


def unfused_attention(self, Q, K, V, masked=False, want_weights=False):
    def split(x):
        B, L, d = x.shape
        return x.reshape(B, L, self.n_heads, d // self.n_heads).transpose((0, 2, 1, 3))

    qh, kh, vh = (split(lin(x).data) for lin, x in
                  ((self.wq, Q), (self.wk, K), (self.wv, V)))
    logits = (qh @ np.transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(qh.shape[-1]))
    if masked:
        mask = np.triu(np.ones(logits.shape[-2:], dtype=bool), k=1)
        logits = np.where(mask, -1e9, logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = (weights @ vh).transpose((0, 2, 1, 3)).reshape(Q.shape[0], Q.shape[1], -1)
    return self.wo(Tensor(out)), None


@pytest.mark.parametrize("m, B, L", [(3, 16, 30), (3, 1, 4), (6, 5, 12)])
def test_score_batch_bit_identical_to_unfused_layers(monkeypatch, m, B, L):
    model = TranAD(ModelConfig(m=m, window_size=10, context_cap=30, init_seed=m,
                               dropout=0.0))
    rng = np.random.default_rng(B)
    W, C = rng.uniform(size=(B, 10, m)), rng.uniform(size=(B, L, m))
    fused = detection.score_batch(model, W, C)
    monkeypatch.setattr(model_module.Linear, "__call__", unfused_linear)
    monkeypatch.setattr(model_module.LayerNorm, "__call__", unfused_layer_norm)
    monkeypatch.setattr(model_module.MultiHeadAttention, "__call__", unfused_attention)
    np.testing.assert_array_equal(fused, detection.score_batch(model, W, C))
