"""Online scoring, threshold labeling and root-cause ranking."""

import functools
import json
import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tranad import autodiff as ad, cli, dataset, detection, pot, training
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


@pytest.fixture(scope="module")
def wide_setup():
    # the wide benchmark's shape: m=38 heads of width 2, K=10, a 30-row cap
    raw = dataset.synth_generate(dataset.SynthSpec(T=40, m=38, seed=4, noise_sigma=0.1))
    norm, _ = dataset.fit_normalize(raw)
    model = TranAD(ModelConfig(m=38, window_size=10, context_cap=30, init_seed=1,
                               dropout=0.0))
    return model, norm


@pytest.fixture(scope="module")
def bench_shape_setup():
    # the train-m3 benchmark's shape: m=3, K=10, a 30-row cap
    raw = dataset.synth_generate(dataset.SynthSpec(T=40, m=3, seed=4, noise_sigma=0.1))
    norm, _ = dataset.fit_normalize(raw)
    model = TranAD(ModelConfig(m=3, window_size=10, context_cap=30, init_seed=1,
                               dropout=0.0))
    return model, norm


def assert_chunks_match_per_prefix_scores(model, norm, T):
    # every row, the first context_cap - 1 short-context ones included,
    # equals the score of the one window a stream cut at that row ends with,
    # and the score of the last window of the capped buffer the benchmark's
    # row-by-row stream (bench/pipeline.py `stream`) windows at that row
    K, L = model.config.window_size, model.config.context_cap
    values = np.tile(norm.values, (2, 1))[:T]
    series = dataset.TimeSeries(values=values, stats=norm.stats)
    full = detection.score_series(model, series)
    for t in range(T):
        for rows in (values[:t + 1], values[max(0, t + 1 - L):t + 1]):
            batch = dataset.make_windows(dataset.TimeSeries(values=rows, stats=norm.stats),
                                         K, L)
            np.testing.assert_array_equal(
                full[t], detection.score_batch(model, batch.windows[-1:],
                                               batch.contexts[-1][None])[0])


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

    @pytest.mark.parametrize("m", [2, 3, 38])
    @pytest.mark.parametrize("L", [1, 9, 10, 30])   # 1, K - 1, K and the cap
    def test_score_matches_forward_outputs(self, m, L):
        # the last-row pass differs from the full one by rounding only
        model = TranAD(ModelConfig(m=m, window_size=10, context_cap=30, init_seed=m,
                                   dropout=0.0))
        rng = np.random.default_rng(L)
        W, C = rng.uniform(size=(4, 10, m)), rng.uniform(size=(4, L, m))
        with ad.no_grad():
            out = model.forward_two_phase(W, C)
        expected = 0.5 * (out.O1.data[:, -1] - W[:, -1]) ** 2 \
            + 0.5 * (out.O2_hat.data[:, -1] - W[:, -1]) ** 2
        np.testing.assert_allclose(detection.score_batch(model, W, C), expected,
                                   rtol=0, atol=1e-15)

    def test_score_batch_decodes_phase_2_once_on_the_last_row(self, scored_setup,
                                                               monkeypatch):
        model, _ = scored_setup
        calls = []
        feed_forward = ad.feed_forward

        def spy(x, weights, sigmoid=False):
            if sigmoid:     # a decoder
                calls.append(("decoder1" if weights is model.decoder1 else "decoder2",
                              x.shape))
            return feed_forward(x, weights, sigmoid=sigmoid)

        monkeypatch.setattr(ad, "feed_forward", spy)
        rng = np.random.default_rng(2)
        detection.score_batch(model, rng.uniform(size=(3, 4, 2)), rng.uniform(size=(3, 8, 2)))
        assert calls == [("decoder1", (3, 4, 4)), ("decoder2", (3, 1, 4))]

    def test_online_causality_truncation(self, scored_setup):
        model, norm = scored_setup
        full = detection.score_series(model, norm)
        cut = 30
        prefix = dataset.TimeSeries(values=norm.values[:cut], stats=norm.stats)
        truncated = detection.score_series(model, prefix)
        np.testing.assert_array_equal(full[:cut], truncated)

    # lengths inside a chunk, and either side of each SCORE_CHUNK boundary
    @pytest.mark.parametrize("T", [31, 32, 33, 93,
                                   detection.SCORE_CHUNK - 1, detection.SCORE_CHUNK,
                                   detection.SCORE_CHUNK + 1, 2 * detection.SCORE_CHUNK + 29])
    def test_chunks_match_per_prefix_scores(self, scored_setup, T):
        assert_chunks_match_per_prefix_scores(*scored_setup, T)

    @pytest.mark.parametrize("T", [31, 32, 33, 60])
    def test_wide_chunks_match_per_prefix_scores(self, wide_setup, T):
        assert_chunks_match_per_prefix_scores(*wide_setup, T)

    def test_bench_shape_chunks_match_per_prefix_scores(self, bench_shape_setup):
        # every row t < 2L at the train-m3 shape, in and past the 30-row cap
        assert_chunks_match_per_prefix_scores(*bench_shape_setup, 60)

    def test_deterministic(self, scored_setup):
        model, norm = scored_setup
        a = detection.score_series(model, norm)
        b = detection.score_series(model, norm)
        np.testing.assert_array_equal(a, b)


def pool_series(m, T, seed=4):
    # the wide benchmark's K=10 and 30-row cap: 29 short-context windows, then
    # chunks of SCORE_CHUNK windows, at most 512 // m
    raw = dataset.synth_generate(dataset.SynthSpec(T=T, m=m, seed=seed, noise_sigma=0.1))
    norm, _ = dataset.fit_normalize(raw)
    model = TranAD(ModelConfig(m=m, window_size=10, context_cap=30, init_seed=1,
                               dropout=0.0))
    return model, norm


def allow_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestPool:
    # lengths whose last chunk is partial: 48 and 13 windows a chunk at m=3 and 38
    @pytest.mark.parametrize("m, T", [(3, 29 + 48 + 5), (3, 29 + 2 * 48 - 1),
                                      (38, 29 + 13 + 4), (38, 29 + 3 * 13 + 12)])
    def test_one_core_bit_equal_to_pool_and_starts_no_thread(self, monkeypatch, m, T):
        model, norm = pool_series(m, T)
        allow_cores(monkeypatch, 3)    # more workers than this machine may have cores
        pooled = detection.score_series(model, norm)
        allow_cores(monkeypatch, 1)
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        np.testing.assert_array_equal(detection.score_series(model, norm), pooled)
        assert started == []

    @pytest.mark.parametrize("cpus", [3, None])
    def test_platform_without_affinity_pools_every_core(self, monkeypatch, cpus):
        # macOS and Windows have no os.sched_getaffinity; os.cpu_count() may be None
        model, norm = pool_series(3, 29 + 48 + 5)
        allow_cores(monkeypatch, 2)
        pooled = detection.score_series(model, norm)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        workers, pool = [], detection.ThreadPoolExecutor
        monkeypatch.setattr(detection, "ThreadPoolExecutor",
                            lambda n: workers.append(n) or pool(n))
        np.testing.assert_array_equal(detection.score_series(model, norm), pooled)
        assert workers == [max(1, (cpus or 1) - 1)]    # the caller runs one part itself

    @pytest.mark.parametrize("m, chunk", [(3, 48), (38, 13)])
    def test_results_in_chunk_order_at_most_512_over_m_windows_a_chunk(self, monkeypatch,
                                                                        m, chunk):
        model, norm = pool_series(m, 29 + 2 * chunk + 5)
        allow_cores(monkeypatch, 2)
        batch = dataset.make_windows(norm, 10, 30)
        rows = detection.map_chunks(model, batch, lambda W, C, rows: (rows.start, rows.stop))
        assert rows == [(i, i + 1) for i in range(29)] + [
            (29, 29 + chunk), (29 + chunk, 29 + 2 * chunk), (29 + 2 * chunk, len(batch))]

    @pytest.mark.parametrize("m", [3, 38])
    def test_pooled_passes_leave_gradients_on(self, monkeypatch, m):
        model, norm = pool_series(m, 60)
        allow_cores(monkeypatch, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)    # switch threads often, so a race would show
        try:
            for _ in range(20):
                detection.score_series(model, norm)
        finally:
            sys.setswitchinterval(interval)
        assert ad._GRAD_ENABLED is True
        # with no weight decay and no meta step, only a gradient moves a weight
        monkeypatch.setattr(training, "AdamW", functools.partial(ad.AdamW, weight_decay=0.0))
        train_b, val_b = dataset.split_train_val(dataset.make_windows(norm, 10, 30))
        before = model.params.flat.copy()
        training.fit(model, train_b, val_b, training.TrainConfig(
            epochs=1, batch_size=16, use_maml=False), progress=False)
        assert not np.array_equal(model.params.flat, before)

    def test_worker_exception_propagates_and_the_pool_stops(self, monkeypatch):
        model, norm = pool_series(3, 80)
        allow_cores(monkeypatch, 2)
        score_batch = detection.score_batch

        def fail_off_the_caller(model, W, C):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("chunk failed")
            return score_batch(model, W, C)

        monkeypatch.setattr(detection, "score_batch", fail_off_the_caller)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            detection.score_series(model, norm)
        assert threading.active_count() == baseline
        assert ad._GRAD_ENABLED is True



class TestThreadArenas:
    """Each thread has its own open WeightArena (`autodiff._ARENA`), and each
    part of `map_chunks` scores its chunks in one arena of its own."""

    def test_no_buffer_is_shared_between_pool_threads(self, monkeypatch):
        model, norm = pool_series(3, 29 + 4 * 48 + 5)
        allow_cores(monkeypatch, 3)
        entered, enter = [], ad.WeightArena.__enter__

        def spy(arena):
            entered.append((threading.get_ident(), arena))
            return enter(arena)

        monkeypatch.setattr(ad.WeightArena, "__enter__", spy)
        detection.score_series(model, norm)
        arenas = {id(arena): arena for _, arena in entered}
        assert len(arenas) == 3    # one per part
        for key, arena in arenas.items():
            assert len({thread for thread, a in entered if a is arena}) == 1
            assert len(arena) == 5
            others = [buf for k, a in arenas.items() if k != key for buf in a.values()]
            assert not any(np.shares_memory(buf, other)
                           for buf in arena.values() for other in others)

    def test_scoring_leaves_the_callers_open_arena_current_and_unchanged(self, monkeypatch):
        model, norm = pool_series(3, 29 + 2 * 48 + 5)
        allow_cores(monkeypatch, 2)
        W, C, _ = dataset.batch_groups(dataset.make_windows(norm, 10, 30), 16)[-1]
        arena = ad.WeightArena()
        with arena:
            model.forward_two_phase(W, C)
            kept, pos = {i: buf.copy() for i, buf in arena.items()}, arena.pos
            detection.score_series(model, norm)
            assert ad._ARENA.get() is arena and arena.pos == pos
        assert arena.keys() == kept.keys()
        assert all(arena[i].tobytes() == kept[i].tobytes() for i in kept)

    def test_same_shape_chunks_of_a_thread_write_into_one_buffer(self, monkeypatch):
        # 29 single windows, then chunks 29-32 of 48 windows and one of 5:
        # each of the two threads scores two of the full chunks, one after the other
        model, norm = pool_series(3, 29 + 4 * 48 + 5)
        allow_cores(monkeypatch, 2)

        def weights(W, C, rows):
            res = model.forward_two_phase(W, C, decode_rows=detection.LAST_ROW)
            return threading.get_ident(), res.window_attention

        runs = detection.map_chunks(model, dataset.make_windows(norm, 10, 30), weights)
        threads = {thread for thread, _ in runs}
        assert len(threads) == 2
        for thread in threads:
            mine = [w for t, w in runs if t == thread]
            for a, b in zip(mine, mine[1:]):
                assert np.shares_memory(a, b) == (a.shape == b.shape)
            assert not any(np.shares_memory(a, b) for a in mine
                           for t, b in runs if t != thread)
        full = [w for _, w in runs[29:33]]
        assert np.shares_memory(full[0], full[2]) and np.shares_memory(full[1], full[3])

    @pytest.mark.parametrize("failing", [None, "caller", "pool"])
    def test_no_arena_is_left_open_on_the_calling_thread(self, monkeypatch, failing):
        model, norm = pool_series(3, 29 + 2 * 48 + 5)
        allow_cores(monkeypatch, 2)
        opened = []

        def score(W, C, rows):
            opened.append(ad._ARENA.get() is not None)
            on_caller = threading.current_thread() is threading.main_thread()
            if failing == ("caller" if on_caller else "pool") and rows.start >= 29:
                raise RuntimeError("chunk failed")
            return detection.score_batch(model, W, C)

        batch = dataset.make_windows(norm, 10, 30)
        if failing is None:
            detection.map_chunks(model, batch, score)
        else:
            with pytest.raises(RuntimeError, match="chunk failed"):
                detection.map_chunks(model, batch, score)
        assert opened and all(opened)
        assert ad._ARENA.get() is None

    @pytest.mark.parametrize("m, T", [(3, 29 + 3 * 48 + 5), (38, 29 + 3 * 13 + 5)])
    def test_scores_stay_bit_equal_while_threads_switch_often(self, monkeypatch, m, T):
        # at m=38 numpy releases the interpreter lock inside the attention
        # products, so threads that shared a buffer would corrupt each other
        model, norm = pool_series(m, T)
        allow_cores(monkeypatch, 1)
        serial = detection.score_series(model, norm)
        allow_cores(monkeypatch, 3)    # more workers than this machine may have cores
        runs = []

        def score_twenty_times():
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)    # switch threads often, so a race would show
            try:
                runs.extend(detection.score_series(model, norm) for _ in range(20))
            finally:
                sys.setswitchinterval(interval)

        # a daemon thread, so a pool that hangs fails the test instead of the run
        caller = threading.Thread(target=score_twenty_times, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), "20 scoring calls took over 120 s"
        assert len(runs) == 20
        assert runs[0].tobytes() == serial.tobytes()
        for scores in runs[1:]:
            assert scores.tobytes() == runs[0].tobytes()



@st.composite
def scoring_shapes(draw):
    """(m, K, L, T, seed): a series of short contexts only, or one with one
    chunk after them, or one with several chunks and a partial last one."""
    m, K = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    L = draw(st.integers(K, 12))
    chunk = min(detection.SCORE_CHUNK, 512 // m)
    T = draw(st.one_of(
        st.integers(1, max(1, L - 1)),
        st.integers(1, chunk).map(lambda r: L - 1 + r),
        st.tuples(st.integers(2, 3), st.integers(1, chunk - 1)).map(
            lambda nr: L - 1 + nr[0] * chunk + nr[1])))
    return m, K, L, T, draw(st.integers(0, 2**16))


@settings(max_examples=12)
@given(scoring_shapes())
@example((3, 10, 10, 9 + 2 * 48 + 5, 0))    # K == L: every weight array has one shape
@example((38, 4, 4, 3 + 3 * 13 + 7, 1))
def test_pooled_scores_and_inspect_rows_equal_one_window_passes(shape):
    m, K, L, T, seed = shape
    raw = dataset.RawSeries(values=np.random.default_rng(seed).normal(size=(T, m)))
    stats = dataset.NormStats(min=np.full(m, -4.0), max=np.full(m, 4.0))
    norm = dataset.apply_normalize(raw, stats)
    model = TranAD(ModelConfig(m=m, window_size=K, context_cap=L, init_seed=seed,
                               dropout=0.0))
    scores, attention, focus = [], [], []
    for W, C, rows in dataset.batch_groups(dataset.make_windows(norm, K, L), 1):
        scores.append(detection.score_batch(model, W, C))
        with ad.no_grad():
            res = model.forward_two_phase(W, C, decode_rows=detection.LAST_ROW)
        attention.extend([rows.start, h, *w] for h, w in enumerate(res.window_attention[0, :, -1]))
        focus.append([rows.start, *res.focus.data[0, -1]])
    assert detection.score_series(model, norm).tobytes() == np.concatenate(scores).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("c.bin", "s.json", "x.csv", "out")}
        model.save(paths["c.bin"])
        with open(paths["s.json"], "w") as f:
            json.dump({"min": stats.min.tolist(), "max": stats.max.tolist(), "eps": stats.eps}, f)
        np.savetxt(paths["x.csv"], raw.values, fmt="%.17g", delimiter=",")
        assert cli.main(["inspect", "--checkpoint", paths["c.bin"], "--stats", paths["s.json"],
                         "--data", paths["x.csv"], "--out", paths["out"]]) == 0
        for name, want in (("attention.csv", attention), ("focus.csv", focus)):
            got = np.loadtxt(os.path.join(paths["out"], name), delimiter=",", skiprows=2,
                             ndmin=2)
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


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


def unfused_linear(x, W, b):
    return Tensor(x.data @ W.data + b.data)


def unfused_embed(x, W, b):
    out = unfused_linear(x, W, b).data
    return Tensor(out + ad.position_encoding(*out.shape[-2:]))


def unfused_add_norm(x, r, weights):
    gain, bias = weights
    d = x.data + r.data
    inv_n = 1.0 / float(d.shape[-1])
    centered = d + (-(d.sum(axis=-1, keepdims=True) * inv_n))
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return Tensor(centered / np.sqrt(var + 1e-5) * gain.data + bias.data)


def unfused_feed_forward(x, weights, sigmoid=False):
    W1, b1, W2, b2 = weights
    hidden = Tensor(np.maximum(unfused_linear(x, W1, b1).data, 0.0))
    out = unfused_linear(hidden, W2, b2).data
    return Tensor(1.0 / (1.0 + np.exp(-out)) if sigmoid else out)


def unfused_attention(Q, K, V, weights, n_heads, mask=None):
    def split(x):
        B, L, d = x.shape
        return x.reshape(B, L, n_heads, d // n_heads).transpose((0, 2, 1, 3))

    Wq, bq, Wk, bk, Wv, bv, Wo, bo = weights
    qh, kh, vh = (split(unfused_linear(x, W, b).data) for x, W, b in
                  ((Q, Wq, bq), (K, Wk, bk), (V, Wv, bv)))
    logits = (qh @ np.transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(qh.shape[-1]))
    if mask is not None:
        # a causal mask built here, not the model's cached one
        logits = np.where(np.triu(np.ones(logits.shape[-2:], dtype=bool), k=1), -1e9, logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = (w @ vh).transpose((0, 2, 1, 3)).reshape(Q.shape[0], Q.shape[1], -1)
    return unfused_linear(Tensor(out), Wo, bo), w


# each fused entry point of the forward, its op-by-op stand-in, and the
# number of times a scoring pass calls it
UNFUSED = {"embed": (unfused_embed, 1), "attention": (unfused_attention, 5),
           "add_norm": (unfused_add_norm, 7), "feed_forward": (unfused_feed_forward, 4)}


@pytest.mark.parametrize("m, B, L", [(3, 16, 30), (3, 1, 4), (6, 5, 12)])
def test_score_batch_bit_identical_to_unfused_layers(monkeypatch, m, B, L):
    model = TranAD(ModelConfig(m=m, window_size=10, context_cap=30, init_seed=m,
                               dropout=0.0))
    rng = np.random.default_rng(B)
    W, C = rng.uniform(size=(B, 10, m)), rng.uniform(size=(B, L, m))
    fused = detection.score_batch(model, W, C)
    calls = dict.fromkeys(UNFUSED, 0)
    for name, (stand_in, _) in UNFUSED.items():
        def counted(*args, name=name, stand_in=stand_in, **kwargs):
            calls[name] += 1
            return stand_in(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    np.testing.assert_array_equal(fused, detection.score_batch(model, W, C))
    assert calls == {name: n for name, (_, n) in UNFUSED.items()}


def test_one_window_score_builds_at_most_20_result_tensors(monkeypatch):
    # the fixed cost of a streamed row: each op's result is a new Tensor
    model = TranAD(ModelConfig(m=3, window_size=10, context_cap=30, dropout=0.0))
    rng = np.random.default_rng(0)
    built, result = [], Tensor._result

    def counted(data, parents, backward_fn):
        built.append(np.shape(data))
        return result(data, parents, backward_fn)

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    detection.score_batch(model, rng.uniform(size=(1, 10, 3)), rng.uniform(size=(1, 30, 3)))
    assert len(built) <= 20


def test_one_capped_row_enters_at_most_88_package_frames():
    # the fixed cost of a streamed row in Python calls: window a 30-row capped
    # buffer and score its last window, as the benchmark's stream does.  Only
    # frames of this package count, so numpy's version cannot move the figure.
    model = TranAD(ModelConfig(m=3, window_size=10, context_cap=30, dropout=0.0))
    rows = dataset.TimeSeries(values=np.random.default_rng(0).uniform(size=(30, 3)),
                              stats=None)
    package = os.path.dirname(os.path.abspath(detection.__file__)) + os.sep
    entered = []

    def row():
        batch = dataset.make_windows(rows, 10, 30)
        detection.score_batch(model, batch.windows[-1:], batch.contexts[-1][None])

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.append(frame.f_code.co_name)

    row()   # the first row of a shape builds its shared constants
    sys.setprofile(profile)
    try:
        row()
    finally:
        sys.setprofile(None)
    assert len(entered) <= 88, sorted(entered)
