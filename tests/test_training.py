"""Losses, the evolving schedule, gradient routing, meta-learning and the
training loop."""

import tracemalloc
import weakref

import numpy as np
import pytest

from tranad import autodiff as ad, dataset, training
from tranad.autodiff import AdamW, ParamStore, Tensor
from tranad.errors import EmptyInput, NonFiniteLoss, ShapeMismatch
from tranad.model import ModelConfig, TranAD


def tiny_setup(T=60, m=2, K=4, cap=8, seed=0):
    raw = dataset.synth_generate(dataset.SynthSpec(T=T, m=m, seed=seed,
                                                   noise_sigma=0.1))
    norm, _ = dataset.fit_normalize(raw)
    batch = dataset.make_windows(norm, K, cap)
    train_b, val_b = dataset.split_train_val(batch, 0.8)
    model = TranAD(ModelConfig(m=m, window_size=K, context_cap=cap,
                               init_seed=seed, dropout=0.0))
    return model, train_b, val_b


class TestLosses:
    def test_perfect_reconstruction_zero(self):
        W = Tensor(np.random.default_rng(0).uniform(size=(2, 3, 2)))
        l1, l2 = training.loss_phase1(W, W, W)
        assert float(l1.data) == 0.0 and float(l2.data) == 0.0

    def test_single_entry_norm(self):
        W = Tensor(np.zeros((1, 2, 2)))
        O = Tensor(np.array([[[3.0, 0.0], [0.0, 0.0]]]))
        l1, _ = training.loss_phase1(O, W, W)
        assert float(l1.data) == pytest.approx(3.0)

    def test_hand_frobenius(self):
        W = Tensor(np.zeros((1, 2, 2)))
        O = Tensor(np.array([[[1.0, 2.0], [2.0, 0.0]]]))
        l1, _ = training.loss_phase1(O, W, W)
        assert float(l1.data) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            training.loss_phase1(Tensor(np.zeros((1, 2, 2))),
                                 Tensor(np.zeros((1, 2, 2))),
                                 Tensor(np.zeros((1, 3, 2))))

    def test_adversarial_negation(self):
        # L1 adds the deviation d and L2 subtracts it
        W = Tensor(np.zeros((1, 2, 2)))
        O = Tensor(np.full((1, 2, 2), 1.0))
        d = training.loss_adversarial(O, W)
        assert float(d.data) == pytest.approx(2.0)
        zero = Tensor(np.zeros(()))
        a1, a2 = training.loss_combined((zero, zero), d, n=1)
        assert float(a1.data) == float(d.data) * (1 - training.schedule_weight(1))
        assert float(a2.data) == -float(a1.data)


class TestSchedule:
    def test_weights_sum_to_one_exactly(self):
        for n in range(1, 40):
            w = training.schedule_weight(n)
            assert w + (1.0 - w) == 1.0

    def test_strictly_decreasing(self):
        ws = [training.schedule_weight(n) for n in range(1, 60)]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_known_value(self):
        assert training.EPSILON == 1.05
        assert training.schedule_weight(1) == pytest.approx(1 / 1.05)

    def test_limit_towards_adversarial(self):
        W = Tensor(np.zeros((1, 1, 1)))
        p = (Tensor(np.array(1.0)), Tensor(np.array(1.0)))
        L1, _ = training.loss_combined(p, Tensor(np.array(5.0)), n=500)
        assert float(L1.data) == pytest.approx(5.0, rel=1e-6)

    def test_adversarial_toggle_off(self):
        p = (Tensor(np.array(1.0)), Tensor(np.array(2.0)))
        L1, L2 = training.loss_combined(p, Tensor(np.array(5.0)), n=3, use_adversarial=False)
        assert float(L1.data) == 1.0 and float(L2.data) == 2.0

    def test_epsilon_must_exceed_one(self):
        # so that the schedule decays from reconstruction towards the adversarial terms
        assert training.EPSILON > 1 and training.schedule_weight(1) < 1


def assert_routing_matches_fresh_graphs(cfg):
    model, train_b, _ = tiny_setup()
    groups = dataset.batch_groups(train_b, 16)
    W, C, _ = groups[-1]

    L1, L2 = training._batch_losses(model, W, C, cfg, n=1, rng=None)
    training.partitioned_grads(model, L1, L2)
    routed = model.params.views(model.params.grad)

    # oracle: evaluate each loss on its own fresh graph
    L1f, _ = training._batch_losses(model, W, C, cfg, n=1, rng=None)
    g1 = L1f.backward()
    _, L2f = training._batch_losses(model, W, C, cfg, n=1, rng=None)
    g2 = L2f.backward()
    for path, p in model.params.items():
        if path.startswith("decoder1."):
            expected = g1[p]
        elif path.startswith("decoder2."):
            expected = g2[p]
        else:
            expected = g1[p] + g2[p]
        np.testing.assert_allclose(routed[path], expected, atol=1e-12,
                                   err_msg=path)


def count_op_nodes(*roots):
    """Op nodes (nodes with a backward rule) reachable from `roots`."""
    seen, stack, ops = set(), list(roots), 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._backward is not None
            stack.extend(node._parents)
    return ops


class TestGradientRouting:
    def test_partition_matches_fresh_graphs(self):
        assert_routing_matches_fresh_graphs(training.TrainConfig(seed=0, use_maml=False))

    @pytest.mark.parametrize("toggle", ["use_adversarial", "use_self_condition"])
    def test_partition_matches_fresh_graphs_toggled_off(self, toggle):
        assert_routing_matches_fresh_graphs(
            training.TrainConfig(seed=0, use_maml=False, **{toggle: False}))

    def test_step_tape_has_at_most_25_op_nodes(self):
        # the benchmark's training shape: B=16, K=10, L=30, m=3; every op is a
        # block (5 attention, 5 feed-forward, 7 residual norms, the window
        # embedding, the phase-2 context input, the focus, 3 loss terms, and
        # L1 and L2), and one window self-attention block per pass
        model = TranAD(ModelConfig(m=3, window_size=10, context_cap=30, dropout=0.0))
        rng = np.random.default_rng(0)
        W, C = rng.uniform(size=(16, 10, 3)), rng.uniform(size=(16, 30, 3))
        L1, L2 = training._batch_losses(model, W, C, training.TrainConfig(), n=1, rng=rng)
        assert count_op_nodes(L1, L2) <= 25

    def test_shared_walk_stops_at_the_adversarial_term(self, monkeypatch):
        # L1 and L2 hand d exactly opposite cotangents, so the shared walk
        # runs no phase-2 rule; the decoder walks do run decoder 2's
        model, train_b, _ = tiny_setup()
        W, C, _ = dataset.batch_groups(train_b, 16)[0]
        L1, L2 = training._batch_losses(model, W, C, training.TrainConfig(), n=1, rng=None)
        d = L1._parents[1]
        O2_hat = d._parents[0]     # phase 2's decoder-2 feed-forward node
        walks, calls, rule, walk = [], [], O2_hat._backward, ad.reverse_walk

        def spy(g, need):
            calls.append(walks[-1])
            return rule(g, need)

        def tagged(seeds, order, masks, bit):
            walks.append(bit)
            return walk(seeds, order, masks, bit)

        O2_hat._backward = spy
        monkeypatch.setattr(ad, "reverse_walk", tagged)
        training.partitioned_grads(model, L1, L2)
        assert walks == [training.SHARED, training.D1, training.D2]
        assert calls == [training.D1, training.D2]

    def test_batch_groups_share_context_length(self):
        _, train_b, _ = tiny_setup(T=30, cap=8)
        stop = 0
        for W, C, rows in dataset.batch_groups(train_b, 16):
            assert C.ndim == 3 and W.shape[0] == C.shape[0]
            # the contexts are a read-only view of the series, not a stacked copy
            assert np.shares_memory(C, train_b.contexts.rows) and not C.flags.writeable
            assert rows.start == stop       # the slices tile the batch in order
            np.testing.assert_array_equal(W, train_b.windows[rows])
            stop = rows.stop
        assert stop == len(train_b)


class TestMeta:
    def test_quadratic_oracle(self):
        store = ParamStore()
        store.add("theta", np.array([1.0]))

        def grad_fn():
            return store["theta"].data.copy()   # grad of 0.5 theta^2

        training.meta_update(store, grad_fn, alpha=0.01, beta=0.02)
        assert store["theta"].data[0] == pytest.approx(0.9802, abs=1e-12)

    def test_zero_beta_is_noop(self, monkeypatch):
        model, train_b, _ = tiny_setup()
        group = dataset.batch_groups(train_b, 8)[0]
        monkeypatch.setattr(training, "META_LR", 0.0)
        cfg = training.TrainConfig(seed=0)
        before = model.params.snapshot()
        training.maml_step(model, group, cfg, n=1)
        after = model.params.snapshot()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_toggle_off_is_noop(self):
        model, train_b, _ = tiny_setup()
        group = dataset.batch_groups(train_b, 8)[0]
        cfg = training.TrainConfig(seed=0, use_maml=False)
        before = model.params.snapshot()
        training.maml_step(model, group, cfg, n=1)
        for k, v in model.params.snapshot().items():
            np.testing.assert_array_equal(before[k], v)


class TestScheduleIndex:
    def test_fit_trains_at_the_epoch_and_validates_at_the_next(self, monkeypatch):
        # every loss_combined call of a 2-epoch fit, tagged with the step that made it
        model, train_b, val_b = tiny_setup()
        calls, steps = [], []
        loss_combined = training.loss_combined

        def record(phase1, adv, n, use_adversarial=True):
            calls.append((steps[-1], n))
            return loss_combined(phase1, adv, n, use_adversarial)

        def tagged(name, fn):
            def run(*args, **kwargs):
                steps.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    steps.pop()
            return run

        monkeypatch.setattr(training, "loss_combined", record)
        for name in ("train_epoch", "maml_step", "validation_score"):
            monkeypatch.setattr(training, name, tagged(name, getattr(training, name)))
        cfg = training.TrainConfig(epochs=2, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert len(report.epochs) == 2 and cfg.use_maml
        n_train = len(dataset.batch_groups(train_b, 16))
        n_val = len(dataset.batch_groups(val_b, 16))
        expected = []
        for epoch in (1, 2):
            # the meta step takes two gradients, one at theta and one at theta'
            expected += ([("train_epoch", epoch)] * n_train + [("maml_step", epoch)] * 2
                         + [("validation_score", epoch + 1)] * n_val)
        assert calls == expected


class TestFit:
    def test_single_epoch_report(self):
        model, train_b, val_b = tiny_setup()
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert len(report.epochs) == 1
        assert report.stop_reason == "completed all epochs"

    def test_early_stop_after_patience_epochs(self):
        # at lr 0 the weights never move.  With the adversarial term on, the
        # validation score would still fall by a factor 1.05 an epoch as the
        # schedule weight decays; without it the score holds still, so epoch
        # 1 stays the best and PATIENCE epochs without improvement end the run
        model, train_b, val_b = tiny_setup(T=120, m=2, K=5, cap=10, seed=3)
        cfg = training.TrainConfig(epochs=6, batch_size=16, lr=0.0, seed=0, use_maml=False,
                                   use_adversarial=False)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert training.PATIENCE == 3 and len(report.epochs) == 4
        assert report.stop_reason == "early stop: no improvement for 3 epochs"
        assert report.best_epoch == 1
        assert len({e.val_score for e in report.epochs}) == 1

    def test_empty_training_batch_is_empty_series(self):
        model, train_b, val_b = tiny_setup()
        c = train_b.contexts
        empty = dataset.WindowBatch(train_b.windows[:0], dataset.Contexts(c.rows, range(0), c.cap))
        with pytest.raises(EmptyInput, match="training batch is empty"):
            training.fit(model, empty, val_b, training.TrainConfig(seed=0), progress=False)

    def test_loss_finite_nonnegative(self):
        model, train_b, val_b = tiny_setup()
        cfg = training.TrainConfig(epochs=2, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        for rec in report.epochs:
            assert np.isfinite(rec.mean_l1) and rec.mean_l1 >= 0

    def test_null_learning_invariance(self):
        model, train_b, val_b = tiny_setup()
        before = model.params.snapshot()
        # AdamW decays a weight by lr * weight_decay, which lr 0 makes zero
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=0, lr=0.0, use_maml=False)
        training.fit(model, train_b, val_b, cfg, progress=False)
        for k, v in model.params.snapshot().items():
            np.testing.assert_array_equal(before[k], v)

    def test_training_progress(self):
        model, train_b, val_b = tiny_setup(T=300)
        cfg = training.TrainConfig(epochs=3, batch_size=16, seed=0, lr=0.005,
                                   lr_decay_every_epochs=100)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert report.epochs[2].mean_l1 < report.epochs[0].mean_l1

    def test_early_stop_restores_best(self, monkeypatch):
        model, train_b, val_b = tiny_setup(T=120)
        monkeypatch.setattr(training, "PATIENCE", 1)
        cfg = training.TrainConfig(epochs=30, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        if "early stop" in report.stop_reason:
            assert len(report.epochs) < 30
            best = min(report.epochs, key=lambda r: r.val_score)
            assert report.best_epoch == best.epoch

    def test_deterministic_reports(self):
        runs = []
        for _ in range(2):
            model, train_b, val_b = tiny_setup()
            cfg = training.TrainConfig(epochs=2, batch_size=16, seed=3)
            runs.append(training.fit(model, train_b, val_b, cfg, progress=False))
        a, b = runs
        for ra, rb in zip(a.epochs, b.epochs):
            assert (ra.mean_l1, ra.mean_l2, ra.val_score) == \
                (rb.mean_l1, rb.mean_l2, rb.val_score)

    def test_non_finite_loss_diagnostic(self):
        model, train_b, val_b = tiny_setup()
        model.params["decoder1.ff.l1.W"].data[:] = np.nan
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(NonFiniteLoss) as exc:
            training.fit(model, train_b, val_b, cfg, progress=False)
        assert exc.value.epoch == 1

    def test_lr_decays_every_second_epoch(self):
        model, train_b, val_b = tiny_setup()
        cfg = training.TrainConfig(epochs=3, batch_size=16, seed=0, lr=0.01,
                                   lr_decay_every_epochs=2)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert [r.lr for r in report.epochs] == [0.01, 0.005, 0.005]

    def test_report_serialization_drops_timing(self):
        model, train_b, val_b = tiny_setup()
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert "seconds" not in report.to_dict()["epochs"][0]
        assert report.epochs[0].seconds > 0


class TestStepMemory:
    """A training step holds one graph, and its attention weights reuse the
    buffers of the step before (`autodiff.WeightArena`)."""

    @staticmethod
    def wide_setup(T, K, cap, dropout):
        values = np.random.default_rng(0).uniform(size=(T, 38))
        norm, _ = dataset.fit_normalize(dataset.RawSeries(values=values))
        train_b, _ = dataset.split_train_val(dataset.make_windows(norm, K, cap))
        model = TranAD(ModelConfig(m=38, window_size=K, context_cap=cap, dropout=dropout))
        cfg = training.TrainConfig(batch_size=16, lr=0.02)
        return model, dataset.batch_groups(train_b, cfg.batch_size), cfg

    def test_epoch_equals_the_same_steps_outside_the_arena(self):
        # 7 short-context single-window steps, then 16, 16 and a remainder of 9
        model, groups, cfg = self.wide_setup(T=60, K=4, cap=8, dropout=0.1)
        assert sorted({len(W) for W, _, _ in groups}) == [1, 9, 16]
        by_hand = TranAD(model.config)
        opt, rng = AdamW(by_hand.params, lr=cfg.lr), np.random.default_rng(5)
        for W, C, _ in groups:
            training.partitioned_grads(by_hand, *training._batch_losses(
                by_hand, W, C, cfg, 1, rng))
            opt.step()
        training.train_epoch(model, groups, cfg, AdamW(model.params, lr=cfg.lr), 1,
                             np.random.default_rng(5))
        assert np.array_equal(model.params.flat, by_hand.params.flat)

    def test_previous_graph_is_dead_when_the_next_step_starts(self, monkeypatch):
        model, train_b, _ = tiny_setup(T=120)
        cfg = training.TrainConfig(batch_size=16, seed=0)
        batch_losses, probes = training._batch_losses, []

        def probed(*args):
            # Tensor has no __weakref__ slot; a loss's backward closure lives
            # exactly as long as the loss
            assert all(probe() is None for probe in probes), "a step's graph outlived it"
            L1, L2 = batch_losses(*args)
            probes.extend((weakref.ref(L1._backward), weakref.ref(L2._backward)))
            return L1, L2

        monkeypatch.setattr(training, "_batch_losses", probed)
        groups = dataset.batch_groups(train_b, cfg.batch_size)
        training.train_epoch(model, groups, cfg, AdamW(model.params), 1, np.random.default_rng(0))
        assert len(probes) == 2 * len(groups)

    def test_epoch_peak_holds_one_step_graph(self):
        # the `wide-m38` shape: 800 x 38, K=10, L=30, B=16; two graphs alive at
        # once peaked at 45.9 MiB
        model, groups, cfg = self.wide_setup(T=800, K=10, cap=30, dropout=0.0)
        opt = AdamW(model.params, lr=cfg.lr)
        tracemalloc.start()
        try:
            training.train_epoch(model, groups, cfg, opt, 1, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20, f"train_epoch peaked at {peak / 2 ** 20:.1f} MiB"

    def test_non_finite_loss_leaves_no_arena(self, monkeypatch):
        model, train_b, _ = tiny_setup(T=120)
        cfg = training.TrainConfig(batch_size=16, seed=0)
        groups = dataset.batch_groups(train_b, cfg.batch_size)
        forward, seen, buffers = model.forward_two_phase, [], []

        def poisoned(W, C, **kwargs):
            seen.append(ad._ARENA.get())
            if len(seen) == len(groups) - 2:   # a full batch, after several steps
                buffers.extend(ad._ARENA.get().values())
                model.params["decoder1.ff.l1.W"].data[:] = np.nan
            return forward(W, C, **kwargs)

        monkeypatch.setattr(model, "forward_two_phase", poisoned)
        with pytest.raises(NonFiniteLoss) as exc:
            training.train_epoch(model, groups, cfg, AdamW(model.params), 1,
                                 np.random.default_rng(0))
        assert exc.value.batch == len(groups) - 3
        assert seen[0] is not None and all(a is seen[0] for a in seen)
        assert ad._ARENA.get() is None
        W, C, _ = groups[-1]
        first = forward(W, C).window_attention
        assert buffers and not any(np.shares_memory(first, buf) for buf in buffers)
        assert not np.shares_memory(first, forward(W, C).window_attention)

    def test_a_failed_forward_closes_the_arena(self, monkeypatch):
        model, train_b, _ = tiny_setup(T=120)
        groups = dataset.batch_groups(train_b, 16)

        def failing(W, C, **kwargs):
            raise ShapeMismatch("forced")

        monkeypatch.setattr(model, "forward_two_phase", failing)
        with pytest.raises(ShapeMismatch):
            training.train_epoch(model, groups, training.TrainConfig(batch_size=16),
                                 AdamW(model.params), 1, np.random.default_rng(0))
        assert ad._ARENA.get() is None

    def test_a_nested_arena_restores_the_outer_one(self):
        outer, inner = ad.WeightArena(), ad.WeightArena()
        with outer:
            with inner:
                assert ad._ARENA.get() is inner
            assert ad._ARENA.get() is outer
        assert ad._ARENA.get() is None

    def test_weights_outside_the_arena_are_new_arrays(self):
        model, train_b, _ = tiny_setup()
        (W1, C1, _), (W2, C2, _) = dataset.batch_groups(train_b, 16)[-3:-1]
        assert W1.shape == W2.shape and C1.shape == C2.shape
        first = model.forward_two_phase(W1, C1).window_attention
        kept = first.copy()
        second = model.forward_two_phase(W2, C2).window_attention
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)

    def test_a_no_grad_pass_writes_its_weights_into_the_arena(self):
        model, train_b, _ = tiny_setup()
        W, C, _ = dataset.batch_groups(train_b, 16)[-1]
        arena = ad.WeightArena()
        with arena, ad.no_grad():
            inside = model.forward_two_phase(W, C).window_attention
        # two context encoders, the window's self-attention and two cross-attentions
        assert arena.pos == len(arena) == 5
        assert any(inside is buf for buf in arena.values())
        with ad.no_grad():
            outside = model.forward_two_phase(W, C).window_attention
        assert not np.shares_memory(inside, outside) and np.array_equal(inside, outside)

    def test_arena_is_open_only_inside_train_epoch(self, monkeypatch):
        model, train_b, val_b = tiny_setup()
        forward, calls = model.forward_two_phase, []

        def watched(*args, **kwargs):
            calls.append((ad._ARENA.get() is not None, ad._GRAD_ENABLED))
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward_two_phase", watched)
        training.fit(model, train_b, val_b, training.TrainConfig(epochs=1, batch_size=16),
                     progress=False)
        steps = len(dataset.batch_groups(train_b, 16))
        # the epoch's steps record in the arena; MAML's two forwards record
        # outside it, and validation records nothing
        assert calls[:steps] == [(True, True)] * steps
        assert calls[steps:steps + 2] == [(False, True)] * 2
        assert calls[steps + 2:] and set(calls[steps + 2:]) == {(False, False)}


# -- AdamW and the meta step one parameter at a time, before the flat buffers --


class DictAdamW:
    """AdamW with {path: array} moments, updating one parameter at a time."""

    def __init__(self, store, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-5):
        self.store, self.lr, self.eps = store, lr, eps
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in store.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in store.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        grads = self.store.views(self.store.grad)
        for k, p in self.store.items():
            g = grads[k]
            p.data -= self.lr * self.weight_decay * p.data
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / (1 - self.beta1 ** t)
            vhat = self.v[k] / (1 - self.beta2 ** t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def dict_meta_update(store, grad_fn, alpha, beta):
    theta = store.snapshot()
    g = store.views(grad_fn())
    store.load({k: theta[k] - alpha * g[k] for k in theta})
    g_adapted = store.views(grad_fn())
    store.load({k: theta[k] - beta * g_adapted[k] for k in theta})


def assert_params_view_flat(store):
    for path, p in store.items():
        assert np.shares_memory(p.data, store.flat), path


class TestFlatBuffers:
    def _fit_bytes(self):
        model, train_b, val_b = tiny_setup(T=120)
        cfg = training.TrainConfig(epochs=2, batch_size=16, seed=0)
        report = training.fit(model, train_b, val_b, cfg, progress=False)
        assert report.epochs[-1].lr < cfg.lr      # the learning rate has decayed
        assert_params_view_flat(model.params)
        snap = model.params.snapshot()
        return b"".join(snap[k].tobytes() for k in sorted(snap))

    def test_fit_matches_per_parameter_reference(self, monkeypatch):
        flat = self._fit_bytes()
        monkeypatch.setattr(training, "AdamW", DictAdamW)
        monkeypatch.setattr(training, "meta_update", dict_meta_update)
        assert self._fit_bytes() == flat

    def test_maml_step_writes_into_the_views(self):
        model, train_b, _ = tiny_setup()
        before = model.params.flat.copy()
        training.maml_step(model, dataset.batch_groups(train_b, 8)[0],
                           training.TrainConfig(seed=0), n=1)
        assert not np.array_equal(before, model.params.flat)
        assert_params_view_flat(model.params)

    def test_unreached_parameters_get_zero_gradients(self):
        model, train_b, _ = tiny_setup()
        W, C, _ = dataset.batch_groups(train_b, 16)[-1]
        for d in ("decoder1", "decoder2"):
            model.params[f"{d}.ff.l1.b"].data[:] = -1e3    # every hidden unit off
        model.params.grad[:] = 7.0                           # left by an earlier step
        training.partitioned_grads(model, *training._batch_losses(
            model, W, C, training.TrainConfig(seed=0), 1, None))
        grads = model.params.views(model.params.grad)
        # the decoders' cotangents into the window encoding sum to exactly
        # zero, so the shared walk stops there
        shared = [k for k in grads if not k.startswith("decoder")]
        assert shared and not any(grads[k].any() for k in shared)
