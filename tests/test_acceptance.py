"""Acceptance gate: one test per criterion, each echoing a pass/fail line.

Criterion 8 is a soft direction check: its numbers are reported, not
asserted."""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from tranad import cli, dataset, metrics, pot, training
from tranad.autodiff import ParamStore, Tensor
from tranad.model import ModelConfig, TranAD

from conftest import record_criterion, run_benchmark


# -- 1: finite-difference gradient suite --------------------------------------


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    model = TranAD(ModelConfig(m=2, window_size=4, context_cap=8,
                               init_seed=2, dropout=0.0))
    rng = np.random.default_rng(1)
    W = rng.uniform(size=(2, 4, 2))
    C = rng.uniform(size=(2, 8, 2))

    def losses():
        out = model.forward_two_phase(W, C)
        Wt = Tensor(W)
        phase1 = training.loss_phase1(out.O1, out.O2, Wt)
        adv = training.loss_adversarial(out.O2_hat, Wt)
        return training.loss_combined(phase1, adv, n=1)

    L1, L2 = losses()
    g1, g2 = L1.backward(), L2.backward()

    h = 1e-5
    worst = 0.0
    n_checked = 0
    for path, p in model.params.items():
        flat = p.data.ravel()
        a1 = g1[p].ravel()
        a2 = g2[p].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi1, hi2 = losses()
            flat[i] = orig - h
            lo1, lo2 = losses()
            flat[i] = orig
            for an, hi, lo in ((a1[i], hi1, lo1), (a2[i], hi2, lo2)):
                fd = (float(hi.data) - float(lo.data)) / (2 * h)
                rel = abs(an - fd) / max(1e-6, abs(an), abs(fd))
                worst = max(worst, rel)
                n_checked += 1
    secs = time.perf_counter() - t0
    ok = worst < 1e-4 and secs < 30
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 1: gradient suite — "
        f"{n_checked} checks, worst rel err {worst:.2e} (< 1e-4), "
        f"{secs:.1f}s (< 30s)")
    assert worst < 1e-4
    assert secs < 30


# -- 2: causality under future-row perturbation --------------------------------


def test_criterion_02_causality():
    model = TranAD(ModelConfig(m=3, window_size=6, context_cap=12,
                               init_seed=4, dropout=0.0))
    rng = np.random.default_rng(5)
    W = rng.uniform(size=(1, 6, 3))
    C = rng.uniform(size=(1, 12, 3))
    F = Tensor(np.zeros((1, 6, 3)))
    ctx = model.encode_context(Tensor(C), F)

    def encode(window):
        # the window's self-attention block, then its cross-attention
        return model.attend_context(model.encode_window(Tensor(window))[0], ctx)

    base = encode(W)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(0, 5))
        pert = W.copy()
        pert[0, t + 1:] += rng.normal(size=pert[0, t + 1:].shape)
        out = encode(pert)
        worst = max(worst, float(np.abs(out.data[0, :t + 1]
                                        - base.data[0, :t + 1]).max()))
    ok = worst <= 1e-12
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 2: causality — max deviation "
        f"of unmasked rows {worst:.2e} (<= 1e-12) over 100 perturbations")
    assert worst <= 1e-12


# -- 3: loss schedule properties -----------------------------------------------


def test_criterion_03_loss_schedule():
    sums_exact = all(
        training.schedule_weight(n) + (1 - training.schedule_weight(n))
        == 1.0 for n in range(1, 100))
    ws = [training.schedule_weight(n) for n in range(1, 100)]
    decreasing = all(a > b for a, b in zip(ws, ws[1:]))
    O = Tensor(np.random.default_rng(0).uniform(size=(1, 3, 2)))
    W = Tensor(np.zeros((1, 3, 2)))
    # with zero reconstruction terms, L1 and L2 are the adversarial terms alone
    zero = Tensor(np.zeros(()))
    a1, a2 = training.loss_combined((zero, zero), training.loss_adversarial(O, W), 1)
    negation = float(a1.data) == -float(a2.data) and float(a1.data) > 0
    ok = sums_exact and decreasing and negation
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 3: loss schedule — weights "
        f"sum to 1 exactly: {sums_exact}, strictly decreasing: {decreasing}, "
        f"adversarial terms exact negations: {negation}")
    assert ok


# -- 4: MAML oracle -------------------------------------------------------------


def test_criterion_04_maml_oracle():
    store = ParamStore()
    store.add("theta", np.array([1.0]))
    training.meta_update(store, lambda: store["theta"].data.copy(),
                         alpha=0.01, beta=0.02)
    theta = float(store["theta"].data[0])
    err = abs(theta - 0.9802)
    ok = err <= 1e-12
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 4: MAML oracle — final theta "
        f"{theta!r}, |error| {err:.2e} (<= 1e-12)")
    assert ok


# -- 5: POT oracle --------------------------------------------------------------


def test_criterion_05_pot_oracle():
    t0 = time.perf_counter()
    # GPD(gamma=0.3, sigma=2) parameter recovery on 10k samples
    u = np.random.default_rng(11).uniform(size=10000)
    y = 2.0 / 0.3 * ((1 - u) ** -0.3 - 1)
    gamma, sigma = pot.fit_gpd(y)
    gpd_ok = abs(gamma - 0.3) / 0.3 <= 0.10 and abs(sigma - 2.0) / 2.0 <= 0.10

    # z_q on exponential scores vs the Monte-Carlo quantile of 1e6 samples
    scores = np.random.default_rng(12).exponential(1.0, size=10 ** 6)
    dim = pot.pot_threshold(scores, pot.PotConfig(risk=1e-3, low_quantile=0.01))
    mc = float(np.quantile(scores, 1 - 1e-3))
    var_rel = abs(dim.threshold - mc) / mc
    var_ok = var_rel <= 0.05

    # continuity through gamma = 0
    u0, s0, n, n_exc, q = 1.0, 2.0, 10000, 100, 1e-3
    limit = u0 - s0 * math.log(q * n / n_exc)
    cont_ok = all(
        abs(u0 + (s0 / g) * ((q * n / n_exc) ** -g - 1.0) - limit) / abs(limit)
        <= 1e-6 for g in (1e-8, -1e-8))

    secs = time.perf_counter() - t0
    ok = gpd_ok and var_ok and cont_ok and secs < 60
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 5: POT oracle — GPD fit "
        f"({gamma:.3f}, {sigma:.3f}) vs (0.3, 2.0) within 10%: {gpd_ok}; "
        f"z_q vs MC quantile rel err {var_rel:.4f} (<= 0.05); continuity: "
        f"{cont_ok}; {secs:.1f}s (< 60s)")
    assert ok


# -- 6: metric oracles ----------------------------------------------------------


def _brute_prf1(pred, truth):
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def _brute_auc(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    total = sum(1.0 if p > n else 0.5 if p == n else 0.0
                for p in pos for n in neg)
    return total / (len(pos) * len(neg))


def _brute_hitrate(rankings, truth, pct):
    vals = []
    for t in range(truth.shape[0]):
        td = [d for d in range(truth.shape[1]) if truth[t, d]]
        if not td:
            continue
        top = rankings[t][:math.floor(len(td) * pct / 100)]
        vals.append(len(set(td) & set(top)) / len(td))
    return sum(vals) / len(vals)


def _brute_ndcg(rankings, truth, pct):
    vals = []
    for t in range(truth.shape[0]):
        td = set(d for d in range(truth.shape[1]) if truth[t, d])
        if not td:
            continue
        k = math.floor(len(td) * pct / 100)
        dcg = sum(1 / math.log2(i + 2)
                  for i, d in enumerate(rankings[t][:k]) if d in td)
        idcg = sum(1 / math.log2(i + 2) for i in range(min(len(td), k)))
        vals.append(dcg / idcg if idcg else 0.0)
    return sum(vals) / len(vals)


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(200):
        n, m = 30, 4
        truth = rng.integers(0, 2, size=n)
        truth[:2] = [0, 1]
        pred = rng.integers(0, 2, size=n)
        scores = np.round(rng.uniform(size=n), 1)    # ties likely
        dim_truth = rng.integers(0, 2, size=(n, m))
        dim_truth[0] = [1, 0, 1, 0]
        rankings = [list(map(int, rng.permutation(m))) for _ in range(n)]

        for got, want in zip(metrics.prf1(pred, truth),
                             _brute_prf1(pred, truth)):
            worst = max(worst, abs(got - want))
        worst = max(worst, abs(metrics.roc_auc(scores, truth)
                               - _brute_auc(scores, truth)))
        for pct in (100, 150):
            worst = max(worst, abs(metrics.hitrate_at(rankings, dim_truth, pct)
                                   - _brute_hitrate(rankings, dim_truth, pct)))
            worst = max(worst, abs(metrics.ndcg_at(rankings, dim_truth, pct)
                                   - _brute_ndcg(rankings, dim_truth, pct)))

    # worked example: two true dimensions -> 2 candidates at 100%, 3 at 150%
    truth = np.array([[1, 1, 0, 0, 0]])
    worked = (metrics.hitrate_at([[0, 4, 1, 2, 3]], truth, 100) == 0.5
              and metrics.hitrate_at([[0, 4, 1, 2, 3]], truth, 150) == 1.0)
    ok = worst <= 1e-12 and worked
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 6: metric oracles — worst "
        f"brute-force deviation {worst:.2e} (<= 1e-12) over 200 instances; "
        f"worked candidate-count example: {worked}")
    assert ok


# -- 7: synthetic end-to-end ----------------------------------------------------


def test_criterion_07_end_to_end(bench_full):
    report, scores, secs = bench_full
    rerun_report, rerun_scores, _ = run_benchmark()
    deterministic = (np.array_equal(scores, rerun_scores)
                     and report.f1 == rerun_report.f1)
    ok = (report.f1 >= 0.90 and report.auc >= 0.95 and secs < 120
          and deterministic)
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 7: end-to-end — "
        f"F1 {report.f1:.4f} (>= 0.90), AUC {report.auc:.4f} (>= 0.95), "
        f"{secs:.0f}s (< 120s), rerun deterministic: {deterministic}")
    assert report.f1 >= 0.90
    assert report.auc >= 0.95
    assert secs < 120
    assert deterministic


# -- 8: ablation direction (soft, reported only) --------------------------------


def test_criterion_08_ablation_direction(bench_full):
    full, _, _ = bench_full
    variants = {
        "no-self-condition": run_benchmark(use_self_condition=False),
        "no-adversarial": run_benchmark(use_adversarial=False),
        "no-maml (20% data)": run_benchmark(use_maml=False, train_fraction=0.2),
    }
    parts = []
    for name, (rep, _, _) in variants.items():
        direction = "ok" if rep.f1 <= full.f1 + 0.02 else "violated"
        parts.append(f"{name} F1 {rep.f1:.4f} ({direction})")
    record_criterion(
        f"[PASS] criterion 8 (soft, reported not asserted): full F1 "
        f"{full.f1:.4f}; " + "; ".join(parts))


# -- 9: limited-data run --------------------------------------------------------


def test_criterion_09_limited_data(bench_full):
    full, _, _ = bench_full
    limited, _, _ = run_benchmark(train_fraction=0.2)
    gap = abs(full.f1 - limited.f1)
    ok = gap <= 0.15
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 9: 20% data with MAML — "
        f"F1 {limited.f1:.4f} vs full {full.f1:.4f}, gap {gap:.4f} (<= 0.15)")
    assert ok


# -- 10: byte-identical artifacts ----------------------------------------------


def test_criterion_10_determinism(tmp_path):
    synth_cfg = {"synth": {"T": 200, "m": 2, "seed": 31, "noise_sigma": 0.2}}
    run_cfg = {"window_size": 4, "context_cap": 8, "dropout": 0.1,
               "train": {"epochs": 1, "batch_size": 32},
               "pot": {"risk": 1e-4, "low_quantile": 0.05}}
    scfg = tmp_path / "synth.json"
    scfg.write_text(json.dumps(synth_cfg))
    rcfg = tmp_path / "run.json"
    rcfg.write_text(json.dumps(run_cfg))

    def run_all(tag):
        d = tmp_path / tag
        assert cli.main(["synth", "--config", str(scfg), "--out", str(d)]) == 0
        assert cli.main(["train", "--config", str(rcfg), "--seed", "5",
                         "--quiet", "--data", str(d / "values.csv"),
                         "--out", str(d)]) == 0
        assert cli.main(["detect", "--config", str(rcfg),
                         "--data", str(d / "values.csv"),
                         "--test", str(d / "values.csv"),
                         "--checkpoint", str(d / "checkpoint.bin"),
                         "--stats", str(d / "stats.json"),
                         "--out", str(d)]) == 0
        assert cli.main(["eval", "--report", str(d / "detection.csv"),
                         "--labels", str(d / "labels.csv"),
                         "--out", str(d)]) == 0
        assert cli.main(["inspect", "--checkpoint", str(d / "checkpoint.bin"),
                         "--stats", str(d / "stats.json"),
                         "--data", str(d / "values.csv"),
                         "--out", str(d)]) == 0
        return d

    a = run_all("a")
    b = run_all("b")
    artifacts = ["values.csv", "labels.csv", "synth_spec.json",
                 "checkpoint.bin", "stats.json", "train_report.json",
                 "detection.csv", "eval.json", "eval.csv",
                 "attention.csv", "focus.csv"]
    mismatched = [f for f in artifacts
                  if not filecmp.cmp(a / f, b / f, shallow=False)]
    ok = not mismatched
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] criterion 10: determinism — "
        f"{len(artifacts)} artifacts byte-compared across reruns"
        + (f"; mismatched: {mismatched}" if mismatched else ", all identical"))
    assert ok
