"""Peaks-over-threshold fitting: quantiles, GPD maximum likelihood and the
value-at-risk extrapolation."""

import dataclasses
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tranad import pot
from tranad.errors import EmptyInput, InvalidConfig


def gpd_sample(gamma, sigma, n, seed):
    """Inverse-CDF sampling of the generalized Pareto distribution."""
    u = np.random.default_rng(seed).uniform(size=n)
    if gamma == 0:
        return -sigma * np.log1p(-u)
    return sigma / gamma * ((1 - u) ** -gamma - 1)


def assert_at_least_the_boundary(y):
    """fit_gpd(y) is finite and at least as likely as the exponential tail (0, mean)."""
    gamma, sigma = pot.fit_gpd(y)
    assert np.isfinite([gamma, sigma]).all()
    assert pot.gpd_log_likelihood(y, gamma, sigma) >= pot.gpd_log_likelihood(y, 0.0, y.mean())


class TestInitialThreshold:
    def test_interpolated_order_statistic(self):
        scores = np.arange(1.0, 101.0)
        u = pot.initial_threshold(scores, 0.01)
        assert u == pytest.approx(np.quantile(scores, 0.99))
        assert u == pytest.approx(99.01)

    def test_constant(self):
        assert pot.initial_threshold(np.full(10, 4.2), 0.01) == 4.2

    def test_median(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert pot.initial_threshold(grid, 0.5) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            pot.initial_threshold(np.array([]), 0.01)


class TestFitGpd:
    def test_exponential_recovery(self):
        y = np.random.default_rng(10).exponential(1.0, size=10000)
        gamma, sigma = pot.fit_gpd(y)
        assert -0.1 <= gamma <= 0.1
        assert 0.9 <= sigma <= 1.1

    def test_heavy_tail_recovery(self):
        y = gpd_sample(0.3, 2.0, 10000, seed=11)
        gamma, sigma = pot.fit_gpd(y)
        assert gamma == pytest.approx(0.3, rel=0.1)
        assert sigma == pytest.approx(2.0, rel=0.1)

    def test_too_few_excesses(self):
        # a tail of fewer than MIN_EXCESSES excesses is not fitted: 0..99 leaves
        # 9 excesses over the 0.915 quantile (90.585) and 10 over the 0.905 one
        scores = np.arange(100.0)
        for q_low, n, fitted in ((0.085, 9, False), (0.095, 10, True)):
            dim = pot.pot_threshold(scores, pot.PotConfig(low_quantile=q_low))
            assert dim.n_excesses == n == pot.MIN_EXCESSES - 1 + fitted
            assert (dim.method != "max_fallback") == fitted

    def test_missing_scipy_fails_instead_of_falling_back(self, monkeypatch):
        # the Grimshaw search imports scipy when it runs; without scipy a fit
        # must fail, as no other estimator answers in its place
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError):
            pot.fit_gpd(np.random.default_rng(10).exponential(1.0, size=100))

    @given(st.lists(st.floats(1e-6, 1e3), min_size=pot.MIN_EXCESSES, max_size=80))
    def test_never_below_the_exponential_boundary(self, excesses):
        # the boundary candidate (0, mean) keeps every fit finite and at least as
        # likely as the exponential tail, without a second fallback
        assert_at_least_the_boundary(np.array(excesses))

    @pytest.mark.parametrize("tail", ["chi-square", "pareto", "uniform"])
    def test_unconverged_search_still_beats_the_boundary(self, tail, monkeypatch):
        # a root search stopped after one iteration hands back its last iterate
        # as a candidate; the likelihood, not an exception, decides
        from scipy import optimize
        monkeypatch.setattr(optimize, "brentq", functools.partial(optimize.brentq, maxiter=1))
        rng = np.random.default_rng(19)
        for _ in range(40):
            if tail == "chi-square":
                y = rng.chisquare(1, size=80)
            elif tail == "pareto":
                y = gpd_sample(rng.uniform(0.05, 0.5), 1.0, 80, seed=rng)
            else:
                y = rng.uniform(0.01, 1.0, size=80)
            assert_at_least_the_boundary(y)

    @pytest.mark.parametrize("scale", [1e-9, 1e-11, 1e-13, 1e-15])
    def test_tiny_tail_fits_without_warnings(self, scale):
        # at this scale a bracket end lands on t = -1/max(y), where w takes
        # log(0); the grid skips that end without a warning
        y = np.random.default_rng(20).exponential(1.0, size=60) * scale
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_at_least_the_boundary(y)
        assert caught == []

    def test_equal_excesses_give_the_boundary(self):
        # min = mean empties the two brackets above t = 0, and the one below
        # holds no root
        assert pot.fit_gpd(np.full(20, 0.5)) == (0.0, 0.5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            pot.fit_gpd(np.linspace(-1.0, 1.0, 20))


class TestFinalThreshold:
    def test_log_limit_closed_form(self):
        # gamma -> 0, sigma=1, q n / N_u = e^-1  =>  z = u + 1
        z = pot.final_threshold(5.0, 0.0, 1.0, n=1.0, n_excesses=math.e, q=1.0)
        assert z == pytest.approx(6.0, rel=1e-12)

    def test_bracket_vanishes(self):
        # q = N_u / n makes the extrapolation collapse onto u
        z = pot.final_threshold(3.0, 0.4, 2.0, n=1000, n_excesses=100, q=0.1)
        assert z == pytest.approx(3.0)

    def test_gamma_zero_continuity(self):
        u, sigma, n, n_exc, q = 1.0, 2.0, 10000, 100, 1e-3
        limit = u - sigma * math.log(q * n / n_exc)
        for g in (1e-8, -1e-8):
            # the general formula evaluated at tiny gamma
            general = u + (sigma / g) * ((q * n / n_exc) ** -g - 1.0)
            assert general == pytest.approx(limit, rel=1e-6)
            # the implementation switches branches but must agree too
            assert pot.final_threshold(u, g, sigma, n, n_exc, q) == \
                pytest.approx(limit, rel=1e-9)

    def test_monotone_in_q(self):
        zs = [pot.final_threshold(1.0, 0.2, 1.0, 10000, 100, q)
              for q in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a < b for a, b in zip(zs, zs[1:]))


class TestPotThreshold:
    def test_exponential_var_oracle(self):
        scores = np.random.default_rng(13).exponential(1.0, size=200000)
        cfg = pot.PotConfig(risk=1e-3, low_quantile=0.01)
        dim = pot.pot_threshold(scores, cfg)
        mc = np.quantile(scores, 1 - 1e-3)
        assert dim.threshold == pytest.approx(mc, rel=0.05)
        assert dim.method == "gpd"

    def test_empty(self):
        with pytest.raises(EmptyInput, match="empty score vector"):
            pot.pot_threshold(np.array([]), pot.PotConfig())

    def test_constant_scores(self):
        # no score exceeds the initial threshold, so the tail is too short to fit
        dim = pot.pot_threshold(np.full(100, 2.0), pot.PotConfig())
        assert dim.method == "max_fallback"
        assert dim.threshold > 2.0

    def test_outlier_threshold_above_initial(self):
        scores = np.concatenate([np.random.default_rng(14).uniform(size=5000),
                                 [50.0]])
        dim = pot.pot_threshold(scores, pot.PotConfig(low_quantile=0.01))
        assert dim.threshold >= dim.initial_threshold

    def test_max_fallback(self):
        # 20 samples with low_quantile=0.05 leave a single excess
        scores = np.random.default_rng(15).uniform(size=20)
        dim = pot.pot_threshold(scores, pot.PotConfig(risk=1e-4,
                                                      low_quantile=0.05))
        assert dim.method == "max_fallback"
        assert dim.threshold >= scores.max()

    def test_deterministic(self):
        scores = np.random.default_rng(16).exponential(size=20000)
        cfg = pot.PotConfig(low_quantile=0.01)
        a = pot.pot_threshold(scores, cfg)
        b = pot.pot_threshold(scores, cfg)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_scale_equivariance(self):
        scores = np.random.default_rng(17).exponential(size=50000)
        cfg = pot.PotConfig(low_quantile=0.01)
        base = pot.pot_threshold(scores, cfg)
        scaled = pot.pot_threshold(scores * 3.0, cfg)
        assert scaled.initial_threshold == pytest.approx(3 * base.initial_threshold)
        assert scaled.threshold == pytest.approx(3 * base.threshold, rel=1e-6)
        assert scaled.gamma == pytest.approx(base.gamma, abs=1e-6)
        assert scaled.sigma == pytest.approx(3 * base.sigma, rel=1e-4)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            pot.PotConfig(risk=0.5, low_quantile=0.01)

    def test_model_roundtrip(self):
        scores = np.random.default_rng(18).exponential(size=(5000, 2))
        model = pot.fit_thresholds(scores, pot.PotConfig(low_quantile=0.01))
        again = pot.ThresholdModel.from_dict(dataclasses.asdict(model))
        np.testing.assert_array_equal(model.thresholds, again.thresholds)
