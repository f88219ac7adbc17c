"""Peaks-over-threshold threshold selection via Generalized Pareto fitting.

The initial threshold is an empirical high quantile of the anomaly scores; at
least MIN_EXCESSES excesses over it are fitted with a GPD by maximum likelihood
(Grimshaw's reduction, with a method-of-moments fallback), and the final
threshold is the value-at-risk extrapolation at risk level q.  scipy is
imported by the Grimshaw root search alone, so only a GPD fit loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfig, check_real

MIN_EXCESSES = 10    # the fewest excesses a GPD is fitted to
GRID_INTERVALS = 10  # grid intervals per bracket of the Grimshaw root search
BRACKET_EPS = 1e-8   # the brackets' distance from the double root t = 0


@dataclass
class PotConfig:
    risk: float = 1e-4            # q: target probability of exceeding z_q
    low_quantile: float = 1e-3    # fraction of scores above the initial threshold

    def __post_init__(self):
        for name in ("risk", "low_quantile"):
            check_real("pot", name, getattr(self, name), lambda v: 0 < v < 1, "in (0, 1)")
        if not self.risk < self.low_quantile:
            raise InvalidConfig(
                f"pot risk must be below low_quantile, got {self.risk}, {self.low_quantile}")


@dataclass
class DimThreshold:
    """Fitted quantities for one dimension, kept for audit."""

    initial_threshold: float
    gamma: float
    sigma: float
    n_excesses: int
    n_samples: int
    threshold: float
    method: str = "gpd"    # "gpd", "moments" or "max_fallback"


@dataclass
class ThresholdModel:
    """Per-dimension thresholds plus the config that produced them."""

    dims: list                    # list[DimThreshold]
    config: PotConfig

    @property
    def thresholds(self):
        return np.array([d.threshold for d in self.dims])

    @classmethod
    def from_dict(cls, d):
        return cls(dims=[DimThreshold(**x) for x in d["dims"]],
                   config=PotConfig(**d["config"]))


def initial_threshold(scores, q_low):
    """Empirical quantile at level 1 - q_low, linearly interpolated."""
    if np.size(scores) == 0:
        raise EmptyInput("cannot take a quantile of an empty score vector")
    return float(np.quantile(scores, 1.0 - q_low))


def gpd_log_likelihood(y, gamma, sigma):
    n = y.size
    if sigma <= 0:
        return -np.inf
    if abs(gamma) < 1e-12:
        return -n * math.log(sigma) - y.sum() / sigma
    z = 1.0 + gamma * y / sigma
    if np.any(z <= 0):
        return -np.inf
    return -n * math.log(sigma) - (1.0 + 1.0 / gamma) * np.log(z).sum()


def _moments_estimate(y):
    mean = y.mean()
    var = y.var()
    if var <= 0:
        return 0.0, max(mean, np.finfo(float).tiny)
    ratio = mean * mean / var
    gamma = 0.5 * (1.0 - ratio)
    sigma = 0.5 * mean * (1.0 + ratio)
    return float(gamma), float(sigma)


def _grimshaw_candidates(y):
    """Roots t of the Grimshaw reduction u(t)v(t) = 1; each root gives a
    candidate (gamma, sigma) pair."""
    # imported here: scipy costs most of the package's start-up, and only a fit needs it
    from scipy import optimize

    def u(s):
        return 1.0 + np.mean(np.log(s))

    def w(t):
        s = 1.0 + t * y
        return u(s) * np.mean(1.0 / s) - 1.0

    ymin, ymax, ymean = y.min(), y.max(), y.mean()
    a = -1.0 / ymax + BRACKET_EPS
    b = 2.0 * (ymean - ymin) / (ymean * ymin)
    c = 2.0 * (ymean - ymin) / (ymin * ymin)

    roots = []
    for lo, hi in ((a, -BRACKET_EPS), (BRACKET_EPS, b), (b, c)):
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, GRID_INTERVALS + 1)
        vals = np.array([w(t) for t in grid])
        for i in range(GRID_INTERVALS):
            if not (np.isfinite(vals[i]) and np.isfinite(vals[i + 1])):
                continue
            if vals[i] == 0.0:
                roots.append(grid[i])
            elif vals[i] * vals[i + 1] < 0:
                roots.append(optimize.brentq(w, grid[i], grid[i + 1]))
    cands = []
    for t in roots:   # none is 0: no bracket holds 0, as b > 0
        gamma = u(1.0 + t * y) - 1.0
        sigma = gamma / t
        if sigma > 0:
            cands.append((float(gamma), float(sigma)))
    return cands


def fit_gpd(excesses):
    """Maximum-likelihood GPD fit of positive excesses.  Returns
    (gamma, sigma, method)."""
    y = np.asarray(excesses, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("excesses must be strictly positive")
    try:
        candidates = _grimshaw_candidates(y)
    except (ArithmeticError, RuntimeError, ValueError, Warning):   # not a missing scipy
        return (*_moments_estimate(y), "moments")
    # the exponential boundary (gamma -> 0, sigma = mean) goes first: its likelihood
    # is finite for finite excesses, and max keeps a finite key over a NaN one
    best = max([(0.0, float(y.mean()))] + candidates, key=lambda c: gpd_log_likelihood(y, *c))
    return best[0], best[1], "gpd"


def final_threshold(u, gamma, sigma, n, n_excesses, q):
    """Value-at-risk extrapolation z_q = u + (sigma/gamma)((q n/N_u)^-gamma - 1),
    continuous through gamma = 0 via the log-limit form."""
    r = q * n / n_excesses
    if abs(gamma) < 1e-6:
        return u - sigma * math.log(r)
    # expm1 keeps the general form numerically identical to the limit form
    # for tiny gamma
    return u + (sigma / gamma) * math.expm1(-gamma * math.log(r))


def pot_threshold(scores, cfg):
    """Full POT pipeline for one dimension's training scores.  A tail of fewer
    than MIN_EXCESSES excesses is not fitted: its threshold tops the largest
    score.  Constant scores are such a tail, with no excess at all."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyInput("empty score vector")
    n = scores.size
    u = initial_threshold(scores, cfg.low_quantile)
    excesses = scores[scores > u] - u
    if excesses.size < MIN_EXCESSES:
        smax = float(scores.max())
        gamma, sigma, method = 0.0, 0.0, "max_fallback"
        z = smax * (1 + 1e-6) if smax > 0 else smax + 1e-6
    else:
        gamma, sigma, method = fit_gpd(excesses)
        z = final_threshold(u, gamma, sigma, n, excesses.size, cfg.risk)
    return DimThreshold(initial_threshold=u, gamma=gamma, sigma=sigma,
                        n_excesses=int(excesses.size), n_samples=n,
                        threshold=max(z, u), method=method)


def fit_thresholds(scores, cfg):
    """Fit one DimThreshold per column of a (T, m) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    return ThresholdModel(
        dims=[pot_threshold(scores[:, d], cfg) for d in range(scores.shape[1])],
        config=cfg)
