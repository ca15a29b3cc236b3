"""Closed-form oracles for the saturable single-photon absorber.

These expressions assume Poisson-distributed input photon numbers, at most one
absorbed photon per pulse and per-photon background loss, and serve as
cross-checks for the Monte-Carlo engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_unit_interval


def mean_out(n_in: float, t: float, p_ryd: float) -> float:
    """Mean transmitted photon number: t*n_in + exp(-t*n_in*p_ryd) - 1.

    The exponential term is the probability that no photon is absorbed, in
    which case the subtracted photon is "given back".
    """
    return t * n_in + p_no_absorption(n_in, t, p_ryd) - 1.0


def out_bin_means(lam: np.ndarray, t: float, p_ryd: float) -> np.ndarray:
    """Mean transmitted photons per bin of a perfect blockade on Poisson bin means lam:
    t*lam_b - exp(-M_<b)(1 - exp(-mu_b)), mu_b = p_ryd*t*lam_b and M_<b the sum of mu
    over the earlier bins; the subtracted term is the chance that bin b holds the absorbed photon."""
    lam = np.asarray(lam, dtype=float)
    if not (lam >= 0).all():
        raise ValueError("bin means must be >= 0")
    check_unit_interval(t=t, p_ryd=p_ryd)
    mu = p_ryd * t * lam
    return t * lam + np.exp(mu - np.cumsum(mu)) * np.expm1(-mu)


def var_out(n_in: float, t: float, p_ryd: float) -> float:
    """Variance of the transmitted photon number S - A of a perfect blockade.

    With mu = t*n_in survivors S ~ Poisson(mu) and A = 1 with probability
    q = 1 - exp(-mu*p_ryd), Var(S) = mu, Var(A) = q(1 - q) and
    Cov(S, A) = mu*p_ryd*exp(-mu*p_ryd).  It is summed as
    mu(1 - p_ryd) + (q - x) + q(2x - q), x = mu*p_ryd, with q from expm1: the
    terms of order mu cancel exactly, so a variance near zero (small mu at
    p_ryd = 1, where it is about mu^2/2) keeps its sign.
    """
    p_no_absorption(n_in, t, p_ryd)  # checks the arguments
    mu = t * n_in
    x = mu * p_ryd
    q = -math.expm1(-x)
    return max(0.0, mu * (1.0 - p_ryd) + (q - x) + q * (2.0 * x - q))


def p_no_absorption(n_in: float, t: float, p_ryd: float) -> float:
    """Probability that a Poisson pulse of mean n_in creates no excitation."""
    if not n_in >= 0:
        raise ValueError(f"n_in must be >= 0, got {n_in}")
    check_unit_interval(t=t, p_ryd=p_ryd)
    return math.exp(-t * n_in * p_ryd)


@dataclass(frozen=True)
class IdealIonStats:
    mean_ions: float
    mandel_q: float
    q_over_mean: float


def ideal_ion_stats(n_in: float, t: float, p_ryd: float, eta: float) -> IdealIonStats:
    """Detected-ion statistics for a perfectly blockaded medium.

    With at most one excitation per pulse the detected ion count is Bernoulli
    with success probability eta * (1 - exp(-t*n_in*p_ryd)), hence
    Q = -mean and Q/mean = -1.
    """
    check_unit_interval(eta=eta)
    p1 = 1.0 - p_no_absorption(n_in, t, p_ryd)
    mean = eta * p1
    if mean == 0.0:
        raise ValueError("ion statistics undefined: mean detected ion count is zero")
    return IdealIonStats(mean_ions=mean, mandel_q=-mean, q_over_mean=-1.0)


def poisson_pmf(mu: float, k_max: int) -> np.ndarray:
    """Poisson probabilities P(0..k_max), evaluated stably in log space."""
    k = np.arange(k_max + 1)
    if mu == 0.0:
        pmf = np.zeros(k_max + 1)
        pmf[0] = 1.0
        return pmf
    logs = k * math.log(mu) - mu - np.array([math.lgamma(j + 1) for j in k])
    return np.exp(logs)


def g2_total_of_pmf(pmf: np.ndarray) -> float:
    """Total-pulse g2 = <n(n-1)> / <n>^2 of a photon-number distribution."""
    pmf = np.asarray(pmf, dtype=float)
    k = np.arange(pmf.size)
    mean = float((k * pmf).sum())
    if mean == 0.0:
        raise ValueError("g2 undefined for zero-mean distribution")
    fac2 = float((k * (k - 1) * pmf).sum())
    return fac2 / mean**2


def subtracted_poisson_g2_total(mu: float) -> float:
    """Total-pulse g2 of a Poisson(mu) pulse with exactly one photon removed.

    The output distribution is the input shifted down by one photon (pulses
    with zero photons stay at zero).  Computed by exact summation truncated
    at mu + 20*sqrt(mu), where the Poisson tail is below 1e-12.
    """
    if not mu > 1.0:
        raise ValueError(f"mu must exceed 1, got {mu}")
    k_max = int(mu + 20.0 * math.sqrt(mu)) + 2
    pmf = poisson_pmf(mu, k_max)
    shifted = np.zeros(k_max + 1)
    shifted[:-1] = pmf[1:]
    shifted[0] += pmf[0]
    return g2_total_of_pmf(shifted)
