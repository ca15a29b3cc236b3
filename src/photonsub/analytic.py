"""Closed-form oracles for the saturable single-photon absorber.

These expressions assume Poisson-distributed input photon numbers and
per-photon background loss, and serve as cross-checks for the Monte-Carlo
engine.  ``absorbed_pmf``, ``mean_out``, ``var_out`` and ``ion_stats`` hold
for the leaky blockade of ``absorber``, which absorbs up to two photons a
pulse (the second with probability p_ryd2 per later survivor), and so does
``out_bin_means``; they reduce to the perfect blockade at p_ryd2 = 0.
``poisson_cdf`` is the table the Monte-Carlo input is drawn from.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import check_unit_interval


def absorbed_pmf(n_in: float, t: float, p_ryd: float, p_ryd2: float) -> tuple[float, float, float]:
    """P(A = 0), P(A = 1) and P(A = 2) of the absorbed count A of a leaky blockade.

    The mu = t*n_in survivors form a Poisson stream.  The first absorbed
    photon falls at the fraction s of it with density mu p exp(-mu p s), and
    no later survivor converts with probability exp(-mu p2 (1 - s)).  So
    P0 = exp(-mu p), P1 = p exp(-mu min(p, p2)) h(|p - p2|) with
    h(d) = (1 - exp(-mu d))/d and h(0) = mu (the smaller rate in the
    exponent keeps it finite for p2 > p), and P2 = q - P1 with
    q = 1 - exp(-mu p) from expm1.
    """
    p0 = p_no_absorption(n_in, t, p_ryd)  # checks n_in, t and p_ryd
    check_unit_interval(p_ryd2=p_ryd2)
    mu = t * n_in
    d = abs(p_ryd - p_ryd2)
    # p/d first: it is exactly 1 at p_ryd2 = 0, so there P1 = q and P2 = 0 exactly
    p1 = math.exp(-mu * min(p_ryd, p_ryd2)) * (p_ryd / d * -math.expm1(-mu * d) if d else p_ryd * mu)
    return p0, p1, -math.expm1(-mu * p_ryd) - p1


def mean_out(n_in: float, t: float, p_ryd: float, p_ryd2: float) -> float:
    """Mean transmitted photon number t*n_in - E[A], E[A] = P1 + 2 P2.

    At p_ryd2 = 0 it is t*n_in + exp(-t*n_in*p_ryd) - 1: the subtracted
    photon is "given back" when none is absorbed.
    """
    _, p1, p2 = absorbed_pmf(n_in, t, p_ryd, p_ryd2)
    return t * n_in - p1 - 2.0 * p2


def _h(d: np.ndarray) -> np.ndarray:
    """(1 - exp(-d))/d, and 1 at d = 0."""
    safe = np.where(d == 0.0, 1.0, d)
    return np.where(d == 0.0, 1.0, -np.expm1(-safe) / safe)


def out_bin_means(lam: np.ndarray, t: float, p_ryd: float, p_ryd2: float = 0.0) -> np.ndarray:
    """Mean transmitted photons per bin of a leaky blockade on Poisson bin means lam.

    Bin b passes t*lam_b survivors less the chance that it holds the first and
    the second absorbed photon.  The survivors that may convert first form a
    Poisson stream of f_b = p_ryd*t*lam_b a bin, those that may convert
    second one of g_b = p_ryd2*t*lam_b, and photons are uniform in time
    within a bin.  The first falls in bin b with probability
    exp(-F_<b)(1 - exp(-f_b)), F_<b the sum of f over the earlier bins.  The
    second, the first g-photon after it, falls in bin b after a first in an
    earlier bin a with probability W_b (1 - exp(-g_b)),
    W_b = sum_a f_a h(f_a - g_a) exp(-F_<a - (G_<b - G_<a)), or after a first
    in bin b with f_b exp(-F_<b)(h(f_b) - exp(-g_b) h(f_b - g_b)), where
    h(d) = (1 - exp(-d))/d.  W is summed in log space, so no term overflows
    where p_ryd2 exceeds p_ryd.
    """
    lam = np.asarray(lam, dtype=float)
    if not (lam >= 0).all():
        raise ValueError("bin means must be >= 0")
    check_unit_interval(t=t, p_ryd=p_ryd, p_ryd2=p_ryd2)
    f, g = p_ryd * t * lam, p_ryd2 * t * lam
    f_before, g_before = np.cumsum(f) - f, np.cumsum(g) - g
    first = np.exp(-f_before) * -np.expm1(-f)
    if p_ryd2 == 0.0:
        return t * lam - first
    with np.errstate(divide="ignore"):
        log_terms = np.log(f * _h(f - g)) - f_before + g_before
    log_w = np.logaddexp.accumulate(np.concatenate(([-np.inf], log_terms[:-1]))) - g_before
    within = f * np.exp(-f_before) * (_h(f) - np.exp(-g) * _h(f - g))
    return t * lam - first - np.exp(log_w) * -np.expm1(-g) - within


def var_out(n_in: float, t: float, p_ryd: float, p_ryd2: float) -> float:
    """Variance of the transmitted photon number S - A of a leaky blockade.

    With mu = t*n_in survivors S ~ Poisson(mu), Var(S) = mu,
    Var(A) = q(1 - q) + P2(3 - 2q - P2) and Cov(S, A) = mu(p P0 + p2 P1)
    (``absorbed_pmf``).  The perfect-blockade part is summed as
    mu(1 - p) + (q - x) + q(2x - q), x = mu*p, with q from expm1: the terms of
    order mu cancel exactly, so a variance near zero (small mu at p = 1,
    where it is about mu^2/2) keeps its sign.
    """
    _, p1, p2 = absorbed_pmf(n_in, t, p_ryd, p_ryd2)
    mu = t * n_in
    x = mu * p_ryd
    q = -math.expm1(-x)
    leak = p2 * (3.0 - 2.0 * q - p2) - 2.0 * mu * p_ryd2 * p1
    return max(0.0, mu * (1.0 - p_ryd) + (q - x) + q * (2.0 * x - q) + leak)


def p_no_absorption(n_in: float, t: float, p_ryd: float) -> float:
    """Probability that a Poisson pulse of mean n_in creates no excitation."""
    if not n_in >= 0:
        raise ValueError(f"n_in must be >= 0, got {n_in}")
    check_unit_interval(t=t, p_ryd=p_ryd)
    return math.exp(-t * n_in * p_ryd)


def ion_stats(n_in: float, t: float, p_ryd: float, p_ryd2: float, eta: float) -> tuple[float, float, float]:
    """Mean, Mandel-Q and Q/mean of the detected ions, A thinned binomially by eta.

    Q = eta (Var(A)/E[A] - 1), summed as eta (2 P2/E[A] - E[A]), and
    Q/mean = Q/(eta E[A]); at p_ryd2 = 0 Q = -mean and Q/mean = -1.  Every
    value is nan where the mean is 0, where ``stats.hist_stats`` has no Q
    either.
    """
    check_unit_interval(eta=eta)
    _, p1, p2 = absorbed_pmf(n_in, t, p_ryd, p_ryd2)
    mean = p1 + 2.0 * p2
    if eta * mean == 0.0:
        return math.nan, math.nan, math.nan
    q_absorbed = 2.0 * p2 / mean - mean
    return eta * mean, eta * q_absorbed, q_absorbed / mean


def poisson_pmf(mu: float, k_max: int) -> np.ndarray:
    """Poisson probabilities P(0..k_max), evaluated stably in log space."""
    k = np.arange(k_max + 1)
    if mu == 0.0:
        pmf = np.zeros(k_max + 1)
        pmf[0] = 1.0
        return pmf
    logs = k * math.log(mu) - mu - np.array([math.lgamma(j + 1) for j in k])
    return np.exp(logs)


def poisson_cut(mu: float) -> int:
    """The largest count the Poisson(mu) tables hold: mu + 20*sqrt(mu) + 2,
    past which the tail is below 1e-12."""
    return int(mu + 20.0 * math.sqrt(mu)) + 2


def poisson_cdf(mu: float) -> np.ndarray:
    """CDF of Poisson(mu) at 0..``poisson_cut(mu)``, with the last entry inf:
    a count drawn as the number of entries at or below a uniform never passes the cut."""
    cdf = np.cumsum(poisson_pmf(mu, poisson_cut(mu)))
    cdf[-1] = np.inf
    return cdf

