"""Weak-probe steady-state three-level ladder model of the medium.

Gives the probe susceptibility, transmission spectra, the scattering and
conversion probabilities, and a one-parameter least-squares fit of the
ground-Rydberg dephasing rate.

Unit convention: every rate and detuning is an ordinary frequency in MHz with
the 2*pi prefactor implicit and consistent (a value of 0.5 means 2*pi*500 kHz);
times are in microseconds.  Only ratios and products of same-unit quantities
enter the formulas, so the prefactor cancels throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_finite


@dataclass(frozen=True)
class PhysicsParams:
    """Spectroscopic parameters of the two-photon ladder system.

    delta_e      intermediate-state detuning of both beams (MHz), nonzero;
                 may be +-inf, the far-detuned limit
    omega_c      control Rabi frequency (MHz)
    gamma_e      intermediate-state decay rate (MHz)
    gamma_deph   ground-Rydberg dephasing rate (MHz)
    tau_ryd_us   Rydberg-state lifetime (us); may be inf
    od_b         resonant two-level optical depth
    """

    delta_e: float = 100.0
    omega_c: float = 10.0
    gamma_e: float = 6.05
    gamma_deph: float = 0.5
    tau_ryd_us: float = 530.0
    od_b: float = 12.5

    def __post_init__(self) -> None:
        if math.isnan(self.delta_e):
            raise ValueError("delta_e must not be NaN")
        if self.delta_e == 0:
            raise ValueError("delta_e must be nonzero: the Raman decay rate diverges at zero detuning")
        check_finite(
            omega_c=self.omega_c, gamma_e=self.gamma_e, gamma_deph=self.gamma_deph, od_b=self.od_b
        )
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be > 0, got {self.gamma_e}")
        if self.omega_c < 0:
            raise ValueError(f"omega_c must be >= 0, got {self.omega_c}")
        if self.gamma_deph < 0:
            raise ValueError(f"gamma_deph must be >= 0, got {self.gamma_deph}")
        if not self.tau_ryd_us > 0:
            raise ValueError(f"tau_ryd_us must be > 0, got {self.tau_ryd_us}")
        if self.od_b < 0:
            raise ValueError(f"od_b must be >= 0, got {self.od_b}")


def raman_decay_rate(omega_c: float, delta_e: float, gamma_e: float) -> float:
    """Control-induced decay of the Rydberg state: (omega_c / 2 delta_e)^2 * gamma_e."""
    if delta_e == 0:
        raise ValueError("raman decay rate diverges at zero intermediate detuning")
    return (omega_c / (2.0 * delta_e)) ** 2 * gamma_e


def ground_rydberg_linewidth(phys: PhysicsParams) -> float:
    """Total ground-Rydberg coherence decay entering the dark-state resonance.

    Dephasing plus half the Raman decay plus half the Rydberg lifetime decay;
    each contribution is configurable through PhysicsParams.
    """
    raman = raman_decay_rate(phys.omega_c, phys.delta_e, phys.gamma_e)
    return phys.gamma_deph + raman / 2.0 + 1.0 / (2.0 * phys.tau_ryd_us)


def susceptibility_lorentzian(
    phys: PhysicsParams,
    probe_detuning: float | np.ndarray,
    two_photon_detuning: float | np.ndarray,
):
    """Dimensionless probe response L; Re L = 1 on bare two-level resonance.

    L = (G/2) / (G/2 - i*dp + (omega_c/2)^2 / (g_gr - i*d2)) with G the
    intermediate decay, dp the probe and d2 the two-photon detuning.  The
    singular ideal-EIT point (g_gr = 0, d2 = 0) maps to L = 0, i.e. perfect
    transparency.  Accepts scalars or arrays for either detuning.
    """
    half = phys.gamma_e / 2.0
    dp = np.asarray(probe_detuning, dtype=float)
    d2 = np.asarray(two_photon_detuning, dtype=float)
    denom = half - 1j * dp + np.zeros_like(d2) * 1j
    if phys.omega_c != 0.0:
        g_gr = ground_rydberg_linewidth(phys) - 1j * d2
        dark = g_gr == 0
        safe = np.where(dark, 1.0, g_gr)
        denom = denom + (phys.omega_c / 2.0) ** 2 / safe
        result = np.where(dark, 0.0 + 0.0j, half / denom)
    else:
        result = half / denom
    if np.ndim(probe_detuning) == 0 and np.ndim(two_photon_detuning) == 0:
        return complex(result)
    return result


def transmission(
    phys: PhysicsParams,
    probe_detuning: float | np.ndarray,
    two_photon_detuning: float | np.ndarray,
):
    """Beer-Lambert transmission exp(-od_b * Re L)."""
    chi = susceptibility_lorentzian(phys, probe_detuning, two_photon_detuning)
    return np.exp(-phys.od_b * np.real(chi))


def transmission_spectrum(
    phys: PhysicsParams,
    delta_grid: np.ndarray,
) -> np.ndarray:
    """Transmission versus two-photon detuning at probe detuning ``phys.delta_e``;
    returns an (n, 2) array of (d2, T)."""
    grid = np.asarray(delta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("delta grid is empty")
    t_vals = transmission(phys, phys.delta_e, grid)
    return np.column_stack([grid, np.atleast_1d(t_vals)])


def scattering_probability(phys: PhysicsParams) -> float:
    """Control-off probability to scatter a probe photon at probe detuning ``phys.delta_e``."""
    off = replace(phys, omega_c=0.0)
    return float(1.0 - transmission(off, phys.delta_e, 0.0))


def conversion_probability(phys: PhysicsParams) -> float:
    """Model estimate of the photon-to-excitation conversion at line center.

    At two-photon resonance the absorption Re L = (G/2)(G/2 + R) / |D|^2 with
    R = (omega_c/2)^2 / g_gr splits into an intermediate-state scattering share
    (G/2)^2 / |D|^2 and a dark-state (conversion) share (G/2) R / |D|^2; the
    latter is converted through Beer-Lambert.  This is a homogeneous weak-probe
    diagnostic, not a calibrated absorption probability.
    """
    if phys.omega_c == 0.0:
        return 0.0
    g_gr = ground_rydberg_linewidth(phys)
    if g_gr == 0.0:
        return 0.0
    half = phys.gamma_e / 2.0
    r = (phys.omega_c / 2.0) ** 2 / g_gr
    conversion_share = half * r / ((half + r) ** 2 + phys.delta_e**2)
    return float(1.0 - math.exp(-phys.od_b * conversion_share))


@dataclass(frozen=True)
class DephasingFit:
    gamma_deph: float
    residual: float
    iterations: int


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section refinement stops once the bracket is this narrow relative to
# its lower end, and gives up after this many steps.
_FIT_REL_TOL = 1e-6
_FIT_MAX_ITER = 200


def fit_dephasing(
    deltas: np.ndarray,
    transmissions: np.ndarray,
    phys: PhysicsParams,
) -> DephasingFit:
    """Least-squares fit of gamma_deph to a measured transmission spectrum.

    Minimizes the summed squared transmission residual over gamma_deph > 0,
    at probe detuning ``phys.delta_e``, by bracketing on a log grid followed
    by golden-section refinement to ``_FIT_REL_TOL``.  Deterministic for
    fixed data.  A NaN or infinite value is rejected, naming the first
    data row (counted from 1) that holds one.
    """
    deltas = np.asarray(deltas, dtype=float)
    measured = np.asarray(transmissions, dtype=float)
    if deltas.size != measured.size:
        raise ValueError("deltas and transmissions differ in length")
    bad = ~(np.isfinite(deltas) & np.isfinite(measured))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"data row {i + 1} is not finite: delta_mhz={deltas[i]:g}, transmission={measured[i]:g}"
        )
    if deltas.size < 5:
        raise ValueError("need at least 5 spectrum points to fit the dephasing rate")
    if np.ptp(measured) < 1e-9:
        raise ValueError("flat spectrum: dephasing rate is not identifiable")

    def sse(gamma: float) -> float:
        model = transmission(replace(phys, gamma_deph=gamma), phys.delta_e, deltas)
        return float(((model - measured) ** 2).sum())

    grid = np.geomspace(1e-6, 1e4, 201)
    values = [sse(g) for g in grid]
    best = int(np.argmin(values))
    if best == 0 or best == grid.size - 1:
        raise ValueError("no interior optimum: data are inconsistent with the model")
    lo, hi = grid[best - 1], grid[best + 1]
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    f_c, f_d = sse(c), sse(d)
    for iteration in range(_FIT_MAX_ITER):
        if hi - lo <= _FIT_REL_TOL * lo:
            break
        if f_c < f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INV_PHI * (hi - lo)
            f_c = sse(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INV_PHI * (hi - lo)
            f_d = sse(d)
    else:
        raise RuntimeError("dephasing fit did not converge within the iteration bound")
    gamma = 0.5 * (lo + hi)
    return DephasingFit(gamma_deph=float(gamma), residual=sse(gamma), iterations=iteration + 1)
