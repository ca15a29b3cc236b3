"""Input pulse envelopes and per-bin photon means of the coherent probe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite

# Every shot allocates arrays of one entry per bin; the reference pulse has 40.
MAX_BINS = 100_000
# The paper's pulses hold at most 35 photons.  At this cap one row's
# per-photon arrays (at most mu + 20 sqrt(mu) + 2 photons) and the input's
# Poisson table stay under 1 MB, every int64 sum stays exact for 8e8 shots
# even with all photons in one bin, and the outcome counts' flat key stays
# far below 2**63.
MAX_PHOTONS = 100_000


@dataclass(frozen=True)
class PulseSpec:
    """Tapered-cosine probe pulse: mean photon number, duration and binning.

    Times are in microseconds.  ``taper`` is the Tukey shape parameter: the
    fraction of the pulse spent on the cosine ramps.  0 gives a rectangular
    pulse, 1 a Hann-shaped one.
    """

    mean_photons: float
    duration_us: float = 2.0
    bin_width_us: float = 0.05
    taper: float = 0.3

    def __post_init__(self) -> None:
        check_finite(
            mean_photons=self.mean_photons,
            duration_us=self.duration_us,
            bin_width_us=self.bin_width_us,
        )
        if not 0 <= self.mean_photons <= MAX_PHOTONS:
            raise ValueError(f"mean_photons must lie in [0, {MAX_PHOTONS}], got {self.mean_photons}")
        if not self.duration_us > 0:
            raise ValueError(f"duration_us must be > 0, got {self.duration_us}")
        if not self.bin_width_us > 0:
            raise ValueError(f"bin_width_us must be > 0, got {self.bin_width_us}")
        if not 0.0 <= self.taper <= 1.0:
            raise ValueError(f"taper must lie in [0, 1], got {self.taper}")
        if not (ratio := self.duration_us / self.bin_width_us) < MAX_BINS + 0.5:
            raise ValueError(f"duration_us / bin_width_us = {ratio:g} bins, more than {MAX_BINS}")
        if self.n_bins < 1:
            raise ValueError("duration is shorter than half a bin; no bins left")

    @property
    def n_bins(self) -> int:
        return int(round(self.duration_us / self.bin_width_us))


def tukey_envelope(spec: PulseSpec) -> np.ndarray:
    """Normalized per-bin weights of the tapered-cosine (Tukey) window.

    The window is evaluated at bin centers and normalized to unit sum.
    Writing it in terms of the distance from the nearer pulse edge keeps the
    weights exactly symmetric in floating point.
    """
    n = spec.n_bins
    i = np.arange(n)
    edge_dist = (np.minimum(i, n - 1 - i) + 0.5) / n
    alpha = spec.taper
    w = np.ones(n)
    if alpha > 0.0:
        ramp = edge_dist < alpha / 2.0
        w[ramp] = 0.5 * (1.0 + np.cos(2.0 * np.pi / alpha * (edge_dist[ramp] - alpha / 2.0)))
    return w / w.sum()


def expected_bin_means(spec: PulseSpec) -> np.ndarray:
    """Mean photon number per bin: ``mean_photons`` times the envelope weight."""
    return spec.mean_photons * tukey_envelope(spec)
