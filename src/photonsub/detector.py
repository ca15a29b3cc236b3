"""Detection chain, for one shot or a block of shots: efficiency thinning, four-way fan-out, ion counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_unit_interval

N_DETECTORS = 4


@dataclass(frozen=True)
class DetectorConfig:
    """Photon and ion detection parameters.

    ``eta_probe`` defaults to 1 because transmitted photon numbers are quoted
    efficiency-corrected.  ``split`` holds the four branch probabilities of the
    two cascaded balanced splitters.  Dead time and dark counts are off unless
    configured.
    """

    eta_probe: float = 1.0
    eta_ion: float = 0.29
    split: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    dead_time_ns: float = 0.0
    dark_cps: float = 0.0

    def __post_init__(self) -> None:
        check_unit_interval(eta_probe=self.eta_probe, eta_ion=self.eta_ion)
        check_finite(dead_time_ns=self.dead_time_ns, dark_cps=self.dark_cps)
        if len(self.split) != N_DETECTORS:
            raise ValueError(f"split needs {N_DETECTORS} branch probabilities")
        if any(not 0.0 <= p <= 1.0 for p in self.split):
            raise ValueError(f"split probabilities must lie in [0, 1], got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-12:
            raise ValueError(f"split probabilities must sum to 1, got {sum(self.split)}")
        if self.dead_time_ns < 0 or self.dark_cps < 0:
            raise ValueError("dead_time_ns and dark_cps must be >= 0")


def thin_counts(counts: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Binomial thinning: each photon survives independently with probability eta in [0, 1]."""
    counts = np.asarray(counts, dtype=np.int64)
    if eta == 1.0:
        return counts.copy()
    return rng.binomial(counts, eta)


def split_hbt(
    counts: np.ndarray, cfg: DetectorConfig, rng: np.random.Generator
) -> np.ndarray:
    """Distribute each photon over the four counters multinomially.

    Returns an array of shape (N_DETECTORS, n_bins) per shot; per-bin sums
    over the detectors equal the input exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return np.swapaxes(rng.multinomial(counts, cfg.split), -1, -2)


def detect_ions(excitations: int | np.ndarray, eta_ion: float, rng: np.random.Generator) -> int | np.ndarray:
    """Ion-counter clicks: binomial thinning of excitation counts, which must be >= 0."""
    return rng.binomial(excitations, eta_ion)


def _apply_dead_time(clicks: np.ndarray, dead_bins: int) -> np.ndarray:
    # After a recorded click the detector is blind for the rest of its bin and
    # the following dead_bins - 1 bins, so each dead window yields one click.
    # The scan steps through the bins with a click in any row, for all rows at once.
    live = clicks.reshape(-1, clicks.shape[-1]) > 0
    out = np.zeros(live.shape, dtype=np.int64)
    next_live = np.zeros(len(live), dtype=np.int64)
    for i in np.flatnonzero(live.any(axis=0)):
        fire = live[:, i] & (next_live <= i)
        out[:, i] = fire
        next_live[fire] = i + dead_bins
    return out.reshape(clicks.shape)


def detect_pulse(
    output_bins: np.ndarray,
    cfg: DetectorConfig,
    rng: np.random.Generator,
    bin_width_us: float,
) -> np.ndarray:
    """Full photon-detection chain: thin, split, darks, dead time; (N_DETECTORS, n_bins) clicks per shot.

    Only the nonzero entries of ``output_bins`` are thinned and split, in
    row-major order: ``binomial`` and ``multinomial`` draw nothing for a zero
    count, so the draws are those of the dense chain.  The dense clicks are
    formed after the split, for the dark counts and the dead time.
    """
    counts = np.asarray(output_bins, dtype=np.int64)
    idx = np.flatnonzero(counts != 0)
    clicks = np.zeros((counts.size, N_DETECTORS), dtype=np.int64)
    # split_hbt gives (N_DETECTORS, entries); the clicks hold one row per entry
    clicks[idx] = split_hbt(thin_counts(counts.ravel()[idx], cfg.eta_probe, rng), cfg, rng).T
    det = np.swapaxes(clicks.reshape(*counts.shape, N_DETECTORS), -1, -2)
    if cfg.dark_cps > 0.0:
        det = det + rng.poisson(cfg.dark_cps * bin_width_us * 1e-6, size=det.shape)
    if cfg.dead_time_ns > 0.0:
        dead_bins = max(1, int(np.ceil(cfg.dead_time_ns / (bin_width_us * 1e3))))
        det = _apply_dead_time(det, dead_bins)
    return det
