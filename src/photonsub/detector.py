"""Detection chain, for a block of shots given as its entries: one uniform per photon
for efficiency thinning and the four-way fan-out, dark counts, dead time, ion counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_unit_interval

N_DETECTORS = 4
# Transient bytes of each slice of detection's per-photon arrays; the slices
# leave the stream unchanged, so this bound is free to tune.
_DRAW_BYTES = 1 << 20


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


def detect_ions(excitations: int | np.ndarray, eta_ion: float, rng: np.random.Generator) -> int | np.ndarray:
    """Ion-counter clicks: binomial thinning of excitation counts, which must be >= 0."""
    return rng.binomial(excitations, eta_ion)


def _apply_dead_time(clicks: np.ndarray, dead_bins: int) -> np.ndarray:
    # After a recorded click the detector is blind for the rest of its bin and
    # the following dead_bins - 1 bins, so each dead window yields one click.
    # The pass steps through each detector row's clicks in bin order, the k-th
    # click of every row at once: as many steps as one row has clicks at most,
    # whatever the number of bins.
    live = clicks.reshape(-1, clicks.shape[-1])
    idx = np.flatnonzero(live)
    row, col = np.divmod(idx, live.shape[1])
    per_row = np.bincount(row, minlength=len(live))
    start = np.cumsum(per_row) - per_row
    rows = np.flatnonzero(per_row)
    next_live = np.zeros(len(live), dtype=np.int64)
    fired = np.zeros(len(idx), dtype=bool)
    for k in range(per_row.max(initial=0)):
        rows = rows[per_row[rows] > k]
        at = start[rows] + k
        fire = col[at] >= next_live[rows]
        next_live[rows[fire]] = col[at[fire]] + dead_bins
        fired[at[fire]] = True
    out = np.zeros(live.size, dtype=np.int64)
    out[idx[fired]] = 1
    return out.reshape(clicks.shape)


def detect_pulse(
    shape: tuple[int, ...],
    idx: np.ndarray,
    counts: np.ndarray,
    cfg: DetectorConfig,
    rng: np.random.Generator,
    bin_width_us: float,
) -> np.ndarray:
    """Full photon-detection chain: thin and split, darks, dead time.

    The light is a block of ``shape``, (B, n_bins) or one shot's (n_bins,),
    given as its entries: ascending flat indices ``idx`` into the block and
    their photon counts ``counts``; every other entry is zero.  Each photon
    draws one uniform, the photons in row-major order: it reaches counter k
    if the draw lies in the k-th interval of the edges
    ``eta_probe * cumsum(split)`` and is lost at or above ``eta_probe``.  So
    each entry's clicks and lost photons are multinomial, and the draws take
    time linear in the number of photons.  The uniforms are drawn in slices
    of at most ``_DRAW_BYTES``, which leaves the stream as one draw would.
    Dark counts and the dead time follow on the dense clicks, an
    (N_DETECTORS, n_bins) array per shot.
    """
    size = int(np.prod(shape))
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(counts.sum())
    edges = np.minimum(cfg.eta_probe * np.cumsum(cfg.split), cfg.eta_probe)
    edges[-1] = cfg.eta_probe
    # counter k of the entry at flat index i is clicks[k * size + i], and
    # k = N_DETECTORS counts the lost photons; a pass without photons gives zeros
    step = _DRAW_BYTES // 8
    for lo in range(0, max(total, 1), step):
        hi = min(lo + step, total)
        # the entries with photons in [lo, hi), and how many each
        part = slice(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        slot = np.searchsorted(edges, rng.random(hi - lo), side="right")
        slot *= size
        slot += np.repeat(idx[part], np.minimum(ends[part], hi) - np.maximum(starts[part], lo))
        hits = np.bincount(slot, minlength=(N_DETECTORS + 1) * size)
        del slot  # before the next slice's arrays
        clicks = hits if lo == 0 else clicks + hits
    det = np.moveaxis(clicks[: N_DETECTORS * size].reshape(N_DETECTORS, *shape), 0, -2)
    if cfg.dark_cps > 0.0:
        det = det + rng.poisson(cfg.dark_cps * bin_width_us * 1e-6, size=det.shape)
    if cfg.dead_time_ns > 0.0:
        dead_bins = max(1, int(np.ceil(cfg.dead_time_ns / (bin_width_us * 1e3))))
        det = _apply_dead_time(det, dead_bins)
    return det
