"""Detection chain, for a block of shots given as its entries: one uniform per photon
for efficiency thinning and the four-way fan-out, dark counts, dead time, ion counting.

Every variate is a uniform from ``absorber.uniforms``, the raw bits of the block's stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_unit_interval
from .absorber import uniforms
from .analytic import poisson_cdf

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
    """Ion-counter clicks of excitation counts, which must be >= 0: each
    excitation, in the counts' row-major order, draws one uniform and clicks
    below ``eta_ion``, so each count is thinned binomially."""
    counts = np.asarray(excitations, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("excitation counts must be >= 0")
    owner = np.repeat(np.arange(counts.size), counts.ravel())
    clicks = np.bincount(owner[uniforms(rng, owner.size) < eta_ion], minlength=counts.size)
    return clicks.reshape(counts.shape)[()]


def _apply_dead_time(clicks: np.ndarray, dead_bins: int, cells: np.ndarray | None = None) -> np.ndarray:
    """The recorded clicks, written over the C-contiguous ``clicks`` in place:
    1 where a click is recorded, else 0.  ``cells``, ascending flat indices,
    may name the only cells that can hold clicks, so that no pass scans the rest."""
    # After a recorded click the detector is blind for the rest of its bin and
    # the following dead_bins - 1 bins, so each dead window yields one click.
    # The pass steps through each detector row's clicks in bin order, the k-th
    # click of every row at once: as many steps as one row has clicks at most,
    # whatever the number of bins.
    flat = clicks.reshape(-1)
    idx = np.flatnonzero(flat) if cells is None else cells[flat[cells] > 0]
    n_rows = flat.size // clicks.shape[-1]
    row, col = np.divmod(idx, clicks.shape[-1])
    per_row = np.bincount(row, minlength=n_rows)
    start = np.cumsum(per_row) - per_row
    rows = np.flatnonzero(per_row)
    next_live = np.zeros(n_rows, dtype=np.int64)
    fired = np.zeros(len(idx), dtype=bool)
    for k in range(per_row.max(initial=0)):
        rows = rows[per_row[rows] > k]
        at = start[rows] + k
        fire = col[at] >= next_live[rows]
        next_live[rows[fire]] = col[at[fire]] + dead_bins
        fired[at[fire]] = True
    flat[idx] = fired
    return clicks


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
    Then each (shot, counter) draws its dark count, Poisson with mean
    dark_cps times the pulse length, by inverting ``poisson_cdf`` at one
    uniform, and each dark click one uniform that places it in a bin, all
    bins alike: so each (counter, bin) gets Poisson darks of mean dark_cps
    times the bin width.  The dead time follows on the dense clicks, an
    (N_DETECTORS, n_bins) array per shot, visiting only the cells that can
    hold one.
    """
    *lead, n_bins = shape
    n_rows = int(np.prod(lead))
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(counts.sum())
    edges = np.minimum(cfg.eta_probe * np.cumsum(cfg.split), cfg.eta_probe)
    edges[-1] = cfg.eta_probe
    # the click of counter k in bin j of shot r is at (r * N_DETECTORS + k) * n_bins + j,
    # that is the entry's flat index plus (r * (N_DETECTORS - 1) + k) * n_bins
    base = idx + (idx // n_bins) * ((N_DETECTORS - 1) * n_bins)
    size = n_rows * N_DETECTORS * n_bins
    # a pass without photons gives zeros
    step = _DRAW_BYTES // 8
    for lo in range(0, max(total, 1), step):
        hi = min(lo + step, total)
        # the entries with photons in [lo, hi), and how many each
        part = slice(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        slot = np.searchsorted(edges, uniforms(rng, hi - lo), side="right")
        keys = np.repeat(base[part], np.minimum(ends[part], hi) - np.maximum(starts[part], lo))
        keys += slot * n_bins
        hits = np.bincount(keys[slot < N_DETECTORS], minlength=size)
        del slot, keys  # before the next slice's arrays
        det = hits if lo == 0 else det + hits
    # the flat indices of the dark clicks, in draw order
    at = np.zeros(0, dtype=np.int64)
    if cfg.dark_cps > 0.0:
        darks = np.searchsorted(poisson_cdf(cfg.dark_cps * bin_width_us * 1e-6 * n_bins),
                                uniforms(rng, n_rows * N_DETECTORS), side="right")
        at = np.minimum((uniforms(rng, int(darks.sum())) * n_bins).astype(np.int64), n_bins - 1)
        at += np.repeat(np.arange(0, size, n_bins), darks)
        np.add.at(det, at, 1)
    det = det.reshape(*lead, N_DETECTORS, n_bins)
    if cfg.dead_time_ns > 0.0:
        dead_bins = max(1, int(np.ceil(cfg.dead_time_ns / (bin_width_us * 1e3))))
        # the cells that can hold clicks, once each: every entry's counters and the dark clicks'
        cells = np.sort(np.concatenate(((base[:, None] + np.arange(N_DETECTORS) * n_bins).ravel(), at)))
        first = np.ones(cells.size, dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        _apply_dead_time(det, dead_bins, cells[first])
    return det
