"""End-to-end shot pipeline: pulse sampling, absorber, detection, accumulation.

Shots are independent; each draws its randomness from a substream keyed by
(seed, stream_key, shot index), so results never depend on batching, worker
count or execution order.  Batches reduce through the exact ensemble merge.
"""

from __future__ import annotations

from multiprocessing import Pool

import numpy as np

from .absorber import (
    AbsorberParams,
    EnsembleResult,
    merge,
    simulate_shot,
    substream,
)
from .detector import DetectorConfig, detect_ions, detect_pulse
from .pulses import PulseSpec, expected_bin_means
from .stats import G2Accumulator

_BATCH_SHOTS = 20000


def default_cell_edges(n_bins: int, bins_per_cell: int) -> np.ndarray:
    """Cell grid for g2 estimation; a ragged final cell absorbs any remainder."""
    if bins_per_cell < 1:
        raise ValueError("bins_per_cell must be >= 1")
    edges = np.arange(0, n_bins + 1, bins_per_cell, dtype=np.int64)
    if edges[-1] != n_bins:
        edges = np.append(edges, n_bins)
    return edges


def _run_batch(args) -> EnsembleResult:
    (pulse, absorber, detector, seed, stream_key, start, stop, collect_g2, cell_edges) = args
    lam = expected_bin_means(pulse)
    ens = EnsembleResult(pulse.n_bins, pulse.bin_width_us)
    acc = None
    if collect_g2:
        acc = G2Accumulator(pulse.n_bins, pulse.bin_width_us, cell_edges)
    for i in range(start, stop):
        rng = substream(seed, *stream_key, i)
        rec = simulate_shot(absorber, rng.poisson(lam), rng)
        ens.add_shot(rec)
        ens.add_ion_clicks(detect_ions(rec.absorbed, detector.eta_ion, rng))
        if acc is not None:
            acc.add(detect_pulse(rec.output_bins, detector, rng, pulse.bin_width_us))
    ens.g2 = acc
    return ens


def run_point(
    pulse: PulseSpec,
    absorber: AbsorberParams,
    detector: DetectorConfig,
    shots: int,
    seed: int,
    *,
    stream_key: tuple[int, ...] = (),
    collect_g2: bool = False,
    cell_edges: np.ndarray | None = None,
    workers: int = 1,
    batch_shots: int = _BATCH_SHOTS,
) -> EnsembleResult:
    """Simulate one experimental setting including the detection chain."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    starts = list(range(0, shots, batch_shots))
    batches = [
        (pulse, absorber, detector, seed, stream_key, s, min(s + batch_shots, shots), collect_g2, cell_edges)
        for s in starts
    ]
    if workers == 1 or len(batches) == 1:
        results = [_run_batch(b) for b in batches]
    else:
        with Pool(processes=min(workers, len(batches))) as pool:
            results = pool.map(_run_batch, batches)
    ens = results[0]
    for other in results[1:]:
        ens = merge(ens, other)
    return ens
