"""End-to-end shot pipeline: pulse sampling, absorber cascade, detection, accumulation.

A single absorber is the one-stage cascade, and ``_run_batch`` is the only
loop over shots.  Each shot draws its randomness from a substream keyed by
(seed, stream_key, shot index), so results never depend on batching, worker
count or execution order.  Batches reduce through the exact ensemble merge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from multiprocessing import Pool

import numpy as np

from .absorber import (
    AbsorberParams,
    EnsembleResult,
    ShotRecord,
    merge,
    simulate_shot,
    substream,
)
from .detector import DetectorConfig, detect_ions, detect_pulse
from .pulses import BinnedCounts, PulseSpec, expected_bin_means
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


@dataclass
class CascadeResult:
    """Per-stage ensembles and shot counts per outcome ``(n_in, absorbed_0, ..., absorbed_{k-1})``."""

    stages: list[EnsembleResult]
    outcomes: Counter

    @property
    def shots(self) -> int:
        return self.stages[0].shots

    def merged(self, other: "CascadeResult") -> "CascadeResult":
        stages = [merge(a, b) for a, b in zip(self.stages, other.stages)]
        return CascadeResult(stages, self.outcomes + other.outcomes)


def cascade_shot(
    stages: tuple[AbsorberParams, ...] | list[AbsorberParams],
    input_bins: BinnedCounts,
    rng: np.random.Generator,
) -> list[ShotRecord]:
    """Send one pulse through a chain of absorbers; stage k feeds stage k+1."""
    if len(stages) == 0:
        raise ValueError("cascade needs at least one stage")
    records = []
    bins = input_bins
    for params in stages:
        rec = simulate_shot(params, bins, rng)
        records.append(rec)
        bins = rec.output_bins
    return records


def _run_batch(args) -> CascadeResult:
    (stages, pulse, detector, seed, stream_key, start, stop, collect_g2, cell_edges) = args
    lam = expected_bin_means(pulse)
    per_stage = [EnsembleResult(pulse.n_bins, pulse.bin_width_us) for _ in stages]
    acc = None
    if collect_g2:
        acc = per_stage[-1].g2 = G2Accumulator(pulse.n_bins, pulse.bin_width_us, cell_edges)
    outcomes: Counter = Counter()
    for i in range(start, stop):
        rng = substream(seed, *stream_key, i)
        records = cascade_shot(stages, rng.poisson(lam), rng)
        for ens, rec in zip(per_stage, records):
            ens.add_shot(rec)
            ens.ion_hist[detect_ions(rec.absorbed, detector.eta_ion, rng)] += 1
        if acc is not None:
            acc.add(detect_pulse(records[-1].output_bins, detector, rng, pulse.bin_width_us))
        outcomes[(records[0].n_in, *[rec.absorbed for rec in records])] += 1
    return CascadeResult(per_stage, outcomes)


def simulate_cascade(
    stages: tuple[AbsorberParams, ...] | list[AbsorberParams],
    pulse: PulseSpec,
    detector: DetectorConfig,
    shots: int,
    seed: int,
    *,
    stream_key: tuple[int, ...] = (),
    collect_g2: bool = False,
    cell_edges: np.ndarray | None = None,
    workers: int = 1,
    batch_shots: int = _BATCH_SHOTS,
) -> CascadeResult:
    """Run Poisson pulses through a chain of absorbers; the last stage's ensemble holds any g2."""
    if len(stages) == 0:
        raise ValueError("cascade needs at least one stage")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    batches = [
        (stages, pulse, detector, seed, stream_key, s, min(s + batch_shots, shots), collect_g2, cell_edges)
        for s in range(0, shots, batch_shots)
    ]
    if workers == 1 or len(batches) == 1:
        results = [_run_batch(b) for b in batches]
    else:
        with Pool(processes=min(workers, len(batches))) as pool:
            results = pool.map(_run_batch, batches)
    return reduce(CascadeResult.merged, results)


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
    return simulate_cascade(
        (absorber,), pulse, detector, shots, seed, stream_key=stream_key, collect_g2=collect_g2,
        cell_edges=cell_edges, workers=workers, batch_shots=batch_shots,
    ).stages[0]
