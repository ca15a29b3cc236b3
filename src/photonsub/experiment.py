"""End-to-end shot pipeline: pulse sampling, absorber cascade, detection, accumulation.

A single absorber is the one-stage cascade, and ``_run_batch`` is the only
loop over shots.  Each shot draws its randomness from a substream keyed by
(seed, stream_key, shot index), so results never depend on batching, worker
count or execution order.  Within a shot the draws come in a fixed order:
the Poisson input, every stage in turn, each stage's ion clicks in stage
order, then the detection of the last stage's output.  A shot's rows are its
whole record: the loop writes the input and output counts of every stage, the
absorbed counts, the ion clicks and the detector clicks of up to ``_CHUNK``
shots into block arrays, and every sum an output reads (totals, histograms,
outcomes, g2 products) is taken from those arrays in one ``add_block`` call
per accumulator.  Every sum is over integers, so the block sums equal the
per-shot sums exactly.  The run result holds one ensemble per stage and, when
requested, the g2 sums of the light the four counters detect behind the last
stage.  Batches reduce through the exact merges.
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
    merge,
    simulate_shot,
    substream,
)
from .detector import N_DETECTORS, DetectorConfig, detect_ions, detect_pulse
from .pulses import PulseSpec, expected_bin_means
from .stats import G2Accumulator

# Shots per batch; batches are the unit of work handed to the worker pool.
_BATCH_SHOTS = 20000
# Shots per accumulation block, fewer where a block's rows and g2 maps would
# exceed _CHUNK_BYTES (long pulses, long cascades, fine g2 grids).
_CHUNK = 64
_CHUNK_BYTES = 1 << 20


@dataclass
class CascadeResult:
    """Per-stage ensembles, shot counts per outcome ``(n_in, absorbed_0, ..., absorbed_{k-1})``
    and, if requested, the g2 sums of the detected output."""

    stages: list[EnsembleResult]
    outcomes: Counter
    g2: G2Accumulator | None = None

    @property
    def shots(self) -> int:
        return self.stages[0].shots

    def merged(self, other: "CascadeResult") -> "CascadeResult":
        stages = [merge(a, b) for a, b in zip(self.stages, other.stages)]
        g2 = None if self.g2 is None else self.g2.merged(other.g2)
        return CascadeResult(stages, self.outcomes + other.outcomes, g2)


def _run_batch(args) -> CascadeResult:
    (stages, pulse, detector, seed, stream_key, start, stop, g2_cell_bins) = args
    lam = expected_bin_means(pulse)
    n_bins, n_stages = pulse.n_bins, len(stages)
    per_stage = [EnsembleResult(n_bins, pulse.bin_width_us) for _ in stages]
    shot_bytes = 8 * n_bins * (n_stages + 1)
    acc = None
    if g2_cell_bins is not None:
        acc = G2Accumulator(n_bins, pulse.bin_width_us, g2_cell_bins)
        shot_bytes += 8 * (N_DETECTORS * n_bins + acc.n_cells**2)
    chunk = max(1, min(_CHUNK, _CHUNK_BYTES // shot_bytes))
    # bins[k] holds the input rows of stage k, bins[k + 1] its output rows
    bins = np.empty((n_stages + 1, chunk, n_bins), dtype=np.int64)
    absorbed, ions = (np.empty((n_stages, chunk), dtype=np.int64) for _ in range(2))
    det = np.empty((chunk, N_DETECTORS, n_bins), dtype=np.int64) if acc is not None else None
    outcomes: Counter = Counter()
    for lo in range(start, stop, chunk):
        rows = min(chunk, stop - lo)
        for r in range(rows):
            rng = substream(seed, *stream_key, lo + r)
            bins[0, r] = rng.poisson(lam)
            for k, params in enumerate(stages):
                rec = simulate_shot(params, bins[k, r], rng)
                bins[k + 1, r] = rec.output_bins
                absorbed[k, r] = rec.absorbed
            for k in range(n_stages):
                ions[k, r] = detect_ions(absorbed[k, r], detector.eta_ion, rng)
            if acc is not None:
                det[r] = detect_pulse(bins[-1, r], detector, rng, pulse.bin_width_us)
        for k, ens in enumerate(per_stage):
            ens.add_block(bins[k, :rows], bins[k + 1, :rows], absorbed[k, :rows], ions[k, :rows])
        if acc is not None:
            acc.add_block(det[:rows])
        outcomes.update(zip(bins[0, :rows].sum(axis=1).tolist(), *absorbed[:, :rows].tolist()))
    return CascadeResult(per_stage, outcomes, acc)


def simulate_cascade(
    stages: tuple[AbsorberParams, ...] | list[AbsorberParams],
    pulse: PulseSpec,
    detector: DetectorConfig,
    shots: int,
    seed: int,
    *,
    stream_key: tuple[int, ...] = (),
    g2_cell_bins: int | None = None,
    workers: int = 1,
) -> CascadeResult:
    """Run Poisson pulses through a chain of absorbers.

    With ``g2_cell_bins`` set, the result's ``g2`` holds the intensity
    correlations of the last stage's detected output on cells of that many
    bins.
    """
    if len(stages) == 0:
        raise ValueError("cascade needs at least one stage")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    batches = [
        (stages, pulse, detector, seed, stream_key, s, min(s + _BATCH_SHOTS, shots), g2_cell_bins)
        for s in range(0, shots, _BATCH_SHOTS)
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
    workers: int = 1,
) -> EnsembleResult:
    """Simulate one experimental setting including the detection chain."""
    return simulate_cascade(
        (absorber,), pulse, detector, shots, seed, stream_key=stream_key, workers=workers
    ).stages[0]
