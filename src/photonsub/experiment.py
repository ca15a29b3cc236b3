"""End-to-end shot pipeline: pulse sampling, absorber cascade, detection, accumulation.

A single absorber is the one-stage cascade, and ``_run_batch`` is the only
loop over shots.  It runs them in blocks of ``block_rows`` rows, a number set
by the pulse alone.  Block b draws from the substream (seed, stream_key, b),
each draw for all of its rows at once, in a fixed order: the Poisson input,
every stage in turn, every stage's ion clicks, then, for g2 only, the
detection of the last stage's output, one uniform per surviving photon, so g2
leaves the stages unchanged.  A block is dense only at the input draw and at
the counters: in between it passes through the stages and on to detection as
its nonzero entries in row-major order, which takes the same draws as the
dense block because ``binomial`` draws nothing for a zero count.  A stage's
entries join its ensemble as the stage runs, and its ion clicks after the
block's one ion draw.  The block size and its byte bound live here.  Results
never depend on batching, worker count or execution order.  Every sum an
output reads is taken from a block's entries or rows in whole-block calls,
over integers, so it is exact; the run result holds one ensemble per stage,
the ``OutcomeCounts`` and, if requested, the g2 sums of the detected light.
Batches are whole blocks and reduce as they arrive through ``absorber.merge``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from math import prod
from multiprocessing import Pool

import numpy as np

from .absorber import (
    AbsorberParams,
    Accumulator,
    EnsembleResult,
    merge,
    simulate_shot,
    substream,
)
from .detector import DetectorConfig, detect_ions, detect_pulse
from .pulses import PulseSpec, expected_bin_means
from .stats import G2Accumulator

# Rows per block, the unit of randomness, and the bound on a block's dense
# int64 input rows: both are part of the stream definition.
_BLOCK = 256
_BLOCK_BYTES = 1 << 19
# Shots per batch, in whole blocks; batches are the unit of work handed to the worker pool.
_BATCH_SHOTS = 20000
# Cells of the joint table of absorbed patterns kept at most: 8 MB of int64.
_JOINT_CELLS = 1 << 20


class OutcomeCounts(Accumulator):
    """Shots per ``(n_in, stages fired)`` and, up to ``_JOINT_CELLS`` cells, per absorbed pattern: one digit
    per stage, first stage first, of radix 2 without leakage (at most one photon absorbed), else 3."""

    def __init__(self, *radices: int) -> None:
        self.radices = radices
        vars(self).update(self.zero_sums())

    def zero_sums(self) -> dict:
        cells = prod(self.radices)
        return {"confusion": Counter(), "joint": np.zeros(cells if cells <= _JOINT_CELLS else 0, dtype=np.int64)}

    def _grid(self) -> tuple:
        return self.radices

    def add(self, n_in: np.ndarray, absorbed: np.ndarray) -> None:
        """Add a block's shots: their input photon numbers and, one row per stage, absorbed counts."""
        self.confusion.update(zip(n_in.tolist(), np.count_nonzero(absorbed, axis=0).tolist()))
        if self.joint.size:
            np.add.at(self.joint, np.ravel_multi_index(absorbed, self.radices), 1)


@dataclass
class CascadeResult:
    """Per-stage ensembles, the outcome counts and, if requested, the g2 sums of the detected output."""

    stages: list[EnsembleResult]
    outcomes: OutcomeCounts
    g2: G2Accumulator | None = None

    @property
    def shots(self) -> int:
        return self.stages[0].shots

    def merged(self, other: "CascadeResult") -> "CascadeResult":
        stages = [merge(a, b) for a, b in zip(self.stages, other.stages)]
        g2 = None if self.g2 is None else merge(self.g2, other.g2)
        return CascadeResult(stages, merge(self.outcomes, other.outcomes), g2)


def block_rows(pulse: PulseSpec) -> int:
    """Rows per block: ``_BLOCK``, fewer where the block's dense int64 input
    rows would exceed ``_BLOCK_BYTES``.

    A block is dense only at the input draw and, for g2, at the counters'
    clicks; the stages take its entries one stage at a time, so the stage
    count does not enter.  The block size is part of the stream definition:
    changing it redraws every sample.
    """
    return max(1, min(_BLOCK, _BLOCK_BYTES // (8 * pulse.n_bins)))


def _run_batch(args) -> CascadeResult:
    (stages, pulse, detector, seed, stream_key, shots, blocks, g2_cell_bins) = args
    lam = expected_bin_means(pulse)
    rows = block_rows(pulse)
    per_stage = [EnsembleResult(pulse.n_bins, pulse.bin_width_us) for _ in stages]
    acc = None if g2_cell_bins is None else G2Accumulator(pulse.n_bins, pulse.bin_width_us, g2_cell_bins)
    outcomes = OutcomeCounts(*(3 if params.p_ryd2 else 2 for params in stages))
    for b in blocks:
        rng = substream(seed, *stream_key, b)
        inp = rng.poisson(lam, size=(min(rows, shots - b * rows), pulse.n_bins))
        idx = np.flatnonzero(inp != 0)
        counts = inp.ravel()[idx]
        absorbed = np.empty((len(stages), len(inp)), dtype=np.int64)
        # each stage's nonzero outputs are the next stage's input
        for k, (params, ens) in enumerate(zip(stages, per_stage)):
            rec = simulate_shot(params, inp.shape, idx, counts, rng)
            absorbed[k] = rec.absorbed
            ens.add_shot(rec)
            live = rec.output_bins > 0
            idx, counts = idx[live], rec.output_bins[live]
        for ens, ions in zip(per_stage, detect_ions(absorbed, detector.eta_ion, rng)):
            ens.add_ions(ions)
        if acc is not None:
            acc.add(detect_pulse(inp.shape, idx, counts, detector, rng, pulse.bin_width_us))
        outcomes.add(inp.sum(axis=1), absorbed)
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
    rows = block_rows(pulse)
    n_blocks = -(-shots // rows)
    per_batch = max(1, _BATCH_SHOTS // rows)
    batches = [
        (stages, pulse, detector, seed, stream_key, shots, range(b, min(b + per_batch, n_blocks)), g2_cell_bins)
        for b in range(0, n_blocks, per_batch)
    ]
    parallel = workers > 1 and len(batches) > 1
    with Pool(processes=min(workers, len(batches))) if parallel else nullcontext() as pool:
        results = pool.imap(_run_batch, batches) if parallel else map(_run_batch, batches)
        # merged as they arrive: functools.reduce would hold two results while the next runs
        total = next(results)
        for result in results:
            total = total.merged(result)
    return total


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
