"""End-to-end shot pipeline: pulse sampling, absorber cascade, detection, accumulation.

A single absorber is the one-stage cascade, and ``_run_batch`` is the only
loop over shots.  It runs them in blocks of ``block_rows`` rows, a number set
by the pulse alone.  Block b draws from the substream (seed, stream_key, b),
every variate a uniform from the raw bits of its bit generator, each draw
for all of its rows at once, in a fixed order: the input (``sample_input``:
each row's photon number, then each photon's bin), every stage in turn (one
uniform per photon), every stage's ion clicks (one per excitation), then,
for g2 only, the detection of the last stage's output in row slices of
``detect_rows`` rows, each slice one uniform per photon and then its dark
counts, so g2 leaves the stages unchanged.  A block passes through the
stages and on to detection as its nonzero entries in row-major order.  A
stage's entries join its ensemble as the stage runs, and its ion clicks
after the block's one ion draw.  The block size, its byte bound and the
detection slices live here.  Results never depend on batching, worker count
or execution order.  Every sum an output reads is taken from a block's
entries or rows in whole-block calls, over integers, so it is exact; the
run result holds one ensemble per stage, the ``OutcomeCounts`` and, if
requested, the g2 sums of the detected light.  Batches are whole blocks and
reduce as they arrive through ``absorber.merge``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from math import prod
from multiprocessing import Pool

import numpy as np

from .absorber import (
    _CHUNK,
    AbsorberParams,
    Accumulator,
    EnsembleResult,
    InverseCDF,
    merge,
    simulate_shot,
    substream,
    uniforms,
)
from .analytic import poisson_cdf, poisson_cut
from .detector import N_DETECTORS, DetectorConfig, detect_ions, detect_pulse
from .pulses import PulseSpec, tukey_envelope
from .stats import G2Accumulator

# Rows per block, the unit of randomness, and the bound on each of a block's
# per-photon arrays, at the most photons a row can draw: both are part of the
# stream definition.
_BLOCK = 1024
_PHOTON_BYTES = 1 << 21
# Rows of a detection slice at most, and the bound on its dense int64 clicks:
# with dark counts, part of the stream definition too.
_DETECT_ROWS = 256
_CLICK_BYTES = 1 << 21
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
        """Add a block's shots: their input photon numbers and, one row per stage, absorbed counts.

        Each shot's ``(n_in, stages fired)`` pair is counted as the flat key
        n_in * (k + 1) + fired, k stages, which ``pulses.MAX_PHOTONS`` keeps far below 2**63.
        """
        radix = len(self.radices) + 1
        keys, counts = np.unique(n_in * radix + np.count_nonzero(absorbed, axis=0), return_counts=True)
        n, fired = divmod(keys, radix)
        self.confusion.update(dict(zip(zip(n.tolist(), fired.tolist()), counts.tolist())))
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
    """Rows per block: ``_BLOCK``, fewer where a per-photon array of the block
    could pass ``_PHOTON_BYTES`` of int64, at the most photons a row draws
    (``analytic.poisson_cut``).

    A block holds no dense (rows, n_bins) array: its input, stages and
    detection draws are per photon, so neither the bin count nor the stage
    count enters.  The block size is part of the stream definition: changing
    it redraws every sample.
    """
    return max(1, min(_BLOCK, _PHOTON_BYTES // (8 * poisson_cut(pulse.mean_photons))))


def detect_rows(pulse: PulseSpec) -> int:
    """Rows per detection slice: ``_DETECT_ROWS``, fewer where the slice's dense
    int64 clicks, ``N_DETECTORS`` counters a bin, would pass ``_CLICK_BYTES``."""
    return max(1, min(_DETECT_ROWS, _CLICK_BYTES // (8 * N_DETECTORS * pulse.n_bins)))


def sample_input(n_rows: int, n_in_law: InverseCDF, bin_law: InverseCDF, rng: np.random.Generator):
    """The Poisson input of ``n_rows`` shots: each row's photon number, then its
    photons' bins, returned as the photon numbers and the block's entries
    (ascending flat indices into the (n_rows, n_bins) block, and their counts).

    A row draws one uniform and inverts ``n_in_law``, the
    ``analytic.poisson_cdf`` of the pulse's mean; then each photon, rows in
    order, draws one uniform and inverts ``bin_law``, the envelope's
    cumulative weights with the last inf.  A Poisson total split
    multinomially by the envelope is independent Poisson counts of the bin
    means.
    """
    n_in = n_in_law.draw(uniforms(rng, n_rows))
    n_bins = bin_law.cdf.size
    # a block's flat indices fit int32, which sorts faster and in half the bytes
    keys = np.repeat(np.arange(0, n_rows * n_bins, n_bins, dtype=np.int32), n_in)
    for lo in range(0, keys.size, _CHUNK):
        part = keys[lo : lo + _CHUNK]
        part += bin_law.draw(uniforms(rng, part.size))
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return n_in, keys[starts].astype(np.int64), np.diff(starts, append=keys.size)


def _run_batch(args) -> CascadeResult:
    (stages, pulse, detector, seed, stream_key, shots, blocks, g2_cell_bins) = args
    rows, slice_rows, n_bins = block_rows(pulse), detect_rows(pulse), pulse.n_bins
    bin_cdf = np.cumsum(tukey_envelope(pulse))
    bin_cdf[-1] = np.inf
    n_in_law, bin_law = InverseCDF(poisson_cdf(pulse.mean_photons)), InverseCDF(bin_cdf)
    per_stage = [EnsembleResult(n_bins, pulse.bin_width_us) for _ in stages]
    acc = None if g2_cell_bins is None else G2Accumulator(n_bins, pulse.bin_width_us, g2_cell_bins)
    outcomes = OutcomeCounts(*(3 if params.p_ryd2 else 2 for params in stages))
    for b in blocks:
        rng = substream(seed, *stream_key, b)
        shape = (min(rows, shots - b * rows), n_bins)
        n_in, idx, counts = sample_input(shape[0], n_in_law, bin_law, rng)
        absorbed = np.empty((len(stages), shape[0]), dtype=np.int64)
        # each stage's nonzero outputs are the next stage's input
        for k, (params, ens) in enumerate(zip(stages, per_stage)):
            rec = simulate_shot(params, shape, idx, counts, rng)
            absorbed[k] = rec.absorbed
            ens.add_shot(rec)
            live = rec.output_bins > 0
            idx, counts = idx[live], rec.output_bins[live]
        for ens, ions in zip(per_stage, detect_ions(absorbed, detector.eta_ion, rng)):
            ens.add_ions(ions)
        if acc is not None:
            for lo in range(0, shape[0], slice_rows):
                hi = min(lo + slice_rows, shape[0])
                part = slice(*np.searchsorted(idx, (lo * n_bins, hi * n_bins)))
                acc.add(detect_pulse((hi - lo, n_bins), idx[part] - lo * n_bins, counts[part],
                                     detector, rng, pulse.bin_width_us))
        outcomes.add(n_in, absorbed)
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
