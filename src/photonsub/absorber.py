"""Bin-wise Monte-Carlo transport of photon pulses through the absorber.

Photons are processed in bin order, photon-by-photon within a bin.  Each
photon is first lost to background scattering with probability 1 - t; a
surviving photon is converted into an excitation with probability p_ryd while
the medium holds no excitation, with probability p_ryd2 while it holds exactly
one, and never once it holds two.  The sequential per-photon Bernoulli trials
are realized through their run-length (geometric) form, which is identical in
distribution and takes a handful of vectorized draws for a whole block of
pulses; the test suite checks the equivalence against a literal per-photon
reference.  A block of pulses is carried as its nonzero entries: flat indices
into the (B, n_bins) block in row-major order, and their counts.  The stage
kernel ``simulate_shot`` and the ensemble sums ``EnsembleResult.add_shot``
touch only those entries; as ``binomial`` draws nothing for a zero count, the
draws are those of the dense block.  The block loop, for one absorber and for
a cascade alike, is in ``experiment``; an ensemble holds one stage's sums; the
outcome counts and the g2 sums of the detected light belong to the run result
there.  All three run accumulators follow one ``Accumulator`` protocol: each
lists its summed fields once, in ``zero_sums``, and ``merge`` adds them
exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._checks import check_unit_interval

MAX_EXCITATIONS = 2


@dataclass(frozen=True)
class AbsorberParams:
    """Single-photon conversion probability, blockade leakage and linear loss."""

    p_ryd: float = 0.35
    p_ryd2: float = 0.001
    t: float = 0.99

    def __post_init__(self) -> None:
        check_unit_interval(p_ryd=self.p_ryd, p_ryd2=self.p_ryd2, t=self.t)
        if self.p_ryd2 > self.p_ryd:
            warnings.warn(
                "p_ryd2 exceeds p_ryd: second absorption more likely than first",
                stacklevel=2,
            )


@dataclass
class ShotRecord:
    """A block of pulses of ``shape`` (B, n_bins) through one absorber stage, as the
    block's entries: ascending flat indices ``idx`` into it, the input and output
    counts there (every other entry is zero in both), and the excitations created
    in each row.  Totals, positions and the photons lost to background scattering
    follow from these."""

    shape: tuple[int, int]
    idx: np.ndarray
    input_bins: np.ndarray
    output_bins: np.ndarray
    absorbed: np.ndarray


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work, derived from (seed, key).

    Streams depend only on the key, never on execution order, so blocks of
    shots may be simulated in any order or in parallel.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def simulate_shot(
    params: AbsorberParams, shape: tuple[int, int], idx: np.ndarray, counts: np.ndarray, rng: np.random.Generator
) -> ShotRecord:
    """One absorber stage on a block of ``shape`` (B, n_bins), given as its nonzero entries.

    ``idx`` holds the entries' flat indices into the block, ascending (row-major
    order), and ``counts`` their photon counts; every other entry is zero.
    Returns the block's record: the output count of each entry, zeros
    included, and the absorbed count of each of the B rows.  The draws are
    those of the dense block in a fixed order: all survivors, then per row the
    gap to the first absorbed photon and, with leakage, to the second.
    ``binomial`` draws nothing for a zero count, so the survivors of the
    nonzero entries alone take the same draws as those of the whole block.
    """
    n_rows, n_bins = shape
    output = rng.binomial(counts, params.t)
    rows = idx // n_bins
    n_surv = np.zeros(n_rows, dtype=np.int64)
    np.add.at(n_surv, rows, output)
    # survivors up to each entry and before each row, before any is absorbed
    run = np.cumsum(output)
    before = np.cumsum(n_surv) - n_surv
    absorbed = np.zeros(n_rows, dtype=np.int64)
    pos = np.full(n_rows, -1, dtype=np.int64)
    for held, p in enumerate((params.p_ryd, params.p_ryd2)):
        if p == 0.0:
            break
        # In rows holding `held` excitations the next absorbed photon is the first
        # success of Bernoulli(p) trials after the last, gap photons on in the surviving
        # stream; gap < n_surv - pos tests pos + gap < n_surv without an overflowing sum.
        gap = rng.geometric(p, size=n_rows)
        hit = (absorbed == held) & (gap < n_surv - pos)
        pos[hit] += gap[hit]
        # the photon at stream position pos of a row is in the first entry whose
        # running survivor count exceeds the survivors of earlier rows plus pos
        hit_rows = np.flatnonzero(hit)
        output[np.searchsorted(run, before[hit_rows] + pos[hit_rows], side="right")] -= 1
        absorbed += hit
    return ShotRecord(shape, idx, counts, output, absorbed)


class Accumulator:
    """Exact-sum protocol of the run accumulators.

    A subclass lists every summed field at zero in ``zero_sums`` and the
    structure two accumulators must share to combine in ``_grid``, which is
    also its constructor's arguments; its constructor sets the fields from
    ``zero_sums``.  ``merged`` adds and ``equals`` compares those fields one
    by one, so merging is exact, associative and commutative.
    """

    def merged(self, other: "Accumulator") -> "Accumulator":
        if type(self) is not type(other) or self._grid() != other._grid():
            raise ValueError("cannot merge accumulators of different types or grids")
        out = type(self)(*self._grid())
        vars(out).update({name: getattr(self, name) + getattr(other, name) for name in self.zero_sums()})
        return out

    def equals(self, other: "Accumulator") -> bool:
        return type(self) is type(other) and self._grid() == other._grid() and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.zero_sums()
        )


class EnsembleResult(Accumulator):
    """Mergeable accumulator of per-shot absorber statistics: integer sums of
    fixed shape over shots, on a grid of ``n_bins`` bins of ``bin_width_us``."""

    def __init__(self, n_bins: int, bin_width_us: float) -> None:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.n_bins = n_bins
        self.bin_width_us = bin_width_us
        vars(self).update(self.zero_sums())

    def zero_sums(self) -> dict[str, Any]:
        bins = ("in_bin_sums", "out_bin_sums", "in_bin_sq_sums", "out_bin_sq_sums", "inout_bin_sums")
        return {
            "shots": 0,
            "out_total_sq_sum": 0,
            **{name: np.zeros(self.n_bins, dtype=np.int64) for name in bins},
            **{name: np.zeros(MAX_EXCITATIONS + 1, dtype=np.int64) for name in ("absorbed_hist", "ion_hist")},
        }

    def _grid(self) -> tuple:
        return (self.n_bins, self.bin_width_us)

    def add_shot(self, rec: ShotRecord) -> None:
        """Add the block of ``rec``, one shot a row: the input and output counts
        of its entries, every other entry zero in both, and per shot the absorbed
        count (``add_ions`` adds the ion clicks).

        Every sum is an int64 scatter-add, exact however large the counts.
        """
        n_rows = rec.shape[0]
        inp, out = rec.input_bins, rec.output_bins
        rows = rec.idx // self.n_bins
        bins = rec.idx - rows * self.n_bins
        total_out = np.zeros(n_rows, dtype=np.int64)
        np.add.at(total_out, rows, out)
        self.shots += n_rows
        self.out_total_sq_sum += int((total_out * total_out).sum())
        for sums, values in (
            (self.in_bin_sums, inp),
            (self.out_bin_sums, out),
            (self.in_bin_sq_sums, inp * inp),
            (self.out_bin_sq_sums, out * out),
            (self.inout_bin_sums, inp * out),
        ):
            np.add.at(sums, bins, values)
        self.absorbed_hist += np.bincount(rec.absorbed, minlength=MAX_EXCITATIONS + 1)

    def add_ions(self, ions: np.ndarray) -> None:
        """Add the ion clicks of shots added through ``add_shot``, one count per shot."""
        self.ion_hist += np.bincount(ions, minlength=MAX_EXCITATIONS + 1)

    @property
    def mean_in(self) -> float:
        return int(self.in_bin_sums.sum()) / self.shots

    @property
    def mean_out(self) -> float:
        return int(self.out_bin_sums.sum()) / self.shots

    @property
    def sem_out(self) -> float:
        n = self.shots
        if n < 2:
            return 0.0
        return float(np.sqrt((self.out_total_sq_sum - n * self.mean_out**2) / (n - 1) / n))


def merge(a: Accumulator, b: Accumulator) -> Accumulator:
    """Combine two accumulators shot for shot; associative and commutative."""
    return a.merged(b)
