"""Per-photon Monte-Carlo transport of photon pulses through the absorber.

Photons pass in bin order, and each draws one uniform u on [0, 1): it is
lost to background scattering if u >= t; a surviving photon is converted
into an excitation if u < t*p_ryd while the medium holds no excitation, if
u < t*p_ryd2 while it holds exactly one, and never once it holds two.  As u/t
is uniform given survival, this is the sequential per-photon law with one
draw a photon.  Every variate of a run is such a uniform, taken from the raw
64-bit outputs of the block's bit generator (``uniforms``), so the stream
rests on ``SeedSequence`` and the bit generator alone, never on a
``Generator`` distribution method.  A block of pulses is carried as its
nonzero entries: flat indices into the (B, n_bins) block in row-major order,
and their counts.  The stage kernel ``simulate_shot`` touches only those
entries, and also returns each row's photons in and out, which it has at
hand.  An ensemble holds one stage's sums: its totals come from those row
counts, and only an ensemble made with ``bin_sums`` scatters the entries
into per-bin sums.  The block loop, for one absorber and for a cascade
alike, is in ``experiment``; the outcome counts and the g2 sums of the
detected light belong to the run result there.  All three run accumulators
follow one ``Accumulator`` protocol: each lists its summed fields once, in
``zero_sums``, and ``merge`` adds them exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._checks import check_unit_interval

MAX_EXCITATIONS = 2
# Uniforms a stage draws at a time: 64 KiB.
_CHUNK = 1 << 13


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
    counts there (every other entry is zero in both), and per row the excitations
    created and the photons in and out.  Positions and the photons lost to
    background scattering follow from these."""

    shape: tuple[int, int]
    idx: np.ndarray
    input_bins: np.ndarray
    output_bins: np.ndarray
    absorbed: np.ndarray
    input_totals: np.ndarray
    output_totals: np.ndarray


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work, derived from (seed, key).

    Streams depend only on the key, never on execution order, so blocks of
    shots may be simulated in any order or in parallel.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), in order: the top 53 bits of each raw 64-bit
    output of ``rng``'s bit generator, times 2**-53."""
    u = (rng.bit_generator.random_raw(n) >> 11).astype(np.float64)
    u *= 2.0**-53
    return u


class InverseCDF:
    """Draws from a table by inversion: ``draw(u)`` is, for each uniform u, the
    number of ``cdf`` entries at or below it, ``searchsorted(cdf, u,
    side="right")``.  ``cdf`` must ascend and end above every u (inf, say).

    A guide table (Chen and Asau) holds the draw at each multiple of 1/G,
    G a power of two and at least four times the table.  u starts at the
    draw of the multiple below it and steps up past each entry at or below
    it; only a u whose 1/G holds an entry steps.  So a draw costs a gather
    and a compare, not a binary search, and equals ``searchsorted`` exactly,
    since u * G is exact.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        self.cdf = cdf
        size = 1 << (4 * cdf.size - 1).bit_length()
        # entry j lies at or below k / size from k = ceil(cdf[j] * size) on, and cdf * size is exact
        first = np.ceil(np.minimum(cdf * size, size)).astype(np.intp)
        self.guide = np.cumsum(np.bincount(first, minlength=size + 1)[:size])

    def draw(self, u: np.ndarray) -> np.ndarray:
        k = self.guide[(u * self.guide.size).astype(np.intp)]
        step = np.flatnonzero(u >= self.cdf[k])
        while step.size:
            k[step] += 1
            step = step[u[step] >= self.cdf[k[step]]]
        return k


def simulate_shot(
    params: AbsorberParams, shape: tuple[int, int], idx: np.ndarray, counts: np.ndarray, rng: np.random.Generator
) -> ShotRecord:
    """One absorber stage on a block of ``shape`` (B, n_bins), given as its nonzero entries.

    ``idx`` holds the entries' flat indices into the block, ascending (row-major
    order), and ``counts`` their photon counts; every other entry is zero.
    Returns the block's record: the output count of each entry, zeros
    included, and the absorbed count and the photons in and out of each of
    the B rows.  Each photon draws one uniform, the photons of the entries
    in order.  In each row the first photon with u < t*p_ryd is absorbed
    and then, with leakage, the first later one with u < t*p_ryd2; the
    photons with u >= t are lost.
    Photons of one entry share a bin, so their order within it does not
    matter.  The entry of photon k is the number of entries that end at or
    before it, so no array is as long as the photons but the positions of
    the candidates.
    """
    n_rows, n_bins = shape
    ends = np.cumsum(counts)
    n = int(ends[-1]) if ends.size else 0
    # the photons lost, and those that may convert first and second: the
    # uniforms are drawn a chunk at a time and only these positions are kept
    found = ([], [], [])
    for lo in range(0, max(n, 1), _CHUNK):
        u = uniforms(rng, min(_CHUNK, n - lo))
        for positions, where in zip(found, (u >= params.t, u < params.t * params.p_ryd, u < params.t * params.p_ryd2)):
            positions.append(np.flatnonzero(where) + lo)
    lost, *candidates = (np.concatenate(positions) for positions in found)
    # the photons of row r are [bounds[r], bounds[r + 1])
    bounds = np.concatenate(([0], ends))[np.searchsorted(idx, np.arange(n_rows + 1) * n_bins)]
    output = np.bincount(np.searchsorted(ends, lost, side="right"), minlength=idx.size)
    np.subtract(counts, output, out=output)
    absorbed = np.zeros(n_rows, dtype=np.int64)
    # where each row's next absorbed photon may lie: from its first photon, then past the one absorbed
    after = bounds[:-1]
    for held, hit in enumerate(candidates):
        # each row's first candidate from ``after`` on, or past every photon where none is
        after = np.append(hit, n)[np.searchsorted(hit, after, side="right" if held else "left")]
        rows = np.flatnonzero((absorbed == held) & (after < bounds[1:]))
        output[np.searchsorted(ends, after[rows], side="right")] -= 1
        absorbed[rows] += 1
    input_totals = np.diff(bounds)
    # a row's photons out: in, less those absorbed and those lost, which ascend
    output_totals = input_totals - absorbed - np.diff(np.searchsorted(lost, bounds))
    return ShotRecord(shape, idx, counts, output, absorbed, input_totals, output_totals)


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
    fixed shape over shots, on a grid of ``n_bins`` bins of ``bin_width_us``.

    The totals and histograms are always kept; the five per-bin sums that
    ``stats.pulse_shape`` reads only with ``bin_sums``.
    """

    def __init__(self, n_bins: int, bin_width_us: float, bin_sums: bool = True) -> None:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.n_bins = n_bins
        self.bin_width_us = bin_width_us
        self.bin_sums = bin_sums
        vars(self).update(self.zero_sums())

    def zero_sums(self) -> dict[str, Any]:
        bins = ("in_bin_sums", "out_bin_sums", "in_bin_sq_sums", "out_bin_sq_sums", "inout_bin_sums")
        return {
            "shots": 0,
            "in_total_sum": 0,
            "out_total_sum": 0,
            "out_total_sq_sum": 0,
            **{name: np.zeros(self.n_bins, dtype=np.int64) for name in bins if self.bin_sums},
            **{name: np.zeros(MAX_EXCITATIONS + 1, dtype=np.int64) for name in ("absorbed_hist", "ion_hist")},
        }

    def _grid(self) -> tuple:
        return (self.n_bins, self.bin_width_us, self.bin_sums)

    def add_shot(self, rec: ShotRecord) -> None:
        """Add the block of ``rec``, one shot a row: per shot its photons in and
        out and its absorbed count (``add_ions`` adds the ion clicks) and, with
        ``bin_sums``, the input and output counts of its entries, every other
        entry zero in both.

        The totals come from the record's row counts, so only the per-bin sums
        touch the entries, as int64 scatter-adds; every sum is exact however
        large the counts.
        """
        total_out = rec.output_totals
        self.shots += rec.shape[0]
        self.in_total_sum += int(rec.input_totals.sum())
        self.out_total_sum += int(total_out.sum())
        self.out_total_sq_sum += int((total_out * total_out).sum())
        self.absorbed_hist += np.bincount(rec.absorbed, minlength=MAX_EXCITATIONS + 1)
        if self.bin_sums:
            inp, out = rec.input_bins, rec.output_bins
            bins = rec.idx % self.n_bins
            # one product at a time: each is as long as the entries
            np.add.at(self.in_bin_sums, bins, inp)
            np.add.at(self.out_bin_sums, bins, out)
            np.add.at(self.in_bin_sq_sums, bins, inp * inp)
            np.add.at(self.out_bin_sq_sums, bins, out * out)
            np.add.at(self.inout_bin_sums, bins, inp * out)

    def add_ions(self, ions: np.ndarray) -> None:
        """Add the ion clicks of shots added through ``add_shot``, one count per shot."""
        self.ion_hist += np.bincount(ions, minlength=MAX_EXCITATIONS + 1)

    @property
    def mean_in(self) -> float:
        return self.in_total_sum / self.shots

    @property
    def mean_out(self) -> float:
        return self.out_total_sum / self.shots

    @property
    def sem_out(self) -> float:
        n = self.shots
        if n < 2:
            return 0.0
        return float(np.sqrt((self.out_total_sq_sum - n * self.mean_out**2) / (n - 1) / n))


def merge(a: Accumulator, b: Accumulator) -> Accumulator:
    """Combine two accumulators shot for shot; associative and commutative."""
    return a.merged(b)
