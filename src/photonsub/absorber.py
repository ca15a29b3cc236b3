"""Bin-wise Monte-Carlo transport of photon pulses through the absorber.

Photons are processed in bin order, photon-by-photon within a bin.  Each
photon is first lost to background scattering with probability 1 - t; a
surviving photon is converted into an excitation with probability p_ryd while
the medium holds no excitation, with probability p_ryd2 while it holds exactly
one, and never once it holds two.  The sequential per-photon Bernoulli trials
are realized through their run-length (geometric) form, which is identical in
distribution and takes a handful of vectorized draws for a whole block of
pulses; the test suite checks the equivalence against a literal per-photon
reference.  The block loop, for one absorber and for a cascade alike, is in
``experiment``; an ensemble holds one stage's sums, and the g2 sums of the
detected light belong to the run result there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

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
    """Pulses through the absorber, one shot (1-D rows, integer counts) or a block (2-D
    rows, one count per row): input and output rows, excitations created and photons
    lost to background scattering.  Totals and positions follow from the rows."""

    input_bins: np.ndarray
    output_bins: np.ndarray
    absorbed: int | np.ndarray
    background_lost: int | np.ndarray


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work, derived from (seed, key).

    Streams depend only on the key, never on execution order, so blocks of
    shots may be simulated in any order or in parallel.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def simulate_shot(
    params: AbsorberParams, input_bins: np.ndarray, rng: np.random.Generator
) -> ShotRecord:
    """Propagate one binned pulse, shape (n_bins,), or a block of them, shape (B, n_bins).

    A block draws in a fixed order whatever its counts: all survivors, then per
    row the gap to the first absorbed photon and, with leakage, to the second.
    One pulse is the block of one row.
    """
    counts = np.asarray(input_bins, dtype=np.int64)
    if counts.ndim == 1:
        rec = simulate_shot(params, counts[None], rng)
        return ShotRecord(counts, rec.output_bins[0], int(rec.absorbed[0]), int(rec.background_lost[0]))
    output = rng.binomial(counts, params.t)
    cum = np.cumsum(output, axis=1)
    n_surv = cum[:, -1]
    absorbed = np.zeros(len(counts), dtype=np.int64)
    pos = np.full(len(counts), -1)
    for held, p in enumerate((params.p_ryd, params.p_ryd2)):
        if p == 0.0:
            break
        # In rows holding `held` excitations the next absorbed photon is the first
        # success of Bernoulli(p) trials after the last, gap photons on in the surviving
        # stream; gap < n_surv - pos tests pos + gap < n_surv without an overflowing sum.
        gap = rng.geometric(p, size=len(counts))
        hit = (absorbed == held) & (gap < n_surv - pos)
        pos[hit] += gap[hit]
        # the photon at stream position pos lies in the bin of the first cumulative count above pos
        output[hit, (cum <= pos[:, None]).sum(axis=1)[hit]] -= 1
        absorbed += hit
    return ShotRecord(counts, output, absorbed, counts.sum(axis=1) - n_surv)


def _counts(size: int | None = None) -> Any:
    """An int64 array field, zero-filled with ``size`` entries or one per time bin."""
    return field(default=None, metadata={"size": size})


@dataclass
class EnsembleResult:
    """Mergeable accumulator of per-shot absorber statistics.

    Every field after the bin structure is an integer sum of fixed shape over
    shots, listed in ``SUMMED``; ``merge`` adds and ``equals`` compares that
    list field by field, so two results merge exactly and adding shots in
    blocks gives the same fields as adding them one at a time.
    """

    SUMMED: ClassVar[tuple[str, ...]]

    n_bins: int
    bin_width_us: float
    shots: int = 0
    out_total_sq_sum: int = 0
    in_bin_sums: np.ndarray = _counts()
    out_bin_sums: np.ndarray = _counts()
    in_bin_sq_sums: np.ndarray = _counts()
    out_bin_sq_sums: np.ndarray = _counts()
    inout_bin_sums: np.ndarray = _counts()
    absorbed_hist: np.ndarray = _counts(MAX_EXCITATIONS + 1)
    ion_hist: np.ndarray = _counts(MAX_EXCITATIONS + 1)

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        for f in fields(self):
            if "size" in f.metadata and getattr(self, f.name) is None:
                setattr(self, f.name, np.zeros(f.metadata["size"] or self.n_bins, dtype=np.int64))

    def add_block(
        self,
        inp: np.ndarray,
        out: np.ndarray,
        absorbed: np.ndarray,
        ions: np.ndarray,
    ) -> None:
        """Add B shots: (B, n_bins) input and output counts, and per shot the
        absorbed count and the ion clicks."""
        size = MAX_EXCITATIONS + 1
        total_out = out.sum(axis=1)
        self.shots += len(inp)
        self.out_total_sq_sum += int((total_out * total_out).sum())
        self.in_bin_sums += inp.sum(axis=0)
        self.out_bin_sums += out.sum(axis=0)
        self.in_bin_sq_sums += (inp * inp).sum(axis=0)
        self.out_bin_sq_sums += (out * out).sum(axis=0)
        self.inout_bin_sums += (inp * out).sum(axis=0)
        self.absorbed_hist += np.bincount(absorbed, minlength=size)
        self.ion_hist += np.bincount(ions, minlength=size)

    def add_shot(self, rec: ShotRecord, ions: int) -> None:
        """Add one shot and its ion clicks: the block of one row."""
        self.add_block(rec.input_bins[None], rec.output_bins[None], np.array([rec.absorbed]), np.array([ions]))

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

    def equals(self, other: "EnsembleResult") -> bool:
        return (self.n_bins, self.bin_width_us) == (other.n_bins, other.bin_width_us) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.SUMMED
        )


EnsembleResult.SUMMED = tuple(f.name for f in fields(EnsembleResult))[2:]


def merge(a: EnsembleResult, b: EnsembleResult) -> EnsembleResult:
    """Combine two ensembles shot-for-shot; associative and commutative."""
    if a.n_bins != b.n_bins or a.bin_width_us != b.bin_width_us:
        raise ValueError("cannot merge ensembles with different bin structure")
    sums = {name: getattr(a, name) + getattr(b, name) for name in a.SUMMED}
    return EnsembleResult(a.n_bins, a.bin_width_us, **sums)
