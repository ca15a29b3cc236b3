"""Ensemble statistics: Mandel-Q, pooled g2 maps, pulse shapes, deficits.

``hist_stats`` gives a count histogram's mean, Mandel-Q and Q/mean with their
standard errors from one moments pass; ``hist_mean``, ``mandel_q`` and the
other single-value functions are views of it.  A g2 cell pools the detector
pairs: (Y + Y^T)/n / (D + D^T), defined at ``G2Matrix``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, NamedTuple

import numpy as np

from .absorber import Accumulator, EnsembleResult
from .detector import N_DETECTORS


# ---------------------------------------------------------------------------
# counting statistics from histograms

class HistStats(NamedTuple):
    """Mean, Mandel-Q and Q/mean of a count histogram, each with its standard
    error; Q/mean is -1 for Bernoulli counts."""

    mean: float
    mean_sem: float
    mandel_q: float
    mandel_q_sem: float
    q_over_mean: float
    q_over_mean_sem: float


# The exponents of the third and fourth moments, one row each.
_CUBE_FOURTH = np.array([[3.0], [4.0]])


def _sum(values: list[float]) -> float:
    """``values`` added left to right; -0.0 is the exact identity of float addition."""
    return reduce(operator.add, values, -0.0)


def hist_stats(hist: np.ndarray) -> HistStats:
    """All six statistics from one moments pass.

    Mandel-Q = Var(n)/<n> - 1 (unbiased variance) and Q/mean divide by the
    mean, so those four are nan for zero-mean counts.  The errors are
    delta-method standard errors.

    The pass runs over the bins as Python floats, since the histograms are
    short.  Its sums add left to right, numpy's order up to seven terms, and
    the deviations' cubes and fourth powers come from numpy's ``power``,
    which rounds unlike C's ``pow``; so up to seven bins every moment equals
    that of the same formulas on numpy arrays bit for bit.
    """
    hist = np.asarray(hist, dtype=float)
    counts = hist.tolist()
    if hist.ndim != 1 or any(c < 0 for c in counts):
        raise ValueError("histogram must be a 1-D array of non-negative counts")
    n = _sum(counts)
    if n < 1:
        raise ValueError("empty histogram")
    mean = _sum([k * c for k, c in enumerate(counts)]) / n
    d = [k - mean for k in range(len(counts))]
    cubes, fourths = np.power(d, _CUBE_FOURTH).tolist()
    mu2 = _sum([c * (x * x) for c, x in zip(counts, d)]) / n
    mu3 = _sum([c * x for c, x in zip(counts, cubes)]) / n
    mu4 = _sum([c * x for c, x in zip(counts, fourths)]) / n
    var = mu2 * n / (n - 1) if n > 1 else 0.0
    # sampling (co)variances of the mean and variance estimates
    var_mean = mu2 / n
    var_var = max(0.0, (mu4 - mu2**2 * (n - 3) / (n - 1)) / n) if n > 1 else 0.0
    cov = mu3 / n
    mean_sem = math.sqrt(var / n)
    if mean == 0.0:
        return HistStats(mean, mean_sem, math.nan, math.nan, math.nan, math.nan)
    q = var / mean - 1.0
    d_var = 1.0 / mean
    d_mean = -var / mean**2
    q_sem = math.sqrt(max(0.0, d_var**2 * var_var + d_mean**2 * var_mean + 2 * d_var * d_mean * cov))
    d_var = 1.0 / mean**2
    d_mean = (mean - 2.0 * var) / mean**3
    ratio_sem = math.sqrt(max(0.0, d_var**2 * var_var + d_mean**2 * var_mean + 2 * d_var * d_mean * cov))
    return HistStats(mean, mean_sem, q, q_sem, q / mean, ratio_sem)


def _nonzero_mean(hist: np.ndarray, what: str) -> HistStats:
    """``hist_stats(hist)``, raising where ``what`` is undefined for zero-mean counts."""
    result = hist_stats(hist)
    if result.mean == 0.0:
        raise ValueError(f"{what} undefined for zero-mean counts")
    return result


# One-line views of hist_stats, for callers that need one value.

def hist_mean(hist: np.ndarray) -> float:
    return hist_stats(hist).mean


def hist_mean_sem(hist: np.ndarray) -> float:
    return hist_stats(hist).mean_sem


def mandel_q(hist: np.ndarray) -> float:
    return _nonzero_mean(hist, "Mandel-Q").mandel_q


def mandel_q_sem(hist: np.ndarray) -> float:
    return _nonzero_mean(hist, "Mandel-Q").mandel_q_sem


def q_over_mean(hist: np.ndarray) -> float:
    return _nonzero_mean(hist, "Q/mean").q_over_mean


def q_over_mean_sem(hist: np.ndarray) -> float:
    return _nonzero_mean(hist, "Q/mean").q_over_mean_sem


# ---------------------------------------------------------------------------
# time-resolved intensity correlations

def pulse_thirds(edges: np.ndarray, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the intervals between bin-index ``edges`` whose centres lie
    in the first and in the last third of the pulse, which ends at the last edge."""
    centers = (edges[:-1] + edges[1:]) / 2.0 * bin_width_us
    duration = edges[-1] * bin_width_us
    return centers < duration / 3.0, centers >= 2.0 * duration / 3.0


@dataclass
class G2Matrix:
    """Pooled g2(t1, t2) estimates on a cell grid, all exactly symmetric.

    Over n shots, with x_a a shot's cell clicks on detector a and m_a their
    mean, Y sums y = sum_{a<b} x_a x_b^T and D = sum_{a<b} m_a m_b^T.  Then
    ``values`` is (Y + Y^T)/n / (D + D^T), NaN where D + D^T is 0, and
    ``sigma`` sqrt((V + V^T)/(2n)) / ((D + D^T)/2), V the cells' sample
    variance of y: exact on the diagonal, conservative off it.  ``counts`` is
    (Y + Y^T)/2; ``front_g2``/``rear_g2`` pool the first-third and last-third
    blocks of the pulse with exact per-shot error propagation.
    """

    cell_edges_us: np.ndarray
    values: np.ndarray
    sigma: np.ndarray
    counts: np.ndarray
    front_g2: float
    front_sigma: float
    rear_g2: float
    rear_sigma: float


# The largest grid: the sums hold 2 (cell, cell) maps of doubles, 16 MB here.
# add takes 6-row slices and peaks at 1.2 MB on the clicks of a 15.76-photon
# pulse, at 3.5 MB with 80 clicks a row and at 2.9 MB when every cell clicks:
# the 0.9 MB slice buffer and one chunk of one product and its flat indices;
# finalize peaks at 57 MB, 24 MB of it the three maps it returns (tracemalloc).
MAX_CELLS = 1000
# Bytes of a g2 slice's per-row arrays (padded clicks, cell sums, their
# later-detector sums and stacked products, never a per-shot map), which live
# in one buffer the accumulator keeps: a whole 256-row block at 20 cells, 29
# rows at 200 cells, 6 at MAX_CELLS.  The buffer is kept between blocks
# because arrays freed after each slice are faulted in again: whole 256-row
# slices at 20 cells took 0.8 minor faults a shot that way.  Kept, a larger
# slice costs no faults and fewer calls per row.
_SLICE_BYTES = 7 << 17
# Bytes of a chunk of one product over the touched cells and its flat
# indices, which is scattered into a sum: half of one MAX_CELLS map.
_PRODUCT_BYTES = 4 * MAX_CELLS**2


def _scatter_add(total: np.ndarray, where: slice | np.ndarray, product: np.ndarray) -> None:
    """Add the (rows, cols) ``product`` to the rows ``where`` of the (c, c)
    ``total``, or, given flat indices, to those entries."""
    if isinstance(where, slice):
        total[where] += product
    else:
        np.add.at(total.reshape(-1), where, product.reshape(-1))


class G2Accumulator(Accumulator):
    """Streaming accumulator for pooled intensity correlations.

    Feeds on blocks of per-shot (N_DETECTORS, n_bins) click arrays.  The cell
    grid is uniform, ``bins_per_cell`` bins a cell, with any remainder in the
    last cell.  It keeps only the sums that ``finalize`` cannot derive: the
    per-detector marginals, ``y_sum`` (Y of ``G2Matrix``, whose pooled ratio
    ``finalize`` takes), and the squared sums of each shot's y and of its
    front-third and rear-third totals, which give the error bars.  It merges
    and compares through the ``Accumulator`` protocol, over the fields of
    ``zero_sums``.
    """

    def __init__(self, n_bins: int, bin_width_us: float, bins_per_cell: int) -> None:
        if bins_per_cell < 1:
            raise ValueError(f"bins_per_cell must be >= 1, got {bins_per_cell}")
        edges = np.append(np.arange(0, n_bins, bins_per_cell), n_bins)
        if edges.size - 1 > MAX_CELLS:
            raise ValueError(
                f"a g2 grid of {edges.size - 1} cells exceeds {MAX_CELLS}; use wider cells (g2.cell_ns)"
            )
        self.n_bins = n_bins
        self.bin_width_us = bin_width_us
        self.bins_per_cell = bins_per_cell
        self.n_det = N_DETECTORS
        self.cell_edges = edges
        self.pairs = [(a, b) for a in range(self.n_det) for b in range(a + 1, self.n_det)]
        self._front, self._rear = pulse_thirds(edges, bin_width_us)
        # the front and rear third masks, and the number of detector pairs d <= e of the squared map
        self._thirds = np.array([self._front, self._rear], dtype=float)
        self._n_stack = self.n_det * (self.n_det - 1) // 2
        # doubles per row of the slice buffer: its clicks padded to whole cells and
        # their cell sums, then x over the touched cells and the two third
        # columns, later and the two stacks of products; the GEMM of y's sum
        # reads x and later in place
        c = self.n_cells
        self._row_doubles = max(self.n_det * c * (bins_per_cell + 1), (2 * self.n_det - 1 + 2 * self._n_stack) * (c + 2))
        self._work = np.empty(0)
        vars(self).update(self.zero_sums())

    def __getstate__(self) -> dict[str, Any]:
        # the slice buffer is scratch space: pickles, and so worker results, leave it out
        return {**vars(self), "_work": np.empty(0)}

    def zero_sums(self) -> dict[str, Any]:
        c = self.n_cells
        return {
            "shots": 0,
            "marg_sums": np.zeros((self.n_det, c)),
            "y_sum": np.zeros((c, c)),
            "y_sq_sum": np.zeros((c, c)),
            "front_sq_sum": 0.0,
            "rear_sq_sum": 0.0,
        }

    @property
    def n_cells(self) -> int:
        return self.cell_edges.size - 1

    def add(self, det_bins: np.ndarray) -> None:
        """Add B shots of (n_det, n_bins) click arrays, given as one (B, n_det, n_bins) array.

        The block is added in slices whose per-row arrays stay within
        ``_SLICE_BYTES``: its clicks padded to whole cells, each detector's
        cell sums, the sums of the detectors after it, and their products
        stacked for the squared map.  No slice holds a per-shot
        (n_cells, n_cells) map.  The products are taken only over the cells
        that some row of the slice clicked in and scattered into the sums,
        so on a fine grid a slice costs what its clicks touch.  Every sum is
        over integer products, so it does not depend on how shots are split
        into blocks or slices while each partial sum stays below 2**53, exact
        in float64.  The squares pass it first, alone once a shot's y in a
        cell or third passes 2**26.5 (some 4000 clicks on each detector): one
        100000-photon shot in one cell has y = 6 * 25000**2.  Nothing refuses that yet.
        """
        det_bins = np.asarray(det_bins)
        if det_bins.shape[1:] != (self.n_det, self.n_bins):
            raise ValueError(
                f"expected click arrays of shape {(self.n_det, self.n_bins)}, got {det_bins.shape[1:]}"
            )
        step = max(1, _SLICE_BYTES // (8 * self._row_doubles))
        for lo in range(0, len(det_bins), step):
            self._add_rows(det_bins[lo : lo + step])

    def _add_rows(self, det_bins: np.ndarray) -> None:
        n_det, c, rows, width = self.n_det, self.n_cells, len(det_bins), self.bins_per_cell
        size = rows * self._row_doubles
        if self._work.size < size:
            self._work = np.empty(size)
        work = self._work[:size]
        # the clicks zero-padded to whole cells at the start of the buffer, and
        # each detector's cell sums x, (n_det, rows, n_cells), at its end
        x = work[size - n_det * rows * c :]
        padded = (x if width == 1 else work[: n_det * rows * c * width]).reshape(n_det, rows, c * width)
        padded[..., : self.n_bins] = det_bins.transpose(1, 0, 2)
        padded[..., self.n_bins :] = 0.0
        if width > 1:
            np.matmul(padded.reshape(-1, width), np.ones(width), out=x)
        x = x.reshape(n_det, rows, c)
        self.shots += rows
        counts = np.ones(rows) @ x
        self.marg_sums += counts
        # Every product is zero outside the cells some row clicked in.  From the
        # start of the buffer: x over those t cells and two more columns, each
        # detector's front and rear third totals, so that y's entry at those two
        # columns is the third's total of y; then later[d], the sum of the
        # detectors after d; then the stacked products.
        cells = np.flatnonzero(counts.any(axis=0))
        t = len(cells)
        ext = work[: n_det * rows * (t + 2)].reshape(n_det, rows, t + 2)
        np.matmul(x.reshape(n_det * rows, c), self._thirds.T, out=ext.reshape(n_det * rows, t + 2)[:, t:])
        if t < c:
            ext[..., :t] = x[..., cells]
        else:
            ext[..., :t] = x
            cells = None
        x = ext
        later = work[x.size : x.size + (n_det - 1) * rows * (t + 2)].reshape(n_det - 1, rows, t + 2)
        later[-1] = x[-1]
        for d in range(n_det - 3, -1, -1):
            np.add(later[d + 1], x[d + 1], out=later[d])
        # A shot's y is the sum over d of outer(x[d], later[d]).  So y * y summed
        # over shots is the sum over d <= e of w * (x[d] x[e]).T @ (later[d] later[e]),
        # w = 2 for d < e: one GEMM of the products stacked along the shots, the
        # pairs d = e first.
        used = x.size + later.size
        stacked = work[used : used + 2 * self._n_stack * rows * (t + 2)].reshape(2, self._n_stack, rows, t + 2)
        np.multiply(x[:-1], x[:-1], out=stacked[0, : n_det - 1])
        np.multiply(later, later, out=stacked[1, : n_det - 1])
        k = n_det - 1
        for d in range(n_det - 2):
            np.multiply(x[d], x[d + 1 : -1], out=stacked[0, k : k + n_det - 2 - d])
            np.multiply(later[d], later[d + 1 :], out=stacked[1, k : k + n_det - 2 - d])
            k += n_det - 2 - d
        stacked[1, n_det - 1 :] *= 2.0
        left, right = stacked.reshape(2, self._n_stack * rows, t + 2)
        self.front_sq_sum += float(left[:, t] @ right[:, t])
        self.rear_sq_sum += float(left[:, t + 1] @ right[:, t + 1])
        # y summed over the rows is x[d].T @ later[d] summed over d, one GEMM of
        # the stacks.  It and the squared map's product are scattered into the
        # sums in chunks of rows whose product and flat indices fit _PRODUCT_BYTES.
        x_stack, later_stack = x[:-1].reshape(-1, t + 2), later.reshape(-1, t + 2)
        step = max(1, _PRODUCT_BYTES // (16 * max(t, 1)))
        for lo in range(0, t, step):
            part = slice(lo, min(lo + step, t))
            where = part if cells is None else (cells[part, None] * c + cells).ravel()
            _scatter_add(self.y_sum, where, x_stack[:, part].T @ later_stack[:, :t])
            _scatter_add(self.y_sq_sum, where, left[:, part].T @ right[:, :t])

    def _grid(self) -> tuple:
        return (self.n_bins, self.bin_width_us, self.bins_per_cell)

    def finalize(self) -> G2Matrix:
        if self.shots == 0:
            raise ValueError("empty ensemble: no shots accumulated")
        n, c = self.shots, self.n_cells
        marg = self.marg_sums / n
        # D summed as add sums y, each m_a against the later m_b: no term is < 0,
        # so D + D^T is 0 only where every pair's marginal product is
        later = np.cumsum(marg[:0:-1], axis=0)[::-1]
        denom = marg[:-1].T @ later
        denom = 0.5 * (denom + denom.T)
        defined = denom > 0
        counts = 0.5 * (self.y_sum + self.y_sum.T)
        values = np.divide(counts / n, denom, out=np.full((c, c), np.nan), where=defined)
        sigma = np.full((c, c), np.nan)
        if n > 1:
            var = np.maximum(0.0, self.y_sq_sum / n - (self.y_sum / n) ** 2) * (n / (n - 1))
            np.divide(np.sqrt((var + var.T) / (2 * n)), denom, out=sigma, where=defined)
        pooled = []
        for mask, y_sq_total in ((self._front, self.front_sq_sum), (self._rear, self.rear_sq_sum)):
            block = np.ix_(mask, mask)
            # summed pair by pair: one sum over (pairs, block) rounds differently
            block_denom = sum(float(np.outer(marg[a][mask], marg[b][mask]).sum()) for a, b in self.pairs)
            if block_denom <= 0.0 or n < 2:
                pooled += [float("nan"), float("nan")]
                continue
            block_mean = float(self.y_sum[block].sum()) / n
            block_var = max(0.0, y_sq_total / n - block_mean**2) * n / (n - 1)
            pooled += [block_mean / block_denom, math.sqrt(block_var / n) / block_denom]
        front_g2, front_sigma, rear_g2, rear_sigma = pooled
        return G2Matrix(
            cell_edges_us=self.cell_edges * self.bin_width_us,
            values=values,
            sigma=sigma,
            counts=counts,
            front_g2=front_g2,
            front_sigma=front_sigma,
            rear_g2=rear_g2,
            rear_sigma=rear_sigma,
        )


# ---------------------------------------------------------------------------
# pulse shapes and photon deficit

@dataclass
class PulseShape:
    """Per-bin mean rates and transmission of an ensemble, with the front- and rear-third bin masks."""

    bin_starts_us: np.ndarray
    in_rate: np.ndarray
    out_rate: np.ndarray
    transmission_sem: np.ndarray
    front: np.ndarray
    rear: np.ndarray

    @property
    def transmission(self) -> np.ndarray:
        """Per-bin out/in, nan where no photon came in; computed at each read."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.in_rate > 0, self.out_rate / self.in_rate, np.nan)

    def band_transmission(self, mask: np.ndarray) -> float:
        """Transmission pooled over the masked bins (ratio of summed rates), nan without input."""
        total_in = self.in_rate[mask].sum()
        if total_in == 0:
            return float("nan")
        return float(self.out_rate[mask].sum() / total_in)


def pulse_shape(ens: EnsembleResult) -> PulseShape:
    """Mean photon rates per bin with the per-bin transmission and its error;
    ``ens`` must keep per-bin sums."""
    if not ens.bin_sums:
        raise ValueError("ensemble keeps no per-bin sums")
    if ens.shots < 1:
        raise ValueError("ensemble holds no shots")
    n = ens.shots
    in_rate = ens.in_bin_sums / n
    out_rate = ens.out_bin_sums / n
    tsem = np.full(ens.n_bins, np.nan)
    if n > 1:
        var_in = np.maximum(0.0, (ens.in_bin_sq_sums - n * in_rate**2) / (n - 1))
        var_out = np.maximum(0.0, (ens.out_bin_sq_sums - n * out_rate**2) / (n - 1))
        cov = (ens.inout_bin_sums - n * in_rate * out_rate) / (n - 1)
        ok = in_rate > 0
        var_ratio = (
            var_out[ok] / in_rate[ok] ** 2
            + out_rate[ok] ** 2 * var_in[ok] / in_rate[ok] ** 4
            - 2.0 * out_rate[ok] * cov[ok] / in_rate[ok] ** 3
        )
        tsem[ok] = np.sqrt(np.maximum(0.0, var_ratio) / n)
    edges = np.arange(ens.n_bins + 1)
    front, rear = pulse_thirds(edges, ens.bin_width_us)
    return PulseShape(
        bin_starts_us=edges[:-1] * ens.bin_width_us,
        in_rate=in_rate,
        out_rate=out_rate,
        transmission_sem=tsem,
        front=front,
        rear=rear,
    )


def photon_deficit(ens: EnsembleResult, t: float) -> tuple[float, float]:
    """Missing photons relative to linear transmission: t*<N_in> - <N_out>.

    The quoted standard error is propagated from the output variance alone,
    mostly input Poisson noise that cancels in the difference, so it
    overstates the scatter about tenfold (seed-to-seed sd / reported error
    0.10 at n = 35).  The exact variance needs the input-total square and
    in-out sums, which the ensemble does not keep yet; the error-bar item of
    ROADMAP.md adds them.  Both can come from the stage's row totals
    (``ShotRecord.input_totals`` and ``output_totals``), as ``in_total_sum``
    and ``out_total_sum`` do, with no per-entry work.
    """
    if ens.shots < 2:
        raise ValueError("need at least two shots for a deficit estimate")
    value = t * ens.mean_in - ens.mean_out
    return float(value), ens.sem_out
