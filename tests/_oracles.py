"""Independent reference implementations used as test oracles.

These deliberately avoid the code paths of the package: the absorber oracle
walks photon by photon with one uniform draw per decision, the Poisson pmf
uses the multiplicative recurrence, the dead-time oracle walks one detector
row click by click, and the g2 sums are built shot by shot from explicit
outer products.  The dense block functions pin the
random stream of a block: they decode the raw 64-bit outputs of its bit
generator by hand, in Python integers, and walk a dense block row by row,
bin by bin and photon by photon, for the input, each stage, the ion clicks
and detection; the ensemble sums are whole-row and whole-column
reductions.  The histogram statistics keep the
package's earlier one-moments-pass-per-value functions, frozen, so that the
one-pass ``stats.hist_stats`` is pinned bit for bit against them.
``rows_record`` hands dense rows to the package's entry-taking calls.
"""

from __future__ import annotations

import math

import numpy as np

from photonsub import ShotRecord


def per_photon_shot(p_ryd: float, p_ryd2: float, t: float, input_bins, rng):
    """Literal sequential simulation: loss draw, then state-dependent absorption draw."""
    input_bins = np.asarray(input_bins, dtype=np.int64)
    output = np.zeros_like(input_bins)
    absorbed = 0
    lost = 0
    absorption_bin = None
    for b, n in enumerate(input_bins):
        for _ in range(int(n)):
            if rng.random() >= t:
                lost += 1
                continue
            if absorbed == 0 and rng.random() < p_ryd:
                absorbed = 1
                absorption_bin = b
            elif absorbed == 1 and rng.random() < p_ryd2:
                absorbed = 2
            else:
                output[b] += 1
    return output, absorbed, lost, absorption_bin


def raw_uniforms(rng, n: int) -> list[float]:
    """The next ``n`` uniforms of ``rng``'s stream: the top 53 bits of each raw
    64-bit output of its bit generator, over 2**53."""
    return [(int(raw) >> 11) / 2**53 for raw in rng.bit_generator.random_raw(n)]


def poisson_by_inversion(mu: float, draws) -> list[int]:
    """Poisson(mu) counts, one per uniform in ``draws``: the first k whose
    running pmf sum exceeds the uniform, at most the cut mu + 20 sqrt(mu) + 2."""
    k_max = int(mu + 20.0 * math.sqrt(mu)) + 2
    cdf = np.cumsum(poisson_pmf(mu, k_max)).tolist()[:-1]
    return [next((k for k, c in enumerate(cdf) if u < c), k_max) for u in draws]


def input_block(rows: int, mu: float, weights, rng) -> np.ndarray:
    """A dense (rows, n_bins) Poisson input of mean ``mu`` with envelope ``weights``:
    each row's photon number by inversion, then each photon, rows in order, in
    the first bin whose running weight sum exceeds its uniform (the last bin
    takes the rest)."""
    totals = poisson_by_inversion(mu, raw_uniforms(rng, rows))
    bounds = np.cumsum(weights).tolist()[:-1]
    draws = iter(raw_uniforms(rng, sum(totals)))
    block = np.zeros((rows, len(weights)), dtype=np.int64)
    for row, n in enumerate(totals):
        for _ in range(n):
            u = next(draws)
            block[row, next((b for b, c in enumerate(bounds) if u < c), len(bounds))] += 1
    return block


def uniform_stage(p_ryd: float, p_ryd2: float, t: float, counts, rng):
    """One absorber stage on a dense (B, n_bins) block, photon by photon, rows
    then bins in order, one uniform u each: lost if u >= t, absorbed if
    u < t*p_ryd with nothing held or u < t*p_ryd2 with one excitation held,
    else passed.  Returns the output rows, the absorbed count and the photons
    lost per row."""
    counts = np.asarray(counts, dtype=np.int64)
    draws = iter(raw_uniforms(rng, int(counts.sum())))
    output = np.zeros_like(counts)
    absorbed = np.zeros(len(counts), dtype=np.int64)
    lost = np.zeros(len(counts), dtype=np.int64)
    for row, shot in enumerate(counts):
        for b, n in enumerate(shot):
            for _ in range(int(n)):
                u = next(draws)
                if u >= t:
                    lost[row] += 1
                elif absorbed[row] == 0 and u < t * p_ryd:
                    absorbed[row] = 1
                elif absorbed[row] == 1 and u < t * p_ryd2:
                    absorbed[row] = 2
                else:
                    output[row, b] += 1
    return output, absorbed, lost


def ion_clicks(absorbed, eta: float, rng) -> np.ndarray:
    """Ion clicks of an (S, B) array of excitation counts: each excitation, in
    row-major order, clicks if its uniform lies below ``eta``."""
    absorbed = np.asarray(absorbed, dtype=np.int64)
    draws = iter(raw_uniforms(rng, int(absorbed.sum())))
    return np.array([[sum(next(draws) < eta for _ in range(a)) for a in row] for row in absorbed], dtype=np.int64)


def rows_record(inp, out=None, absorbed=0) -> ShotRecord:
    """The ``ShotRecord`` of dense rows: a (B, n_bins) input block, or one
    (n_bins,) pulse as a block of one row, with its output rows (all zero if
    None) and the absorbed count of each row, as the entries where the input
    or the output is nonzero, and the rows' totals."""
    inp = np.atleast_2d(np.asarray(inp, dtype=np.int64))
    out = np.zeros_like(inp) if out is None else np.asarray(out, dtype=np.int64).reshape(inp.shape)
    idx = np.flatnonzero((inp != 0) | (out != 0))
    absorbed = np.zeros(len(inp), dtype=np.int64) + absorbed
    return ShotRecord(inp.shape, idx, inp.ravel()[idx], out.ravel()[idx], absorbed, inp.sum(axis=1), out.sum(axis=1))


def dense_block_sums(inp, out, absorbed, ions, size: int) -> dict:
    """The ensemble sums of one dense block, from whole-row and whole-column reductions."""
    total_out = out.sum(axis=1)
    return {
        "shots": len(inp),
        "in_total_sum": int(inp.sum()),
        "out_total_sum": int(total_out.sum()),
        "out_total_sq_sum": int((total_out * total_out).sum()),
        "in_bin_sums": inp.sum(axis=0),
        "out_bin_sums": out.sum(axis=0),
        "in_bin_sq_sums": (inp * inp).sum(axis=0),
        "out_bin_sq_sums": (out * out).sum(axis=0),
        "inout_bin_sums": (inp * out).sum(axis=0),
        "absorbed_hist": np.bincount(absorbed, minlength=size),
        "ion_hist": np.bincount(ions, minlength=size),
    }


def dense_detection(counts, eta_probe: float, split, dark_mean: float, dead_bins: int, rng):
    """Clicks of a dense (B, n_bins) block, shape (B, 4, n_bins), photon by
    photon in row-major order: each photon draws one uniform and goes to the
    first counter whose cumulative share of ``eta_probe`` lies above it, or is
    lost; then each (shot, counter), in order, draws its dark count of mean
    ``dark_mean`` per bin by inversion, and each dark, in order, the bin
    int(u * n_bins); then each detector row's dead time, click by click."""
    counts = np.asarray(counts, dtype=np.int64)
    edges, total = [], 0.0
    for p in split:
        total += p
        edges.append(min(eta_probe * total, eta_probe))
    edges[-1] = eta_probe
    n_bins = counts.shape[1]
    det = np.zeros((len(counts), len(edges), n_bins), dtype=np.int64)
    draws = iter(raw_uniforms(rng, int(counts.sum())))
    for row, shot in enumerate(counts):
        for b, n in enumerate(shot):
            for _ in range(int(n)):
                u = next(draws)
                for k, edge in enumerate(edges):
                    if u < edge:
                        det[row, k, b] += 1
                        break
    if dark_mean > 0.0:
        darks = poisson_by_inversion(dark_mean * n_bins, raw_uniforms(rng, det.shape[0] * det.shape[1]))
        places = iter(raw_uniforms(rng, sum(darks)))
        for cell, n in enumerate(darks):
            for _ in range(n):
                det[cell // len(edges), cell % len(edges), min(int(next(places) * n_bins), n_bins - 1)] += 1
    if dead_bins > 0:
        det = np.array([[dead_time_loop(row, dead_bins) for row in shot] for shot in det])
    return det


def _frozen_moments(hist):
    """(n, mean, unbiased variance, mu2, mu3, mu4) of a count histogram."""
    hist = np.asarray(hist, dtype=float)
    if hist.ndim != 1 or (hist < 0).any():
        raise ValueError("histogram must be a 1-D array of non-negative counts")
    n = float(hist.sum())
    if n < 1:
        raise ValueError("empty histogram")
    k = np.arange(hist.size)
    mean = float((k * hist).sum() / n)
    d = k - mean
    mu2 = float((hist * d**2).sum() / n)
    mu3 = float((hist * d**3).sum() / n)
    mu4 = float((hist * d**4).sum() / n)
    var = mu2 * n / (n - 1) if n > 1 else 0.0
    return n, mean, var, mu2, mu3, mu4


def _frozen_mean_var_cov(hist):
    n, mean, var, mu2, mu3, mu4 = _frozen_moments(hist)
    var_mean = mu2 / n
    var_var = max(0.0, (mu4 - mu2**2 * (n - 3) / (n - 1)) / n) if n > 1 else 0.0
    return n, mean, var, var_mean, var_var, mu3 / n


def frozen_hist_mean(hist) -> float:
    return _frozen_moments(hist)[1]


def frozen_hist_mean_sem(hist) -> float:
    n, _, var, *_ = _frozen_moments(hist)
    return math.sqrt(var / n)


def frozen_mandel_q(hist) -> float:
    _, mean, var, *_ = _frozen_moments(hist)
    if mean == 0.0:
        raise ValueError("Mandel-Q undefined for zero-mean counts")
    return var / mean - 1.0


def frozen_mandel_q_sem(hist) -> float:
    _, mean, var, var_mean, var_var, cov = _frozen_mean_var_cov(hist)
    if mean == 0.0:
        raise ValueError("Mandel-Q undefined for zero-mean counts")
    d_var = 1.0 / mean
    d_mean = -var / mean**2
    return math.sqrt(max(0.0, d_var**2 * var_var + d_mean**2 * var_mean + 2 * d_var * d_mean * cov))


def frozen_q_over_mean(hist) -> float:
    if frozen_hist_mean(hist) == 0.0:
        raise ValueError("Q/mean undefined for zero-mean counts")
    return frozen_mandel_q(hist) / frozen_hist_mean(hist)


def frozen_q_over_mean_sem(hist) -> float:
    _, mean, var, var_mean, var_var, cov = _frozen_mean_var_cov(hist)
    if mean == 0.0:
        raise ValueError("Q/mean undefined for zero-mean counts")
    d_var = 1.0 / mean**2
    d_mean = (mean - 2.0 * var) / mean**3
    return math.sqrt(max(0.0, d_var**2 * var_var + d_mean**2 * var_mean + 2 * d_var * d_mean * cov))


# The package's six single-value histogram statistics before hist_stats, in
# the order of the HistStats fields.
FROZEN_HIST_STATS = (
    frozen_hist_mean, frozen_hist_mean_sem, frozen_mandel_q, frozen_mandel_q_sem,
    frozen_q_over_mean, frozen_q_over_mean_sem,
)


def poisson_pmf(mu: float, k_max: int) -> np.ndarray:
    pmf = np.zeros(k_max + 1)
    pmf[0] = math.exp(-mu)
    for k in range(1, k_max + 1):
        pmf[k] = pmf[k - 1] * mu / k
    return pmf


def both_stages_fire_probability(mu: float, k_max: int = 80) -> float:
    """Brute force over Poisson outcomes: two ideal absorbers both fire iff n >= 2."""
    pmf = poisson_pmf(mu, k_max)
    return float(pmf[2:].sum())


def thinned_pmf(pmf, eta: float) -> np.ndarray:
    """Exact binomial thinning of a count distribution."""
    pmf = np.asarray(pmf, dtype=float)
    out = np.zeros_like(pmf)
    for n, p_n in enumerate(pmf):
        for k in range(n + 1):
            out[k] += p_n * math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return out


def pmf_mandel_q(pmf) -> float:
    """Population Mandel-Q of an exact distribution."""
    pmf = np.asarray(pmf, dtype=float)
    k = np.arange(pmf.size)
    mean = float((k * pmf).sum())
    var = float((k**2 * pmf).sum()) - mean**2
    return var / mean - 1.0


def hann_weights_at_centers(n: int) -> np.ndarray:
    """Hann window 0.5*(1 - cos(2 pi x)) sampled at bin centers, normalized."""
    x = (np.arange(n) + 0.5) / n
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * x))
    return w / w.sum()


def leaky_absorbed_pmf(n_in: float, p: float, p2: float, t: float) -> np.ndarray:
    """P(A=0), P(A=1), P(A=2) for a Poisson pulse of mean ``n_in`` through a leaky blockade.

    The surviving photons form a Poisson stream of mean mu = t * n_in.  Each
    converts with probability p until the first conversion, which falls at
    the fraction s of the stream with density mu p exp(-mu p s); no later
    photon converts with probability exp(-mu p2 (1 - s)).  So P(A=0) =
    exp(-mu p), and integrating over s gives
    P(A=1) = p / (p - p2) * (exp(-mu p2) - exp(-mu p)).
    """
    mu = t * n_in
    p0 = math.exp(-mu * p)
    p1 = p / (p - p2) * (math.exp(-mu * p2) - math.exp(-mu * p))
    return np.array([p0, p1, 1.0 - p0 - p1])


def chi2_upper(dof: int, z: float = 3.29) -> float:
    """Wilson-Hilferty chi-square quantile at the standard-normal point ``z``
    (3.29: the 0.9995 quantile)."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def dead_time_loop(clicks, dead_bins: int) -> np.ndarray:
    """One detector row, click by click: a bin with photons records one click
    if the detector is live, which then stays blind until dead_bins bins on."""
    out = np.zeros_like(clicks)
    next_live = 0
    for i in np.flatnonzero(clicks):
        if i >= next_live:
            out[i] = 1
            next_live = i + dead_bins
    return out


def g2_sums_per_shot(det_bins, bins_per_cell: int, front, rear) -> dict:
    """The g2 accumulator's sums, shot by shot.

    Per shot: each detector's cell sums, the pair-summed map y as a sum of
    explicit outer products over the detector pairs a < b, y * y, and the
    squares of y's total over the front-third and the rear-third cells.
    """
    det_bins = np.asarray(det_bins)
    n_det, n_bins = det_bins.shape[1:]
    starts = list(range(0, n_bins, bins_per_cell))
    n_cells = len(starts)
    sums = {
        "shots": 0,
        "marg_sums": np.zeros((n_det, n_cells)),
        "y_sum": np.zeros((n_cells, n_cells)),
        "y_sq_sum": np.zeros((n_cells, n_cells)),
        "front_sq_sum": 0.0,
        "rear_sq_sum": 0.0,
    }
    for shot in det_bins:
        cells = np.array([[float(row[lo : lo + bins_per_cell].sum()) for lo in starts] for row in shot])
        y = np.zeros((n_cells, n_cells))
        for a in range(n_det):
            for b in range(a + 1, n_det):
                y += np.outer(cells[a], cells[b])
        sums["shots"] += 1
        sums["marg_sums"] += cells
        sums["y_sum"] += y
        sums["y_sq_sum"] += y * y
        sums["front_sq_sum"] += float(y[np.ix_(front, front)].sum()) ** 2
        sums["rear_sq_sum"] += float(y[np.ix_(rear, rear)].sum()) ** 2
    return sums
