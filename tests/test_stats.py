import math
import re
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import (
    AbsorberParams,
    DetectorConfig,
    EnsembleResult,
    G2Accumulator,
    PulseSpec,
    detect_pulse,
    mandel_q,
    photon_deficit,
    pulse_shape,
    q_over_mean,
    run_point,
    simulate_cascade,
    substream,
)
from photonsub import stats
from photonsub.stats import (
    MAX_CELLS,
    G2Matrix,
    hist_mean,
    hist_mean_sem,
    mandel_q_sem,
    pulse_thirds,
    q_over_mean_sem,
)

from _oracles import FROZEN_HIST_STATS, g2_sums_per_shot, rows_record

MEASURED = AbsorberParams()
DET = DetectorConfig()


def test_mandel_q_of_deterministic_counts():
    hist = np.array([0, 1000])  # every shot has exactly one count
    assert mandel_q(hist) == pytest.approx(-1.0, abs=1e-12)


def test_mandel_q_of_poisson_samples():
    rng = substream(1, 0)
    hist = np.bincount(rng.poisson(3.7, size=100000))
    assert abs(mandel_q(hist)) < 3 * mandel_q_sem(hist)


def test_mandel_q_of_bernoulli_population():
    # exact-proportion histogram: the population value is -p
    n = 10**8
    p = 0.29
    hist = np.array([n * (1 - p), n * p])
    assert mandel_q(hist) == pytest.approx(-p, abs=1e-6)
    assert q_over_mean(hist) == pytest.approx(-1.0, abs=1e-6)


def test_mandel_q_rejects_zero_mean():
    with pytest.raises(ValueError, match="^Mandel-Q undefined"):
        mandel_q(np.array([100]))
    with pytest.raises(ValueError, match="^Q/mean undefined"):
        q_over_mean(np.array([100, 0]))


def test_q_over_mean_of_bernoulli_samples():
    rng = substream(2, 0)
    hist = np.bincount(rng.binomial(1, 0.35, size=50000), minlength=2)
    assert abs(q_over_mean(hist) + 1.0) < 3 * q_over_mean_sem(hist) + 1e-4


def test_hist_mean_helpers():
    hist = np.array([10, 30, 60])
    assert hist_mean(hist) == pytest.approx(1.5)
    assert hist_mean_sem(hist) > 0


def _outcome(fn, hist):
    """The bytes of ``fn(hist)``'s float, or the type and text of what it raised."""
    try:
        return np.float64(fn(hist)).tobytes()
    except ValueError as err:
        return type(err), str(err)


# counts up to 10**12, one to six bins; leading mass alone gives a zero mean
# and a single count gives n = 1
_HISTS = st.one_of(
    st.lists(st.integers(0, 10**12), min_size=1, max_size=6),
    st.lists(st.integers(0, 10**12), min_size=1, max_size=6).map(lambda h: [h[0] + 1] + [0] * (len(h) - 1)),
    st.integers(0, 5).map(lambda k: [0] * k + [1]),
)


@settings(max_examples=300, deadline=None)
@given(counts=_HISTS)
def test_one_pass_statistics_equal_the_single_value_functions_bit_for_bit(counts):
    hist = np.array(counts, dtype=np.int64)
    views = (hist_mean, hist_mean_sem, mandel_q, mandel_q_sem, q_over_mean, q_over_mean_sem)
    frozen = [_outcome(fn, hist) for fn in FROZEN_HIST_STATS]
    # the public single-value functions raise, or not, and read as before
    assert [_outcome(fn, hist) for fn in views] == frozen
    try:
        one_pass = stats.hist_stats(hist)
    except ValueError as err:
        # only an empty histogram raises, with the message every function gives
        assert sum(counts) == 0 and all(out == (ValueError, str(err)) for out in frozen)
        return
    assert len(one_pass) == len(frozen)
    for value, out in zip(one_pass, frozen):
        if isinstance(out, tuple):
            # undefined for zero-mean counts: the one-pass value is nan
            assert one_pass.mean == 0.0 and math.isnan(value)
        else:
            assert np.float64(value).tobytes() == out


# ---------------------------------------------------------------------------
# g2 estimation

def _g2_map(records, bins_per_cell):
    det = np.stack(records)
    acc = G2Accumulator(det.shape[2], 0.05, bins_per_cell)
    acc.add(det)
    return acc.finalize()


def test_duplicated_stream_matches_brute_force():
    rng = substream(4, 0)
    shots = [rng.poisson(2.0, size=4) for _ in range(10)]
    records = [np.stack([s, s, np.zeros(4, np.int64), np.zeros(4, np.int64)]) for s in shots]
    mat = _g2_map(records, 1)
    data = np.stack(shots).astype(float)
    marg = data.mean(axis=0)
    expected = np.full((4, 4), np.nan)
    for i in range(4):
        for j in range(4):
            if marg[i] > 0 and marg[j] > 0:
                expected[i, j] = (data[:, i] * data[:, j]).mean() / (marg[i] * marg[j])
    np.testing.assert_allclose(mat.values, expected, rtol=1e-12)
    # autocorrelation of a duplicated stream carries the full variance:
    # g2(t, t) = 1 + Var/mean^2 with the population variance
    for i in range(4):
        if marg[i] > 0:
            var = data[:, i].var()
            assert mat.values[i, i] == pytest.approx(1.0 + var / marg[i] ** 2, rel=1e-12)


def test_g2_undefined_cells_are_nan():
    records = [np.array([[1, 0], [1, 0], [0, 0], [0, 0]], dtype=np.int64) for _ in range(5)]
    mat = _g2_map(records, 1)
    assert np.isfinite(mat.values[0, 0])
    assert np.isnan(mat.values[1, 1])


def test_g2_of_coherent_light_is_flat():
    spec = PulseSpec(mean_photons=15.76)
    transparent = AbsorberParams(p_ryd=0.0, p_ryd2=0.0, t=1.0)
    mat = simulate_cascade((transparent,), spec, DET, 30000, 5, g2_cell_bins=2).g2.finalize()
    finite = np.isfinite(mat.values)
    z = np.abs(mat.values[finite] - 1.0) / mat.sigma[finite]
    assert z.max() < 4.5
    assert abs(mat.front_g2 - 1.0) < 3 * mat.front_sigma
    assert abs(mat.rear_g2 - 1.0) < 3 * mat.rear_sigma


def test_g2_error_bars_are_the_sample_standard_errors():
    # Five one-bin cells: the front third is cells 0 and 1, the rear third cells
    # 3 and 4.  Only detectors 0 and 1 click, so the one pair (0, 1) makes y and
    # every marginal product: both marginals are (2, 1, 0, 1, 1) / 3.
    d0 = [[1, 1, 0, 0, 0], [0, 0, 0, 1, 1], [1, 0, 0, 0, 0]]
    d1 = [[0, 1, 0, 1, 0], [1, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    acc = G2Accumulator(5, 0.05, 1)
    acc.add(np.array([[a, b, [0] * 5, [0] * 5] for a, b in zip(d0, d1)]))
    mat = acc.finalize()
    # a cell's error is sqrt(s^2 / 3) over the marginal product, s^2 the sample
    # variance (divisor 2) of y over the shots.  y[0, 0] is 0, 0, 1: s^2 = 1/3,
    # so sqrt(1/9) / (4/9).  y[0, 1] is 1, 0, 0 over 2/9, and y[1, 0] is always
    # 0, so the symmetrized error is sqrt((9/4 + 0) / 2).  y[4, 4] is 0, 1, 0 over 1/9.
    assert mat.sigma[0, 0] == pytest.approx(3 / 4, rel=1e-12)
    assert mat.sigma[0, 1] == mat.sigma[1, 0] == pytest.approx(math.sqrt(9 / 8), rel=1e-12)
    assert mat.sigma[4, 4] == pytest.approx(3.0, rel=1e-12)
    assert np.isnan(mat.sigma[2]).all()
    # the front total of y is (2, 0, 1) over a marginal product of 1, the rear
    # total (0, 2, 0) over (2/3)^2: s^2 = 1 and 4/3
    assert (mat.front_g2, mat.rear_g2) == (pytest.approx(1.0, rel=1e-12), pytest.approx(3 / 2, rel=1e-12))
    assert mat.front_sigma == pytest.approx(math.sqrt(1 / 3), rel=1e-12)
    assert mat.rear_sigma == pytest.approx(3 / 2, rel=1e-12)


def test_g2_pools_the_pairs_instead_of_averaging_their_ratios():
    # One one-bin cell, two shots: detectors 0 and 1 click once each in the
    # first, detectors 2 and 3 twice each in the second.  The marginals are
    # (1/2, 1/2, 1, 1), so the pairs' marginal products are 1/4 for (0, 1), 1
    # for (2, 3) and 1/2 for the other four, 13/4 in all, and y is 1, then 4.
    # The pair ratios 2, 2 and four zeros average 2/3; the pooled ratio is
    # (5/2) / (13/4) = 10/13.  s^2 of y is 9/2, so sigma is sqrt(9/4) / (13/4).
    acc = G2Accumulator(1, 0.05, 1)
    acc.add(np.array([[[1], [1], [0], [0]], [[0], [0], [2], [2]]]))
    mat = acc.finalize()
    assert mat.values[0, 0] == 10 / 13
    assert mat.sigma[0, 0] == pytest.approx(6 / 13, rel=1e-12)


def test_g2_map_is_symmetric_where_one_orientation_has_no_marginal_product():
    # Three one-bin cells: detector 0 clicks only in cell 0, detector 1 only in
    # cell 1, and cell 2 never.  So D = outer(m_0, m_1) is 1/2 at (0, 1) and 0
    # at (1, 0), and D + D^T is 0 everywhere else.
    d0 = [[1, 0, 0], [1, 0, 0]]
    d1 = [[0, 1, 0], [0, 0, 0]]
    acc = G2Accumulator(3, 0.05, 1)
    acc.add(np.array([[a, b, [0] * 3, [0] * 3] for a, b in zip(d0, d1)]))
    mat = acc.finalize()
    undefined = np.ones((3, 3), dtype=bool)
    undefined[0, 1] = undefined[1, 0] = False
    for estimate in (mat.values, mat.sigma):
        assert np.array_equal(estimate, estimate.T, equal_nan=True)
        assert np.array_equal(np.isnan(estimate), undefined)
    # y[0, 1] is 1, then 0, and y[1, 0] is always 0: the value is (1/2) / (1/2),
    # and the error, the quadrature mean of the two orientations' errors, is
    # sqrt((1/2 + 0) / 4) over the symmetric denominator 1/4
    assert mat.values[0, 1] == 1.0
    assert mat.sigma[0, 1] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_g2_rejects_empty_ensemble():
    acc = G2Accumulator(n_bins=4, bin_width_us=0.05, bins_per_cell=2)
    acc.add(np.zeros((0, 4, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        acc.finalize()


def test_g2_rejects_single_detector():
    acc = G2Accumulator(n_bins=4, bin_width_us=0.05, bins_per_cell=2)
    with pytest.raises(ValueError):
        acc.add(np.ones((1, 1, 4), dtype=np.int64))


def test_g2_grid_is_uniform_with_a_ragged_last_cell():
    np.testing.assert_array_equal(G2Accumulator(40, 0.05, 2).cell_edges, np.arange(0, 41, 2))
    np.testing.assert_array_equal(G2Accumulator(7, 0.05, 3).cell_edges, [0, 3, 6, 7])
    np.testing.assert_array_equal(G2Accumulator(2, 0.05, 5).cell_edges, [0, 2])
    with pytest.raises(ValueError):
        G2Accumulator(4, 0.05, 0)


def test_a_cell_centred_at_two_thirds_of_the_pulse_is_in_the_rear_third():
    # 15 bins in 4-bin cells: centres 2, 6, 10 and 13.5 bins, and 10 is 2/3 of 15
    front, rear = pulse_thirds(np.array([0, 4, 8, 12, 15]), 0.05)
    assert front.tolist() == [True, False, False, False]
    assert rear.tolist() == [False, False, True, True]
    acc = G2Accumulator(15, 0.05, 4)
    assert (acc._front.tolist(), acc._rear.tolist()) == (front.tolist(), rear.tolist())


def test_g2_grid_is_capped():
    assert G2Accumulator(MAX_CELLS, 0.05, 1).n_cells == MAX_CELLS
    with pytest.raises(ValueError, match=re.escape("(g2.cell_ns)")):
        G2Accumulator(MAX_CELLS + 1, 0.05, 1)


# the clicks of a detector with dead time and dark counts: 120 ns is 2.4 bins,
# and each (counter, bin) has 0.01 dark counts on average
DARK_DEAD = DetectorConfig(dead_time_ns=120.0, dark_cps=2e5)


@pytest.mark.parametrize("slice_bytes", [None, 1])
@pytest.mark.parametrize(
    "n_bins, bins_per_cell, shots, detector",
    [(40, 2, 300, None), (7, 3, 300, None), (5, 5, 300, None), (12, 1, 300, None), (200, 3, 300, None),
     (200, 1, 30, None), (MAX_CELLS, 1, 8, None), (40, 2, 300, DARK_DEAD), (200, 1, 30, DARK_DEAD),
     (MAX_CELLS, 1, 8, DARK_DEAD)],
    ids=["20-cells", "ragged-last-cell", "one-cell", "one-bin-cells", "67-cells-several-slices", "200-cells",
         "1000-cells", "20-cells-darks-dead-time", "200-cells-darks-dead-time", "1000-cells-darks-dead-time"],
)
def test_g2_sums_equal_the_per_shot_reference(n_bins, bins_per_cell, shots, detector, slice_bytes):
    rng = np.random.default_rng(n_bins * 10 + bins_per_cell)
    if detector is None:
        det = rng.poisson(rng.choice([0.05, 0.5, 3.0], size=(shots, 1, 1)), size=(shots, 4, n_bins))
    else:
        light = rng.poisson(rng.choice([0.05, 0.5, 3.0], size=(shots, 1)), size=(shots, n_bins))
        det = detect_pulse(light.shape, np.flatnonzero(light), light[light != 0], detector, rng, 0.05)
    det[::7] = 0  # shots without a click
    acc = G2Accumulator(n_bins, 0.05, bins_per_cell)
    with mock.patch.object(stats, "_SLICE_BYTES", slice_bytes or stats._SLICE_BYTES):
        acc.add(det[: shots * 4 // 9])
        acc.add(det[shots * 4 // 9 :])
    ref = g2_sums_per_shot(det, bins_per_cell, acc._front, acc._rear)
    assert ref.keys() == acc.zero_sums().keys()
    for name, want in ref.items():
        assert np.array_equal(getattr(acc, name), want), name


def _traced_add(acc, det):
    """Add ``det`` to ``acc``: the rows of each slice and the tracemalloc peak."""
    slices = []
    add_rows = G2Accumulator._add_rows

    def counted(self, rows):
        slices.append(len(rows))
        add_rows(self, rows)

    with mock.patch.object(G2Accumulator, "_add_rows", counted):
        tracemalloc.start()
        try:
            acc.add(det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return slices, peak


def test_g2_slices_at_the_largest_grid_hold_several_rows_within_the_bound():
    acc = G2Accumulator(MAX_CELLS, 0.05, 1)
    det = np.random.default_rng(5).poisson(0.02, size=(20, 4, MAX_CELLS))
    slices, peak = _traced_add(acc, det)
    assert slices[0] > 1 and sum(slices) == len(det)
    # the sums are allocated before tracing; 1 MiB and one (n_cells, n_cells) GEMM product are allowed
    assert peak <= (1 << 20) + 8 * MAX_CELLS**2
    ref = g2_sums_per_shot(det, 1, acc._front, acc._rear)
    assert all(np.array_equal(getattr(acc, name), want) for name, want in ref.items())


def test_g2_sums_at_the_largest_grid_stay_within_the_bound_when_every_cell_clicks():
    # every cell of every row clicks, so no cell is left out of the products
    acc = G2Accumulator(MAX_CELLS, 0.05, 1)
    det = np.random.default_rng(6).poisson(3.0, size=(12, 4, MAX_CELLS))
    assert (det.sum(axis=1) > 0).all()
    slices, peak = _traced_add(acc, det)
    assert sum(slices) == len(det)
    assert peak <= (1 << 20) + 8 * MAX_CELLS**2
    ref = g2_sums_per_shot(det, 1, acc._front, acc._rear)
    assert all(np.array_equal(getattr(acc, name), want) for name, want in ref.items())


@pytest.mark.parametrize("n_bins, bins_per_cell", [(40, 2), (200, 3)], ids=["20-cells", "67-cells"])
def test_g2_sums_are_bit_identical_at_any_slice_budget(n_bins, bins_per_cell):
    # one-row slices, the slices of the chosen budget, and the whole block as one slice
    det = np.random.default_rng(9).poisson(0.3, size=(600, 4, n_bins))
    add_rows = G2Accumulator._add_rows
    sums, slices = [], []
    for slice_bytes in (1, stats._SLICE_BYTES, 1 << 30):
        acc = G2Accumulator(n_bins, 0.05, bins_per_cell)
        rows = []

        def counted(self, block, rows=rows):
            rows.append(len(block))
            add_rows(self, block)

        with mock.patch.object(stats, "_SLICE_BYTES", slice_bytes), mock.patch.object(
            G2Accumulator, "_add_rows", counted
        ):
            acc.add(det)
        sums.append([np.asarray(getattr(acc, name)).tobytes() for name in acc.zero_sums()])
        slices.append(rows)
    assert slices[0] == [1] * len(det) and 1 < len(slices[1]) < len(det) and slices[2] == [len(det)]
    assert sums[0] == sums[1] == sums[2]


def _reference_finalize(acc):
    """The g2 estimates as the literal pooled formula: the pair-summed
    products and marginal products, each as an explicit sum of outer
    products over the ordered detector pairs a != b, per cell and per
    pooled block."""
    shots, n_cells = acc.shots, acc.n_cells
    marg = acc.marg_sums / shots
    pairs = [(a, b) for a in range(acc.n_det) for b in range(acc.n_det) if a != b]
    denom = sum(np.outer(marg[a], marg[b]) for a, b in pairs)
    y_sym = acc.y_sum + acc.y_sum.T
    defined = denom > 0
    values = np.full((n_cells, n_cells), np.nan)
    values[defined] = y_sym[defined] / shots / denom[defined]
    sigma = np.full((n_cells, n_cells), np.nan)
    if shots > 1:
        y_var = np.maximum(0.0, acc.y_sq_sum - acc.y_sum**2 / shots) / (shots - 1)
        sigma[defined] = np.sqrt((y_var + y_var.T)[defined] / (2 * shots)) / (denom[defined] / 2)
    pooled = {}
    for name, mask, y_sq_total in (("front", acc._front, acc.front_sq_sum), ("rear", acc._rear, acc.rear_sq_sum)):
        denom = 0.0
        for a, b in acc.pairs:
            denom += float(np.outer(marg[a][mask], marg[b][mask]).sum())
        pooled[f"{name}_g2"] = pooled[f"{name}_sigma"] = float("nan")
        if denom > 0.0 and shots >= 2:
            y_mean = float(acc.y_sum[np.ix_(mask, mask)].sum()) / shots
            y_var = max(0.0, y_sq_total / shots - y_mean**2) * shots / (shots - 1)
            pooled[f"{name}_g2"] = y_mean / denom
            pooled[f"{name}_sigma"] = math.sqrt(y_var / shots) / denom
    return G2Matrix(
        cell_edges_us=acc.cell_edges * acc.bin_width_us,
        values=values,
        sigma=sigma,
        counts=y_sym / 2,
        **pooled,
    )


@given(
    n_bins=st.integers(1, 50),
    bins_per_cell=st.integers(1, 5),
    shots=st.integers(1, 300),
    mean=st.sampled_from([0.05, 0.5, 3.0]),
    dark_frac=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_finalize_matches_the_pooled_formula(n_bins, bins_per_cell, shots, mean, dark_frac, seed):
    rng = np.random.default_rng(seed)
    det = rng.poisson(mean, size=(shots, 4, n_bins))
    # some detectors see nothing in some bins, so some pair products are zero
    det[:, rng.random((4, n_bins)) < dark_frac] = 0
    acc = G2Accumulator(n_bins, 0.05, bins_per_cell)
    acc.add(det)
    mat, ref = acc.finalize(), _reference_finalize(acc)
    for f in fields(G2Matrix):
        got, want = getattr(mat, f.name), getattr(ref, f.name)
        if isinstance(want, float):
            assert got == want or (math.isnan(got) and math.isnan(want)), f.name
        elif f.name in ("values", "sigma"):
            # D summed in another order: equal up to rounding, NaN in the same cells, exactly symmetric
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True, err_msg=f.name)
            assert np.array_equal(got, got.T, equal_nan=True), f.name
        else:
            assert np.array_equal(got, want, equal_nan=True), f.name


# ---------------------------------------------------------------------------
# pulse shapes and deficits

def test_transparent_medium_pulse_shape():
    spec = PulseSpec(mean_photons=12.0)
    params = AbsorberParams(p_ryd=0.0, p_ryd2=0.0, t=0.9)
    ens = run_point(spec, params, DET, 20000, 6)
    shape = pulse_shape(ens)
    ok = np.isfinite(shape.transmission)
    z = np.abs(shape.transmission[ok] - 0.9) / shape.transmission_sem[ok]
    assert z.max() < 4.5
    assert shape.out_rate.sum() / shape.in_rate.sum() == pytest.approx(0.9, abs=0.01)


def test_pulse_shape_never_shows_gain():
    ens = run_point(PulseSpec(mean_photons=15.76), MEASURED, DET, 20000, 7)
    shape = pulse_shape(ens)
    ok = np.isfinite(shape.transmission)
    assert (shape.transmission[ok] <= MEASURED.t + 3 * shape.transmission_sem[ok]).all()


def _ensemble(inputs, outputs, bin_sums=True):
    """An ensemble of hand-written shots, nothing absorbed."""
    ens = EnsembleResult(len(inputs[0]), 0.05, bin_sums)
    for inp, out in zip(inputs, outputs):
        ens.add_shot(rows_record(inp, out))
        ens.add_ions(np.zeros(1, dtype=np.int64))
    return ens


def test_sem_out_is_the_sample_standard_error():
    # output totals 1, 2 and 6: mean 3, squared deviations 14, sample variance 14 / 2;
    # the totals are the same with per-bin sums and without
    for bin_sums in (True, False):
        ens = _ensemble([[1, 0], [1, 1], [2, 4]], [[1, 0], [1, 1], [2, 4]], bin_sums)
        assert ens.mean_in == ens.mean_out == 3.0
        assert ens.sem_out == pytest.approx(math.sqrt(7 / 3), rel=1e-12)
        assert photon_deficit(ens, 1.0) == (0.0, ens.sem_out)


def test_pulse_shape_needs_per_bin_sums():
    ens = _ensemble([[1, 0], [2, 0]], [[1, 0], [1, 0]], bin_sums=False)
    with pytest.raises(ValueError, match="per-bin sums"):
        pulse_shape(ens)


def test_transmission_sem_is_the_delta_method_error():
    # bin 0: in 1, 2, 3 and out 1, 1, 2, so the rates are 2 and 4/3, the sample
    # variances 1 and 1/3 and the covariance 1/2; Var(out/in) is
    # 1/3 / 4 + (16/9) / 16 - 2 (4/3) (1/2) / 8 = 1/36.  Bin 1 has no input.
    shape = pulse_shape(_ensemble([[1, 0], [2, 0], [3, 0]], [[1, 0], [1, 0], [2, 0]]))
    assert shape.transmission[0] == pytest.approx(2 / 3, rel=1e-12)
    assert shape.transmission_sem[0] == pytest.approx(math.sqrt(1 / 36 / 3), rel=1e-12)
    assert np.isnan(shape.transmission[1]) and np.isnan(shape.transmission_sem[1])


def test_photon_deficit_of_linear_medium_is_zero():
    params = AbsorberParams(p_ryd=0.0, p_ryd2=0.0, t=0.99)
    ens = run_point(PulseSpec(mean_photons=10.0), params, DET, 20000, 8)
    deficit, err = photon_deficit(ens, params.t)
    assert abs(deficit) < 3 * err


def test_photon_deficit_saturates_at_one_photon():
    params = AbsorberParams(p_ryd=0.35, p_ryd2=0.0, t=0.99)
    ens = run_point(PulseSpec(mean_photons=20.0), params, DET, 20000, 10)
    deficit, err = photon_deficit(ens, params.t)
    assert abs(deficit - (1.0 - np.exp(-0.99 * 20.0 * 0.35))) < 3 * err


def test_photon_deficit_network_bounds():
    ens = run_point(PulseSpec(mean_photons=20.0), MEASURED, DET, 20000, 9)
    deficit, err = photon_deficit(ens, MEASURED.t)
    second = ens.absorbed_hist[2] / ens.shots
    assert -3 * err <= deficit <= 1.0 + 2.0 * second + 3 * err


def test_g2_equals_compares_every_summed_field():
    clicks = np.array([[1, 2, 0, 1], [0, 1, 1, 1], [2, 0, 1, 0], [0, 0, 1, 3]])
    for name in (
        "shots", "marg_sums", "y_sum", "y_sq_sum", "front_sq_sum", "rear_sq_sum",
    ):
        a = G2Accumulator(n_bins=4, bin_width_us=0.05, bins_per_cell=2)
        b = G2Accumulator(n_bins=4, bin_width_us=0.05, bins_per_cell=2)
        a.add(clicks[None])
        b.add(clicks[None])
        assert a.equals(b)
        setattr(b, name, getattr(b, name) + 1)
        assert not a.equals(b), name
