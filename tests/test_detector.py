import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import (
    DetectorConfig,
    G2Accumulator,
    PulseSpec,
    detect_ions,
    detect_pulse,
    mandel_q,
    split_hbt,
    substream,
    thin_counts,
)
from photonsub.detector import _apply_dead_time
from photonsub.stats import mandel_q_sem

from _oracles import dead_time_loop, dense_detection, pmf_mandel_q, thinned_pmf

CFG = DetectorConfig()


def test_thinning_identity_and_blackout():
    counts = np.array([3, 0, 5, 2])
    rng = substream(1, 0)
    np.testing.assert_array_equal(thin_counts(counts, 1.0, rng), counts)
    np.testing.assert_array_equal(thin_counts(counts, 0.0, rng), np.zeros(4, dtype=np.int64))


@given(
    counts=st.lists(st.integers(0, 10), min_size=1, max_size=10),
    eta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_thinning_never_creates_photons(counts, eta, seed):
    counts = np.array(counts)
    thinned = thin_counts(counts, eta, substream(seed, 0))
    assert (thinned >= 0).all()
    assert (thinned <= counts).all()


def test_thinning_scales_mandel_q_exactly_on_pmfs():
    # brute-force check of the Q' = eta * Q law on a small distribution
    pmf = np.array([0.2, 0.3, 0.5])
    for eta in (0.29, 0.5, 0.9):
        assert pmf_mandel_q(thinned_pmf(pmf, eta)) == pytest.approx(
            eta * pmf_mandel_q(pmf), rel=1e-12
        )


def test_thinning_scales_mandel_q_statistically():
    rng = substream(5, 0)
    clicks = rng.binomial(2, 0.29, size=100000)  # thinned deterministic pairs, Q = -eta
    hist = np.bincount(clicks, minlength=3)
    assert abs(mandel_q(hist) - (-0.29)) < 3 * mandel_q_sem(hist)


def test_split_conserves_photons_per_bin():
    rng = substream(6, 0)
    counts = rng.poisson(3.0, size=25)
    det = split_hbt(counts, CFG, rng)
    assert det.shape == (4, 25)
    np.testing.assert_array_equal(det.sum(axis=0), counts)


@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_conservation_property(counts, seed):
    counts = np.array(counts)
    det = split_hbt(counts, CFG, substream(seed, 2))
    np.testing.assert_array_equal(det.sum(axis=0), counts)


def test_split_fractions_are_balanced():
    rng = substream(7, 0)
    counts = np.full(10, 40)
    totals = np.zeros(4)
    shots = 2000
    for _ in range(shots):
        totals += split_hbt(counts, CFG, rng).sum(axis=1)
    n_total = shots * 400
    frac = totals / n_total
    sigma = np.sqrt(0.25 * 0.75 / n_total)
    assert (np.abs(frac - 0.25) < 4 * sigma).all()


def test_split_coherent_light_stays_uncorrelated():
    # multinomial splitting of Poisson bins gives independent detector streams
    rng = substream(8, 0)
    shots = 30000
    records = []
    for _ in range(shots):
        counts = rng.poisson(1.2, size=8)
        records.append(split_hbt(counts, CFG, rng))
    acc = G2Accumulator(n_bins=8, bin_width_us=0.05, bins_per_cell=8)
    acc.add_block(np.stack(records))
    mat = acc.finalize()
    assert abs(mat.values[0, 0] - 1.0) < 3 * mat.sigma[0, 0]


def test_ion_detection_basics():
    rng = substream(9, 0)
    assert detect_ions(0, 0.29, rng) == 0
    with pytest.raises(ValueError):
        detect_ions(-1, 0.29, rng)


def test_single_ion_bernoulli_statistics():
    rng = substream(10, 0)
    clicks = np.array([detect_ions(1, 0.29, rng) for _ in range(50000)])
    hist = np.bincount(clicks, minlength=2)
    assert abs(mandel_q(hist) - (-0.29)) < 3 * mandel_q_sem(hist)


def test_two_ion_double_click_probability():
    rng = substream(11, 0)
    shots = 100000
    doubles = sum(detect_ions(2, 0.29, rng) == 2 for _ in range(shots))
    p = 0.29**2
    assert p == pytest.approx(0.0841, abs=1e-6)
    assert abs(doubles / shots - p) < 3 * np.sqrt(p * (1 - p) / shots)


def test_thin_then_split_matches_split_then_thin():
    shots = 20000
    counts = np.array([4, 2, 6])
    eta = 0.6
    first = np.zeros(4)
    second = np.zeros(4)
    first_sq = np.zeros(4)
    second_sq = np.zeros(4)
    rng_a = substream(12, 0)
    rng_b = substream(13, 0)
    for _ in range(shots):
        det = split_hbt(thin_counts(counts, eta, rng_a), CFG, rng_a)
        tot = det.sum(axis=1)
        first += tot
        first_sq += tot**2
        det = np.stack([thin_counts(row, eta, rng_b) for row in split_hbt(counts, CFG, rng_b)])
        tot = det.sum(axis=1)
        second += tot
        second_sq += tot**2
    mean_a, mean_b = first / shots, second / shots
    var_a = first_sq / shots - mean_a**2
    var_b = second_sq / shots - mean_b**2
    sigma = np.sqrt((var_a + var_b) / shots)
    assert (np.abs(mean_a - mean_b) < 4 * sigma).all()
    assert (np.abs(var_a - var_b) < 4 * np.sqrt(2.0 / shots) * (var_a + var_b)).all()


def test_dead_time_truncates_click_train():
    clicks = np.array([2, 1, 0, 1])
    np.testing.assert_array_equal(_apply_dead_time(clicks, dead_bins=2), [1, 0, 0, 1])
    np.testing.assert_array_equal(_apply_dead_time(clicks, dead_bins=1), [1, 1, 0, 1])


def _dead_time_reference(clicks, dead_bins):
    """Bin by bin: a bin with photons records one click if the detector is live,
    and then blinds it for dead_bins bins counted from that bin."""
    out = [0] * len(clicks)
    blind = 0
    for i, n in enumerate(clicks):
        if blind == 0 and n > 0:
            out[i] = 1
            blind = dead_bins
        blind = max(blind - 1, 0)
    return out


@given(
    shots=st.integers(1, 6),
    n_bins=st.integers(1, 49),
    rate=st.sampled_from([0.05, 0.5, 3.0]),
    dead_bins=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_dead_time_matches_the_per_bin_reference(shots, n_bins, rate, dead_bins, seed):
    # a block of (shots, detectors, bins) click counts, scanned at once
    clicks = np.random.default_rng(seed).poisson(rate, size=(shots, 4, n_bins))
    got = _apply_dead_time(clicks, dead_bins)
    assert got.dtype == np.int64
    assert got.shape == clicks.shape
    for row, got_row in zip(clicks.reshape(-1, n_bins), got.reshape(-1, n_bins)):
        np.testing.assert_array_equal(got_row, _dead_time_reference(row.tolist(), dead_bins))
        np.testing.assert_array_equal(got_row, dead_time_loop(row, dead_bins))


def test_dead_time_through_detection_chain():
    cfg = DetectorConfig(dead_time_ns=100.0)
    rng = substream(14, 0)
    det = detect_pulse(np.full(12, 20), cfg, rng, bin_width_us=0.05)
    assert det.max() <= 1
    for row in det:
        fired = np.flatnonzero(row)
        if fired.size > 1:
            assert np.diff(fired).min() >= 2


def test_dark_counts_add_poisson_background():
    cfg = DetectorConfig(dark_cps=2e6)
    rng = substream(15, 0)
    shots = 4000
    det = detect_pulse(np.zeros((shots, 10), dtype=np.int64), cfg, rng, bin_width_us=0.05)
    assert det.shape == (shots, 4, 10)
    total = det.sum()
    expected = 4 * 10 * 2e6 * 0.05e-6  # detectors * bins * rate * bin seconds
    assert abs(total / shots - expected) < 4 * np.sqrt(expected / shots)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(eta_probe=1.2)
    with pytest.raises(ValueError):
        DetectorConfig(split=(0.5, 0.5, 0.1, 0.1))
    with pytest.raises(ValueError):
        DetectorConfig(split=(0.25, 0.25, 0.25))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        DetectorConfig(dead_time_ns=-1.0)


@given(
    rows=st.integers(1, 30),
    n_bins=st.integers(1, 12),
    mean=st.sampled_from([0.0, 0.3, 4.0]),
    eta_probe=st.sampled_from([1.0, 0.6, 0.0]),
    split=st.sampled_from([CFG.split, (0.5, 0.0, 0.3, 0.2)]),
    dark_cps=st.sampled_from([0.0, 2e6]),
    dead_time_ns=st.sampled_from([0.0, 50.0, 120.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_detection_on_entries_draws_the_dense_stream(rows, n_bins, mean, eta_probe, split, dark_cps, dead_time_ns, seed):
    data = np.random.default_rng(seed)
    counts = data.poisson(mean, size=(rows, n_bins))
    counts[data.random(rows) < 0.3] = 0  # rows without photons
    cfg = DetectorConfig(eta_probe=eta_probe, split=split, dark_cps=dark_cps, dead_time_ns=dead_time_ns)
    width_us = 0.05
    dead_bins = max(1, int(np.ceil(dead_time_ns / (width_us * 1e3)))) if dead_time_ns else 0
    rng, rng_dense = substream(seed, 6), substream(seed, 6)
    det = detect_pulse(counts, cfg, rng, width_us)
    want = dense_detection(counts, eta_probe, split, dark_cps * width_us * 1e-6, dead_bins, rng_dense)
    assert det.shape == (rows, 4, n_bins)
    np.testing.assert_array_equal(det, want)
    np.testing.assert_array_equal(detect_pulse(counts[0], cfg, substream(seed, 7), width_us),
                                  detect_pulse(counts[:1], cfg, substream(seed, 7), width_us)[0])
    assert rng.random() == rng_dense.random()
