import math
import tracemalloc
from collections import Counter

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
    substream,
)
from photonsub import detector
from photonsub.detector import _apply_dead_time
from photonsub.stats import mandel_q_sem

from _oracles import chi2_upper, dead_time_loop, dense_detection, pmf_mandel_q, thinned_pmf

CFG = DetectorConfig()
WIDTH_US = 0.05


def _detect(counts, cfg, rng, width_us=WIDTH_US):
    """``detect_pulse`` on a dense block, or one shot, given as its nonzero entries."""
    counts = np.asarray(counts)
    idx = np.flatnonzero(counts)
    return detect_pulse(counts.shape, idx, counts.ravel()[idx], cfg, rng, width_us)


def _detected(counts, rng, eta=1.0, split=CFG.split):
    """Clicks of ``counts`` through thinning and the split alone, no darks or dead time."""
    return _detect(counts, DetectorConfig(eta_probe=eta, split=split), rng)


def test_thinning_identity_and_blackout():
    counts = np.array([3, 0, 5, 2])
    rng = substream(1, 0)
    np.testing.assert_array_equal(_detected(counts, rng).sum(axis=0), counts)
    np.testing.assert_array_equal(_detected(counts, rng, eta=0.0), np.zeros((4, 4), dtype=np.int64))


@given(
    counts=st.lists(st.integers(0, 10), min_size=1, max_size=10),
    eta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_thinning_never_creates_photons(counts, eta, seed):
    counts = np.array(counts)
    det = _detected(counts, substream(seed, 0), eta)
    assert (det >= 0).all()
    assert (det.sum(axis=0) <= counts).all()


def test_thinning_scales_mandel_q_exactly_on_pmfs():
    # brute-force check of the Q' = eta * Q law on a small distribution
    pmf = np.array([0.2, 0.3, 0.5])
    for eta in (0.29, 0.5, 0.9):
        assert pmf_mandel_q(thinned_pmf(pmf, eta)) == pytest.approx(
            eta * pmf_mandel_q(pmf), rel=1e-12
        )


def test_thinning_scales_mandel_q_statistically():
    # thinned deterministic pairs, Q = -eta; 200000 photons draw in two slices
    counts = np.full((100000, 1), 2)
    assert counts.sum() > detector._DRAW_BYTES // 8
    clicks = _detected(counts, substream(5, 0), eta=0.29).sum(axis=(1, 2))
    hist = np.bincount(clicks, minlength=3)
    assert abs(mandel_q(hist) - (-0.29)) < 3 * mandel_q_sem(hist)


def test_split_conserves_photons_per_bin():
    rng = substream(6, 0)
    counts = rng.poisson(3.0, size=25)
    det = _detected(counts, rng)
    assert det.shape == (4, 25)
    np.testing.assert_array_equal(det.sum(axis=0), counts)


@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_conservation_property(counts, seed):
    counts = np.array(counts)
    det = _detected(counts, substream(seed, 2))
    np.testing.assert_array_equal(det.sum(axis=0), counts)


def test_split_fractions_are_balanced():
    shots = 2000
    totals = _detected(np.full((shots, 10), 40), substream(7, 0)).sum(axis=(0, 2))
    n_total = shots * 400
    frac = totals / n_total
    sigma = np.sqrt(0.25 * 0.75 / n_total)
    assert (np.abs(frac - 0.25) < 4 * sigma).all()


def test_split_coherent_light_stays_uncorrelated():
    # multinomial splitting of Poisson bins gives independent detector streams
    rng = substream(8, 0)
    shots = 30000
    acc = G2Accumulator(n_bins=8, bin_width_us=0.05, bins_per_cell=8)
    acc.add(_detected(rng.poisson(1.2, size=(shots, 8)), rng))
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
    counts = np.tile([4, 2, 6], (shots, 1))
    eta = 0.6
    # per-detector totals of each shot: thinned by detection, or split whole and thinned after
    first = _detected(counts, substream(12, 0), eta).sum(axis=2)
    rng_b = substream(13, 0)
    second = rng_b.binomial(_detected(counts, rng_b), eta).sum(axis=2)
    mean_a, mean_b = first.mean(axis=0), second.mean(axis=0)
    var_a, var_b = first.var(axis=0), second.var(axis=0)
    sigma = np.sqrt((var_a + var_b) / shots)
    assert (np.abs(mean_a - mean_b) < 4 * sigma).all()
    assert (np.abs(var_a - var_b) < 4 * np.sqrt(2.0 / shots) * (var_a + var_b)).all()


def _multinomial_pmf(n, probs):
    """Every way of putting n photons into the categories, with its probability."""
    if len(probs) == 1:
        return {(n,): probs[0] ** n}
    return {
        (k, *rest): math.comb(n, k) * probs[0] ** k * p
        for k in range(n + 1)
        for rest, p in _multinomial_pmf(n - k, probs[1:]).items()
    }


def test_detection_clicks_and_losses_are_multinomial():
    # each entry's four counters and its lost photons: Multinomial(n, eta * split + [1 - eta])
    eta, split, n = 0.6, (0.1, 0.2, 0.3, 0.4), 3
    counts = np.full((20000, 3), n)
    det = _detected(counts, substream(16, 0), eta, split)
    per_entry = np.swapaxes(det, 1, 2).reshape(-1, 4)
    outcomes = np.column_stack([per_entry, n - per_entry.sum(axis=1)])
    observed = Counter(map(tuple, outcomes.tolist()))
    pmf = _multinomial_pmf(n, [eta * p for p in split] + [1.0 - eta])
    assert set(observed) <= set(pmf) and math.isclose(sum(pmf.values()), 1.0)
    expected = {key: p * len(outcomes) for key, p in pmf.items()}
    assert min(expected.values()) >= 5
    chi2 = sum((observed[key] - e) ** 2 / e for key, e in expected.items())
    assert chi2 < chi2_upper(len(pmf) - 1)


def test_detection_memory_is_bounded_for_a_huge_entry():
    counts = np.array([[0, 10**7, 0]])
    tracemalloc.start()
    try:
        det = _detected(counts, substream(17, 0), eta=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about two per-photon arrays of one slice at a time; the whole entry at once would take 80 MB an array
    assert peak <= 4 * detector._DRAW_BYTES
    assert det.shape == (1, 4, 3)
    assert det.sum() <= counts.sum() and det[..., [0, 2]].sum() == 0


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
    det = _detect(np.full(12, 20), cfg, rng, width_us=0.05)
    assert det.max() <= 1
    for row in det:
        fired = np.flatnonzero(row)
        if fired.size > 1:
            assert np.diff(fired).min() >= 2


def test_dark_counts_add_poisson_background():
    cfg = DetectorConfig(dark_cps=2e6)
    rng = substream(15, 0)
    shots = 4000
    det = _detect(np.zeros((shots, 10), dtype=np.int64), cfg, rng, width_us=0.05)
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
    idx = np.flatnonzero(counts)
    det = detect_pulse(counts.shape, idx, counts.ravel()[idx], cfg, rng, width_us)
    want = dense_detection(counts, eta_probe, split, dark_cps * width_us * 1e-6, dead_bins, rng_dense)
    assert det.shape == (rows, 4, n_bins)
    np.testing.assert_array_equal(det, want)
    np.testing.assert_array_equal(_detect(counts[0], cfg, substream(seed, 7), width_us),
                                  _detect(counts[:1], cfg, substream(seed, 7), width_us)[0])
    assert rng.random() == rng_dense.random()
