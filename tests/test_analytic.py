import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import mean_out, p_no_absorption
from photonsub.analytic import absorbed_pmf, ion_stats, out_bin_means, var_out
from photonsub.pulses import PulseSpec, expected_bin_means

from _oracles import leaky_absorbed_pmf, per_photon_shot
from _oracles import poisson_pmf as oracle_pmf


def test_empty_pulse_transmits_nothing():
    assert mean_out(0.0, 0.99, 0.35, 0.001) == 0.0


def test_linear_medium_limit():
    assert mean_out(7.0, 0.9, 0.0, 0.0) == pytest.approx(6.3, abs=1e-12)


def test_reference_value_at_5p65():
    assert mean_out(5.65, 0.99, 0.35, 0.0) == pytest.approx(4.7347, abs=5e-4)
    assert p_no_absorption(5.65, 0.99, 0.35) == pytest.approx(0.1412, abs=5e-4)


def test_reference_value_at_20():
    assert mean_out(20.0, 0.99, 0.35, 0.0) == pytest.approx(18.801, abs=5e-4)


@given(
    n_in=st.floats(0.0, 200.0),
    t=st.floats(0.01, 1.0),
    p_ryd=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_deficit_stays_within_one_photon(n_in, t, p_ryd):
    deficit = t * n_in - mean_out(n_in, t, p_ryd, 0.0)
    assert -1e-12 <= deficit <= 1.0
    if p_no_absorption(n_in, t, p_ryd) > 1e-10:  # above float rounding at t*n_in scale
        assert deficit < 1.0


def test_mean_out_monotone_in_input():
    grid = np.linspace(0.0, 50.0, 400)
    values = [mean_out(n, 0.99, 0.35, 0.001) for n in grid]
    assert (np.diff(values) > 0).all()


def test_domain_violations_rejected():
    with pytest.raises(ValueError):
        mean_out(-1.0, 0.99, 0.35, 0.001)
    with pytest.raises(ValueError):
        mean_out(1.0, 1.5, 0.35, 0.001)
    with pytest.raises(ValueError):
        mean_out(1.0, 0.99, -0.1, 0.001)
    with pytest.raises(ValueError):
        mean_out(1.0, 0.99, 0.35, 1.1)


def test_ideal_ion_stats_reference_point():
    # the perfect blockade is the p_ryd2 = 0 case of the leaky law
    mean, q, ratio = ion_stats(3.0, 0.99, 0.35, 0.0, 0.29)
    assert 1.0 - p_no_absorption(3.0, 0.99, 0.35) == pytest.approx(0.6463, abs=5e-4)
    assert mean == pytest.approx(0.1874, abs=5e-4)
    assert q == pytest.approx(-0.1874, abs=5e-4)
    assert ratio == -1.0


@pytest.mark.parametrize("n_in, ratio", [(3.0, -0.99465), (35.0, -0.94116)])
def test_leaky_q_over_mean_drifts_from_minus_one(n_in, ratio):
    mean, q, q_over_mean = ion_stats(n_in, 0.99, 0.35, 0.001, 0.29)
    assert q_over_mean == pytest.approx(ratio, abs=5e-6)
    assert q == pytest.approx(q_over_mean * mean, rel=1e-12)


def test_ideal_ion_stats_saturate_at_detection_efficiency():
    mean, q, _ = ion_stats(1e6, 0.99, 0.35, 0.0, 0.29)
    assert mean == pytest.approx(0.29, abs=1e-12)
    assert q == pytest.approx(-0.29, abs=1e-12)


def test_ideal_ion_stats_undefined_for_empty_pulse():
    assert all(math.isnan(v) for v in ion_stats(0.0, 0.99, 0.35, 0.0, 0.29))


@pytest.mark.parametrize("p, eta", [(0.0, 0.29), (0.35, 0.0)])
def test_ion_stats_undefined_where_no_ion_is_detected(p, eta):
    assert all(math.isnan(v) for v in ion_stats(3.0, 0.99, p, 0.001, eta))


@pytest.mark.parametrize(
    "n_in, t, p, p2",
    # n_in >= 1: at small n_in either side's P2 is a difference of far larger terms
    [(1.0, 0.99, 0.35, 0.001), (5.65, 0.99, 0.35, 0.001), (15.76, 0.99, 0.35, 0.001), (35.0, 0.99, 0.35, 0.3),
     (3.0, 0.9, 0.2, 0.6)],
)
def test_absorbed_pmf_matches_the_oracle(n_in, t, p, p2):
    assert absorbed_pmf(n_in, t, p, p2) == pytest.approx(tuple(leaky_absorbed_pmf(n_in, p, p2, t)), rel=1e-12, abs=0.0)


def test_absorbed_pmf_is_the_perfect_blockade_at_no_leakage():
    p0, p1, p2 = absorbed_pmf(35.0, 0.99, 0.35, 0.0)
    assert (p1, p2) == (-math.expm1(-35.0 * 0.99 * 0.35), 0.0)
    assert p0 == p_no_absorption(35.0, 0.99, 0.35)


def _enumerated_output_moments(n_in, t, p, p2):
    """Mean and variance of S - A with S ~ Poisson(t n_in) survivors, summing P(A = k | S) per S:
    the first absorbed is the j-th survivor with probability (1 - p)^(j - 1) p, and a
    second follows among the S - j later ones unless all of them fail at p2."""
    pmf = oracle_pmf(t * n_in, 200)
    s = np.arange(pmf.size)
    one = np.array([sum((1.0 - p) ** (j - 1) * p * (1.0 - p2) ** (n - j) for j in range(1, n + 1)) for n in s])
    two = 1.0 - (1.0 - p) ** s - one
    mean = float((pmf * (s - one - 2 * two)).sum())
    second = float((pmf * (s**2 - (2 * s - 1) * one - (4 * s - 4) * two)).sum())
    return mean, second - mean**2


@pytest.mark.parametrize(
    "n_in, t, p, rel",
    # at p = 1 and n_in = 1e-9 the variance is about 5e-19, below the rounding of q itself
    [(0.01, 0.99, 0.35, 1e-9), (5.65, 0.99, 0.35, 1e-9), (20.0, 0.9, 0.8, 1e-9), (3.0, 1.0, 1.0, 1e-9), (1e-9, 1.0, 1.0, 1e-6)],
)
def test_var_out_matches_the_enumerated_output_law(n_in, t, p, rel):
    assert var_out(n_in, t, p, 0.0) == pytest.approx(_enumerated_output_moments(n_in, t, p, 0.0)[1], rel=rel, abs=0.0)


# p2 = p, no first conversion, p2 > p, and the measured leak
@pytest.mark.parametrize(
    "n_in, t, p, p2", [(20.0, 0.9, 0.8, 0.8), (3.0, 1.0, 0.0, 0.4), (3.0, 0.9, 0.2, 0.6), (35.0, 0.99, 0.35, 0.001)]
)
def test_leaky_mean_and_var_out_match_the_enumerated_output_law(n_in, t, p, p2):
    mean, var = _enumerated_output_moments(n_in, t, p, p2)
    assert mean_out(n_in, t, p, p2) == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert var_out(n_in, t, p, p2) == pytest.approx(var, rel=1e-9, abs=0.0)


@pytest.mark.parametrize(
    "n_in, t, p", [(0.01, 0.99, 0.35), (5.65, 0.99, 0.35), (15.76, 0.99, 1.0), (35.0, 0.9, 0.8), (200.0, 1.0, 1.0)]
)
def test_bin_means_sum_to_the_mean_output(n_in, t, p):
    lam = expected_bin_means(PulseSpec(mean_photons=n_in))
    assert out_bin_means(lam, t, p).sum() == pytest.approx(mean_out(n_in, t, p, 0.0), rel=1e-12, abs=0.0)


def test_one_bin_pulse_is_the_mean_output():
    assert out_bin_means([3.0], 0.9, 0.4)[0] == pytest.approx(mean_out(3.0, 0.9, 0.4, 0.0), rel=1e-12, abs=0.0)


def test_bin_means_without_blockade_are_the_surviving_input():
    lam = np.array([0.5, 2.0, 0.0, 7.0])
    assert out_bin_means(lam, 0.9, 0.0).tolist() == (0.9 * lam).tolist()


def test_empty_bins_transmit_nothing_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = out_bin_means(np.zeros(40), 0.99, 1.0)
    assert out.tolist() == [0.0] * 40


def test_bin_means_reject_negative_input_and_bad_probabilities():
    with pytest.raises(ValueError):
        out_bin_means([1.0, -0.5], 0.99, 0.35)
    with pytest.raises(ValueError):
        out_bin_means([1.0], 0.99, 1.5)


@pytest.mark.parametrize("n_in, p", [(15.76, 1.0), (5.65, 0.35)])
def test_bin_means_match_the_per_photon_oracle(n_in, p):
    shots, t = 20000, 0.99
    lam = expected_bin_means(PulseSpec(mean_photons=n_in))
    rng = np.random.default_rng(29)
    inp = rng.poisson(lam, size=(shots, lam.size))
    out = np.array([per_photon_shot(p, 0.0, t, row, rng)[0] for row in inp])
    law = out_bin_means(lam, t, p)
    # the variance is floored at the law's mean, a Poisson error, for bins the sample saw without spread
    sem = np.sqrt(np.maximum(out.var(axis=0, ddof=1), law) / shots)
    # the bins share the one absorbed photon, so they are bounded one by one, not by a chi-square
    assert np.abs((out.mean(axis=0) - law) / sem).max() <= 4.5


@pytest.mark.parametrize("n_in, p, p2", [(10.0, 0.5, 0.3), (8.0, 0.2, 0.6)], ids=["p2-below-p", "p2-above-p"])
def test_leaky_bin_means_match_the_per_photon_oracle(n_in, p, p2):
    shots, t = 20000, 0.9
    lam = expected_bin_means(PulseSpec(mean_photons=n_in, duration_us=1.0))
    rng = np.random.default_rng(31)
    inp = rng.poisson(lam, size=(shots, lam.size))
    out = np.array([per_photon_shot(p, p2, t, row, rng)[0] for row in inp])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow where p2 exceeds p
        law = out_bin_means(lam, t, p, p2)
    sem = np.sqrt(np.maximum(out.var(axis=0, ddof=1), law) / shots)
    assert np.abs((out.mean(axis=0) - law) / sem).max() <= 4.5
    # the second absorption takes weight: the law differs from the perfect blockade's
    assert np.abs(law - out_bin_means(lam, t, p)).max() > 5 * sem.max()


@given(
    n_in=st.floats(0.0, 200.0),
    t=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    p2=st.floats(0.0, 1.0),
    n_bins=st.integers(1, 60),
)
@settings(max_examples=150, deadline=None)
def test_leaky_bin_means_sum_to_the_mean_output(n_in, t, p, p2, n_bins):
    lam = expected_bin_means(PulseSpec(mean_photons=n_in, duration_us=n_bins * 0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = out_bin_means(lam, t, p, p2)
    assert (law >= -1e-12).all() and (law <= t * lam + 1e-12).all()
    assert law.sum() == pytest.approx(mean_out(n_in, t, p, p2), rel=1e-9, abs=1e-9)
    if p2 == 0.0:
        # the leaky law's perfect-blockade limit is the earlier closed form, bit for bit
        mu = p * t * lam
        np.testing.assert_array_equal(law, t * lam + np.exp(mu - np.cumsum(mu)) * np.expm1(-mu))
