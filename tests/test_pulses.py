import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import PulseSpec, mandel_q, substream, tukey_envelope
from photonsub.pulses import MAX_BINS, expected_bin_means
from photonsub.stats import mandel_q_sem

from _oracles import hann_weights_at_centers


def test_rectangular_limit():
    spec = PulseSpec(mean_photons=1.0, duration_us=0.2, bin_width_us=0.05, taper=0.0)
    np.testing.assert_array_equal(tukey_envelope(spec), [0.25, 0.25, 0.25, 0.25])


def test_hann_limit_matches_cosine_formula():
    spec = PulseSpec(mean_photons=1.0, duration_us=0.25, bin_width_us=0.05, taper=1.0)
    w = tukey_envelope(spec)
    np.testing.assert_allclose(w, hann_weights_at_centers(5), atol=1e-12)
    np.testing.assert_allclose(
        w, [0.0381966011, 0.2618033989, 0.4, 0.2618033989, 0.0381966011], atol=1e-9
    )


def test_default_binning_gives_forty_bins():
    assert PulseSpec(mean_photons=15.76).n_bins == 40


def test_bin_count_is_capped():
    assert PulseSpec(mean_photons=1.0, duration_us=MAX_BINS * 0.05).n_bins == MAX_BINS
    with pytest.raises(ValueError, match="bins"):
        PulseSpec(mean_photons=1.0, duration_us=(MAX_BINS + 1) * 0.05)
    # finite inputs whose ratio overflows to inf
    with pytest.raises(ValueError, match="bins"):
        PulseSpec(mean_photons=1.0, duration_us=1e300, bin_width_us=1e-300)


@given(
    n_bins=st.integers(min_value=1, max_value=200),
    taper=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_envelope_properties(n_bins, taper):
    spec = PulseSpec(
        mean_photons=1.0, duration_us=n_bins * 0.05, bin_width_us=0.05, taper=taper
    )
    w = tukey_envelope(spec)
    assert w.size == n_bins
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-12
    np.testing.assert_array_equal(w, w[::-1])
    if taper < 1.0:
        # interior bins beyond the ramps all sit at the common maximum
        edge_dist = (np.minimum(np.arange(n_bins), n_bins - 1 - np.arange(n_bins)) + 0.5) / n_bins
        flat = edge_dist >= taper / 2.0
        if flat.any():
            np.testing.assert_array_equal(w[flat], w.max())


def test_zero_mean_photons_gives_empty_pulse():
    lam = expected_bin_means(PulseSpec(mean_photons=0.0))
    assert lam.shape == (40,)
    assert (lam == 0).all()


def test_total_counts_are_poissonian():
    spec = PulseSpec(mean_photons=15.76)
    rng = substream(11, 0)
    totals = rng.poisson(expected_bin_means(spec), size=(100000, spec.n_bins)).sum(axis=1)
    mean = totals.mean()
    se_mean = totals.std(ddof=1) / np.sqrt(totals.size)
    assert abs(mean - 15.76) < 3 * se_mean
    hist = np.bincount(totals)
    assert abs(mandel_q(hist)) < 3 * mandel_q_sem(hist)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mean_photons": -1.0},
        {"mean_photons": 1.0, "duration_us": 0.0},
        {"mean_photons": 1.0, "bin_width_us": -0.1},
        {"mean_photons": 1.0, "taper": 1.5},
        {"mean_photons": 1.0, "duration_us": 0.01, "bin_width_us": 0.05},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        PulseSpec(**kwargs)
