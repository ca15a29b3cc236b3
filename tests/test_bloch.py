import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import (
    PhysicsParams,
    conversion_probability,
    fit_dephasing,
    ground_rydberg_linewidth,
    raman_decay_rate,
    scattering_probability,
    susceptibility_lorentzian,
    transmission,
    transmission_spectrum,
)

DEFAULTS = PhysicsParams()


def test_raman_decay_reference_value():
    # 2*pi*15.125 kHz in the MHz convention
    assert raman_decay_rate(10.0, 100.0, 6.05) == pytest.approx(0.015125, abs=1e-9)


def test_raman_decay_limits_and_scaling():
    assert raman_decay_rate(0.0, 100.0, 6.05) == 0.0
    assert raman_decay_rate(10.0, 200.0, 6.05) == pytest.approx(
        raman_decay_rate(10.0, 100.0, 6.05) / 4.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        raman_decay_rate(10.0, 0.0, 6.05)


def test_ground_rydberg_linewidth_composition():
    assert ground_rydberg_linewidth(DEFAULTS) == pytest.approx(
        0.5 + 0.015125 / 2.0 + 1.0 / (2.0 * 530.0), rel=1e-12
    )


def test_two_level_resonance():
    phys = replace(DEFAULTS, omega_c=0.0)
    chi = susceptibility_lorentzian(phys, 0.0, 0.0)
    assert chi == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert transmission(phys, 0.0, 0.0) == pytest.approx(math.exp(-12.5), rel=1e-12)


def test_ideal_dark_state_is_exactly_transparent():
    phys = replace(DEFAULTS, delta_e=math.inf, gamma_deph=0.0, tau_ryd_us=math.inf)
    assert ground_rydberg_linewidth(phys) == 0.0
    assert susceptibility_lorentzian(phys, 0.0, 0.0) == 0.0 + 0.0j
    assert transmission(phys, 0.0, 0.0) == 1.0


def test_control_off_scattering_at_working_detuning():
    phys = replace(DEFAULTS, omega_c=0.0)
    chi = susceptibility_lorentzian(phys, 100.0, 0.0)
    assert chi.real == pytest.approx(9.1423e-4, abs=1e-7)
    p_scatt = 1.0 - transmission(phys, 100.0, 0.0)
    assert p_scatt == pytest.approx(0.0114, abs=2e-4)
    assert scattering_probability(DEFAULTS) == pytest.approx(p_scatt, rel=1e-12)


@given(
    omega_c=st.floats(0.0, 50.0),
    gamma_deph=st.floats(0.0, 10.0),
    dp=st.floats(-500.0, 500.0),
    d2=st.floats(-50.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_medium_is_passive(omega_c, gamma_deph, dp, d2):
    phys = replace(DEFAULTS, omega_c=omega_c, gamma_deph=gamma_deph)
    chi = susceptibility_lorentzian(phys, dp, d2)
    assert chi.real >= 0.0
    t = transmission(phys, dp, d2)
    assert 0.0 < t <= 1.0


def test_spectrum_is_unimodal_around_resonance():
    grid = np.linspace(-10.0, 10.0, 801)
    spectrum = transmission_spectrum(DEFAULTS, grid)
    t = spectrum[:, 1]
    assert (t > 0).all() and (t <= 1).all()
    k_min = t.argmin()
    assert abs(grid[k_min]) < 2.0  # absorption peaks near two-photon resonance
    assert (np.diff(t[: k_min + 1]) < 0).all()
    assert (np.diff(t[k_min:]) > 0).all()


def test_dephasing_degrades_transparency_in_dark_state_regime():
    # while (omega_c/2)^2 / gamma_gr far exceeds the detuned linewidth, the
    # line-center absorption grows strictly with the dephasing rate
    absorptions = []
    for gamma in (0.005, 0.01, 0.03, 0.1):
        phys = replace(DEFAULTS, gamma_deph=gamma)
        assert (phys.omega_c / 2.0) ** 2 / ground_rydberg_linewidth(phys) > 2 * phys.delta_e
        absorptions.append(1.0 - transmission(phys, 100.0, 0.0))
    assert (np.diff(absorptions) > 0).all()


def test_spectrum_rejects_empty_grid():
    with pytest.raises(ValueError):
        transmission_spectrum(DEFAULTS, np.array([]))


def test_fit_recovers_generating_dephasing_exactly():
    grid = np.linspace(-5.0, 5.0, 41)
    synthetic = transmission_spectrum(DEFAULTS, grid)
    fit = fit_dephasing(synthetic[:, 0], synthetic[:, 1], replace(DEFAULTS, gamma_deph=2.0))
    assert abs(fit.gamma_deph - 0.5) / 0.5 < 1e-6
    assert fit.residual < 1e-12


def test_fit_tolerates_one_percent_noise():
    grid = np.linspace(-2.0, 2.0, 121)  # spans the absorption line
    synthetic = transmission_spectrum(DEFAULTS, grid)
    rng = np.random.default_rng(2024)
    noisy = synthetic[:, 1] * (1.0 + 0.01 * rng.standard_normal(grid.size))
    fit = fit_dephasing(grid, noisy, replace(DEFAULTS, gamma_deph=2.0))
    assert abs(fit.gamma_deph - 0.5) / 0.5 < 0.05


def test_fit_rejects_degenerate_data():
    grid = np.linspace(-5.0, 5.0, 41)
    with pytest.raises(ValueError):
        fit_dephasing(grid, np.ones(grid.size), DEFAULTS)
    with pytest.raises(ValueError):
        fit_dephasing(grid[:4], np.linspace(0.8, 1.0, 4), DEFAULTS)


def test_conversion_probability_reference_window():
    value = conversion_probability(DEFAULTS)
    assert 0.13 <= value <= 0.15
    assert value == pytest.approx(0.135934, abs=1e-5)


def test_conversion_probability_vanishes_in_dark_state_limit():
    assert conversion_probability(replace(DEFAULTS, omega_c=0.0)) == 0.0
    ideal = replace(DEFAULTS, delta_e=math.inf, gamma_deph=0.0, tau_ryd_us=math.inf)
    assert conversion_probability(ideal) == 0.0
    # approaching the limit from finite parameters the estimate shrinks
    values = [
        conversion_probability(replace(DEFAULTS, gamma_deph=g, tau_ryd_us=math.inf))
        for g in (0.5, 0.05, 0.005)
    ]
    assert values[0] > values[1] > values[2]


def test_conversion_probability_monotone_in_optical_depth():
    values = [conversion_probability(replace(DEFAULTS, od_b=od)) for od in (1.0, 5.0, 12.5, 30.0)]
    assert (np.diff(values) > 0).all()
