"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; the
whole module takes under a minute at the desk-scale shot counts used here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from photonsub import (
    AbsorberParams,
    DetectorConfig,
    PhysicsParams,
    PulseSpec,
    detect_pulse,
    fit_dephasing,
    mean_out,
    merge,
    p_no_absorption,
    photon_deficit,
    pulse_shape,
    run_point,
    scattering_probability,
    simulate_cascade,
    simulate_shot,
    substream,
    transmission,
    transmission_spectrum,
)
from photonsub.analytic import ion_stats, out_bin_means
from photonsub.cli import main as cli_main
from photonsub.pulses import expected_bin_means
from photonsub.stats import hist_mean, mandel_q, mandel_q_sem, q_over_mean

from _oracles import both_stages_fire_probability

SEED = 20260808
PULSE = PulseSpec(mean_photons=15.76)
MEASURED = AbsorberParams(p_ryd=0.35, p_ryd2=0.001, t=0.99)
NO_LEAK = AbsorberParams(p_ryd=0.35, p_ryd2=0.0, t=0.99)
IDEAL = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=1.0)
DET = DetectorConfig()


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _pulse(n_in: float) -> PulseSpec:
    return replace(PULSE, mean_photons=n_in)


def test_criterion_01_closed_form_equivalence():
    shots = 100000
    worst = 0.0
    ok = True
    for k, n_in in enumerate((1.0, 3.0, 5.65, 10.0, 15.76, 20.0, 35.0)):
        ens = run_point(_pulse(n_in), NO_LEAK, DET, shots, SEED, stream_key=(1, k))
        expected = mean_out(n_in, NO_LEAK.t, NO_LEAK.p_ryd, NO_LEAK.p_ryd2)
        z = abs(ens.mean_out - expected) / ens.sem_out
        worst = max(worst, z)
        ok &= z <= 3.0
    assert mean_out(20.0, 0.99, 0.35, 0.0) == pytest.approx(18.801, abs=5e-4)
    _report(1, "closed-form mean equivalence", ok, f"max |z| = {worst:.2f} over 7 inputs")


def test_criterion_02_single_photon_deficit():
    shots = 50000
    deficits = []
    for n_in in range(12, 36):
        ens = run_point(_pulse(float(n_in)), MEASURED, DET, shots, SEED, stream_key=(2, n_in))
        deficits.append(photon_deficit(ens, MEASURED.t)[0])
    average = float(np.mean(deficits))
    ok = 0.85 <= average <= 1.11
    exact = float(np.mean([MEASURED.t * n - mean_out(float(n), MEASURED.t, MEASURED.p_ryd, MEASURED.p_ryd2)
                           for n in range(12, 36)]))
    _report(2, "photon deficit 0.98(13)", ok, f"mean deficit = {average:.4f} (exact {exact:.4f}) over n_in 12..35")


def test_criterion_03_ion_saturation():
    shots = 250000
    details = []
    ok = True
    for k, n_in in enumerate((25.0, 30.0, 35.0)):
        ens = run_point(_pulse(n_in), MEASURED, DET, shots, SEED, stream_key=(3, k))
        ion_mean = hist_mean(ens.ion_hist)
        ion_q = mandel_q(ens.ion_hist)
        ok &= abs(ion_mean - 0.29) <= 0.01
        ok &= abs(ion_q - (-0.29)) <= 0.01
        exact_mean, exact_q, _ = ion_stats(n_in, MEASURED.t, MEASURED.p_ryd, MEASURED.p_ryd2, DET.eta_ion)
        details.append(f"n={n_in:g}: mean={ion_mean:.4f} (exact {exact_mean:.4f}), Q={ion_q:.4f} (exact {exact_q:.4f})")
    _report(3, "ion saturation at 0.29 / -0.29", ok, "; ".join(details))


def test_criterion_04_q_over_mean_drift():
    shots = 250000
    details = []
    ok = True
    for k, (n_in, target, tol) in enumerate(((3.0, -0.98, 0.03), (35.0, -0.91, 0.03))):
        ens = run_point(_pulse(n_in), MEASURED, DET, shots, SEED, stream_key=(4, k))
        ratio = q_over_mean(ens.ion_hist)
        ok &= abs(ratio - target) <= tol
        exact = ion_stats(n_in, MEASURED.t, MEASURED.p_ryd, MEASURED.p_ryd2, DET.eta_ion)[2]
        details.append(f"n={n_in:g}: {ratio:.4f} (target {target}, exact {exact:.4f})")
    for k, n_in in enumerate((3.0, 35.0)):
        ens = run_point(_pulse(n_in), NO_LEAK, DET, 100000, SEED, stream_key=(4, 10 + k))
        ratio = q_over_mean(ens.ion_hist)
        ok &= abs(ratio - (-1.0)) <= 0.02
        details.append(f"no-leak n={n_in:g}: {ratio:.4f}")
    _report(4, "Q/mean drift with blockade leakage", ok, "; ".join(details))


def test_criterion_05_no_absorption_probability():
    shots = 100000
    ens = run_point(_pulse(5.65), MEASURED, DET, shots, SEED, stream_key=(5,))
    p0 = ens.absorbed_hist[0] / ens.shots
    expected = p_no_absorption(5.65, MEASURED.t, MEASURED.p_ryd)
    ok = abs(p0 - 0.141) <= 0.010
    _report(5, "finite no-absorption probability", ok, f"P(0) = {p0:.4f}, model {expected:.4f}")


def test_criterion_06_pulse_distortion():
    shots = 100000
    ideal = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=MEASURED.t)
    shape = pulse_shape(run_point(PULSE, MEASURED, DET, shots, SEED, stream_key=(6, 0)))
    ideal_shape = pulse_shape(run_point(PULSE, ideal, DET, shots, SEED, stream_key=(6, 1)))
    rear = shape.band_transmission(shape.rear)
    front = shape.band_transmission(shape.front)
    ideal_rear = ideal_shape.band_transmission(ideal_shape.rear)
    ideal_front = ideal_shape.band_transmission(ideal_shape.front)
    ok = rear >= 0.985 and front < rear and ideal_front < ideal_rear
    lam = expected_bin_means(PULSE)
    exact = replace(ideal_shape, in_rate=lam, out_rate=out_bin_means(lam, ideal.t, ideal.p_ryd))
    _report(
        6,
        "pulse-front distortion",
        ok,
        f"measured front/rear = {front:.4f}/{rear:.4f}, ideal = {ideal_front:.4f}/{ideal_rear:.4f}, "
        f"exact ideal = {exact.band_transmission(exact.front):.4f}/{exact.band_transmission(exact.rear):.4f}",
    )


def test_criterion_07_early_pulse_bunching():
    shots = 100000
    result = simulate_cascade((MEASURED,), PULSE, DET, shots, SEED, stream_key=(7,), g2_cell_bins=2)
    mat = result.g2.finalize()
    front_z = (mat.front_g2 - 1.0) / mat.front_sigma
    rear_z = (mat.rear_g2 - 1.0) / mat.rear_sigma
    edges = mat.cell_edges_us
    centers = 0.5 * (edges[:-1] + edges[1:])
    duration = edges[-1]
    front_cells = centers < duration / 3.0
    rear_cells = centers >= 2.0 * duration / 3.0
    cell_z = (mat.values - 1.0) / mat.sigma
    front_cell_max = np.nanmax(cell_z[np.ix_(front_cells, front_cells)])
    rear_cell_max = np.nanmax(np.abs(cell_z[np.ix_(rear_cells, rear_cells)]))
    ok = front_z >= 3.0 and front_cell_max >= 3.0 and abs(rear_z) <= 3.0 and rear_cell_max <= 4.5
    _report(
        7,
        "early-pulse photon bunching",
        ok,
        f"front block z = {front_z:.1f} (best cell {front_cell_max:.1f}), "
        f"rear block z = {rear_z:.2f}",
    )


def test_criterion_08_spectrum_model_consistency():
    phys = PhysicsParams()
    p_scatt = scattering_probability(phys)
    ideal = replace(phys, delta_e=math.inf, gamma_deph=0.0, tau_ryd_us=math.inf)
    ideal_t = transmission(ideal, 0.0, 0.0)
    grid = np.linspace(-5.0, 5.0, 41)
    synthetic = transmission_spectrum(phys, grid)
    fit = fit_dephasing(synthetic[:, 0], synthetic[:, 1], replace(phys, gamma_deph=3.0))
    rel_err = abs(fit.gamma_deph - 0.5) / 0.5
    ok = abs(p_scatt - 0.011) <= 0.002 and ideal_t == 1.0 and rel_err <= 1e-6
    _report(
        8,
        "three-level spectrum consistency",
        ok,
        f"p_scatt = {p_scatt:.4f}, ideal-limit T = {ideal_t}, fit error = {rel_err:.2e}",
    )


def test_criterion_09_statistical_laws(tmp_path):
    details = []
    # (a) binomial thinning scales Mandel-Q by the efficiency
    clicks = substream(SEED, 9, 0).binomial(2, 0.29, size=100000)
    hist = np.bincount(clicks, minlength=3)
    q = mandel_q(hist)
    ok = abs(q - (-0.29)) <= 3 * mandel_q_sem(hist)
    details.append(f"thinned Q = {q:.4f}")
    # (b) normalized g2 is invariant under uniform detector thinning
    full = simulate_cascade((MEASURED,), PULSE, DET, 50000, SEED, stream_key=(9, 1), g2_cell_bins=2)
    half_det = DetectorConfig(eta_probe=0.5)
    half = simulate_cascade((MEASURED,), PULSE, half_det, 50000, SEED, stream_key=(9, 2), g2_cell_bins=2)
    m_full = full.g2.finalize()
    m_half = half.g2.finalize()
    for label, a, sa, b, sb in (
        ("front", m_full.front_g2, m_full.front_sigma, m_half.front_g2, m_half.front_sigma),
        ("rear", m_full.rear_g2, m_full.rear_sigma, m_half.rear_g2, m_half.rear_sigma),
    ):
        z = abs(a - b) / math.hypot(sa, sb)
        ok &= z <= 3.0
        details.append(f"g2 {label} thinning z = {z:.2f}")
    # (c) splitter conserves photons exactly
    rng = substream(SEED, 9, 3)
    conserved = True
    for _ in range(200):
        counts = rng.poisson(2.0, size=40)
        idx = np.flatnonzero(counts)  # efficiency 1, no darks or dead time
        det = detect_pulse(counts.shape, idx, counts[idx], DET, rng, PULSE.bin_width_us)
        conserved &= bool((det.sum(axis=0) == counts).all())
    ok &= conserved
    details.append(f"split conservation = {conserved}")
    # (d) ensemble merge is exactly associative
    spec = _pulse(6.0)
    e1 = run_point(spec, MEASURED, DET, 400, SEED, stream_key=(9, 4))
    e2 = run_point(spec, MEASURED, DET, 300, SEED, stream_key=(9, 5))
    e3 = run_point(spec, MEASURED, DET, 200, SEED, stream_key=(9, 6))
    associative = merge(merge(e1, e2), e3).equals(merge(e1, merge(e2, e3)))
    ok &= associative
    details.append(f"merge associative = {associative}")
    # (e) fixed seed reruns emit byte-identical files
    args = ["--shots", "500", "--seed", str(SEED), "sweep", "--n-in", "5.65"]
    assert cli_main(["--out", str(tmp_path / "a")] + args) == 0
    assert cli_main(["--out", str(tmp_path / "b")] + args) == 0
    identical = (tmp_path / "a" / "sweep-001" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep-001" / "sweep.csv"
    ).read_bytes()
    ok &= identical
    details.append(f"byte-identical rerun = {identical}")
    _report(9, "statistical and algebraic laws", ok, "; ".join(details))


def test_criterion_10_cascade_number_resolution():
    # five ideal stages resolve an exact three-photon input with zero error
    rng = substream(SEED, 10, 0)
    miscounts = 0
    for _ in range(2000):
        idx, counts, fired = np.arange(3), np.ones(3, dtype=np.int64), 0
        for _stage in range(5):
            rec = simulate_shot(IDEAL, (1, 3), idx, counts, rng)
            live = rec.output_bins > 0
            idx, counts = idx[live], rec.output_bins[live]
            fired += int(rec.absorbed[0]) > 0
        miscounts += fired != 3
    # two ideal stages sample the Poisson tail probability P(n >= 2)
    shots = 100000
    result = simulate_cascade([IDEAL, IDEAL], _pulse(2.0), DET, shots, SEED, stream_key=(10,))
    p_both = sum(count for (_, fired), count in result.outcomes.confusion.items() if fired == 2) / shots
    oracle = both_stages_fire_probability(2.0)
    sigma = math.sqrt(oracle * (1 - oracle) / shots)
    ok = (
        miscounts == 0
        and abs(p_both - 0.594) <= 0.01
        and abs(p_both - oracle) <= 3 * sigma
    )
    _report(
        10,
        "cascade number resolution",
        ok,
        f"miscounts = {miscounts}/2000, P(both fired) = {p_both:.4f} (oracle {oracle:.4f})",
    )
