import json
import math
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from photonsub import (
    AbsorberParams, DetectorConfig, PulseSpec, absorber, analytic, cli, experiment, simulate_cascade, stats,
)
from photonsub.cli import MAX_SPECTRUM_POINTS, Output, _write_csv, main
from photonsub.config import (
    KEYS,
    MAX_SEED,
    MAX_STAGES,
    RunConfig,
    apply_keys,
    load_config,
    parse_flat,
    parse_stages,
    to_flat,
)
from photonsub.pulses import MAX_BINS, MAX_PHOTONS, expected_bin_means


def test_defaults_hold_reference_parameter_table():
    cfg = RunConfig()
    assert cfg.pulse.duration_us == 2.0
    assert cfg.pulse.bin_width_us == 0.05
    assert cfg.absorber == AbsorberParams(p_ryd=0.35, p_ryd2=0.001, t=0.99)
    assert cfg.physics.delta_e == 100.0
    assert cfg.physics.omega_c == 10.0
    assert cfg.physics.gamma_e == 6.05
    assert cfg.physics.gamma_deph == 0.5
    assert cfg.physics.tau_ryd_us == 530.0
    assert cfg.physics.od_b == 12.5
    assert cfg.detector.eta_ion == 0.29


def test_parse_flat_handles_comments_and_errors():
    mapping = parse_flat("# comment\npulse.taper = 0.2  # inline\n\nrun.shots=5\n")
    assert mapping == {"pulse.taper": "0.2", "run.shots": "5"}
    with pytest.raises(ValueError):
        parse_flat("pulse.taper 0.2")


def test_apply_keys_and_roundtrip():
    cfg = apply_keys(
        RunConfig(),
        {
            "pulse.mean_photons": "5.65",
            "pulse.bin_ns": "25",
            "absorber.p_ryd": "0.5",
            "physics.gamma_deph": "0.7",
            "detector.eta_ion": "0.4",
            "run.shots": "777",
            "run.seed": "42",
            "cascade.stages": "1,0,1; 0.5,0.01,0.9",
        },
    )
    assert cfg.pulse.mean_photons == 5.65
    assert cfg.pulse.bin_width_us == 0.025
    assert cfg.absorber.p_ryd == 0.5
    assert cfg.physics.gamma_deph == 0.7
    assert cfg.detector.eta_ion == 0.4
    assert cfg.shots == 777 and cfg.seed == 42
    assert cfg.cascade == (AbsorberParams(1.0, 0.0, 1.0), AbsorberParams(0.5, 0.01, 0.9))
    roundtrip = apply_keys(RunConfig(), parse_flat(to_flat(cfg)))
    assert roundtrip == cfg


def test_unknown_and_invalid_keys_rejected():
    with pytest.raises(ValueError):
        apply_keys(RunConfig(), {"absorber.nope": "1"})
    with pytest.raises(ValueError):
        apply_keys(RunConfig(), {"absorber.p_ryd": "1.5"})
    with pytest.raises(ValueError):
        apply_keys(RunConfig(), {"run.seed": str(2**64)})
    with pytest.raises(ValueError):
        parse_stages("0.5,0.1")


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pulse.mean_photons = 3\nrun.shots = 123\n")
    cfg = load_config(path, {"run.shots": "456"})
    assert cfg.pulse.mean_photons == 3.0
    assert cfg.shots == 456


def test_workers_do_not_change_results():
    spec = PulseSpec(mean_photons=5.0)
    with mock.patch.object(experiment, "_BATCH_SHOTS", 16):
        serial = simulate_cascade((AbsorberParams(),), spec, DetectorConfig(), 64, 9, workers=1, g2_cell_bins=2)
        parallel = simulate_cascade((AbsorberParams(),), spec, DetectorConfig(), 64, 9, workers=2, g2_cell_bins=2)
    assert serial.stages[0].equals(parallel.stages[0])
    assert serial.g2.equals(parallel.g2)


# ---------------------------------------------------------------------------
# CLI surface

def _read(path):
    return path.read_bytes()


def _strict_json(path):
    """A summary.json parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_sweep_writes_deterministic_csv(tmp_path):
    args = ["--shots", "400", "--out", str(tmp_path), "sweep", "--n-in", "0,5.65"]
    assert main(args) == 0
    assert main(args) == 0
    first = tmp_path / "sweep-001"
    second = tmp_path / "sweep-002"
    header = (first / "sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["n_in", "n_out_mean", "n_out_sem", "model_n_out"]
    assert _read(first / "sweep.csv") == _read(second / "sweep.csv")
    assert _read(first / "summary.json") == _read(second / "summary.json")
    assert _read(first / "config.txt") == _read(second / "config.txt")


@pytest.mark.parametrize(
    "command",
    [
        ["g2", "--n-in", "15.76", "--cell-ns", "100"],
        ["cascade", "--stages", "1,0,1;0.35,0.001,0.99;1,0,1", "--n-in", "3"],
    ],
    ids=["g2", "cascade"],
)
def test_repeated_in_process_calls_write_identical_files(tmp_path, command):
    # as test_sweep_writes_deterministic_csv for sweep; the second call parses
    # with the parser that the first call built
    args = ["--shots", "300", "--out", str(tmp_path), *command]
    assert main(args) == 0
    assert main(args) == 0
    assert cli.build_parser() is cli.build_parser()
    first, second = sorted(tmp_path.iterdir())
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert "summary.json" in names and "config.txt" in names
    for name in names:
        assert _read(first / name) == _read(second / name), name


@pytest.mark.parametrize(
    "command, function",
    [(["spectrum"], "cmd_spectrum"), (["fit-gamma", "data.csv"], "cmd_fit_gamma")],
)
def test_main_runs_the_command_function_bound_at_call_time(tmp_path, command, function):
    cli.build_parser()
    with mock.patch.object(cli, function, return_value=Output([], {}, [], 7)) as patched:
        assert main(["--out", str(tmp_path), *command]) == 7
    patched.assert_called_once()


@pytest.mark.parametrize("present, created", [("sweep-002", "sweep-003"), ("sweep-999", "sweep-1000")])
def test_a_run_is_named_one_past_the_highest_index(tmp_path, present, created):
    # the gap below the highest index is not filled, so the newest run has the highest index
    (tmp_path / present).mkdir()
    (tmp_path / "sweep-x").mkdir()
    (tmp_path / "pulse-5000").mkdir()
    with mock.patch.object(cli, "cmd_sweep", return_value=Output([], {}, [])):
        assert main(["--out", str(tmp_path), "sweep"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [present, created, "sweep-x", "pulse-5000"]
    )
    assert json.loads((tmp_path / created / "summary.json").read_text()) == {"command": "sweep"}


def test_an_out_path_that_is_a_file_fails_before_the_command_runs(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("kept\n")
    with mock.patch.object(cli, "cmd_sweep") as patched:
        assert main(["--out", str(target), "sweep"]) == 1
    patched.assert_not_called()
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "kept\n"


def test_a_command_returns_its_output_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(["spectrum", "--points", "7"])
    out = cli.cmd_spectrum(RunConfig(), args)
    assert isinstance(out, Output) and out.code == 0
    [(name, header, rows)] = out.tables
    assert (name, header, len(rows)) == ("spectrum.csv", ["delta_mhz", "transmission"], 7)
    assert "command" not in out.summary and len(out.lines) == 1
    assert list(tmp_path.iterdir()) == []


def test_pulse_command_reports_distortion(tmp_path):
    assert main(["--shots", "400", "--out", str(tmp_path), "pulse", "--n-in", "15.76"]) == 0
    run_dir = tmp_path / "pulse-001"
    lines = (run_dir / "pulse_shape.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "bin_start_us", "in_rate", "out_rate", "transmission", "transmission_sem",
        "ideal_out_rate", "ideal_transmission",
    ]
    assert len(lines) == 41
    summary = json.loads((run_dir / "summary.json").read_text())
    # 5 sigma of a binomial fraction around the model, which is 0.0043 here,
    # so a run that sees no shot without absorption passes
    model = summary["p_no_absorption_model"]
    assert abs(summary["p_no_absorption"] - model) <= 5 * math.sqrt(model * (1 - model) / 400)


def test_pulse_runs_one_simulation_and_writes_the_exact_ideal_overlay(tmp_path, monkeypatch):
    calls = []

    def counting_run_point(*args, **kwargs):
        calls.append(args)
        return experiment.run_point(*args, **kwargs)

    monkeypatch.setattr(cli, "run_point", counting_run_point)
    assert main(["--shots", "300", "--out", str(tmp_path), "pulse", "--n-in", "15.76"]) == 0
    assert len(calls) == 1
    cfg = RunConfig()
    lam = expected_bin_means(replace(cfg.pulse, mean_photons=15.76))
    law = analytic.out_bin_means(lam, cfg.absorber.t, 1.0)
    rows = [line.split(",") for line in (tmp_path / "pulse-001" / "pulse_shape.csv").read_text().splitlines()]
    column = rows[0].index("ideal_out_rate")
    assert [row[column] for row in rows[1:]] == ["%.10g" % v for v in law]
    front, rear = stats.pulse_thirds(np.arange(lam.size + 1), cfg.pulse.bin_width_us)
    summary = _strict_json(tmp_path / "pulse-001" / "summary.json")
    for key, mask in (("ideal_front_third_transmission", front), ("ideal_rear_third_transmission", rear)):
        assert summary[key] == pytest.approx(law[mask].sum() / lam[mask].sum(), rel=1e-12, abs=0.0)


def test_empty_pulse_writes_a_zero_overlay_and_no_transmission(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--shots", "200", "--out", str(tmp_path), "pulse", "--n-in", "0"]) == 0
    rows = [line.split(",") for line in (tmp_path / "pulse-001" / "pulse_shape.csv").read_text().splitlines()]
    assert len(rows) == 41
    columns = rows[0].index("ideal_out_rate"), rows[0].index("ideal_transmission")
    assert {tuple(row[i] for i in columns) for row in rows[1:]} == {("0", "nan")}
    summary = _strict_json(tmp_path / "pulse-001" / "summary.json")
    thirds = [name for name in summary if name.endswith("_third_transmission")]
    assert len(thirds) == 4
    assert all(summary[name] is None for name in thirds)


def test_one_bin_pulse_has_no_bin_in_either_third(tmp_path):
    # the one bin's centre lies in the middle third, so both bands are empty
    cfg = tmp_path / "one.cfg"
    cfg.write_text("pulse.duration_us = 0.05\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--shots", "50", "--out", str(out), "pulse"]) == 0
    assert len((out / "pulse-001" / "pulse_shape.csv").read_text().splitlines()) == 2
    summary = _strict_json(out / "pulse-001" / "summary.json")
    thirds = [name for name in summary if name.endswith("_third_transmission")]
    assert len(thirds) == 4
    assert all(summary[name] is None for name in thirds)


def test_g2_command_emits_matrix(tmp_path):
    assert main(["--shots", "300", "--out", str(tmp_path), "g2", "--n-in", "15.76"]) == 0
    lines = ((tmp_path / "g2-001") / "g2_matrix.csv").read_text().splitlines()
    assert lines[0] == "t1_us,t2_us,g2,g2_sigma,n_pairs"
    assert len(lines) == 1 + 20 * 20


@pytest.mark.parametrize(
    "cell_ns, used, cells", [("100", "100.0", 20), ("70", "50.0", 40), ("1e-9", "50.0", 40)]
)
def test_g2_summary_records_the_cell_width_used(tmp_path, cell_ns, used, cells):
    # 50 ns bins: a cell is the requested width rounded to whole bins, at least one
    assert main(["--shots", "10", "--out", str(tmp_path), "g2", "--cell-ns", cell_ns]) == 0
    summary = (tmp_path / "g2-001" / "summary.json").read_text()
    assert f'"cell_ns": {used},' in summary
    lines = (tmp_path / "g2-001" / "g2_matrix.csv").read_text().splitlines()
    assert len(lines) == 1 + cells * cells


def test_spectrum_fit_gamma_roundtrip(tmp_path):
    assert main(["--out", str(tmp_path), "spectrum", "--points", "81"]) == 0
    csv = tmp_path / "spectrum-001" / "spectrum.csv"
    assert csv.read_text().splitlines()[0] == "delta_mhz,transmission"
    assert main(["--out", str(tmp_path), "fit-gamma", str(csv)]) == 0
    summary = json.loads((tmp_path / "fit-gamma-001" / "summary.json").read_text())
    assert abs(summary["gamma_deph_mhz"] - 0.5) / 0.5 < 1e-6


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_gamma_rejects_non_finite_data(tmp_path, capsys, column, value):
    rows = [[f"{d:g}", f"{0.5 + 0.05 * d:g}"] for d in range(-3, 4)]
    rows[4][column] = value
    data = tmp_path / "data.csv"
    data.write_text("delta_mhz,transmission\n" + "".join(",".join(row) + "\n" for row in rows))
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-gamma", str(data)]) == 1
    assert "error: data row 5 is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_fit_gamma_reports_a_csv_without_data_rows(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("delta_mhz,transmission\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warning on an empty file would escape as an error
        assert main(["--out", str(out), "fit-gamma", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {data} has no data rows\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--delta-min", "nan"),
        ("--delta-min", "-inf"),
        ("--delta-max", "inf"),
        ("--points", "0"),
        ("--points", str(MAX_SPECTRUM_POINTS + 1)),
    ],
)
def test_cli_rejects_bad_spectrum_flags(tmp_path, capsys, flag, value):
    assert main(["--out", str(tmp_path), "spectrum", f"{flag}={value}"]) == 1
    assert f"error: {flag} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cascade_command_counts_photons(tmp_path):
    args = [
        "--shots", "2000", "--out", str(tmp_path),
        "cascade", "--stages", "1,0,1;1,0,1;1,0,1;1,0,1;1,0,1", "--n-in", "2",
    ]
    assert main(args) == 0
    summary = json.loads((tmp_path / "cascade-001" / "summary.json").read_text())
    assert summary["count_accuracy"] == 1.0
    lines = ((tmp_path / "cascade-001") / "confusion.csv").read_text().splitlines()
    assert lines[0] == "true_n,inferred_n,count,fraction"
    for line in lines[1:]:
        true_n, inferred_n, *_ = line.split(",")
        assert int(inferred_n) == min(int(true_n), 5)


def test_cascade_reports_ion_clicks_per_stage(tmp_path):
    shots = 4000
    stages = ["--stages", "1,0,1;1,0,1", "--n-in", "2"]
    args = ["--shots", str(shots), "--out", str(tmp_path), "cascade", *stages]
    assert main(args) == 0
    lines = (tmp_path / "cascade-001" / "cascade_stages.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["ion_mean", "ion_q"]
    stage0 = dict(zip(header, map(float, lines[1].split(","))))
    # one absorbed photon per fired stage, each thinned by the ion detector
    eta = DetectorConfig().eta_ion
    sigma = math.sqrt(eta * (1 - eta) * stage0["p_fired"] / shots)
    assert abs(stage0["ion_mean"] - eta * stage0["p_fired"]) < 5 * sigma
    # at most one ion a shot: a Bernoulli count, whose Mandel-Q is minus its mean
    assert stage0["ion_q"] == pytest.approx(-stage0["ion_mean"], abs=1e-3)


def test_zero_ion_mean_is_written_as_zero(tmp_path):
    # no photons, so no ion: the mean is 0 and only the Q columns, which
    # divide by it, are undefined
    cascade = ["cascade", "--stages", "1,0,1;1,0,1", "--n-in", "0"]
    assert main(["--shots", "200", "--out", str(tmp_path), *cascade]) == 0
    lines = (tmp_path / "cascade-001" / "cascade_stages.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        assert row["ion_mean"] == 0.0 and math.isnan(row["ion_q"])
    assert main(["--shots", "200", "--out", str(tmp_path), "sweep", "--n-in", "0"]) == 0
    lines = (tmp_path / "sweep-001" / "sweep.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["ion_mean"] == row["ion_mean_sem"] == 0.0
    assert all(math.isnan(row[name]) for name in ("ion_q", "ion_q_sem", "q_over_mean", "q_over_mean_sem"))
    # an undefined statistic is null in summary.json, which stays valid JSON
    point = _strict_json(tmp_path / "sweep-001" / "summary.json")["points"][0]
    assert point["ion_mean"] == 0.0 and point["ion_q"] is None and point["q_over_mean"] is None


def test_cascade_length_is_capped(tmp_path, capsys):
    assert len(parse_stages(";".join(["1,0,1"] * MAX_STAGES))) == MAX_STAGES
    too_long = ";".join(["1,0,1"] * (MAX_STAGES + 1))
    args = ["--shots", "1", "--out", str(tmp_path), "cascade", "--stages", too_long]
    assert main(args) == 1
    assert "config key 'cascade.stages'" in capsys.readouterr().err
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"cascade.stages = {too_long}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--shots", "1", "--out", str(out), "cascade"]) == 1
    assert "config key 'cascade.stages'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cascade_of_twenty_stages_writes_only_observed_outcomes(tmp_path):
    stages = ";".join(["1,0,1"] * 20)
    args = ["--shots", "50", "--out", str(tmp_path), "cascade", "--stages", stages, "--n-in", "3"]
    assert main(args) == 0
    lines = (tmp_path / "cascade-001" / "joint_absorbed.csv").read_text().splitlines()
    assert lines[0].split(",") == [f"absorbed_stage_{k}" for k in range(20)] + ["count"]
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert rows == sorted(rows)
    assert all(row[-1] > 0 for row in rows)
    assert sum(row[-1] for row in rows) == 50
    # ideal stages fire in order, one per photon
    for row in rows:
        fired = sum(row[:-1])
        assert row[:-1] == [1] * fired + [0] * (20 - fired)


def test_a_cascade_writes_its_joint_table_only_under_the_cap(tmp_path):
    # 3**12 absorbed patterns of leaky stages are kept, 3**13 and 3**100 are not
    for n_stages, written in ((12, True), (13, False), (100, False)):
        out = tmp_path / str(n_stages)
        stages = ";".join(["0.3,0.05,0.999"] * n_stages)
        assert main(["--shots", "200", "--out", str(out), "cascade", "--stages", stages, "--n-in", "100"]) == 0
        run = out / "cascade-001"
        assert (run / "joint_absorbed.csv").exists() == written
        assert json.loads((run / "summary.json").read_text())["joint_absorbed_written"] is written
        lines = (run / "confusion.csv").read_text().splitlines()
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 200


def test_validate_passes_on_defaults(tmp_path):
    assert main(["--shots", "3000", "--out", str(tmp_path), "validate"]) == 0
    report = (tmp_path / "validate-001" / "validate_report.csv").read_text().splitlines()[1:]
    rows = {line.split(",")[0]: float(line.split(",")[2]) for line in report}
    # three checks a point, each against the leaky law at the configured p_ryd2 = 0.001
    assert len(rows) == 6
    for n_in in (5.65, 20.0):
        mean, q, _ = analytic.ion_stats(n_in, 0.99, 0.35, 0.001, 0.29)
        assert rows[f"closed_form_mean_out[n_in={n_in:g}]"] == pytest.approx(analytic.mean_out(n_in, 0.99, 0.35, 0.001))
        assert rows[f"ion_mean[n_in={n_in:g}]"] == pytest.approx(mean)
        assert rows[f"ion_mandel_q[n_in={n_in:g}]"] == pytest.approx(q)


def test_validate_skips_checks_undefined_without_ions(tmp_path):
    # no photon, so no ion: the ion checks are undefined and skipped, the rest run and pass
    assert main(["--shots", "50", "--out", str(tmp_path), "validate", "--n-in", "0"]) == 0
    report = (tmp_path / "validate-001" / "validate_report.csv").read_text().splitlines()
    skipped = [line.split(",")[0] for line in report if line.endswith(",skip")]
    assert skipped == ["ion_mean[n_in=0]", "ion_mandel_q[n_in=0]"]
    summary = _strict_json(tmp_path / "validate-001" / "summary.json")
    assert (summary["n_checks"], summary["n_failed"], summary["n_skipped"]) == (len(report) - 1, 0, 2)


def test_validate_skips_checks_undefined_without_ion_detection(tmp_path):
    # eta_ion = 0 counts no ion, so every ion statistic is undefined
    cfg = tmp_path / "eta0.cfg"
    cfg.write_text("detector.eta_ion = 0\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--shots", "50", "--out", str(out), "validate"]) == 0
    report = (out / "validate-001" / "validate_report.csv").read_text().splitlines()
    skipped = [line.split(",")[0] for line in report if line.endswith(",skip")]
    assert skipped == [
        f"{check}[n_in={n_in}]" for n_in in ("5.65", "20") for check in ("ion_mean", "ion_mandel_q")
    ]
    summary = _strict_json(out / "validate-001" / "summary.json")
    assert (summary["n_checks"], summary["n_failed"], summary["n_skipped"]) == (len(report) - 1, 0, 4)


def test_validate_passes_when_a_small_sample_has_no_spread(tmp_path):
    # 50 shots at 0.01 photons see no output photon and no ion; the model's
    # standard errors, not the sample's zero ones, set the tolerances
    assert main(["--shots", "50", "--out", str(tmp_path), "validate", "--n-in", "0.01"]) == 0
    report = (tmp_path / "validate-001" / "validate_report.csv").read_text().splitlines()
    tols = {line.split(",")[0]: float(line.split(",")[3]) for line in report[1:]}
    assert tols["closed_form_mean_out[n_in=0.01]"] > 0 and tols["ion_mean[n_in=0.01]"] > 0


def test_validate_fails_on_corrupted_oracle(tmp_path):
    rc = main(
        ["--shots", "4000", "--out", str(tmp_path), "validate", "--oracle-p-ryd", "0.8"]
    )
    assert rc == 2


def test_validate_fails_when_the_stage_ignores_the_leak(tmp_path, capsys):
    # the configured leak moves the output mean at 5.65 photons by about 4 tolerances
    simulate_shot = experiment.simulate_shot

    def no_leak(params, shape, idx, counts, rng):
        return simulate_shot(replace(params, p_ryd2=0.0), shape, idx, counts, rng)

    cfg = tmp_path / "leaky.cfg"
    cfg.write_text("absorber.p_ryd2 = 0.3\n")
    args = ["--config", str(cfg), "--shots", "2000", "--out", str(tmp_path), "validate"]
    assert main(args) == 0
    with mock.patch.object(experiment, "simulate_shot", no_leak):
        assert main(args) == 2
    out = capsys.readouterr().out
    assert "FAIL closed_form_mean_out[n_in=5.65]" in out and "FAIL ion_mean[n_in=5.65]" in out


def test_cli_rejects_zero_shots(tmp_path):
    assert main(["--shots", "0", "--out", str(tmp_path), "sweep"]) == 1


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("absorber.p_ryd = 7\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "sweep"]) == 1
    # rejected while reading the config, so no run directory is left behind
    cfg.write_text("detector.dead_time_ns = inf\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "g2"]) == 1
    assert not list(tmp_path.glob("*-001"))


def test_cli_rejects_zero_intermediate_detuning_by_its_key(tmp_path, capsys):
    # the Raman decay rate diverges at delta_e = 0: rejected while reading the config
    cfg = tmp_path / "resonant.cfg"
    cfg.write_text("physics.delta_e = 0\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 1
    assert "config key 'physics.delta_e'" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_workers_are_bounded_by_the_cores(tmp_path, capsys):
    too_many = str((os.cpu_count() or 1) + 1)
    with pytest.raises(ValueError, match=re.escape("config key 'run.workers'")):
        apply_keys(RunConfig(), {"run.workers": too_many})
    # one shot is one batch, so even an unchecked value would start no process
    args = ["--workers", too_many, "--shots", "1", "--out", str(tmp_path), "cascade"]
    assert main(args) == 1
    assert "config key 'run.workers'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cell_ns", ["inf", "-inf", "nan", "-5", "0"])
def test_cli_rejects_bad_cell_width(tmp_path, capsys, cell_ns):
    assert main(["--shots", "10", "--out", str(tmp_path), "g2", f"--cell-ns={cell_ns}"]) == 1
    assert "config key 'g2.cell_ns'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_caps_the_g2_grid(tmp_path, capsys):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("pulse.bin_ns = 1\n")  # 2000 one-bin cells
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--shots", "10", "--out", str(out), "g2", "--cell-ns", "1"]
    assert main(args) == 1
    assert "g2.cell_ns" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_flags_set_the_keys_they_shadow(tmp_path):
    args = ["--shots", "20", "--out", str(tmp_path), "g2", "--n-in", "10", "--cell-ns", "50"]
    assert main(args) == 0
    snapshot = (tmp_path / "g2-001" / "config.txt").read_text().splitlines()
    assert "pulse.mean_photons = 10" in snapshot and "g2.cell_ns = 50" in snapshot
    lines = (tmp_path / "g2-001" / "g2_matrix.csv").read_text().splitlines()
    assert len(lines) == 1 + 40 * 40


@pytest.mark.parametrize("out_dir", ["res#1", " pad", "pad ", "pad\t", "a\nb", "a\rb", "a\n"])
def test_cli_rejects_an_out_dir_that_config_txt_cannot_write_back(tmp_path, monkeypatch, capsys, out_dir):
    # config.txt holds the directory on one 'key = value' line, where '#' starts a
    # comment and the value is stripped
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(cli, "cmd_sweep") as patched:
        assert main(["--out", out_dir, "sweep"]) == 1
    patched.assert_not_called()
    assert "config key 'run.out_dir'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag",
    [
        (["sweep", "--n-in", "1,nan"], "--n-in"),
        (["sweep", "--n-in", "1,x"], "--n-in"),
        (["sweep", "--n-in", "1,-2"], "--n-in"),
        (["validate", "--n-in", "5.65,inf"], "--n-in"),
        (["validate", "--oracle-p-ryd", "nan"], "--oracle-p-ryd"),
        (["validate", "--oracle-p-ryd", "1.5"], "--oracle-p-ryd"),
    ],
    ids=["sweep-nan", "sweep-text", "sweep-negative", "validate-inf", "oracle-nan", "oracle-above-one"],
)
def test_list_flags_are_checked_before_the_first_shot(tmp_path, capsys, command, flag):
    with mock.patch.object(cli, "run_point") as patched:
        assert main(["--shots", "10", "--out", str(tmp_path), *command]) == 1
    patched.assert_not_called()
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_fit_data(tmp_path):
    assert main(["--out", str(tmp_path), "fit-gamma", str(tmp_path / "none.csv")]) == 1
    # the failed run leaves neither its directory nor its temporary one
    assert not list(tmp_path.glob("fit-gamma-*"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text",
    [
        "pulse.duration_us = 1e300\npulse.bin_ns = 1e-300\n",
        "pulse.bin_ns = 1e-300\npulse.duration_us = 1e300\n",
        "pulse.duration_us = 1e12\n",
    ],
)
def test_cli_rejects_too_many_bins(tmp_path, capsys, text):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 1
    # a check over several given keys names each of them, in the file's order
    names = ", ".join(repr(line.split(" = ")[0]) for line in text.splitlines())
    assert re.search(f"error: config key {re.escape(names)}: .*bins", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("duration_us, bin_ns, bins", [("0.01", "5", 2), ("10000", "1000", 10000)])
def test_a_run_snapshot_reloads_whatever_its_key_order(tmp_path, duration_us, bin_ns, bins):
    # config.txt lists pulse.duration_us before pulse.bin_ns, and neither value
    # fits the other's default
    cfg = tmp_path / "pulse.cfg"
    cfg.write_text(f"pulse.bin_ns = {bin_ns}\npulse.duration_us = {duration_us}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--shots", "1", "--out", str(out), "pulse"]) == 0
    loaded = load_config(out / "pulse-001" / "config.txt")
    assert loaded == load_config(cfg, {"run.shots": "1", "run.out_dir": str(out)})
    assert loaded.pulse.n_bins == bins


def test_a_flag_replaces_an_invalid_file_value_unchecked(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pulse.mean_photons = -1\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--shots", "10", "--out", str(out), "cascade", "--n-in", "3"]) == 0
    assert "pulse.mean_photons = 3\n" in (out / "cascade-001" / "config.txt").read_text()


@pytest.mark.parametrize(
    "text, warned",
    [
        ("absorber.p_ryd2 = 0.5\nabsorber.p_ryd = 0.9\n", 0),
        ("absorber.p_ryd2 = 0.9\nabsorber.p_ryd = 0.5\n", 1),
        ("absorber.p_ryd = 0.5\nabsorber.p_ryd2 = 0.9\n", 1),
    ],
)
def test_only_the_final_leakage_is_checked(tmp_path, text, warned):
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_config(cfg)
    assert [str(w.message) for w in caught] == [
        "p_ryd2 exceeds p_ryd: second absorption more likely than first"
    ] * warned


# ---------------------------------------------------------------------------
# the key table


def _number(lo, hi):
    return st.floats(lo, hi).map(lambda x: f"{x:.10g}")


def _stages():
    stage = st.tuples(_number(0, 1), _number(0, 1), _number(0, 1)).map(
        lambda s: f"{max(s[:2], key=float)},{min(s[:2], key=float)},{s[2]}"
    )
    return st.lists(stage, min_size=1, max_size=4).map("; ".join)


def _split():
    # dyadic fractions sum to exactly 1 and print exactly
    cuts = st.lists(st.integers(0, 64), min_size=3, max_size=3).map(sorted)
    return cuts.map(lambda c: ",".join(str(b / 64) for b in np.diff([0, *c, 64])))


VALID_TEXT = {
    "pulse.mean_photons": _number(0, 1e3),
    "pulse.duration_us": _number(0.05, 100),
    "pulse.bin_ns": _number(1, 2000),
    "pulse.taper": _number(0, 1),
    "absorber.p_ryd": _number(0.001, 1),
    "absorber.p_ryd2": _number(0, 0.35),
    "absorber.t": _number(0, 1),
    "cascade.stages": _stages(),
    "physics.delta_e": _number(-1e3, 1e3).filter(lambda text: float(text) != 0),
    "physics.omega_c": _number(0, 100),
    "physics.gamma_e": _number(1e-3, 100),
    "physics.gamma_deph": _number(0, 100),
    "physics.tau_ryd_us": _number(1e-3, 1e6) | st.just("inf"),
    "physics.od_b": _number(0, 100),
    "detector.eta_probe": _number(0, 1),
    "detector.eta_ion": _number(0, 1),
    "detector.split": _split(),
    "detector.dead_time_ns": _number(0, 1e4),
    "detector.dark_cps": _number(0, 1e7),
    "run.shots": st.integers(1, 10**9).map(str),
    "run.seed": st.integers(0, MAX_SEED).map(str),
    "run.out_dir": st.text("abcXYZ019_-./", min_size=1, max_size=20),
    "run.workers": st.integers(1, os.cpu_count() or 1).map(str),
    "g2.cell_ns": _number(1e-3, 1e4),
}
FLOAT_KEYS = [key.name for key in KEYS if isinstance(key.read(RunConfig()), float)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_key_roundtrips_through_the_snapshot(data, tmp_path):
    assert list(VALID_TEXT) == [key.name for key in KEYS]
    key = data.draw(st.sampled_from(KEYS))
    text = data.draw(VALID_TEXT[key.name])
    cfg = apply_keys(RunConfig(), {key.name: text})
    assert key.read(cfg) == key.parse(text)
    snapshot = tmp_path / "config.txt"
    snapshot.write_text(to_flat(cfg))
    assert load_config(snapshot) == cfg


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.filterwarnings("ignore:p_ryd2 exceeds p_ryd")
def test_a_whole_config_applies_in_any_order_and_roundtrips(data, tmp_path):
    mapping = {name: data.draw(text, label=name) for name, text in VALID_TEXT.items()}
    bins = float(mapping["pulse.duration_us"]) / (float(mapping["pulse.bin_ns"]) / 1000.0)
    assume(bins < MAX_BINS + 0.5 and round(bins) >= 1)
    cfg = apply_keys(RunConfig(), mapping)
    order = data.draw(st.permutations(list(mapping)), label="order")
    assert apply_keys(RunConfig(), {name: mapping[name] for name in order}) == cfg
    snapshot = tmp_path / "config.txt"
    snapshot.write_text(to_flat(cfg))
    assert load_config(snapshot) == cfg


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(FLOAT_KEYS),
    text=st.sampled_from(["nan", "NaN", "-nan", "inf", "+inf", "Infinity", "-inf", "-Infinity"]),
)
def test_float_keys_reject_non_finite_values(name, text):
    assert len(FLOAT_KEYS) == 18
    if name == "physics.tau_ryd_us" and float(text) == math.inf:
        # an infinite Rydberg lifetime is the no-decay limit
        assert apply_keys(RunConfig(), {name: text}).physics.tau_ryd_us == math.inf
        return
    with pytest.raises(ValueError, match=re.escape(f"config key {name!r}")):
        apply_keys(RunConfig(), {name: text})


def test_readme_configuration_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```", 2)[1]
    mapping = parse_flat(block)
    apply_keys(RunConfig(), mapping)
    assert set(mapping) == {key.name for key in KEYS}


def _fmt_reference(value) -> str:
    """The per-value formatter the CSV writer used before it formatted whole rows."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.10g}"
    return str(value)


def test_csv_rows_format_like_the_per_value_formatter(tmp_path):
    values = [
        0, -7, 12345678901, -98765432109876, 2**70, np.int64(2**62), np.int32(-5),
        0.1, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012.0,
        float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
        np.float64(np.nan), np.float64(-0.0), np.float64(2.0 / 3.0), np.float32(0.1),
        "skip", "", True, False, np.bool_(True),
    ]
    for rows in (
        [tuple(values), tuple(reversed(values)), (1, "a", 2.0)],  # rows of different lengths
        [tuple(values), tuple(reversed(values))],  # columns holding floats in some rows only
        [tuple(values)] * 2,  # every column of one type
    ):
        _write_csv(tmp_path / "t.csv", ["h"], rows)
        lines = (tmp_path / "t.csv").read_text().split("\n")
        assert lines == ["h"] + [",".join(_fmt_reference(v) for v in row) for row in rows] + [""]


@pytest.mark.parametrize(
    "command, flag",
    [
        # an int64 overflow once gave wrapped sums and P(no absorption) = 1 with exit code 0
        (["pulse", "--n-in", "1e19"], "config key 'pulse.mean_photons'"),
        # once nan n_out_sem from an int64 overflow within a block
        (["sweep", "--n-in", "3,1e9"], "--n-in"),
        # once numpy's "lam value too large", naming no flag
        (["sweep", "--n-in", "1e30"], "--n-in"),
    ],
    ids=["pulse-1e19", "sweep-1e9", "sweep-1e30"],
)
def test_photon_numbers_above_the_cap_are_refused_by_name(tmp_path, capsys, command, flag):
    with mock.patch.object(cli, "run_point") as patched:
        assert main(["--shots", "200", "--out", str(tmp_path), *command]) == 1
    patched.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and str(MAX_PHOTONS) in err
    assert list(tmp_path.iterdir()) == []


def test_the_photon_cap_and_dark_budget_are_checked_where_the_config_enters():
    assert load_config(None, {"pulse.mean_photons": str(MAX_PHOTONS)}).pulse.mean_photons == MAX_PHOTONS
    with pytest.raises(ValueError, match="config key 'pulse.mean_photons'"):
        load_config(None, {"pulse.mean_photons": str(MAX_PHOTONS * 1.0001)})
    # each (shot, counter) draws its darks from a Poisson table of dark_cps times the pulse length
    assert load_config(None, {"detector.dark_cps": "5e10"}).detector.dark_cps == 5e10
    with pytest.raises(ValueError, match="config key 'detector.dark_cps'"):
        load_config(None, {"detector.dark_cps": "5.1e10"})
