"""Command-line harness: sweep, pulse, g2, spectrum, fit-gamma, cascade, validate.

Each ``cmd_<name>(cfg, args)`` computes its datasets and returns them as an
``Output``; no command writes a file.  ``main`` is the one writer.  Before the
command runs it creates a hidden temporary directory in the output directory
holding the config snapshot ``config.txt``, so a bad ``--out`` fails before any
shot is drawn.  Afterwards it writes the command's CSV tables and its
``summary.json`` (``"command"`` first, undefined values as null) there, prints
the report lines and renames the directory onto ``<command>-NNN``, one past the
highest index in the output directory.  A failed run leaves no directory
behind.  With a fixed config and seed the emitted files are byte-identical
across reruns.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytic, bloch, stats
from ._checks import check_finite, check_unit_interval
from .absorber import AbsorberParams, merge, simulate_shot, substream
from .config import RunConfig, load_config, to_flat
from .experiment import block_rows, run_point, simulate_cascade
from .pulses import expected_bin_means

DEFAULT_SWEEP = "1,3,5.65,10,15.76,20,35"
# Each spectrum point allocates a few complex arrays of --points entries.
MAX_SPECTRUM_POINTS = 100_000
SWEEP_COLUMNS = [
    "n_in", "n_out_mean", "n_out_sem", "model_n_out", "deficit", "deficit_sem",
    "ion_mean", "ion_mean_sem", "ion_q", "ion_q_sem", "q_over_mean", "q_over_mean_sem",
]
# The sweep columns that summary.json repeats per point.
SWEEP_SUMMARY = {
    "n_in", "n_out_mean", "n_out_sem", "model_n_out", "deficit", "ion_mean", "ion_q", "q_over_mean",
}


# ---------------------------------------------------------------------------
# output plumbing

def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join("%.10g" if isinstance(v, float) else "%s" for v in row) % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _json_value(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


class Output(NamedTuple):
    """What a command produced: CSV tables as (file name, header, rows), the
    summary.json entries after ``"command"``, report lines and exit code."""

    tables: list[tuple[str, list[str], list[tuple]]]
    summary: dict
    lines: list[str]
    code: int = 0


def _prepare_run_dir(cfg: RunConfig, command: str) -> Path:
    """A temporary directory in the output directory, holding the config snapshot."""
    base = Path(cfg.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{command}-", suffix=".tmp", dir=base))
    (tmp / "config.txt").write_text(to_flat(cfg))
    return tmp


def _publish(tmp: Path, command: str) -> Path:
    """Rename a finished run onto ``<command>-NNN``, one past the highest index in its directory."""
    pattern = re.compile(re.escape(command) + "-([0-9]+)")
    last = max((int(m[1]) for name in os.listdir(tmp.parent) if (m := pattern.fullmatch(name))), default=0)
    for index in itertools.count(last + 1):
        run_dir = tmp.parent / f"{command}-{index:03d}"
        try:
            run_dir.mkdir()
        except FileExistsError:  # a concurrent run took the name
            continue
        # mkdtemp made tmp private; give it the mode a plain mkdir gets
        os.chmod(tmp, run_dir.stat().st_mode)
        os.replace(tmp, run_dir)
        return run_dir


def _sweep_points(cfg: RunConfig, text: str, absorber: AbsorberParams):
    """(n_in, ensemble) for each number of an ``--n-in`` list, the k-th on stream key (k,)."""
    try:  # every point is checked before the first shot
        pulses = [replace(cfg.pulse, mean_photons=float(v)) for v in text.split(",") if v.strip()]
        if not pulses:
            raise ValueError(f"expected a comma-separated number list, got {text!r}")
    except ValueError as err:
        raise ValueError(f"--n-in: {err}") from None
    for k, pulse in enumerate(pulses):
        yield pulse.mean_photons, run_point(
            pulse, absorber, cfg.detector, cfg.shots, cfg.seed, stream_key=(k,), workers=cfg.workers
        )


# ---------------------------------------------------------------------------
# commands

def cmd_sweep(cfg: RunConfig, args) -> Output:
    rows, lines = [], []
    for n_in, ens in _sweep_points(cfg, args.n_in, cfg.absorber):
        model = analytic.mean_out(n_in, cfg.absorber.t, cfg.absorber.p_ryd)
        if ens.shots >= 2:
            deficit, deficit_sem = stats.photon_deficit(ens, cfg.absorber.t)
        else:
            deficit = deficit_sem = float("nan")
        # the Q columns are nan where no ion was counted, since they divide by the mean
        ion = stats.hist_stats(ens.ion_hist)
        rows.append((n_in, ens.mean_out, ens.sem_out, model, deficit, deficit_sem, *ion))
        lines.append(f"n_in={n_in:g}: n_out={ens.mean_out:.4f} (model {model:.4f}), "
                     f"ion_mean={ion.mean:.4f}, ion_q={ion.mandel_q:.4f}")
    points = [{name: v for name, v in zip(SWEEP_COLUMNS, row) if name in SWEEP_SUMMARY} for row in rows]
    summary = {"shots": cfg.shots, "seed": cfg.seed, "points": points}
    return Output([("sweep.csv", SWEEP_COLUMNS, rows)], summary, lines)


def cmd_pulse(cfg: RunConfig, args) -> Output:
    n_in = cfg.pulse.mean_photons
    ideal_params = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=cfg.absorber.t)
    ens = run_point(cfg.pulse, cfg.absorber, cfg.detector, cfg.shots, cfg.seed, workers=cfg.workers)
    ideal = run_point(cfg.pulse, ideal_params, cfg.detector, cfg.shots, cfg.seed, workers=cfg.workers)
    shape = stats.pulse_shape(ens)
    ideal_shape = stats.pulse_shape(ideal)
    header = [
        "bin_start_us", "in_rate", "out_rate", "transmission", "transmission_sem",
        "ideal_out_rate", "ideal_transmission",
    ]
    rows = [
        (
            shape.bin_starts_us[i], shape.in_rate[i], shape.out_rate[i],
            shape.transmission[i], shape.transmission_sem[i],
            ideal_shape.out_rate[i], ideal_shape.transmission[i],
        )
        for i in range(shape.bin_starts_us.size)
    ]
    p_none = float(ens.absorbed_hist[0] / ens.shots)
    summary = {
        "n_in": n_in,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "n_out_mean": ens.mean_out,
        "model_n_out": analytic.mean_out(n_in, cfg.absorber.t, cfg.absorber.p_ryd),
        "p_no_absorption": p_none,
        "p_no_absorption_model": analytic.p_no_absorption(n_in, cfg.absorber.t, cfg.absorber.p_ryd),
        "front_third_transmission": shape.band_transmission(shape.front),
        "rear_third_transmission": shape.band_transmission(shape.rear),
        "ideal_front_third_transmission": ideal_shape.band_transmission(ideal_shape.front),
        "ideal_rear_third_transmission": ideal_shape.band_transmission(ideal_shape.rear),
    }
    line = (f"n_in={n_in:g}: P(no absorption)={p_none:.4f}, "
            f"rear-third transmission={summary['rear_third_transmission']:.4f}")
    return Output([("pulse_shape.csv", header, rows)], summary, [line])


def cmd_g2(cfg: RunConfig, args) -> Output:
    n_in = cfg.pulse.mean_photons
    bin_ns = cfg.pulse.bin_width_us * 1000.0
    bins_per_cell = max(1, round(cfg.g2_cell_ns / bin_ns))
    result = simulate_cascade(
        (cfg.absorber,), cfg.pulse, cfg.detector, cfg.shots, cfg.seed,
        g2_cell_bins=bins_per_cell, workers=cfg.workers,
    )
    mat = result.g2.finalize()
    starts = mat.cell_edges_us[:-1]
    rows = []
    for i in range(starts.size):
        for j in range(starts.size):
            rows.append(
                (starts[i], starts[j], float(mat.values[i, j]), float(mat.sigma[i, j]),
                 float(mat.counts[i, j]))
            )
    summary = {
        "n_in": n_in,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "cell_ns": bins_per_cell * bin_ns,
        "front_g2": mat.front_g2,
        "front_sigma": mat.front_sigma,
        "rear_g2": mat.rear_g2,
        "rear_sigma": mat.rear_sigma,
    }
    line = (f"n_in={n_in:g}: front-block g2={mat.front_g2:.4f}+-{mat.front_sigma:.4f}, "
            f"rear-block g2={mat.rear_g2:.4f}+-{mat.rear_sigma:.4f}")
    return Output([("g2_matrix.csv", ["t1_us", "t2_us", "g2", "g2_sigma", "n_pairs"], rows)], summary, [line])


def cmd_spectrum(cfg: RunConfig, args) -> Output:
    check_finite(**{"--delta-min": args.delta_min, "--delta-max": args.delta_max})
    if not 1 <= args.points <= MAX_SPECTRUM_POINTS:
        raise ValueError(f"--points must lie in [1, {MAX_SPECTRUM_POINTS}], got {args.points}")
    grid = np.linspace(args.delta_min, args.delta_max, args.points)
    phys = replace(cfg.physics, omega_c=0.0) if args.control_off else cfg.physics
    spectrum = bloch.transmission_spectrum(phys, grid)
    rows = [(float(d), float(t)) for d, t in spectrum]
    summary = {
        "control_off": bool(args.control_off),
        "gamma_gr_mhz": bloch.ground_rydberg_linewidth(cfg.physics),
        "scattering_probability": bloch.scattering_probability(cfg.physics),
        "conversion_probability": bloch.conversion_probability(cfg.physics),
        "min_transmission": float(spectrum[:, 1].min()),
    }
    line = (f"p_scatt={summary['scattering_probability']:.4f}, "
            f"line-center conversion={summary['conversion_probability']:.4f}")
    return Output([("spectrum.csv", ["delta_mhz", "transmission"], rows)], summary, [line])


def cmd_fit_gamma(cfg: RunConfig, args) -> Output:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file without rows
        data = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{args.data} has no data rows")
    if data.shape[1] < 2:
        raise ValueError("expected CSV columns delta_mhz,transmission")
    fit = bloch.fit_dephasing(data[:, 0], data[:, 1], cfg.physics)
    summary = {
        "data": str(args.data),
        "gamma_deph_mhz": fit.gamma_deph,
        "residual": fit.residual,
        "iterations": fit.iterations,
    }
    return Output([], summary, [f"gamma_deph = {fit.gamma_deph:.6g} MHz (residual {fit.residual:.3g})"])


def cmd_cascade(cfg: RunConfig, args) -> Output:
    stages = (cfg.absorber,) if cfg.cascade is None else cfg.cascade
    n_in = cfg.pulse.mean_photons
    result = simulate_cascade(stages, cfg.pulse, cfg.detector, cfg.shots, cfg.seed, workers=cfg.workers)
    stage_rows = []
    for k, (params, ens) in enumerate(zip(stages, result.stages)):
        fired = float(1.0 - ens.absorbed_hist[0] / ens.shots)
        mean_absorbed = stats.hist_mean(ens.absorbed_hist)
        ion = stats.hist_stats(ens.ion_hist)
        stage_rows.append(
            (k, params.p_ryd, params.p_ryd2, params.t, ens.mean_in, ens.mean_out, fired, mean_absorbed,
             ion.mean, ion.mandel_q)
        )
    # outcome keys are (n_in, absorbed per stage); the number of stages that
    # fired is the inferred photon number
    joint: Counter = Counter()
    confusion: Counter = Counter()
    per_n: Counter = Counter()
    for (true_n, *absorbed), count in result.outcomes.items():
        joint[tuple(absorbed)] += count
        confusion[true_n, sum(a > 0 for a in absorbed)] += count
        per_n[true_n] += count
    stage_header = [
        "stage", "p_ryd", "p_ryd2", "t", "mean_in", "mean_out", "p_fired", "mean_absorbed", "ion_mean", "ion_q",
    ]
    tables = [
        ("cascade_stages.csv", stage_header, stage_rows),
        ("confusion.csv", ["true_n", "inferred_n", "count", "fraction"],
         [(n, fired, count, count / per_n[n]) for (n, fired), count in sorted(confusion.items())]),
        ("joint_absorbed.csv", [f"absorbed_stage_{k}" for k in range(len(stages))] + ["count"],
         [absorbed + (count,) for absorbed, count in sorted(joint.items())]),
    ]
    all_fired = sum(count for absorbed, count in joint.items() if all(absorbed)) / result.shots
    correct = sum(count for (n, fired), count in confusion.items() if fired == min(n, len(stages)))
    summary = {
        "n_in": n_in,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "n_stages": len(stages),
        "p_all_stages_fired": all_fired,
        "count_accuracy": correct / result.shots,
    }
    line = (f"{len(stages)} stages, n_in={n_in:g}: P(all fired)={all_fired:.4f}, "
            f"count accuracy={summary['count_accuracy']:.4f}")
    return Output(tables, summary, [line])


def cmd_validate(cfg: RunConfig, args) -> Output:
    checks: list[tuple[str, float, float, float, str]] = []

    def record(name: str, value: float, expected: float, tol: float = 0.0) -> None:
        # a nan value or model value is a statistic undefined at this point: the check is skipped
        verdict = "PASS" if abs(value - expected) <= tol else "FAIL"
        checks.append((name, value, expected, tol, "SKIP" if math.isnan(value) or math.isnan(expected) else verdict))

    oracle_p = cfg.absorber.p_ryd if args.oracle_p_ryd is None else args.oracle_p_ryd
    check_unit_interval(**{"--oracle-p-ryd": oracle_p})
    for n_in, ens in _sweep_points(cfg, args.n_in, replace(cfg.absorber, p_ryd2=0.0)):
        # a mean check allows 3 standard errors of the model, which a sample without spread cannot shrink
        expected = analytic.mean_out(n_in, cfg.absorber.t, oracle_p)
        var = analytic.var_out(n_in, cfg.absorber.t, oracle_p)
        record(f"closed_form_mean_out[n_in={n_in:g}]", ens.mean_out, expected, 3.0 * math.sqrt(var / ens.shots))
        ion = stats.hist_stats(ens.ion_hist)
        try:
            ideal = analytic.ideal_ion_stats(n_in, cfg.absorber.t, oracle_p, cfg.detector.eta_ion)
        except ValueError:  # no ion expected, so neither model value is defined
            ideal = analytic.IdealIonStats(math.nan, math.nan, math.nan)
        var = ideal.mean_ions * (1.0 - ideal.mean_ions)
        record(f"ion_mean[n_in={n_in:g}]", ion.mean, ideal.mean_ions, 3.0 * math.sqrt(var / ens.shots))
        record(f"ion_mandel_q[n_in={n_in:g}]", ion.mandel_q, ideal.mandel_q, 3.0 * ion.mandel_q_sem)
    # binomial thinning scales Mandel-Q by the efficiency
    thin_rng = substream(cfg.seed, 900)
    clicks = thin_rng.binomial(2, cfg.detector.eta_ion, size=100000)
    thinned = stats.hist_stats(np.bincount(clicks))
    record("thinning_q_scaling", thinned.mandel_q, -cfg.detector.eta_ion, 3.0 * thinned.mandel_q_sem)
    # no photon created, over one block: 0 <= out <= in in every bin, and in every
    # row the absorbed photons are among those missing from the output
    conserve_rng = substream(cfg.seed, 901)
    pulse = replace(cfg.pulse, mean_photons=10.0)
    inp = conserve_rng.poisson(expected_bin_means(pulse), size=(block_rows(pulse, 1), pulse.n_bins))
    rec = simulate_shot(cfg.absorber, inp, conserve_rng)
    out = rec.output_bins
    conserved = ((0 <= out) & (out <= inp)).all() and (rec.absorbed <= inp.sum(axis=1) - out.sum(axis=1)).all()
    record("photon_conservation", float(conserved), 1.0)
    # exact merge algebra and fixed-seed determinism
    e1, e2, e3 = (
        run_point(pulse, cfg.absorber, cfg.detector, 300, cfg.seed, stream_key=(key,))
        for key in (11, 12, 13)
    )
    record("merge_commutative", float(merge(e1, e2).equals(merge(e2, e1))), 1.0)
    record("merge_associative", float(merge(merge(e1, e2), e3).equals(merge(e1, merge(e2, e3)))), 1.0)
    rerun = run_point(pulse, cfg.absorber, cfg.detector, 300, cfg.seed, stream_key=(11,))
    record("fixed_seed_determinism", float(e1.equals(rerun)), 1.0)

    rows = [(*check[:4], {"PASS": 1, "FAIL": 0}.get(check[4], "skip")) for check in checks]
    verdicts = Counter(verdict for *_, verdict in checks)
    summary = {
        "shots": cfg.shots,
        "seed": cfg.seed,
        "n_checks": len(checks),
        "n_failed": verdicts["FAIL"],
        "n_skipped": verdicts["SKIP"],
    }
    report = [
        f"{verdict} {name}: value={value:.6g} expected={expected:.6g} tol={tol:.3g}"
        for name, value, expected, tol, verdict in checks
    ]
    header = ["check", "value", "expected", "tolerance", "passed"]
    return Output([("validate_report.csv", header, rows)], summary, report, 2 if verdicts["FAIL"] else 0)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="photonsub",
        description="Monte-Carlo simulator and analysis toolkit for a saturable single-photon absorber.",
    )
    # A flag whose dest is a (dotted) config key overrides that key and is
    # parsed and checked by the key table; no other dest holds a dot.
    parser.add_argument("--config", help="flat-key config file")
    parser.add_argument("--seed", dest="run.seed", help="override run.seed")
    parser.add_argument("--shots", dest="run.shots", help="override run.shots")
    parser.add_argument("--out", dest="run.out_dir", help="override run.out_dir")
    parser.add_argument("--workers", dest="run.workers", help="override run.workers")
    # main runs the command's cmd_* function, looked up by name at each call
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="transmitted photons and ion statistics versus input")
    p.add_argument("--n-in", default=DEFAULT_SWEEP, help="comma-separated input photon numbers")

    p = sub.add_parser("pulse", help="input/output pulse shapes with ideal-absorber overlay")
    p.add_argument("--n-in", dest="pulse.mean_photons", help="override pulse.mean_photons")

    p = sub.add_parser("g2", help="time-resolved pair-averaged intensity correlations")
    p.add_argument("--n-in", dest="pulse.mean_photons", help="override pulse.mean_photons")
    p.add_argument("--cell-ns", dest="g2.cell_ns", help="override g2.cell_ns")

    p = sub.add_parser("spectrum", help="weak-probe transmission spectrum")
    p.add_argument("--delta-min", type=float, default=-10.0, help="two-photon detuning start (MHz)")
    p.add_argument("--delta-max", type=float, default=10.0, help="two-photon detuning end (MHz)")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--control-off", action="store_true", help="two-level reference spectrum")

    p = sub.add_parser("fit-gamma", help="fit the dephasing rate to a spectrum CSV")
    p.add_argument("data", help="CSV with columns delta_mhz,transmission")

    p = sub.add_parser("cascade", help="chain of absorbers and number-resolving statistics")
    p.add_argument("--stages", dest="cascade.stages", help="override cascade.stages 'p_ryd,p_ryd2,t;...'")
    p.add_argument("--n-in", dest="pulse.mean_photons", help="override pulse.mean_photons")

    p = sub.add_parser("validate", help="Monte-Carlo versus closed-form oracle report")
    p.add_argument("--n-in", default="5.65,20", help="comma-separated input photon numbers")
    p.add_argument("--oracle-p-ryd", type=float, help="override the oracle p_ryd (negative control)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {name: text for name, text in vars(args).items() if "." in name and text is not None}
    try:
        cfg = load_config(args.config, overrides)
        tmp = _prepare_run_dir(cfg, args.command)
        try:
            out = globals()["cmd_" + args.command.replace("-", "_")](cfg, args)
            for name, header, rows in out.tables:
                _write_csv(tmp / name, header, rows)
            summary = _json_value({"command": args.command, **out.summary})
            (tmp / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
            for line in out.lines:
                print(line)
            print(f"written to {_publish(tmp, args.command)}")
            return out.code
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
