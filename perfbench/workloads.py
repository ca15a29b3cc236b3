"""Workload definitions and the oracles that check each workload's output files.

A workload is one ``photonsub`` CLI invocation.  Its physical parameters are
pinned in a flat-key config file written next to the outputs, so a change of
the package's built-in defaults cannot silently change what is measured.
Every check reads only the files the invocation emitted (CSV and
``summary.json``) and compares them with a closed form that this module
computes itself, at about 5 standard deviations, so a redraw of every sample
flips a check with a probability of order 1e-6.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Z = 5.0

P_RYD, P_RYD2, T, ETA_ION = 0.35, 0.001, 0.99, 0.29
G2_CELL_NS = 100.0
# The default 2 us, 40-bin Tukey pulse, the reference leaky absorber and an
# ideal detector chain without dead time or dark counts.
CONFIG_TEXT = "".join(
    f"{key} = {value}\n"
    for key, value in {
        "pulse.duration_us": 2.0,
        "pulse.bin_ns": 50,
        "pulse.taper": 0.3,
        "absorber.p_ryd": P_RYD,
        "absorber.p_ryd2": P_RYD2,
        "absorber.t": T,
        "detector.eta_probe": 1.0,
        "detector.eta_ion": ETA_ION,
        "detector.dead_time_ns": 0,
        "detector.dark_cps": 0,
        "g2.cell_ns": G2_CELL_NS,
    }.items()
)

SWEEP_GRID = (1.0, 3.0, 5.65, 10.0, 15.76, 20.0, 35.0)
G2_N_IN = 15.76
G2_CELLS = 20
CASCADE_STAGES = 5
CASCADE_N_IN = 3.0

# One check result: (name, passed, detail).
Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    name: str
    shots: int  # the --shots value
    shots_per_invocation: int  # shots simulated by one invocation
    command: tuple[str, ...]  # subcommand and its arguments
    n_checks: int  # oracle checks per invocation
    check: Callable[[Path], list[Check]]

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        return [
            "--config", str(config), "--seed", str(seed), "--shots", str(self.shots),
            "--out", str(out), "--workers", "1", *self.command,
        ]


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _within(name: str, value: float, expected: float, sigma: float) -> Check:
    ok = math.isfinite(value) and abs(value - expected) <= Z * sigma
    return name, ok, f"value={value:.6g} expected={expected:.6g} tol={Z * sigma:.3g}"


# ---------------------------------------------------------------------------
# sweep: leaky-blockade closed form

def leaky_absorbed_pmf(n_in: float, p: float, p2: float, t: float) -> tuple[float, float, float]:
    """P(A=0), P(A=1), P(A=2) for a Poisson pulse through a leaky blockade.

    With mu = t * n_in surviving photons on average, the first conversion
    happens with probability p per photon and the second with p2 per later
    photon, so P(A=0) = exp(-mu p) and
    P(A=1) = p / (p - p2) * (exp(-mu p2) - exp(-mu p)).
    """
    mu = t * n_in
    p0 = math.exp(-mu * p)
    p1 = p / (p - p2) * (math.exp(-mu * p2) - math.exp(-mu * p))
    return p0, p1, 1.0 - p0 - p1


def sweep_expected(n_in: float) -> tuple[float, float, float, float]:
    """(mean out, sd out bound, mean ions, sd ions) of one shot.

    N_out = N_s - A with N_s ~ Poisson(t n_in), so sd(N_out) is at most
    sqrt(t n_in) + sd(A).  Ions thin A binomially with efficiency eta.
    """
    p0, p1, p2 = leaky_absorbed_pmf(n_in, P_RYD, P_RYD2, T)
    mean_a = p1 + 2.0 * p2
    var_a = p1 + 4.0 * p2 - mean_a**2
    mean_out = T * n_in - mean_a
    sd_out = math.sqrt(T * n_in) + math.sqrt(var_a)
    mean_ion = ETA_ION * mean_a
    var_ion = ETA_ION**2 * var_a + ETA_ION * (1.0 - ETA_ION) * mean_a
    return mean_out, sd_out, mean_ion, math.sqrt(var_ion)


def check_sweep(run_dir: Path, shots: int) -> list[Check]:
    rows = _read_csv(run_dir / "sweep.csv")
    if len(rows) != len(SWEEP_GRID):
        return [("sweep.points", False, f"{len(rows)} rows, expected {len(SWEEP_GRID)}")]
    checks = []
    root = math.sqrt(shots)
    for n_in, row in zip(SWEEP_GRID, rows):
        mean_out, sd_out, mean_ion, sd_ion = sweep_expected(n_in)
        checks.append(_within(f"n_out_mean[{n_in:g}]", float(row["n_out_mean"]), mean_out, sd_out / root))
        checks.append(_within(f"ion_mean[{n_in:g}]", float(row["ion_mean"]), mean_ion, sd_ion / root))
    return checks


# ---------------------------------------------------------------------------
# g2: symmetry of the map and an uncorrelated rear block

def check_g2(run_dir: Path) -> list[Check]:
    rows = _read_csv(run_dir / "g2_matrix.csv")
    cells = {(r["t1_us"], r["t2_us"]): r["g2"] for r in rows}
    starts = sorted({r["t1_us"] for r in rows}, key=float)
    symmetric = len(starts) == G2_CELLS and len(cells) == G2_CELLS**2 and all(
        cells[(a, b)] == cells[(b, a)] for a in starts for b in starts
    )
    summary = json.loads((run_dir / "summary.json").read_text())
    rear, sigma = summary["rear_g2"], summary["rear_sigma"]
    return [
        ("g2.symmetric", symmetric, f"{len(starts)}x{len(starts)} cells"),
        _within("g2.rear_is_1", rear, 1.0, sigma if sigma > 0 else math.nan),
    ]


# ---------------------------------------------------------------------------
# cascade: ideal stages count photons exactly (Poisson tails)

def poisson_tail(mu: float, k: int) -> float:
    """P(n >= k) for n ~ Poisson(mu)."""
    term, below = math.exp(-mu), 0.0
    for j in range(k):
        below += term
        term *= mu / (j + 1)
    return 1.0 - below


def check_cascade(run_dir: Path, shots: int) -> list[Check]:
    summary = json.loads((run_dir / "summary.json").read_text())
    stages = _read_csv(run_dir / "cascade_stages.csv")
    accuracy = summary["count_accuracy"]
    checks = [("count_accuracy", accuracy == 1.0, f"value={accuracy!r}")]
    for k in range(CASCADE_STAGES):
        tail = poisson_tail(CASCADE_N_IN, k + 1)
        sigma = math.sqrt(tail * (1.0 - tail) / shots)
        fired = float(stages[k]["p_fired"]) if k < len(stages) else math.nan
        checks.append(_within(f"p_fired[{k}]", fired, tail, sigma))
    tail = poisson_tail(CASCADE_N_IN, CASCADE_STAGES)
    checks.append(
        _within("p_all_stages_fired", summary["p_all_stages_fired"], tail,
                math.sqrt(tail * (1.0 - tail) / shots))
    )
    return checks


# One call takes about half a second on the machine in README.md, so a run
# holds tens of calls for its median.
SWEEP_SHOTS, G2_SHOTS, CASCADE_SHOTS = 1000, 3000, 2000

WORKLOADS = {
    w.name: w
    for w in (
        # Absorber kernel, ion detection and accumulation do nearly all the
        # work; detect_pulse and G2Accumulator never run, so this is the
        # control for any detector or g2 change.  The grid spans the photon
        # numbers that set survivor counts, absorption position and the
        # second-absorption share.
        Workload(
            "sweep", SWEEP_SHOTS, SWEEP_SHOTS * len(SWEEP_GRID),
            ("sweep", "--n-in", ",".join(f"{n:g}" for n in SWEEP_GRID)),
            2 * len(SWEEP_GRID), lambda d: check_sweep(d, SWEEP_SHOTS),
        ),
        # 20x20 map: detect_pulse and G2Accumulator.add take over half of the
        # per-shot cost, the absorber is the minority.
        Workload(
            "g2", G2_SHOTS, G2_SHOTS,
            ("g2", "--n-in", f"{G2_N_IN:g}", "--cell-ns", f"{G2_CELL_NS:g}"),
            2, check_g2,
        ),
        # Each stage feeds the next through the separate simulate_cascade
        # loop: simulate_shot runs 5x per shot, no detector runs, and most
        # late stages see no photons.
        Workload(
            "cascade", CASCADE_SHOTS, CASCADE_SHOTS,
            ("cascade", "--stages", ";".join(["1,0,1"] * CASCADE_STAGES),
             "--n-in", f"{CASCADE_N_IN:g}"),
            CASCADE_STAGES + 2, lambda d: check_cascade(d, CASCADE_SHOTS),
        ),
    )
}
