#!/usr/bin/env python3
"""Run every photonsub command at a fixed seed into one directory, for a byte-identity check.

    python scripts/check_identity.py OUT [--src SRC] [--against REF] [--workers N]

Each command runs in a fresh interpreter with ``PYTHONPATH=SRC`` (default:
the ``src`` directory of this checkout), writes its run directory into
``OUT/runs`` and its standard output into ``OUT/stdout/<label>.txt``.

With ``--against REF`` (another tree's ``src`` directory) the commands run
twice into the same ``OUT`` path, so that output paths printed on stdout and
recorded in ``summary.json`` are the same: first with REF, whose result is
then moved aside to ``OUT.against``, then with SRC.  Every file that differs
between the two results, or exists in one only, is listed, and the script
exits 1 on any difference.

The config sets dead time, dark counts, a dephasing rate, a leaky 3-stage
cascade and ``--workers`` workers (default two, one on a single core), with
enough shots for two batches, so the merge paths run.  A ``g2-fine`` run maps
a 1000-bin pulse in one-bin cells, with the same dead time and dark counts, at
``FINE_SHOTS`` shots.  A ``cascade-mixed`` run passes three stages that each
lack one class of photon, so the stage kernel skips it: no loss (t = 1), no
second conversion (p_ryd2 = 0) and no conversion at all (p_ryd = 0).  A
``cascade-decided`` run puts stages whose every photon class is impossible or
certain, which draw nothing, between ones that draw, and ends on one that
loses every photon (t = 0).  A
``pulse-empty`` run sends a pulse of no photons, whose
transmissions and ideal-absorber overlay are undefined.  A ``cascade-long`` run
sends 20 photons through 20 leaky stages, whose 3**20 absorbed patterns exceed
the joint table's cap, so it writes no ``joint_absorbed.csv``.  A last ``g2``
run without ``--config`` covers the built-in parameter table.  Runs with different
``--workers`` must give the same files.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SHOTS = 21000  # two batches of the shot loop
CONFIG = """\
detector.dead_time_ns = 120
detector.dark_cps = 5000
physics.gamma_deph = 0.7
cascade.stages = 0.35,0.001,0.99; 0.5,0.01,0.95; 0.8,0.05,0.9
run.workers = {workers}
"""
IDEAL_FIVE = "1,0,1;1,0,1;1,0,1;1,0,1;1,0,1"
MIXED_THREE = "0.5,0.05,1;0.7,0,0.95;0,0,0.9"
DECIDED_FIVE = "1,0.3,1;1,1,1;0,0,1;0.4,0.05,0.9;0.3,0.1,0"
LEAKY_TWENTY = ";".join(["0.3,0.05,0.999"] * 20)
# The default 2 us pulse in 2 ns bins: the largest g2 map, 1000 one-bin cells.
# Few shots, so that sums dense in cells squared finish in seconds.
FINE_CONFIG = "pulse.bin_ns = 2\n"
FINE_SHOTS = 2000


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run, in order; later runs may read earlier outputs."""
    runs = ["--seed", str(SEED), "--shots", str(SHOTS), "--out", str(out / "runs")]
    cfg = ["--config", str(out / "identity.cfg"), *runs]
    fine = ["--config", str(out / "identity-fine.cfg"), "--seed", str(SEED), "--shots", str(FINE_SHOTS),
            "--out", str(out / "runs")]
    return [
        ("sweep", cfg + ["sweep"]),
        ("pulse", cfg + ["pulse"]),
        ("pulse-empty", cfg + ["pulse", "--n-in", "0"]),
        ("g2", cfg + ["g2"]),
        ("g2-cell-70", cfg + ["g2", "--cell-ns", "70"]),
        ("g2-fine", fine + ["g2", "--cell-ns", "2"]),
        ("spectrum", cfg + ["spectrum"]),
        ("fit-gamma", cfg + ["fit-gamma", str(out / "runs" / "spectrum-001" / "spectrum.csv")]),
        ("cascade-ideal", cfg + ["cascade", "--stages", IDEAL_FIVE, "--n-in", "3"]),
        ("cascade-mixed", cfg + ["cascade", "--stages", MIXED_THREE, "--n-in", "3"]),
        ("cascade-decided", cfg + ["cascade", "--stages", DECIDED_FIVE, "--n-in", "3"]),
        ("cascade-leaky", cfg + ["cascade"]),
        ("cascade-long", cfg + ["cascade", "--stages", LEAKY_TWENTY, "--n-in", "20"]),
        ("validate", cfg + ["validate"]),
        ("builtin-g2", [*runs, "g2"]),
    ]


def run_all(src: Path, out: Path, workers: int) -> int:
    """Run every command with the sources ``src`` into ``out``; the number of failed runs."""
    out.mkdir(parents=True)
    (out / "stdout").mkdir()
    (out / "identity.cfg").write_text(CONFIG.format(workers=workers))
    (out / "identity-fine.cfg").write_text(CONFIG.format(workers=workers) + FINE_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    failed = 0
    for label, argv in commands(out):
        proc = subprocess.run(
            [sys.executable, "-m", "photonsub.cli", *argv], env=env, capture_output=True, text=True
        )
        (out / "stdout" / f"{label}.txt").write_text(proc.stdout)
        print(f"{label}: exit {proc.returncode}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            failed += 1
    return failed


def differences(a: Path, b: Path) -> list[str]:
    """Paths, relative to the roots, of the files that differ between trees ``a`` and ``b``."""
    first, second = ({path.relative_to(root) for path in root.rglob("*") if path.is_file()} for root in (a, b))
    both = first & second
    return sorted(
        str(name) for name in first | second
        if name not in both or not filecmp.cmp(a / name, b / name, shallow=False)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist yet")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="photonsub sources to run")
    parser.add_argument("--against", type=Path, help="reference sources to compare the outputs with")
    parser.add_argument("--workers", type=int, default=min(2, os.cpu_count() or 1), help="run.workers")
    args = parser.parse_args()
    out = args.out.resolve()
    if args.against is None:
        return 1 if run_all(args.src, out, args.workers) else 0
    aside = out.with_name(out.name + ".against")
    if aside.exists():
        parser.error(f"{aside} exists")
    print(f"reference: {args.against}")
    failed = run_all(args.against, out, args.workers)
    out.rename(aside)
    print(f"sources: {args.src}")
    failed += run_all(args.src, out, args.workers)
    diff = differences(aside, out)
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} files differ from {aside}")
    return 1 if failed or diff else 0


if __name__ == "__main__":
    sys.exit(main())
