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
enough shots for two batches, so the merge paths run.  A last ``g2`` run
without ``--config`` covers the built-in parameter table.  Runs with different
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


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run, in order; later runs may read earlier outputs."""
    runs = ["--seed", str(SEED), "--shots", str(SHOTS), "--out", str(out / "runs")]
    cfg = ["--config", str(out / "identity.cfg"), *runs]
    return [
        ("sweep", cfg + ["sweep"]),
        ("pulse", cfg + ["pulse"]),
        ("g2", cfg + ["g2"]),
        ("g2-cell-70", cfg + ["g2", "--cell-ns", "70"]),
        ("spectrum", cfg + ["spectrum"]),
        ("fit-gamma", cfg + ["fit-gamma", str(out / "runs" / "spectrum-001" / "spectrum.csv")]),
        ("cascade-ideal", cfg + ["cascade", "--stages", IDEAL_FIVE, "--n-in", "3"]),
        ("cascade-leaky", cfg + ["cascade"]),
        ("validate", cfg + ["validate"]),
        ("builtin-g2", [*runs, "g2"]),
    ]


def run_all(src: Path, out: Path, workers: int) -> int:
    """Run every command with the sources ``src`` into ``out``; the number of failed runs."""
    out.mkdir(parents=True)
    (out / "stdout").mkdir()
    (out / "identity.cfg").write_text(CONFIG.format(workers=workers))
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
