#!/usr/bin/env python3
"""Run every photonsub command at a fixed seed into one directory, for a byte-identity check.

    python scripts/check_identity.py OUT [--src SRC] [--workers N]

Each command runs in a fresh interpreter with ``PYTHONPATH=SRC`` (default:
the ``src`` directory of this checkout), writes its run directory into
``OUT/runs`` and its standard output into ``OUT/stdout/<label>.txt``.  Run it
once with the sources of one tree and once with those of another, into the
same ``OUT`` path (move the first result aside in between), then compare the
two copies with ``diff -r``: output paths printed on stdout and recorded in
``summary.json`` are then the same.

The config sets dead time, dark counts, a dephasing rate, a leaky 3-stage
cascade and ``--workers`` workers (default two, one on a single core), with
enough shots for two batches, so the merge paths run.  Runs with different
``--workers`` must give the same files.
"""

from __future__ import annotations

import argparse
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
        ("paper-defaults-g2", ["--paper-defaults", *runs, "g2"]),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist yet")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="photonsub sources to run")
    parser.add_argument("--workers", type=int, default=min(2, os.cpu_count() or 1), help="run.workers")
    args = parser.parse_args()
    out = args.out.resolve()
    out.mkdir(parents=True)
    (out / "stdout").mkdir()
    (out / "identity.cfg").write_text(CONFIG.format(workers=args.workers))
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
