#!/usr/bin/env python3
"""Regenerate every figure-style dataset with the built-in parameter table.

Runs the transmission sweep, the two pulse-shape settings, the correlation
map, the spectrum plus dephasing fit, a five-stage cascade demo and the
oracle validation report into one results directory.  Use --quick for a
fast smoke run, --full for the complete 250000-shot statistics.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from photonsub.cli import main  # noqa: E402


def run(argv) -> None:
    print("$ photonsub " + " ".join(argv))
    rc = main(argv)
    if rc not in (0, 2):
        raise SystemExit(rc)
    if rc == 2:
        print("note: validation reported failing checks", file=sys.stderr)


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=12345)
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="2000 shots per point")
    scale.add_argument("--full", action="store_true", help="250000 shots per point")
    args = parser.parse_args()
    shots = 2000 if args.quick else 250000 if args.full else 50000
    base = ["--out", args.out, "--seed", str(args.seed), "--shots", str(shots)]

    run(base + ["sweep", "--n-in", "1,2,3,5.65,8,10,12,15.76,20,25,30,35"])
    run(base + ["pulse", "--n-in", "5.65"])
    run(base + ["pulse", "--n-in", "15.76"])
    run(base + ["g2", "--n-in", "15.76"])
    run(base + ["spectrum"])
    # the newest run has the highest index; a lexical sort would put spectrum-999 after spectrum-1000
    spectrum = max(Path(args.out).glob("spectrum-*"), key=lambda path: int(path.name.removeprefix("spectrum-")))
    run(base + ["fit-gamma", str(spectrum / "spectrum.csv")])
    run(base + ["cascade", "--stages", "1,0,1;1,0,1;1,0,1;1,0,1;1,0,1", "--n-in", "3"])
    run(base + ["validate"])
    print(f"all datasets written under {args.out}/")


if __name__ == "__main__":
    cli()
