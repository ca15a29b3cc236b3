"""One workload in a fresh interpreter: repeated ``cli.main`` calls, timed and checked.

``run.py`` starts this script once per benchmark run.  Every invocation writes
into its own temporary directory inside the checkout, which is removed once
its files are checked.  The last line of standard output is one JSON object
with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from photonsub import cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CONFIG_TEXT, WORKLOADS, Workload  # noqa: E402

# Enough timed invocations for a median even when one invocation is slow.
MIN_SAMPLES = 5
MAX_REPORTED_FAILURES = 5
# Median time of ``reference_kernel`` on the machine recorded in README.md.
REFERENCE_NOMINAL_S = 0.030
_REFERENCE_LAM = np.linspace(0.1, 0.6, 40)


def reference_kernel() -> float:
    """Seconds the machine takes right now for a fixed piece of numpy work.

    The work is of the kind a shot does (a keyed Generator, Poisson and
    binomial draws on 40 bins, a cumulative sum, integer accumulation) but
    runs no photonsub code, so no change to the package moves it.  On a
    shared machine the same code runs up to 40% faster or slower from one
    second to the next; scaling each call by the kernel times just before
    and after it removes most of that drift (README.md).
    """
    start = time.perf_counter()
    acc = np.zeros(_REFERENCE_LAM.size, dtype=np.int64)
    for i in range(600):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i,)))
        kept = rng.binomial(rng.poisson(_REFERENCE_LAM), 0.99)
        acc += kept * np.cumsum(kept)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from a time measured between two kernel times to the nominal speed."""
    return REFERENCE_NOMINAL_S / (0.5 * (before + after))


def emitted(run_dir: Path) -> dict[str, bytes]:
    """The files a fixed seed must reproduce byte for byte: the CSVs and summary.json."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "config.txt"}


class Runner:
    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.config = work_dir / "workload.cfg"
        self.config.write_text(CONFIG_TEXT)
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.identical = True
        self.failures: list[str] = []

    def invoke(self, main) -> float:
        """Time one ``main(argv)`` call, check its files and remove them."""
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        argv = self.workload.argv(self.config, out, self.seed)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = main(argv)
                wall = time.perf_counter() - start
            self._check(code, out)
        finally:
            shutil.rmtree(out)
        return wall

    def _check(self, code: int, out: Path) -> None:
        """Run the workload's oracle checks and one byte-identity check.

        The identity check compares with the first call's files.  A call
        that fails or leaves no readable output fails all of its checks.
        """
        total = self.workload.n_checks + 1
        self.attempted += total
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            run_dir = next(out.iterdir())
            results = self.workload.check(run_dir)
            files = emitted(run_dir)
        except (OSError, KeyError, TypeError, ValueError, IndexError, StopIteration) as err:
            self.failed += total
            self.failures.append(f"no checkable output: {err!r}")
            return
        if self.reference is None:
            self.reference = files
        same = files == self.reference
        self.identical &= same
        results.append(("byte_identical", same, "CSV or summary.json differ from the first call"))
        passed = 0
        for name, ok, detail in results:
            passed += ok
            if not ok:
                self.failures.append(f"{name}: {detail}")
        self.failed += total - passed


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Invoke the workload for ``seconds``, each call between two reference kernels.

    Each wall time is also reported scaled to the nominal machine speed by
    the kernel times just before and after it.
    """
    runner = Runner(workload, seed, work_dir)
    runner.invoke(cli.main)  # warm-up; also fixes the reference files
    tracer = Tracer() if trace else None
    raw: dict[str, list[float]] = {"untraced": [], "traced": []}
    scales: dict[str, list[float]] = {"untraced": [], "traced": []}
    before = reference_kernel()
    deadline = time.perf_counter() + seconds
    while len(raw["untraced"]) < MIN_SAMPLES or time.perf_counter() < deadline:
        # Traced calls alternate with untraced ones so that both see the
        # same machine and trace.overhead_frac compares like with like.
        for kind in ("untraced", "traced") if tracer else ("untraced",):
            if kind == "untraced":
                wall = runner.invoke(cli.main)
            else:
                tracer.install()
                try:
                    wall = runner.invoke(tracer.call_main)
                finally:
                    tracer.uninstall()
            after = reference_kernel()
            raw[kind].append(wall)
            scales[kind].append(scale(before, after))
            before = after
    scaled = {k: [w * f for w, f in zip(raw[k], scales[k])] for k in raw}
    result = {
        "numpy": np.__version__,
        "shots_per_invocation": workload.shots_per_invocation,
        "walls": scaled["untraced"],
        "raw_walls": raw["untraced"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        layers, consistent = tracer.layer_metrics(workload.shots_per_invocation, scales["traced"])
        layers["trace.overhead_frac"] = (
            statistics.median(scaled["traced"]) / statistics.median(scaled["untraced"]) - 1.0
        )
        result.update(layers=layers, traced_walls=scaled["traced"], spans_consistent=consistent,
                      byte_identical=runner.identical)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
