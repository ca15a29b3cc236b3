"""Spans around the public calls into each photonsub layer, from outside the package.

The shot loops (``experiment._run_batch``, ``absorber.simulate_cascade`` and
``absorber.cascade_shot``) look up ``substream``, ``simulate_shot``,
``detect_ions``, ``detect_pulse`` and ``merge`` as module globals at call time
and call ``EnsembleResult.add_shot`` and ``G2Accumulator.add`` as methods;
``cli`` reaches the shot loops through its own globals and the statistics through
the ``stats`` module.  Replacing those names with timing wrappers records a
span around every call into a layer while the real code runs unchanged.

The inline ``rng.poisson(lam)`` input draw is timed by handing the shot loop a
``Generator`` subclass that shares the bit generator the real ``substream``
built, so every draw is the one the untraced run makes.

A span is (name, start, end, parent, run id).  Spans stay in flat arrays in
memory until ``layer_metrics`` reduces them once, at the end of the benchmark.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter

import numpy as np

from photonsub import absorber, cli, experiment, stats

MAIN = "cli.main"
# The shot loops; their self time is the experiment layer's.
SHOT_LOOPS = ("experiment.run_point", "experiment.batch", "absorber.simulate_cascade")
# Statistics that cli computes from the finished ensembles.
FINALIZE_FUNCS = (
    "hist_mean", "hist_mean_sem", "mandel_q", "mandel_q_sem", "q_over_mean",
    "q_over_mean_sem", "photon_deficit", "pulse_shape",
)
NAMES = (
    MAIN, *SHOT_LOOPS, "absorber.substream", "pulses.poisson", "absorber.simulate_shot",
    "absorber.add_shot", "absorber.merge", "detector.detect_ions", "detector.detect_pulse",
    "stats.g2_add", "stats.finalize",
)
_CODE = {name: i for i, name in enumerate(NAMES)}


def g2_add_bytes(acc: stats.G2Accumulator) -> int:
    """Bytes one ``G2Accumulator.add`` reads and writes, computed from array sizes.

    Each array a statement of ``add`` reads or writes counts once per access
    at 8 bytes an element: the (D, B) click array, the (D, C) cell sums,
    ``marg_sums`` read and written, the (D, D, C, C) outer product; per
    detector pair the ``pair_sums`` slice read and written, the outer slice
    and ``y`` read and written; then ``y_sum`` and ``y_sq_sum`` read and
    written, and ``y`` read twice.
    """
    d, c = acc.n_det, acc.n_cells
    cc = c * c
    elements = d * acc.n_bins + 3 * d * c + d * d * cc + len(acc.pairs) * 4 * cc + 6 * cc
    return 8 * elements


def _keep(counts, args, result):
    return result


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the package."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: list[Counter] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, after=_keep):
        """Wrap ``fn`` in a span; ``after`` records counts and may replace the result."""
        code = _CODE[name]
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            runs.append(len(counts) - 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return after(counts[-1], args, result)

        return traced

    def _patch(self, owner, attr: str, name: str, after=_keep) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._span(name, original, after))

    def install(self) -> None:
        class TracedGenerator(np.random.Generator):
            poisson = self._span("pulses.poisson", np.random.Generator.poisson)

        # The Generator swap runs after the substream span closes, so its cost
        # lands in the shot loop's self time and in trace.overhead_frac.
        def retype(counts, args, rng):
            return TracedGenerator(rng.bit_generator)

        def count_live(counts, args, rec):
            counts["live_stages"] += bool(rec.input_bins.any())
            return rec

        def count_clicks(counts, args, det):
            counts["clicks"] += int(det.sum())
            return det

        def count_g2(counts, args, result):
            acc, det = args
            counts["g2_live"] += int(det.sum()) >= 2
            counts["g2_bytes"] += g2_add_bytes(acc)
            return result

        self._patch(cli, "run_point", "experiment.run_point")
        self._patch(cli, "simulate_cascade", "absorber.simulate_cascade")
        self._patch(experiment, "_run_batch", "experiment.batch")
        for module in (experiment, absorber):
            self._patch(module, "substream", "absorber.substream", retype)
            self._patch(module, "simulate_shot", "absorber.simulate_shot", count_live)
        self._patch(experiment, "merge", "absorber.merge")
        self._patch(experiment, "detect_ions", "detector.detect_ions")
        self._patch(experiment, "detect_pulse", "detector.detect_pulse", count_clicks)
        self._patch(absorber.EnsembleResult, "add_shot", "absorber.add_shot")
        self._patch(stats.G2Accumulator, "add", "stats.g2_add", count_g2)
        self._patch(stats.G2Accumulator, "finalize", "stats.finalize")
        for func in FINALIZE_FUNCS:
            self._patch(stats, func, "stats.finalize")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call_main(self, argv: list[str]) -> int:
        """One traced ``cli.main`` invocation under a new run id."""
        self.counts.append(Counter())
        return self._span(MAIN, cli.main)(argv)

    def layer_metrics(self, shots: int, scales: list[float]) -> tuple[dict[str, float], bool]:
        """Per-layer metrics, each the median over the traced invocations.

        The self times of invocation r are multiplied by ``scales[r]``, its
        factor to the nominal machine speed.

        Returns the metrics and whether the spans are consistent: every span
        closed inside its parent, and per invocation the layers' self times
        add up to the ``cli.main`` span.
        """
        name = np.frombuffer(self.name, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int64)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        dur = end - start
        inner = parent >= 0
        nested = bool(
            (dur >= 0).all()
            and (start[inner] >= start[parent[inner]]).all()
            and (end[inner] <= end[parent[inner]]).all()
        )
        own = dur - np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        n_runs, n_names = len(self.counts), len(NAMES)
        key = run * n_names + name
        self_s = np.bincount(key, weights=own, minlength=n_runs * n_names).reshape(n_runs, n_names)
        calls = np.bincount(key, minlength=n_runs * n_names).reshape(n_runs, n_names)
        main_s = np.bincount(run[name == _CODE[MAIN]], weights=dur[name == _CODE[MAIN]],
                             minlength=n_runs)
        consistent = nested and bool(np.allclose(self_s.sum(axis=1), main_s, rtol=1e-9, atol=0.0))

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        per_run = []
        for r in range(n_runs):
            s = dict(zip(NAMES, self_s[r] * scales[r]))
            c = dict(zip(NAMES, calls[r]))
            k = self.counts[r]
            per_run.append({
                "absorber.substream_us": 1e6 * s["absorber.substream"] / shots,
                "pulses.poisson_us": 1e6 * s["pulses.poisson"] / shots,
                "absorber.simulate_shot_us": 1e6 * per(s["absorber.simulate_shot"], c["absorber.simulate_shot"]),
                "absorber.simulate_shot_calls": c["absorber.simulate_shot"] / shots,
                "absorber.add_shot_us": 1e6 * per(s["absorber.add_shot"], c["absorber.add_shot"]),
                "absorber.live_stage_frac": per(k["live_stages"], c["absorber.simulate_shot"]),
                "absorber.merge_us": 1e6 * s["absorber.merge"],
                "experiment.batches": float(c["experiment.batch"]),
                "detector.detect_ions_us": 1e6 * s["detector.detect_ions"] / shots,
                "detector.detect_pulse_us": 1e6 * s["detector.detect_pulse"] / shots,
                "detector.clicks_per_shot": k["clicks"] / shots,
                "stats.g2_add_us": 1e6 * s["stats.g2_add"] / shots,
                "stats.g2_add_bytes": per(k["g2_bytes"], c["stats.g2_add"]),
                "stats.g2_live_shot_frac": per(k["g2_live"], c["stats.g2_add"]),
                "stats.finalize_ms": 1e3 * s["stats.finalize"],
                "experiment.self_us": 1e6 * sum(s[d] for d in SHOT_LOOPS) / shots,
                "cli.self_ms": 1e3 * s[MAIN],
            })
        metrics = {m: statistics.median(p[m] for p in per_run) for m in per_run[0]}
        return metrics, consistent
