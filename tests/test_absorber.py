import hashlib
import math
import pickle
import warnings
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsub import (
    AbsorberParams,
    DetectorConfig,
    EnsembleResult,
    G2Accumulator,
    PulseSpec,
    mean_out,
    merge,
    run_point,
    simulate_cascade,
    simulate_shot,
    substream,
)
from photonsub import experiment, stats
from photonsub.absorber import MAX_EXCITATIONS
from photonsub.analytic import absorbed_pmf, out_bin_means
from photonsub.pulses import MAX_BINS, MAX_PHOTONS, expected_bin_means, tukey_envelope

from _oracles import (
    both_stages_fire_probability,
    chi2_upper,
    dense_block_sums,
    dense_detection,
    g2_sums_per_shot,
    input_block,
    ion_clicks,
    leaky_absorbed_pmf,
    per_photon_shot,
    rows_record,
    uniform_stage,
)

MEASURED = AbsorberParams(p_ryd=0.35, p_ryd2=0.001, t=0.99)
DET = DetectorConfig()


def _absorb_rows(params, rows, rng):
    """``simulate_shot`` on dense rows, a block or one pulse: its record and the output rows, shaped as ``rows``."""
    block = rows_record(rows)
    rec = simulate_shot(params, block.shape, block.idx, block.input_bins, rng)
    out = np.zeros(rec.shape, dtype=np.int64)
    out.ravel()[rec.idx] = rec.output_bins
    return rec, out.reshape(np.shape(rows))


def test_transparent_medium_passes_everything():
    params = AbsorberParams(p_ryd=0.0, p_ryd2=0.0, t=1.0)
    rng = substream(1, 0)
    for _ in range(50):
        counts = rng.poisson(2.0, size=8)
        rec, out = _absorb_rows(params, counts, rng)
        np.testing.assert_array_equal(out, counts)
        assert rec.absorbed.tolist() == [0]


def test_deterministic_first_photon_subtraction():
    params = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=1.0)
    rec, out = _absorb_rows(params, np.array([0, 2, 1]), substream(2, 0))
    np.testing.assert_array_equal(out, [0, 1, 1])
    assert rec.absorbed.tolist() == [1]


@given(
    p_ryd=st.floats(0.0, 1.0),
    p_ryd2=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1.0),
    n_bins=st.integers(1, 12),
    rows=st.integers(1, 5),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_shot_conservation_properties(p_ryd, p_ryd2, t, n_bins, rows, data, seed):
    # one pulse (1-D) or a block of up to five: no bin gains a photon, and in every
    # row the absorbed photons are among those missing from the output
    if p_ryd2 > p_ryd:
        p_ryd, p_ryd2 = p_ryd2, p_ryd
    params = AbsorberParams(p_ryd=p_ryd, p_ryd2=p_ryd2, t=t)
    shape = (n_bins,) if rows == 1 else (rows, n_bins)
    counts = np.array(data.draw(st.lists(st.integers(0, 6), min_size=rows * n_bins, max_size=rows * n_bins)))
    rec, out = _absorb_rows(params, counts.reshape(shape), substream(seed, 0))
    out, inp, absorbed = np.atleast_2d(out), counts.reshape(rows, n_bins), rec.absorbed
    assert (out >= 0).all()
    assert (out <= inp).all()
    assert (out.sum(axis=1) + absorbed <= inp.sum(axis=1)).all()
    assert ((0 <= absorbed) & (absorbed <= 2)).all()
    if p_ryd2 == 0.0:
        assert (absorbed <= 1).all()


@given(
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ideal_absorber_removes_exactly_one(counts, seed):
    params = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=1.0)
    _, out = _absorb_rows(params, np.array(counts), substream(seed, 1))
    assert out.sum() == max(sum(counts) - 1, 0)


def test_matches_per_photon_reference_distribution():
    # exaggerated p_ryd2 so the two-excitation branch carries weight
    p, p2, t = 0.35, 0.3, 0.9
    params = AbsorberParams(p_ryd=p, p_ryd2=p2, t=t)
    counts = np.array([3, 2, 0, 4])
    shots = 20000
    rec, out = _absorb_rows(params, np.tile(counts, (shots, 1)), substream(21, 0))
    fast_abs = np.bincount(rec.absorbed, minlength=3)
    fast_out = out.sum(axis=0)
    fast_lost = rec.input_bins.sum() - rec.output_bins.sum() - rec.absorbed.sum()
    slow_rng = substream(22, 0)
    slow_abs = np.zeros(3)
    slow_out = np.zeros(4)
    slow_lost = 0.0
    for _ in range(shots):
        out, absorbed, lost, _ = per_photon_shot(p, p2, t, counts, slow_rng)
        slow_abs[absorbed] += 1
        slow_out += out
        slow_lost += lost
    # binomial errors on the absorbed-count fractions
    for k in range(3):
        pf, ps = fast_abs[k] / shots, slow_abs[k] / shots
        sigma = np.sqrt((pf * (1 - pf) + ps * (1 - ps)) / shots) + 1e-9
        assert abs(pf - ps) < 4 * sigma
    sigma_bin = np.sqrt(2.0 * counts / shots)  # Poisson-scale bound on per-bin means
    assert (np.abs(fast_out - slow_out) / shots < 4 * sigma_bin + 1e-9).all()
    assert abs(fast_lost - slow_lost) / shots < 4 * np.sqrt(2 * counts.sum() * (1 - t) / shots)


def test_block_absorber_matches_per_photon_chi2():
    # Without loss the first absorption sits in the first bin the output
    # falls short of the input, so a block's rows give the joint law of
    # (absorbed count, first absorption bin) that the per-photon oracle draws.
    p, p2 = 0.35, 0.3
    params = AbsorberParams(p_ryd=p, p_ryd2=p2, t=1.0)
    counts = np.array([3, 2, 0, 4])
    shots = 20000
    inp = np.tile(counts, (shots, 1))
    rec, out = _absorb_rows(params, inp, substream(23, 0))
    short = inp > out
    first_bin = np.where(short.any(axis=1), short.argmax(axis=1), counts.size)
    block = np.zeros((3, counts.size + 1))
    np.add.at(block, (rec.absorbed, first_bin), 1)
    oracle = np.zeros_like(block)
    rng = substream(24, 0)
    for _ in range(shots):
        _, absorbed, _, absorption_bin = per_photon_shot(p, p2, 1.0, counts, rng)
        oracle[absorbed, counts.size if absorption_bin is None else absorption_bin] += 1
    seen = (block + oracle) > 0
    # two samples of equal size: sum of (a - b)^2 / (a + b) over the observed cells
    chi2 = float((((block - oracle) ** 2)[seen] / (block + oracle)[seen]).sum())
    assert seen.sum() == 7  # A = 0; A = 1 and A = 2 in each of the three bins with photons
    assert chi2 < chi2_upper(int(seen.sum()) - 1)


def test_absorbed_histogram_matches_leaky_blockade_chi2():
    n_in, shots = 10.0, 200000
    params = AbsorberParams(p_ryd=0.35, p_ryd2=0.05, t=0.95)
    ens = run_point(PulseSpec(mean_photons=n_in), params, DET, shots, 25)
    expected = shots * leaky_absorbed_pmf(n_in, params.p_ryd, params.p_ryd2, params.t)
    np.testing.assert_allclose(expected, shots * np.array(absorbed_pmf(n_in, params.t, params.p_ryd, params.p_ryd2)))
    chi2 = float(((ens.absorbed_hist - expected) ** 2 / expected).sum())
    assert chi2 < chi2_upper(2)


def test_ensemble_mean_matches_closed_form():
    params = AbsorberParams(p_ryd=0.35, p_ryd2=0.0, t=0.99)
    ens = run_point(PulseSpec(mean_photons=20.0), params, DET, 30000, 31)
    expected = mean_out(20.0, 0.99, 0.35, 0.0)
    assert expected == pytest.approx(18.800978, abs=1e-6)
    assert abs(ens.mean_out - expected) < 3 * ens.sem_out


def test_absorbed_count_is_bernoulli_without_leakage():
    params = AbsorberParams(p_ryd=0.35, p_ryd2=0.0, t=0.99)
    ens = run_point(PulseSpec(mean_photons=5.65), params, DET, 20000, 32)
    p1 = 1.0 - np.exp(-0.99 * 5.65 * 0.35)
    frac = ens.absorbed_hist[1] / ens.shots
    assert ens.absorbed_hist[2] == 0
    assert abs(frac - p1) < 3 * np.sqrt(p1 * (1 - p1) / ens.shots)


def test_run_ensemble_is_deterministic():
    a = run_point(PulseSpec(mean_photons=4.0), MEASURED, DET, 500, 77)
    b = run_point(PulseSpec(mean_photons=4.0), MEASURED, DET, 500, 77)
    assert a.equals(b)


def test_run_ensemble_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_point(PulseSpec(mean_photons=4.0), MEASURED, DET, 0, 1)


def test_merge_identity_commutativity_associativity():
    spec = PulseSpec(mean_photons=3.0)
    a = run_point(spec, MEASURED, DET, 60, 1)
    b = run_point(spec, MEASURED, DET, 40, 2)
    c = run_point(spec, MEASURED, DET, 50, 3)
    empty = EnsembleResult(spec.n_bins, spec.bin_width_us)
    assert merge(a, empty).equals(a)
    assert merge(a, b).equals(merge(b, a))
    assert merge(merge(a, b), c).equals(merge(a, merge(b, c)))


def test_merge_equals_sequential_accumulation():
    spec = PulseSpec(mean_photons=6.0)
    a = run_point(spec, MEASURED, DET, 40, 5)
    b = run_point(spec, MEASURED, DET, 60, 6)
    sequential = EnsembleResult(spec.n_bins, spec.bin_width_us)
    for seed, shots in ((5, 40), (6, 60)):
        _block_loop((MEASURED,), spec, shots, seed, [sequential])
    assert merge(a, b).equals(sequential)


def test_merge_rejects_mismatched_bin_structure():
    a = run_point(PulseSpec(mean_photons=1.0, duration_us=2.0), MEASURED, DET, 5, 1)
    b = run_point(PulseSpec(mean_photons=1.0, duration_us=1.0), MEASURED, DET, 5, 1)
    fine = G2Accumulator(8, 0.05, 2)
    # g2 sums on other cells or bins, and an accumulator of another type
    for x, y in ((a, b), (fine, G2Accumulator(8, 0.05, 4)), (fine, G2Accumulator(8, 0.1, 2)), (a, fine)):
        with pytest.raises(ValueError, match="different types or grids"):
            merge(x, y)


def test_leaky_blockade_warns():
    with pytest.warns(UserWarning):
        AbsorberParams(p_ryd=0.1, p_ryd2=0.5, t=1.0)


# ---------------------------------------------------------------------------
# cascades

IDEAL = AbsorberParams(p_ryd=1.0, p_ryd2=0.0, t=1.0)


def test_cascade_counts_three_photons_exactly():
    rng = substream(41, 0)
    bins, absorbed = np.array([1, 0, 1, 1]), []
    for _ in range(5):
        rec, bins = _absorb_rows(IDEAL, bins, rng)
        absorbed.append(int(rec.absorbed[0]))
    assert absorbed == [1, 1, 1, 0, 0]
    assert bins.sum() == 0


def test_run_point_is_a_one_stage_cascade():
    spec = PulseSpec(mean_photons=4.0)
    result = simulate_cascade((MEASURED,), spec, DET, 300, 13, g2_cell_bins=2)
    ens = run_point(spec, MEASURED, DET, 300, 13)
    assert result.stages[0].equals(ens)
    # one leaky stage: the joint table is the absorbed histogram
    assert result.outcomes.joint.tolist() == list(ens.absorbed_hist)


def test_two_ideal_stages_poisson_joint_probability():
    spec = PulseSpec(mean_photons=2.0)
    shots = 20000
    result = simulate_cascade([IDEAL, IDEAL], spec, DET, shots, 14)
    confusion, joint = result.outcomes.confusion, result.outcomes.joint
    p_both = joint[-1] / shots  # both digits 1
    assert p_both == sum(count for (_, fired), count in confusion.items() if fired == 2) / shots
    expected = both_stages_fire_probability(2.0)
    assert expected == pytest.approx(0.593994, abs=1e-6)
    assert abs(p_both - expected) < 3 * np.sqrt(expected * (1 - expected) / shots)
    assert sum(confusion.values()) == joint.sum() == shots
    n_in_total = sum(n * count for (n, _), count in confusion.items())
    assert n_in_total == result.stages[0].in_bin_sums.sum()


def test_cascade_workers_do_not_change_results():
    spec = PulseSpec(mean_photons=5.0)
    stages = (MEASURED, AbsorberParams(p_ryd=0.5, p_ryd2=0.05, t=0.9), IDEAL)
    # four blocks of 16 shots, one batch each
    with mock.patch.object(experiment, "_BLOCK", 16), mock.patch.object(experiment, "_BATCH_SHOTS", 16):
        serial = simulate_cascade(stages, spec, DET, 64, 9, workers=1, g2_cell_bins=2)
        parallel = simulate_cascade(stages, spec, DET, 64, 9, workers=2, g2_cell_bins=2)
    assert len(serial.stages) == len(parallel.stages) == 3
    assert all(a.equals(b) for a, b in zip(serial.stages, parallel.stages))
    assert serial.g2.equals(parallel.g2)
    assert serial.outcomes.equals(parallel.outcomes)
    assert sum(serial.outcomes.confusion.values()) == serial.outcomes.joint.sum() == 64


def test_cascade_rejects_empty_stage_list():
    with pytest.raises(ValueError):
        simulate_cascade([], PulseSpec(mean_photons=1.0), DET, 10, 1)


def test_batch_results_reduce_as_they_arrive():
    alive, earlier = [], []
    run_batch = experiment._run_batch

    def tracked(args):
        earlier.append(sum(ref() is not None for ref in alive))
        result = run_batch(args)
        alive.append(weakref.ref(result))
        return result

    # four blocks of 16 shots, one batch each: while a batch runs, the one
    # merged last may still be held, no earlier one
    with mock.patch.object(experiment, "_BLOCK", 16), mock.patch.object(experiment, "_BATCH_SHOTS", 16), \
            mock.patch.object(experiment, "_run_batch", tracked):
        result = simulate_cascade((MEASURED,), PulseSpec(mean_photons=3.0), DET, 64, 9)
    assert earlier == [0, 1, 1, 1]
    assert result.shots == 64


def test_a_hundred_leaky_stages_keep_a_bounded_outcome_table():
    # 3**100 absorbed patterns: nearly every shot's is new, so only the confusion counts are kept
    result = simulate_cascade((AbsorberParams(0.3, 0.05, 0.999),) * 100, PulseSpec(mean_photons=100.0), DET, 4000, 8)
    assert result.outcomes.joint.size == 0
    assert sum(result.outcomes.confusion.values()) == 4000
    assert len(pickle.dumps(result.outcomes)) < 64 * 1024
    # the cap: 2**20 cells are kept, 2**21 are not
    assert experiment.OutcomeCounts(*(2,) * 20).joint.shape == (experiment._JOINT_CELLS,)
    assert experiment.OutcomeCounts(*(2,) * 21).joint.size == 0


def test_mixed_stages_count_outcomes_as_the_block_loop():
    # an ideal stage absorbs at most one photon, a digit of radix 2; a leaky one up to two, radix 3
    spec = PulseSpec(mean_photons=4.0)
    stages = (IDEAL, MEASURED, IDEAL, AbsorberParams(0.5, 0.2, 0.9))
    shots = experiment._BLOCK + 44
    result = simulate_cascade(stages, spec, DET, shots, 31)
    outcomes = _block_loop(stages, spec, shots, 31, [EnsembleResult(spec.n_bins, spec.bin_width_us) for _ in stages])
    assert result.outcomes.radices == (2, 3, 2, 3)
    assert result.outcomes.joint.size == 36
    assert result.outcomes.joint[1::2].sum() > 0  # patterns with a leaky last stage absorbing 2 occur
    assert result.outcomes.equals(_outcome_counts(outcomes, stages))


def test_outcome_counts_merge_exactly_and_reject_other_radices():
    spec = PulseSpec(mean_photons=3.0)
    stages = (IDEAL, MEASURED)
    a, b, c = (simulate_cascade(stages, spec, DET, shots, seed).outcomes for shots, seed in ((60, 1), (40, 2), (50, 3)))
    assert merge(a, experiment.OutcomeCounts(2, 3)).equals(a)
    assert merge(a, b).equals(merge(b, a))
    assert merge(merge(a, b), c).equals(merge(a, merge(b, c)))
    merged = merge(a, b)
    assert merged.confusion == a.confusion + b.confusion
    np.testing.assert_array_equal(merged.joint, a.joint + b.joint)
    for name, one_more in (("confusion", Counter({(0, 0): 1})), ("joint", 1)):
        changed = merge(a, b)
        setattr(changed, name, getattr(changed, name) + one_more)
        assert not merged.equals(changed), name
    for other in ((3, 3), (2, 3, 2), (3, 2)):
        with pytest.raises(ValueError, match="different types or grids"):
            merge(a, experiment.OutcomeCounts(*other))


# ---------------------------------------------------------------------------
# field coverage of merge and equals

def test_merge_sums_every_declared_field():
    spec = PulseSpec(mean_photons=5.0)
    a = simulate_cascade((MEASURED,), spec, DET, 30, 1, g2_cell_bins=2)
    b = simulate_cascade((MEASURED,), spec, DET, 20, 2, g2_cell_bins=2)
    merged = a.merged(b)
    for name in merged.stages[0].zero_sums():
        np.testing.assert_array_equal(
            getattr(merged.stages[0], name), getattr(a.stages[0], name) + getattr(b.stages[0], name)
        )
    for name in merged.g2.zero_sums():
        np.testing.assert_array_equal(
            getattr(merged.g2, name), getattr(a.g2, name) + getattr(b.g2, name)
        )


def test_ensemble_equals_compares_every_summed_field():
    spec = PulseSpec(mean_photons=5.0)
    for name in EnsembleResult(spec.n_bins, spec.bin_width_us).zero_sums():
        a = run_point(spec, MEASURED, DET, 20, 3)
        b = run_point(spec, MEASURED, DET, 20, 3)
        assert a.equals(b)
        setattr(b, name, getattr(b, name) + 1)
        assert not a.equals(b), name


def test_accumulators_survive_a_pickle_round_trip_without_the_g2_buffer():
    result = simulate_cascade((MEASURED,), PulseSpec(mean_photons=5.0), DET, 30, 4, g2_cell_bins=2)
    assert result.g2._work.size > 0
    for acc in (result.stages[0], result.outcomes, result.g2):
        copy = pickle.loads(pickle.dumps(acc))
        assert type(copy) is type(acc) and copy.equals(acc)
    assert pickle.loads(pickle.dumps(result.g2))._work.size == 0


def test_cascade_batches_merge_stages_and_g2_through_merge():
    spec = PulseSpec(mean_photons=5.0)
    # two blocks of 16 shots, one batch each, through two stages
    with mock.patch.object(experiment, "_BLOCK", 16), mock.patch.object(experiment, "_BATCH_SHOTS", 16), \
            mock.patch.object(experiment, "merge", wraps=merge) as traced:
        result = simulate_cascade((MEASURED, IDEAL), spec, DET, 32, 5, g2_cell_bins=2)
    merged = [type(call.args[0]) for call in traced.call_args_list]
    assert merged == [EnsembleResult, EnsembleResult, G2Accumulator, experiment.OutcomeCounts]
    assert result.shots == result.g2.shots == 32


# ---------------------------------------------------------------------------
# block accumulation against the per-shot reference

@given(
    rows=st.sampled_from([1, 64, 133]),
    n_bins=st.integers(1, 12),
    bins_per_cell=st.integers(1, 4),
    mean=st.sampled_from([0.3, 3.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_block_adds_equal_per_shot_adds(rows, n_bins, bins_per_cell, mean, seed):
    rng = np.random.default_rng(seed)
    inp = rng.poisson(mean, size=(rows, n_bins))
    out = rng.binomial(inp, 0.8)
    absorbed = rng.integers(0, MAX_EXCITATIONS + 1, size=rows)
    ions = rng.binomial(absorbed, 0.5)
    det = rng.poisson(mean / 4, size=(rows, 4, n_bins))
    block, per_shot = (EnsembleResult(n_bins, 0.05) for _ in range(2))
    block_g2, per_shot_g2 = (G2Accumulator(n_bins, 0.05, bins_per_cell) for _ in range(2))
    block.add_shot(rows_record(inp, out, absorbed))  # out is zero wherever inp is
    block.add_ions(ions)
    block_g2.add(det)
    for s in range(rows):
        per_shot.add_shot(rows_record(inp[s], out[s], absorbed[s]))
        per_shot.add_ions(ions[s : s + 1])
        per_shot_g2.add(det[s : s + 1])
    assert block.shots == per_shot.shots == block_g2.shots == rows
    assert block.equals(per_shot)
    assert block_g2.equals(per_shot_g2)
    references = (
        (block, _reference_sums(inp, out, absorbed, ions)),
        (block_g2, g2_sums_per_shot(det, bins_per_cell, block_g2._front, block_g2._rear)),
    )
    for acc, reference in references:
        for name, value in reference.items():
            np.testing.assert_array_equal(getattr(acc, name), value, err_msg=name)


def _reference_sums(inp, out, absorbed, ions):
    """The ensemble sums shot by shot, totals as Python integers."""
    sums = EnsembleResult(inp.shape[1], 0.05).zero_sums()
    for i, o, a, n in zip(inp, out, absorbed, ions):
        for name, value in (
            ("shots", 1), ("out_total_sq_sum", int(o.sum()) ** 2), ("in_bin_sums", i), ("out_bin_sums", o),
            ("in_bin_sq_sums", i * i), ("out_bin_sq_sums", o * o), ("inout_bin_sums", i * o),
            ("absorbed_hist", np.eye(MAX_EXCITATIONS + 1, dtype=np.int64)[a]),
            ("ion_hist", np.eye(MAX_EXCITATIONS + 1, dtype=np.int64)[n]),
        ):
            sums[name] = sums[name] + value
    return sums


def _block_loop(stages, spec, shots, seed, ensembles, g2=None, detector=DET, stream_key=()):
    """A run as a literal loop over its blocks, added into ``ensembles`` (one
    per stage) and ``g2``, with the dense oracles that decode each uniform by
    hand; returns the outcome counts.  Each block of ``block_rows`` rows draws
    from its own substream: the input, every stage, every stage's ion clicks,
    then the detection of the last stage's output in slices of ``detect_rows``
    rows."""
    rows, slice_rows = experiment.block_rows(spec), experiment.detect_rows(spec)
    weights = tukey_envelope(spec)
    dark_mean = detector.dark_cps * spec.bin_width_us * 1e-6
    dead_bins = max(1, int(np.ceil(detector.dead_time_ns / (spec.bin_width_us * 1e3)))) if detector.dead_time_ns else 0
    outcomes = Counter()
    for block, lo in enumerate(range(0, shots, rows)):
        rng = substream(seed, *stream_key, block)
        bins = [input_block(min(rows, shots - lo), spec.mean_photons, weights, rng)]
        absorbed = []
        for params in stages:
            out, stage_absorbed, _ = uniform_stage(params.p_ryd, params.p_ryd2, params.t, bins[-1], rng)
            bins.append(out)
            absorbed.append(stage_absorbed)
        ions = ion_clicks(absorbed, detector.eta_ion, rng)
        for k, ens in enumerate(ensembles):
            sums = dense_block_sums(bins[k], bins[k + 1], absorbed[k], ions[k], MAX_EXCITATIONS + 1)
            for name, value in sums.items():
                setattr(ens, name, getattr(ens, name) + value)
        if g2 is not None:
            for part in range(0, len(bins[-1]), slice_rows):
                g2.add(dense_detection(bins[-1][part : part + slice_rows], detector.eta_probe, detector.split,
                                       dark_mean, dead_bins, rng))
        outcomes.update(zip(bins[0].sum(axis=1).tolist(), *np.array(absorbed).tolist()))
    return outcomes


def _outcome_counts(outcomes, stages):
    """The ``OutcomeCounts`` of per-shot outcome counts keyed ``(n_in, absorbed_0, ...)``:
    stages fired per input, and the joint table digit by digit."""
    want = experiment.OutcomeCounts(*(3 if params.p_ryd2 else 2 for params in stages))
    for (n_in, *absorbed), count in outcomes.items():
        want.confusion[n_in, sum(a > 0 for a in absorbed)] += count
        if want.joint.size:
            cell = 0
            for a, radix in zip(absorbed, want.radices):
                assert a < radix
                cell = cell * radix + a
            want.joint[cell] += count
    return want


def _one_absorber_with_g2(spec, shots, seed, bins_per_cell):
    ens = EnsembleResult(spec.n_bins, spec.bin_width_us)
    g2 = G2Accumulator(spec.n_bins, spec.bin_width_us, bins_per_cell)
    _block_loop((MEASURED,), spec, shots, seed, [ens], g2)
    return ens, g2


ROWS = 64


@pytest.mark.parametrize("shots", [ROWS - 1, ROWS + 1, 3 * ROWS + 5])
def test_run_point_equals_the_block_loop(shots):
    # blocks of ROWS shots: one short block, a full block and one shot, three and five shots
    spec = PulseSpec(mean_photons=6.0)
    with mock.patch.object(experiment, "_BLOCK", ROWS):
        ens, g2 = _one_absorber_with_g2(spec, shots, 17, 2)
        for batch_shots in (16, ROWS, 2 * ROWS, experiment._BATCH_SHOTS):
            with mock.patch.object(experiment, "_BATCH_SHOTS", batch_shots):
                result = simulate_cascade((MEASURED,), spec, DET, shots, 17, g2_cell_bins=2)
            assert result.stages[0].equals(ens), batch_shots
            assert result.g2.equals(g2), batch_shots


def test_one_row_g2_slices_equal_the_block_loop():
    spec = PulseSpec(mean_photons=6.0)
    shots = experiment._BLOCK + 44
    ens, g2 = _one_absorber_with_g2(spec, shots, 17, 3)
    slices = []
    add_rows = G2Accumulator._add_rows

    def counted(acc, det):
        slices.append(len(det))
        add_rows(acc, det)

    # the g2 slices' bound only, so blocks and detection slices keep their rows
    with mock.patch.object(stats, "_SLICE_BYTES", 1), mock.patch.object(
        G2Accumulator, "_add_rows", counted
    ):
        result = simulate_cascade((MEASURED,), spec, DET, shots, 17, g2_cell_bins=3)
    assert slices == [1] * shots
    assert result.stages[0].equals(ens)
    assert result.g2.equals(g2)


def test_block_rows_are_capped_by_the_byte_bound():
    # a row draws at most poisson_cut(mean) photons: every per-photon array of a block
    # stays within the bound, whatever the bin count, up to the photon cap
    for spec in (PulseSpec(mean_photons=3.0, duration_us=MAX_BINS * 0.05), PulseSpec(mean_photons=MAX_PHOTONS)):
        rows = experiment.block_rows(spec)
        assert rows * 8 * experiment.poisson_cut(spec.mean_photons) <= experiment._PHOTON_BYTES
    assert experiment.block_rows(PulseSpec(mean_photons=3.0, duration_us=MAX_BINS * 0.05)) == experiment._BLOCK
    assert experiment.block_rows(PulseSpec(mean_photons=MAX_PHOTONS)) == 2  # 106326 photons a row at most
    assert experiment.block_rows(PulseSpec(mean_photons=1000.0)) == 2**21 // (8 * 1634)
    # detection slices: 256 rows, fewer where the dense clicks pass 2 MiB: 2**21 // (32 * 4000)
    long_pulse = PulseSpec(mean_photons=6.0, duration_us=200.0)  # 4000 bins
    assert experiment.detect_rows(PulseSpec(mean_photons=6.0)) == experiment._DETECT_ROWS
    assert experiment.detect_rows(long_pulse) == 16
    result = simulate_cascade((MEASURED,) * 3, long_pulse, DET, 17, 3)
    assert result.shots == 17
    # 100 stages run in the blocks of one stage: each stage once per block
    spec = PulseSpec(mean_photons=20.0)
    shots = 2 * experiment._BLOCK + 1
    with mock.patch.object(experiment, "simulate_shot", wraps=simulate_shot) as traced:
        result = simulate_cascade((AbsorberParams(0.3, 0.05, 0.999),) * 100, spec, DET, shots, 3)
    shapes = [call.args[1] for call in traced.call_args_list]
    assert shapes == [(experiment._BLOCK, spec.n_bins)] * 200 + [(1, spec.n_bins)] * 100
    assert result.shots == shots


def test_g2_detection_runs_in_row_slices_of_bounded_clicks():
    spec = PulseSpec(mean_photons=6.0, duration_us=20.0)  # 400 bins: 163-row slices
    rows = experiment.detect_rows(spec)
    assert rows == 2**21 // (32 * 400)
    with mock.patch.object(experiment, "detect_pulse", wraps=experiment.detect_pulse) as traced:
        result = simulate_cascade((MEASURED,), spec, DET, experiment._BLOCK + 5, 2, g2_cell_bins=20)
    shapes = [call.args[0] for call in traced.call_args_list]
    assert shapes == [(rows, 400)] * 6 + [(experiment._BLOCK - 6 * rows, 400), (5, 400)]
    assert all(8 * 4 * n * bins <= experiment._CLICK_BYTES for n, bins in shapes)
    assert result.g2.shots == experiment._BLOCK + 5


def test_a_long_leaky_cascade_equals_the_block_loop():
    # 20 leaky stages at the default block size, with g2, dark counts and dead time
    spec = PulseSpec(mean_photons=20.0)
    stages = (AbsorberParams(0.3, 0.05, 0.999), AbsorberParams(0.6, 0.1, 0.97)) * 10
    detector = DetectorConfig(eta_probe=0.7, dead_time_ns=120.0, dark_cps=5e5)
    shots = experiment._BLOCK + 44
    result = simulate_cascade(stages, spec, detector, shots, 23, g2_cell_bins=2)
    ensembles = [EnsembleResult(spec.n_bins, spec.bin_width_us) for _ in stages]
    g2 = G2Accumulator(spec.n_bins, spec.bin_width_us, 2)
    outcomes = _block_loop(stages, spec, shots, 23, ensembles, g2, detector)
    assert all(got.equals(want) for got, want in zip(result.stages, ensembles))
    assert result.outcomes.equals(_outcome_counts(outcomes, stages))
    assert result.outcomes.joint.size == 0  # 3**20 patterns exceed the cap
    assert result.g2.equals(g2)


# The stream is defined by the draws of each block, the block size and, with
# dark counts, the detection slices, so a change to any redraws every run.
# These digests pin them all.  Every variate is decoded from the bit
# generator's raw outputs, which NEP 19 keeps stable across numpy releases,
# so they hold for any numpy version.
STREAM_DIGESTS = {
    "40-bins": "8b20e6d50db1e159e24d2ab79175fdadcedb333ae6d4d191926b1765bb56225f",
    "4000-bins": "1e8d801374a6a2a216aa936f3f62872f40bab21c6437908913571ef9f4f188b4",
}


def _run_digest(result):
    """sha256 of every summed field of each stage, the g2 sums, the sorted confusion counts and the joint table."""
    digest = hashlib.sha256()
    for ens in result.stages:
        for name in ens.zero_sums():
            digest.update(np.asarray(getattr(ens, name), dtype=np.int64).tobytes())
    for name in result.g2.zero_sums():
        digest.update(np.asarray(getattr(result.g2, name), dtype=np.float64).tobytes())
    digest.update(repr(sorted(result.outcomes.confusion.items())).encode())
    digest.update(result.outcomes.joint.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "label, duration_us, shots, bins_per_cell",
    [("40-bins", 2.0, 600, 2), ("4000-bins", 200.0, 20, 40)],
    ids=["40-bins", "4000-bins"],
)
def test_fixed_seed_runs_draw_the_recorded_stream(label, duration_us, shots, bins_per_cell):
    # three leaky stages, detection with darks and dead time; the 4000-bin
    # pulse is detected in slices of 16 rows, which the click byte bound sets
    stages = (MEASURED, AbsorberParams(p_ryd=0.5, p_ryd2=0.05, t=0.9), AbsorberParams(p_ryd=0.8, p_ryd2=0.1, t=0.95))
    detector = DetectorConfig(eta_probe=0.7, dead_time_ns=120.0, dark_cps=5e5)
    spec = PulseSpec(mean_photons=6.0, duration_us=duration_us)
    result = simulate_cascade(stages, spec, detector, shots, 2024, g2_cell_bins=bins_per_cell)
    assert _run_digest(result) == STREAM_DIGESTS[label]


# ---------------------------------------------------------------------------
# the stage kernel on nonzero entries against the dense per-photon oracle

STAGE = st.tuples(
    st.sampled_from([0.0, 0.5, 0.99, 1.0]),  # t
    st.sampled_from([0.0, 0.35, 1.0]),  # p_ryd
    st.sampled_from([0.0, 0.001, 0.2, 0.6]),  # p_ryd2
)


def _params(t, p_ryd, p_ryd2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p_ryd2 > p_ryd is allowed with a warning
        return AbsorberParams(p_ryd=p_ryd, p_ryd2=p_ryd2, t=t)


@given(
    rows=st.integers(1, 40),
    n_bins=st.integers(1, 12),
    mean=st.sampled_from([0.0, 0.2, 2.0, 12.0]),
    chain=st.lists(STAGE, min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_entry_stages_draw_the_dense_stream(rows, n_bins, mean, chain, seed):
    # each stage on the block's entries draws what the photon-by-photon walk of the dense block draws
    data = np.random.default_rng(seed)
    counts = data.poisson(mean, size=(rows, n_bins))
    counts[data.random(rows) < 0.3] = 0  # rows without photons
    rng_entries, rng_dense = (substream(seed, 5) for _ in range(2))
    idx = np.flatnonzero(counts)
    entries, dense = counts.ravel()[idx], counts
    for t, p_ryd, p_ryd2 in chain:
        params = _params(t, p_ryd, p_ryd2)
        rec = simulate_shot(params, counts.shape, idx, entries, rng_entries)
        dense_out, dense_absorbed, dense_lost = uniform_stage(p_ryd, p_ryd2, t, dense, rng_dense)
        scattered = np.zeros_like(counts)
        scattered.ravel()[idx] = rec.output_bins
        np.testing.assert_array_equal(scattered, dense_out)
        np.testing.assert_array_equal(rec.absorbed, dense_absorbed)
        lost = dense.sum(axis=1) - scattered.sum(axis=1) - rec.absorbed
        np.testing.assert_array_equal(lost, dense_lost)
        ions = data.binomial(dense_absorbed, 0.5)
        from_entries, from_rows = (EnsembleResult(n_bins, 0.05) for _ in range(2))
        from_entries.add_shot(rec)
        from_entries.add_ions(ions)
        for s in range(rows):
            from_rows.add_shot(rows_record(dense[s], dense_out[s], dense_absorbed[s]))
            from_rows.add_ions(ions[s : s + 1])
        for name, value in dense_block_sums(dense, dense_out, dense_absorbed, ions, MAX_EXCITATIONS + 1).items():
            np.testing.assert_array_equal(getattr(from_entries, name), value, err_msg=name)
            np.testing.assert_array_equal(getattr(from_rows, name), value, err_msg=name)
        live = rec.output_bins > 0
        idx, entries, dense = idx[live], rec.output_bins[live], dense_out
    assert rng_entries.random() == rng_dense.random()


@given(
    shots=st.integers(1, 50),
    chain=st.lists(STAGE, min_size=1, max_size=5),
    mean=st.sampled_from([0.5, 3.0, 15.0]),
    bins_per_cell=st.sampled_from([None, 1, 3]),
    detector=st.sampled_from([DET, DetectorConfig(eta_probe=0.7, dead_time_ns=120.0, dark_cps=5e5)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_run_batch_equals_the_dense_reference_loop(shots, chain, mean, bins_per_cell, detector, seed):
    stages = tuple(_params(*stage) for stage in chain)
    spec = PulseSpec(mean_photons=mean, duration_us=0.6)
    with mock.patch.object(experiment, "_BLOCK", 16):
        n_blocks = -(-shots // experiment.block_rows(spec))
        result = experiment._run_batch(
            (stages, spec, detector, seed, (4,), shots, range(n_blocks), bins_per_cell)
        )
        ensembles = [EnsembleResult(spec.n_bins, spec.bin_width_us) for _ in stages]
        g2 = None if bins_per_cell is None else G2Accumulator(spec.n_bins, spec.bin_width_us, bins_per_cell)
        outcomes = _block_loop(stages, spec, shots, seed, ensembles, g2, detector, stream_key=(4,))
    assert all(got.equals(want) for got, want in zip(result.stages, ensembles))
    assert result.outcomes.equals(_outcome_counts(outcomes, stages))
    assert (result.g2 is None) if g2 is None else result.g2.equals(g2)


def test_entry_sums_are_exact_int64():
    # one row of 2**53 + 1 photons, an empty row, and a row whose first entry's
    # square passes 2**53: no float path can hold these sums exactly
    big, large = 2**53 + 1, 10**8
    counts = np.array([[0, 0, big, 0], [0, 0, 0, 0], [0, large, 0, 5]], dtype=np.int64)
    out = counts - np.array([[0, 0, 1, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    rec = rows_record(counts, out, np.array([1, 0, 1]))
    assert rec.output_bins.tolist() == [big - 1, large - 1, 5]
    ens = EnsembleResult(4, 0.05)
    ens.add_shot(rec)
    wrap = 2**64  # a square of 2**53 + 1 passes int64 and wraps, exactly
    assert ens.in_bin_sums.tolist() == [0, large, big, 5]
    assert ens.out_bin_sums.tolist() == [0, large - 1, big - 1, 5]
    assert ens.in_bin_sq_sums[1] == large**2 and ens.in_bin_sq_sums[3] == 25
    assert ens.out_bin_sq_sums[1] == (large - 1) ** 2
    assert ens.inout_bin_sums[1] == large * (large - 1)
    for name, exact in (
        ("in_bin_sq_sums", big**2), ("out_bin_sq_sums", (big - 1) ** 2), ("inout_bin_sums", big * (big - 1)),
    ):
        assert int(getattr(ens, name)[2]) % wrap == exact % wrap, name
    assert ens.out_total_sq_sum % wrap == ((big - 1) ** 2 + (large + 4) ** 2) % wrap
    assert ens.absorbed_hist.tolist() == [1, 2, 0]


# ---------------------------------------------------------------------------
# the raw-bit stream against its definition and the exact laws

def test_run_batch_draws_the_input_decoded_by_hand_from_raw_bits():
    # one block: each row's photon number from one 53-bit uniform by inversion of the
    # Poisson CDF, then each photon's bin from one more against the envelope's running sum
    spec = PulseSpec(mean_photons=7.5, duration_us=1.0, taper=0.6)
    shots, seed, key = 300, 11, (2, 5)
    with mock.patch.object(experiment, "simulate_shot", wraps=simulate_shot) as traced:
        experiment._run_batch(((MEASURED,), spec, DET, seed, key, shots, range(1), None))
    _, shape, idx, counts, _ = traced.call_args.args
    rng = substream(seed, *key, 0)
    raw = rng.bit_generator.random_raw(shots)
    totals = []
    for value in raw.tolist():
        u, k, term, below = (value >> 11) / 2**53, 0, math.exp(-7.5), 0.0
        while u >= below + term:
            below += term
            k += 1
            term *= 7.5 / k
        totals.append(k)
    bounds = np.cumsum(tukey_envelope(spec))
    block = np.zeros(shape, dtype=np.int64)
    for row, n in enumerate(totals):
        for value in rng.bit_generator.random_raw(n).tolist():
            block[row, min(int(np.searchsorted(bounds, (value >> 11) / 2**53, side="right")), shape[1] - 1)] += 1
    assert shape == (shots, spec.n_bins)
    np.testing.assert_array_equal(idx, np.flatnonzero(block))
    np.testing.assert_array_equal(counts, block.ravel()[idx])
    assert sum(totals) == counts.sum() > 0


def test_input_bins_are_independent_poisson_of_the_bin_means():
    spec = PulseSpec(mean_photons=15.76)
    lam = expected_bin_means(spec)
    bin_cdf = np.cumsum(tukey_envelope(spec))
    bin_cdf[-1] = np.inf
    laws = experiment.InverseCDF(experiment.poisson_cdf(spec.mean_photons)), experiment.InverseCDF(bin_cdf)
    blocks = []
    for b in range(60):
        n_in, idx, counts = experiment.sample_input(1024, *laws, substream(12, b))
        dense = np.zeros((1024, spec.n_bins), dtype=np.int64)
        dense.ravel()[idx] = counts
        np.testing.assert_array_equal(dense.sum(axis=1), n_in)
        blocks.append(dense)
    inp = np.concatenate(blocks)
    shots = len(inp)
    z = (inp.mean(axis=0) - lam) / np.sqrt(lam / shots)
    assert np.abs(z).max() < 4.0
    # var/mean of a Poisson count is 1, with a standard error of sqrt((1 / lam + 2) / shots)
    assert np.abs((inp.var(axis=0, ddof=1) / lam - 1.0) / np.sqrt((1.0 / lam + 2.0) / shots)).max() < 4.5
    # independent bins: each correlation coefficient is about N(0, 1 / shots)
    corr = np.corrcoef(inp, rowvar=False)[np.triu_indices(spec.n_bins, 1)]
    assert np.abs(corr).max() < 5.0 / np.sqrt(shots)


@pytest.mark.parametrize("p_ryd2", [0.0, 0.2])
def test_output_bin_means_match_the_leaky_law(p_ryd2):
    spec = PulseSpec(mean_photons=12.0)
    params = AbsorberParams(p_ryd=0.5, p_ryd2=p_ryd2, t=0.9)
    shots = 100000
    ens = run_point(spec, params, DET, shots, 27)
    lam = expected_bin_means(spec)
    law = out_bin_means(lam, params.t, params.p_ryd, params.p_ryd2)
    mean = ens.out_bin_sums / shots
    sem = np.sqrt(np.maximum(ens.out_bin_sq_sums / shots - mean**2, law) / shots)
    assert np.abs((mean - law) / sem).max() < 4.5


def test_outcome_counts_equal_the_tuple_counter_on_random_blocks():
    rng = np.random.default_rng(13)
    for radices in ((2,), (3, 2, 3), (3,) * 30):
        fast = experiment.OutcomeCounts(*radices)
        want = Counter()
        for rows in (1, 7, 500):
            n_in = rng.integers(0, experiment.poisson_cut(MAX_PHOTONS) + 1, size=rows)
            n_in[: rows // 2] = rng.integers(0, 4, size=rows // 2)  # shared keys
            absorbed = np.array([rng.integers(0, r, size=rows) for r in radices])
            fast.add(n_in, absorbed)
            want.update(zip(n_in.tolist(), np.count_nonzero(absorbed, axis=0).tolist()))
        assert fast.confusion == want
        assert all(type(n) is int and type(f) is int and type(c) is int for (n, f), c in fast.confusion.items())


def test_no_generator_distribution_method_is_called():
    # every variate comes from the bit generator's raw outputs
    class RawOnly(np.random.Generator):
        def __getattribute__(self, name):
            if name != "bit_generator":
                raise AssertionError(f"Generator.{name} called")
            return super().__getattribute__(name)

    stages = (MEASURED, AbsorberParams(0.5, 0.2, 0.9), IDEAL)
    detector = DetectorConfig(eta_probe=0.7, dead_time_ns=120.0, dark_cps=5e5)
    spec = PulseSpec(mean_photons=6.0)
    with mock.patch.object(experiment, "substream", lambda *key: RawOnly(substream(*key).bit_generator)):
        raw_only = simulate_cascade(stages, spec, detector, 300, 19, g2_cell_bins=2)
    plain = simulate_cascade(stages, spec, detector, 300, 19, g2_cell_bins=2)
    assert all(a.equals(b) for a, b in zip(raw_only.stages, plain.stages)) and raw_only.g2.equals(plain.g2)


@given(
    weights=st.lists(st.sampled_from([0.0, 1e-9, 0.01, 0.3, 1.0, 7.0]), min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_guided_inversion_equals_searchsorted(weights, seed):
    # zero-width entries, entries that share a 1/G, and u on an entry or at either end of [0, 1)
    w = np.array(weights)
    if w.sum() == 0.0:
        w[-1] = 1.0
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = np.inf
    law = experiment.InverseCDF(cdf)
    u = np.concatenate((substream(seed, 1).random(2000), cdf[:-1], [0.0, 1.0 - 2.0**-53]))
    u = u[u < 1.0]
    np.testing.assert_array_equal(law.draw(u), np.searchsorted(cdf, u, side="right"))
    size = law.guide.size
    assert size >= 4 * cdf.size and size & (size - 1) == 0
    np.testing.assert_array_equal(law.guide, np.searchsorted(cdf, np.arange(size) / size, side="right"))
