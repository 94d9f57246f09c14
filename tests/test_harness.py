"""Sweeps, seed derivation, Monte Carlo oracles, planted gadgets, HSBM."""

import csv
import hashlib
import io
import math
import re
from fractions import Fraction

import pytest

from hyperlift import harness
from hyperlift.census import PatternHypergraph, exact_expected_count
from hyperlift.core import DensityParams, HsbmParams, generate_hsbm, project
from hyperlift.harness import (
    RESULT_COLUMNS,
    TIMING_COLUMNS,
    SweepSpec,
    count_pattern_copies,
    derive_seed,
    hsbm_pipeline,
    mc_subgraph_count,
    planted_gadget_trial,
    run_sweep,
    write_sweep_csv,
)
from hyperlift.reconstruct import map_reconstruct, verify_exact


def test_seed_derivation_is_pure_and_sensitive():
    a = derive_seed(7, 3, 100, Fraction(2, 5), 0)
    assert a == derive_seed(7, 3, 100, Fraction(2, 5), 0)
    assert a != derive_seed(7, 3, 100, Fraction(2, 5), 1)
    assert a != derive_seed(8, 3, 100, Fraction(2, 5), 0)
    assert a != derive_seed(7, 3, 100, Fraction(1, 5), 0)


def test_sweep_records_and_invariants():
    spec = SweepSpec(
        d=3,
        n_list=(24, 30),
        delta_list=(Fraction(1, 5),),
        num_seeds=4,
        base_seed=11,
    )
    records = list(run_sweep(spec))
    assert len(records) == 2 * 4 * 3
    for r in records:
        assert not r.exact or r.is_preimage  # exact implies preimage
        if r.algorithm == "map":
            assert r.component_count is not None
        else:
            assert r.ambiguous_component_count is None
    # rate sanity: map >= greedy >= cc on exact counts
    def rate(algo):
        rs = [r for r in records if r.algorithm == algo]
        return sum(r.exact for r in rs) / len(rs)
    assert rate("map") >= rate("greedy") >= rate("cc")


def test_sweep_csv_is_byte_identical_across_runs(tmp_path):
    spec = SweepSpec(
        d=3,
        n_list=(20,),
        delta_list=(Fraction(1, 5), Fraction(2, 5)),
        num_seeds=3,
        base_seed=5,
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(spec, out1, tmp_path / "a.timing")
    write_sweep_csv(spec, out2, tmp_path / "b.timing")
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert "elapsed" not in header  # timing is segregated


def test_timing_sidecar_matches_the_results_row_for_row(tmp_path):
    # d=3 n=60 delta=9/20 aborts MAP on replicates 0 and 1 of base seed 7
    spec = SweepSpec(
        d=3,
        n_list=(60,),
        delta_list=(Fraction(1, 5), Fraction(9, 20)),
        num_seeds=3,
        base_seed=7,
    )
    out, timing = tmp_path / "a.csv", tmp_path / "a.timing"
    count = write_sweep_csv(spec, out, timing)
    results = list(csv.reader(out.read_text().splitlines()))
    times = list(csv.reader(timing.read_text().splitlines()))
    assert results[0] == RESULT_COLUMNS and times[0] == TIMING_COLUMNS
    assert len(results) == len(times) == count + 1
    aborts = 0
    for row, timed in zip(results[1:], times[1:]):
        assert timed[:5] == row[:5]
        assert re.fullmatch(r"\d+\.\d{6}", timed[5]), timed
        if row[-1] == "component_too_large":
            assert timed[5] == "0.000000"
            aborts += 1
    assert aborts == 2


def test_sweep_csv_bytes_are_pinned():
    # 312 records; holds singleton-only, multi-candidate and ambiguous MAP
    # components and 42 MAP aborts.  The digest was recorded before the
    # clique memo, the singleton rule and the pair-set is_preimage check.
    grid = [
        (3, (60, 200, 400), (Fraction(1, 5), Fraction(2, 5), Fraction(9, 20))),
        (4, (120,), (Fraction(1, 2), Fraction(3, 5))),
        (5, (60,), (Fraction(1, 2), Fraction(2, 3))),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RESULT_COLUMNS)
    for d, ns, deltas in grid:
        spec = SweepSpec(d=d, n_list=ns, delta_list=deltas, num_seeds=8, base_seed=7)
        writer.writerows(record.result_row() for record in run_sweep(spec))
    text = buf.getvalue()
    assert text.count("\n") == 313 and text.count("component_too_large") == 42
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "ee42c2af34a2acbe2e71cf9e4705958ddd5516bfab8b29a49285fb99c16294b5"
    )


def test_sweep_parallel_matches_sequential(tmp_path):
    spec = SweepSpec(
        d=3,
        n_list=(18,),
        delta_list=(Fraction(1, 5),),
        num_seeds=4,
        base_seed=3,
    )
    seq = [r.result_row() for r in run_sweep(spec)]
    par_spec = SweepSpec(
        d=3,
        n_list=(18,),
        delta_list=(Fraction(1, 5),),
        num_seeds=4,
        base_seed=3,
        threads=2,
    )
    par = [r.result_row() for r in run_sweep(par_spec)]
    assert seq == par


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "threads, num_seeds, cpus, workers",
    [(64, 3, 8, 3), (64, 20, 2, 2), (2, 20, 8, 2), (64, 1, 8, None), (64, 20, None, None)],
)
def test_sweep_pool_is_capped_by_tasks_and_cpus(monkeypatch, threads, num_seeds, cpus, workers):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    base = dict(d=3, n_list=(8,), delta_list=(Fraction(1, 5),), num_seeds=num_seeds, base_seed=2)
    rows = [r.result_row() for r in run_sweep(SweepSpec(**base, threads=threads))]
    assert rows == [r.result_row() for r in run_sweep(SweepSpec(**base))]
    # one worker (a single task or an unknown CPU count) runs in process
    assert _SerialPool.sizes == ([] if workers is None else [workers])


def test_mc_subgraph_count_examples():
    single = PatternHypergraph([(0, 1, 2)])
    mean, se = mc_subgraph_count(single, 3, 12, 0.1, 1500, seed=13)
    assert abs(mean - math.comb(12, 3) * 0.1) <= 3 * max(se, 1e-9)
    mean, se = mc_subgraph_count(single, 3, 12, 0.0, 50, seed=13)
    assert mean == 0 and se == 0
    diamond = PatternHypergraph([(0, 1, 2), (0, 1, 3)])
    exact = float(exact_expected_count(diamond, 10, Fraction(1, 5)))
    mean, se = mc_subgraph_count(diamond, 3, 10, 0.2, 1500, seed=17)
    assert abs(mean - exact) <= 3 * se


@pytest.mark.parametrize("trials", [0, -1])
def test_mc_subgraph_count_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials"):
        mc_subgraph_count(PatternHypergraph([(0, 1, 2)]), 3, 12, 0.1, trials, seed=13)


def test_count_pattern_copies_on_known_host():
    from hyperlift.core import Hypergraph

    host = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (3, 4, 5)])
    single = PatternHypergraph([(0, 1, 2)])
    assert count_pattern_copies(single, host) == 4
    diamond = PatternHypergraph([(0, 1, 2), (0, 1, 3)])
    # diamonds: three pairs among {012,013,014} plus {014}&{345}? share only 4
    assert count_pattern_copies(diamond, host) == 3
    disjoint = PatternHypergraph([(0, 1, 2), (3, 4, 5)])
    assert count_pattern_copies(disjoint, host) == 1  # only {012} || {345}


def test_count_pattern_copies_rejects_a_wrong_automorphism_count(monkeypatch):
    import hyperlift.harness as harness
    from hyperlift.core import Hypergraph

    host = Hypergraph(3, 3, [(0, 1, 2)])  # 6 embeddings of one hyperedge
    monkeypatch.setattr(harness, "automorphism_count", lambda pattern: 4)
    with pytest.raises(RuntimeError, match="does not divide"):
        count_pattern_copies(PatternHypergraph([(0, 1, 2)]), host)


def test_planted_gadget_trial_is_a_fair_forced_coin():
    hits = 0
    for t in range(40):
        rec = planted_gadget_trial(3, 14, seed=500 + t)
        assert rec.isolated and not rec.collision
        assert rec.map_exact == rec.canonical_matches_planted
        hits += rec.map_exact
    assert 8 <= hits <= 32  # loose binomial sanity at n=40


def test_planted_gadget_trial_d4():
    rec = planted_gadget_trial(4, 40, seed=9)
    assert rec.isolated and rec.map_exact == rec.canonical_matches_planted


def test_planted_gadget_with_background_collisions_are_flagged():
    # dense background makes collisions likely; flagged trials carry no verdict
    params = DensityParams(3, Fraction(2, 5), 20)
    seen_collision = False
    for t in range(30):
        rec = planted_gadget_trial(3, 20, seed=t, background=params)
        if rec.collision:
            seen_collision = True
            assert rec.map_exact is None
    assert seen_collision


def test_hsbm_pipeline_toy_identity():
    # sparse toy: the pipeline is exactly MAP composed with the projection
    # (support of the similarity matrix == projection), seed by seed
    params = HsbmParams(3, 40, Fraction(1, 2), Fraction(1, 8))
    summary = hsbm_pipeline(params, seeds=list(range(8)))
    assert summary["runs"] == 8
    assert summary["exact"] >= 6
    for seed in range(8):
        truth, _ = generate_hsbm(params, seed)
        res = map_reconstruct(project(truth), 3)
        assert verify_exact(res, truth) == (seed not in summary["failed_seeds"])


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(d=3, n_list=(), delta_list=(Fraction(1, 5),), num_seeds=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(
            d=3,
            n_list=(10,),
            delta_list=(Fraction(1, 5),),
            num_seeds=1,
            base_seed=0,
            algorithms=("bogus",),
        )


@pytest.mark.parametrize(
    "changes",
    [
        {"algorithms": ()},
        {"n_list": (2,)},  # n below d
        {"delta_list": (Fraction(6, 5),)},
        {"delta_list": (Fraction(-1, 5),)},
        {"d": 1},
    ],
)
def test_sweep_spec_rejects_bad_cells_before_any_output(tmp_path, changes):
    fields = dict(
        d=3, n_list=(10,), delta_list=(Fraction(1, 5),), num_seeds=1, base_seed=0
    )
    fields.update(changes)
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_sweep_csv(SweepSpec(**fields), out, tmp_path / "out.timing")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"delta_list": (Fraction(1, 5), 0.2)}, "delta=0.2"),
        ({"threads": 0}, "threads=0"),
        ({"threads": -4}, "threads=-4"),
    ],
)
def test_sweep_spec_rejects_inexact_delta_and_threads_below_one(tmp_path, changes, named):
    # a float delta would enter the replicate seed as a binary fraction,
    # and threads below one used to run in process unremarked
    fields = dict(
        d=3, n_list=(10,), delta_list=(Fraction(1, 5),), num_seeds=1, base_seed=0
    )
    fields.update(changes)
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=named):
        write_sweep_csv(SweepSpec(**fields), out, tmp_path / "out.timing")
    assert list(tmp_path.iterdir()) == []
