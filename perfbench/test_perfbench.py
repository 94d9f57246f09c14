"""Tests for the benchmark itself: span arithmetic, the correctness gate, and
that a traced run leaves the program's names as it found them.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

import importlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, metric_units, trace_targets  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import McCount, SweepSmall  # noqa: E402


@pytest.fixture(scope="module")
def hl():
    # the modules this pytest process already imported; run.load_program would
    # re-import them and split classes between old and new module objects
    return SimpleNamespace(**{n: importlib.import_module(f"hyperlift.{n}") for n in LAYERS})


# -- span arithmetic ------------------------------------------------------


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    names = ["root", "a", "a1", "b"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]
    summary = summarize(names + ["a"], starts + [6.0], ends + [7.0], parents + [3])
    assert summary["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["b"]["self_s"] == 3.0
    assert summary["root"]["self_s"] == 3.0


def test_tracer_links_parents_and_self_times_add_up():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap(leaf, "x.leaf")
    traced_mid = tracer.wrap(lambda: traced_leaf() + traced_leaf(), "x.mid")
    assert tracer.run_op(7, traced_mid) == 2
    assert tracer.names == ["op", "x.mid", "x.leaf", "x.leaf"]
    assert tracer.parents == [-1, 0, 1, 1]
    assert tracer.ops == [7, 7, 7, 7]
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(self_times(tracer.starts, tracer.ends, tracer.parents)) == pytest.approx(total)


# -- the correctness gate -------------------------------------------------


def _replicate(hl):
    params = hl.core.DensityParams(3, Fraction(1, 5), 60)
    truth = hl.core.generate_random_hypergraph(params, 11)
    g = hl.core.project(truth)
    outputs = {name: hl.reconstruct.ALGORITHMS[name](g, 3).output.edges for name in ("cc", "map", "greedy")}
    return truth.edges, g.edges, outputs


def test_gate_accepts_a_real_replicate_and_rejects_a_dropped_hyperedge(hl):
    truth, g, outputs = _replicate(hl)
    assert checks.check_replicate(truth, g, outputs) == []
    assert checks.check_replicate(truth, g, dict(outputs, map=None)) == []  # an abort
    tampered = dict(outputs, map=outputs["map"][1:])
    assert any("map output does not project" in p for p in checks.check_replicate(truth, g, tampered))


def test_gate_rejects_unexhausted_certificate():
    assert checks.check_certificate(True, 0, 0) == []
    assert checks.check_certificate(False, 0, 0) == ["certificate is not exhausted"]
    assert checks.check_certificate(True, 0, 1) != []


def test_gate_verifies_the_gadget_witness(hl):
    p1, p2, proj = hl.census.build_ambiguous_gadget(3)
    witness = {"edges": proj.edges, "a": p1.edges, "b": p2.edges, "min_size": 5}
    assert checks.check_witness(witness, 3, proj.edges) == []
    relabeled = [(9 - a, 9 - b) for a, b in proj.edges]
    assert checks.isomorphic(proj.edges, relabeled)
    assert checks.check_witness(dict(witness, b=p1.edges), 3) == ["the two preimages are identical"]
    assert checks.check_witness(dict(witness, min_size=4), 3) != []
    path = [(i, i + 1) for i in range(len(proj.edges))]
    assert checks.check_witness(witness, 3, path) != []


def test_gate_rejects_mc_mean_moved_by_ten_standard_errors():
    counts = [0, 1, 2, 1, 0, 3, 1, 1, 2, 0] * 30
    mean, se = checks.pooled_mean_se(counts)
    assert checks.check_mc(mean, se, mean + 1.0 * se) == []
    assert checks.check_mc(mean + 10 * se, se, mean) != []


# -- the traced run -------------------------------------------------------


def _snapshot(hl):
    return [(c, k, c[k] if isinstance(c, dict) else getattr(c, k)) for c, k, _, _ in trace_targets(hl)]


def _check_restored(before):
    for container, key, original in before:
        now = container[key] if isinstance(container, dict) else getattr(container, key)
        assert now is original, key


@pytest.mark.parametrize("cls, span", [(SweepSmall, "harness.replicate"), (McCount, "harness.count_pattern_copies")])
def test_traced_run_restores_every_wrapped_name_and_keeps_the_digest(hl, cls, span):
    before = _snapshot(hl)
    workload = cls(hl, seed=3)
    ops = list(itertools.islice(workload.ops(), 2 * workload.round_len))
    plain = run.run_pass(workload, ops)
    tracer = Tracer()
    traced = run.run_pass(workload, ops, None, tracer)
    _check_restored(before)
    assert plain.digests == traced.digests and None not in plain.digests
    assert tracer.summary()[span]["calls"] == 2 * workload.round_len


def test_traced_run_restores_names_when_an_op_raises(hl):
    before = _snapshot(hl)
    workload = SweepSmall(hl, seed=3)
    ops = list(itertools.islice(workload.ops(), 2))
    workload.run = lambda spec: 1 / 0
    out = run.run_pass(workload, ops, None, Tracer())
    assert sorted(out.problems) == [0, 1]
    _check_restored(before)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metric_units()) == {m["name"] for m in spec["per_layer"]}
    names = set(run.end_to_end([0.5, 1.5], [0.1, 0.2, 0.3], 0))
    assert names == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
