"""The four benchmark workloads.

Each workload turns the seed into a deterministic stream of operations and
runs each one through the program's public functions:

- ``sweep_small`` and ``pipeline_large``: one operation is one replicate of
  ``harness.run_sweep`` (generate -> project -> cc / map / greedy -> verify);
- ``search_cert``: one operation is one ``search.dfs_search`` certificate;
- ``mc_count``: one operation is one trial of ``harness.mc_subgraph_count``.

A workload exposes ``ops()`` (the operation stream), ``run(op)`` (the timed
call), ``check(op, result)`` and ``final_check(pairs)`` (correctness gates),
``result_bytes(op, result)`` (for the digest) and ``label(op)`` (which
named figure the operation's time feeds).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from checks import (
    check_certificate,
    check_mc,
    check_replicate,
    check_witness,
    pooled_mean_se,
)
from tracer import Patches

ALGORITHMS = ("cc", "map", "greedy")


class Workload:
    name = ""
    round_len = 1  # operations per round; a run stops only between rounds
    min_rounds = 1
    keep_results = False  # whether final_check needs every op's result

    def __init__(self, hl, seed: int):
        self.hl = hl
        self.seed = seed

    def instrument(self) -> Patches:
        """Install whatever the gate needs to see outputs; returns the patches."""
        return Patches()

    def final_check(self, pairs) -> dict:
        """Gates over the whole run: {op index: [problems]}."""
        return {}


# ---------------------------------------------------------------------------
# Sweep replicates
# ---------------------------------------------------------------------------


@dataclass
class Replicate:
    records: list
    truth: tuple
    graph_edges: tuple
    outputs: dict  # algorithm -> output edges, None for a MAP abort


class _Capture:
    """Keeps the truth and each algorithm's input and output of the current
    replicate, so the gate can check outputs that the sweep records omit."""

    def __init__(self, hl):
        self.hl = hl
        self.reset()

    def reset(self) -> None:
        self.truth = None
        self.graph = None
        self.outputs: dict = {}

    def install(self) -> Patches:
        patches = Patches()
        patches.replace(self.hl.harness, "generate_random_hypergraph", self._on_generate)
        for name in ALGORITHMS:
            patches.replace(
                self.hl.reconstruct.ALGORITHMS, name, lambda fn, n=name: self._on_algo(n, fn)
            )
        return patches

    def _on_generate(self, fn):
        def generate(*args, **kwargs):
            self.truth = fn(*args, **kwargs)
            return self.truth

        return generate

    def _on_algo(self, name: str, fn):
        def algo(g, d, **kwargs):
            self.graph = g
            self.outputs[name] = None  # stays None if the algorithm raises
            res = fn(g, d, **kwargs)
            self.outputs[name] = res.output.edges
            return res

        return algo


class SweepWorkload(Workload):
    """Seeded replicates through ``harness.run_sweep``, one SweepSpec per
    replicate (num_seeds=1) with a base seed drawn from the workload seed,
    cycling over ``cells`` = ((d, delta, n), ...)."""

    cells: tuple = ()

    def __init__(self, hl, seed: int):
        super().__init__(hl, seed)
        self.round_len = len(self.cells)
        self.capture = _Capture(hl)

    def ops(self):
        rnd = random.Random(self.seed)
        SweepSpec = self.hl.harness.SweepSpec
        while True:
            for d, delta, n in self.cells:
                yield SweepSpec(
                    d=d,
                    n_list=(n,),
                    delta_list=(delta,),
                    num_seeds=1,
                    base_seed=rnd.getrandbits(63),
                    algorithms=ALGORITHMS,
                    threads=1,
                )

    def instrument(self) -> Patches:
        return self.capture.install()

    def run(self, spec):
        self.capture.reset()
        records = list(self.hl.harness.run_sweep(spec))
        cap = self.capture
        return Replicate(
            records,
            cap.truth.edges if cap.truth is not None else (),
            cap.graph.edges if cap.graph is not None else (),
            dict(cap.outputs),
        )

    def check(self, spec, rep: Replicate) -> list:
        problems = []
        if tuple(r.algorithm for r in rep.records) != ALGORITHMS:
            problems.append("sweep records do not cover cc, map, greedy in order")
        if set(rep.outputs) != set(ALGORITHMS):
            problems.append("not every algorithm ran on the replicate")
        for r in rep.records:
            out = rep.outputs.get(r.algorithm)
            if r.truth_size != len(rep.truth):
                problems.append(f"{r.algorithm} record has the wrong truth size")
            if r.reason == "component_too_large":
                if r.algorithm != "map" or out is not None:
                    problems.append(f"unexpected abort record for {r.algorithm}")
            elif out is None or r.output_size != len(out) or not r.is_preimage:
                problems.append(f"{r.algorithm} record disagrees with its output")
        return problems + check_replicate(rep.truth, rep.graph_edges, rep.outputs)

    def result_bytes(self, spec, rep: Replicate) -> bytes:
        rows = (",".join(map(str, r.result_row())) for r in rep.records)
        return "\n".join(rows).encode()

    def label(self, spec) -> str:
        return "replicate"


class SweepSmall(SweepWorkload):
    name = "sweep_small"
    cells = ((3, Fraction(1, 5), 200), (4, Fraction(1, 2), 120))
    min_rounds = 50


class PipelineLarge(SweepWorkload):
    name = "pipeline_large"
    cells = ((3, Fraction(1, 5), 5000),)
    min_rounds = 2


# ---------------------------------------------------------------------------
# Search certificates
# ---------------------------------------------------------------------------

CERTIFICATES = (
    # (d, delta, max_depth, ambiguous classes in an exhausted certificate)
    (3, Fraction(2, 5), None, 1),
    (4, Fraction(1, 2), 12, 0),
    (5, Fraction(1, 2), 14, 0),
)


class SearchCert(Workload):
    """The three pilot certificates, in a fixed order; ignores the seed."""

    name = "search_cert"
    round_len = len(CERTIFICATES)

    def __init__(self, hl, seed: int):
        super().__init__(hl, seed)
        config = hl.search.SearchConfig
        self.configs = [config(d, delta, max_depth=depth) for d, delta, depth, _ in CERTIFICATES]
        self.gadget_projection = hl.census.build_ambiguous_gadget(3)[2].edges

    def ops(self):
        while True:
            yield from range(len(CERTIFICATES))

    def run(self, i: int):
        return self.hl.search.dfs_search(self.configs[i])

    def check(self, i: int, report) -> list:
        d, _, _, expected = CERTIFICATES[i]
        witnesses = [
            {
                "edges": cls.projection.edges,
                "a": cls.preimage_a,
                "b": cls.preimage_b,
                "min_size": cls.min_size,
            }
            for cls in report.ambiguous_found
        ]
        problems = check_certificate(report.exhausted, len(witnesses), expected)
        reference = self.gadget_projection if d == 3 else None
        for w in witnesses:
            problems += check_witness(w, d, reference)
        return problems

    def result_bytes(self, i: int, report) -> bytes:
        return json.dumps(report.to_dict(), sort_keys=True).encode()

    def label(self, i: int) -> str:
        return f"cert_d{CERTIFICATES[i][0]}"


# ---------------------------------------------------------------------------
# Monte Carlo count oracle
# ---------------------------------------------------------------------------

MC_CASES = (
    # the criterion-8 cases: (name, pattern edges or None for the gadget, n, p)
    ("single_hyperedge", ((0, 1, 2),), 12, Fraction(1, 10)),
    ("two_sharing_two", ((0, 1, 2), (0, 1, 3)), 10, Fraction(1, 5)),
    ("two_disjoint", ((0, 1, 2), (3, 4, 5)), 10, Fraction(1, 10)),
    ("chain_three", ((0, 1, 2), (1, 2, 3), (2, 3, 4)), 10, Fraction(1, 6)),
    ("ambiguous_gadget_preimage", None, 12, Fraction(1, 30)),
)


class McCount(Workload):
    """One trial per operation, cycling over the five cases, so the trial
    count scales with the run length; the gate pools each case's trials."""

    name = "mc_count"
    round_len = len(MC_CASES)
    min_rounds = 200
    keep_results = True

    def __init__(self, hl, seed: int):
        super().__init__(hl, seed)
        census = hl.census
        self.patterns = [
            census.build_ambiguous_gadget(3)[0]
            if edges is None
            else census.PatternHypergraph(edges)
            for _, edges, _, _ in MC_CASES
        ]
        self.exact = [
            float(census.exact_expected_count(pat, n, p))
            for pat, (_, _, n, p) in zip(self.patterns, MC_CASES)
        ]

    def ops(self):
        rnd = random.Random(self.seed)
        while True:
            for case in range(len(MC_CASES)):
                yield case, rnd.getrandbits(63)

    def run(self, op):
        case, seed = op
        _, _, n, p = MC_CASES[case]
        return self.hl.harness.mc_subgraph_count(self.patterns[case], 3, n, float(p), 1, seed)

    def check(self, op, result) -> list:
        mean, se = result
        if mean < 0 or mean != int(mean) or se != 0:
            return [f"one-trial estimate {result} is not a whole count"]
        return []

    def final_check(self, pairs) -> dict:
        by_case: dict = {}
        for idx, (op, result) in enumerate(pairs):
            if result is not None:
                by_case.setdefault(op[0], []).append((idx, result[0]))
        bad: dict = {}
        for case, rows in by_case.items():
            mean, se = pooled_mean_se([c for _, c in rows])
            problems = check_mc(mean, se, self.exact[case])
            if problems:
                for idx, _ in rows:
                    bad[idx] = [f"{MC_CASES[case][0]}: {problems[0]}"]
        return bad

    def result_bytes(self, op, result) -> bytes:
        return f"{op[0]},{op[1]},{result[0]!r}".encode()

    def label(self, op) -> str:
        return "trial"


WORKLOADS = {w.name: w for w in (SweepSmall, PipelineLarge, SearchCert, McCount)}
