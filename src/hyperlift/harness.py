"""Experiment orchestration: seeded sweeps, the HSBM pipeline, Monte Carlo
oracles for pattern counts, and planted-gadget trials.

Reproducibility rules: every replicate's seed is derived as
mix64(base_seed, TRIAL_TAG, d, n, delta.numerator, delta.denominator, rep),
so a sweep is a pure function of its spec; result CSVs carry no timing
(elapsed times go to a sidecar file) and are byte-identical across runs and
parallelism degrees.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .census import PatternHypergraph, _incidence, automorphism_count, build_ambiguous_gadget
from .core import (
    DensityParams,
    HsbmParams,
    Hypergraph,
    clique_hypergraph,
    edge_pairs,
    generate_hsbm,
    generate_random_hypergraph,
    project,
    similarity_matrix,
    support_graph,
)
from .reconstruct import (
    ALGORITHMS,
    ComponentTooLargeError,
    map_reconstruct,
    verify_exact,
)
from .rng import TRIAL_TAG, mix64, substream

RESULT_COLUMNS = [
    "d",
    "n",
    "delta",
    "seed",
    "algorithm",
    "exact",
    "is_preimage",
    "output_size",
    "truth_size",
    "max_component_size",
    "component_count",
    "ambiguous_component_count",
    "reason",
]

TIMING_COLUMNS = ["d", "n", "delta", "seed", "algorithm", "elapsed"]


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (n, delta) cells replicated over derived seeds, run by at
    least one worker.  Each delta is exact (numbers.Rational): it enters
    the replicate seed as its numerator and denominator, which a float
    would silently make a binary fraction's."""

    d: int
    n_list: tuple
    delta_list: tuple
    num_seeds: int
    base_seed: int
    algorithms: tuple = ("cc", "map", "greedy")
    threads: int = 1

    def __post_init__(self):
        integers = [("d", self.d), ("num_seeds", self.num_seeds), ("base_seed", self.base_seed)]
        integers += [("threads", self.threads)] + [("n", n) for n in self.n_list]
        for name, value in integers:
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name}={value!r} must be an integer")
        if not self.n_list or not self.delta_list or self.num_seeds < 1:
            raise ValueError("sweep grid must be nonempty")
        if not self.algorithms:
            raise ValueError("sweep needs at least one algorithm")
        if self.threads < 1:
            raise ValueError(f"threads={self.threads!r} must be at least 1")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        # every cell's parameters are checked before any output is opened
        for delta in self.delta_list:
            if not isinstance(delta, numbers.Rational):
                raise ValueError(f"delta={delta!r} must be exact (an int or a Fraction)")
        for n in self.n_list:
            for delta in self.delta_list:
                DensityParams(self.d, Fraction(delta), n)

    def cells(self) -> Iterator[tuple]:
        for n in self.n_list:
            for delta in self.delta_list:
                for rep in range(self.num_seeds):
                    yield n, Fraction(delta), rep


@dataclass
class SweepRecord:
    d: int
    n: int
    delta: Fraction
    seed: int
    algorithm: str
    exact: bool
    is_preimage: bool
    output_size: Optional[int]
    truth_size: int
    max_component_size: Optional[int]
    component_count: Optional[int]
    ambiguous_component_count: Optional[int]
    elapsed: float
    reason: str = ""

    def _cells(self, columns: Sequence[str]) -> list:
        """The named fields as CSV cells: None is empty, a bool 0 or 1,
        elapsed six decimals, anything else its str."""
        row = []
        for name in columns:
            value = getattr(self, name)
            if value is None:
                row.append("")
            elif isinstance(value, bool):
                row.append(str(int(value)))
            elif name == "elapsed":
                row.append(f"{value:.6f}")
            else:
                row.append(str(value))
        return row

    def result_row(self) -> list:
        return self._cells(RESULT_COLUMNS)

    def timing_row(self) -> list:
        return self._cells(TIMING_COLUMNS)


def derive_seed(base_seed: int, d: int, n: int, delta: Fraction, rep: int) -> int:
    """The documented replicate-seed hash; no global RNG state anywhere."""
    delta = Fraction(delta)
    return mix64(base_seed, TRIAL_TAG, d, n, delta.numerator, delta.denominator, rep)


def _run_one(args: tuple) -> list:
    d, n, delta, rep, base_seed, algorithms = args
    seed = derive_seed(base_seed, d, n, delta, rep)
    params = DensityParams(d, delta, n)
    truth = generate_random_hypergraph(params, seed)
    g = project(truth)
    records = []
    for name in algorithms:
        try:
            res = ALGORITHMS[name](g, d)
        except ComponentTooLargeError:
            res = None  # an abort is a record with no result
        stats = res if name == "map" else None
        records.append(
            SweepRecord(
                d=d,
                n=n,
                delta=delta,
                seed=seed,
                algorithm=name,
                exact=res is not None and verify_exact(res, truth),
                is_preimage=res is not None and res.is_preimage,
                output_size=None if res is None else len(res.output),
                truth_size=len(truth),
                max_component_size=None if stats is None else stats.max_component_size,
                component_count=None if stats is None else stats.component_count,
                ambiguous_component_count=None
                if stats is None
                else stats.ambiguous_components,
                elapsed=0.0 if res is None else res.elapsed,
                reason="component_too_large" if res is None else "",
            )
        )
    return records


def run_sweep(spec: SweepSpec) -> Iterator[SweepRecord]:
    """Yield records cell by cell in canonical grid order (deterministic
    regardless of the parallelism degree)."""
    tasks = [
        (spec.d, n, delta, rep, spec.base_seed, spec.algorithms)
        for n, delta, rep in spec.cells()
    ]
    # the pool starts all its workers at once, so ask for no more than can work
    workers = min(spec.threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        for task in tasks:
            yield from _run_one(task)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for records in pool.map(_run_one, tasks, chunksize=4):
                yield from records


def write_sweep_csv(spec: SweepSpec, results_path, timing_path) -> int:
    """Run a sweep, streaming rows to the results CSV and each record's
    elapsed time to the timing sidecar, row for row, so the results file
    is byte-stable.  Returns the number of records."""
    count = 0
    with open(timing_path, "w", newline="") as t, open(results_path, "w", newline="") as f:
        writer, timing_writer = csv.writer(f), csv.writer(t)
        writer.writerow(RESULT_COLUMNS)
        timing_writer.writerow(TIMING_COLUMNS)
        for record in run_sweep(spec):
            writer.writerow(record.result_row())
            f.flush()
            timing_writer.writerow(record.timing_row())
            count += 1
    return count


# ---------------------------------------------------------------------------
# HSBM reduction pipeline
# ---------------------------------------------------------------------------


def hsbm_pipeline(params: HsbmParams, seeds: Sequence[int]) -> dict:
    """similarity matrix -> support graph -> MAP, verified against the truth.

    Returns a summary dict with the exact-recovery rate over the seeds.
    """
    if not seeds:
        raise ValueError("hsbm needs at least one seed")
    exact = 0
    failures = []
    aborted = 0
    for seed in seeds:
        truth, _sigma = generate_hsbm(params, seed)
        w = similarity_matrix(truth)
        g = support_graph(w)
        try:
            res = map_reconstruct(g, params.d)
        except ComponentTooLargeError:
            aborted += 1
            failures.append(seed)
            continue
        if verify_exact(res, truth):
            exact += 1
        else:
            failures.append(seed)
    return {
        "runs": len(seeds),
        "exact": exact,
        "rate": exact / len(seeds),
        "aborted": aborted,
        "failed_seeds": failures,
    }


# ---------------------------------------------------------------------------
# Monte Carlo subgraph-count oracle
# ---------------------------------------------------------------------------


def count_pattern_copies(pattern: PatternHypergraph, host: Hypergraph) -> int:
    """Number of sub-hypergraphs of the host isomorphic to the pattern.

    Counts injective vertex embeddings by backtracking over pattern
    hyperedges, then divides by |Aut(pattern)| (patterns have no isolated
    vertices, so an image edge set determines the embedding up to
    automorphism).
    """
    if not host.edges:
        return 0
    incident = _incidence(host.n, host.edges)
    # order pattern edges so each (when possible) touches earlier ones
    remaining = list(pattern.edges)
    ordered: list = []
    placed: set = set()
    while remaining:
        pick = next(
            (e for e in remaining if any(u in placed for u in e)), remaining[0]
        )
        remaining.remove(pick)
        ordered.append(pick)
        placed.update(pick)
    image: dict = {}
    used: set = set()
    embeddings = 0

    def backtrack(i: int) -> None:
        nonlocal embeddings
        if i == len(ordered):
            embeddings += 1
            return
        e = ordered[i]
        mapped = [u for u in e if u in image]
        if mapped:
            pool = set(incident[image[mapped[0]]])
            for u in mapped[1:]:
                pool &= set(incident[image[u]])
            candidates = [host.edges[j] for j in sorted(pool)]
        else:
            candidates = list(host.edges)
        unmapped = [u for u in e if u not in image]
        for f in candidates:
            fset = set(f)
            if any(image[u] not in fset for u in mapped):
                continue
            free = sorted(fset - {image[u] for u in mapped})
            if len(free) != len(unmapped):
                continue
            for assignment in permutations(free):
                if any(w in used for w in assignment):
                    continue
                for u, w in zip(unmapped, assignment):
                    image[u] = w
                    used.add(w)
                backtrack(i + 1)
                for u in unmapped:
                    used.discard(image[u])
                    del image[u]

    backtrack(0)
    aut = automorphism_count(pattern)
    if embeddings % aut:
        raise RuntimeError(f"automorphism count {aut} does not divide {embeddings} embeddings")
    return embeddings // aut


def mc_subgraph_count(
    pattern: PatternHypergraph,
    d: int,
    n: int,
    p: float,
    trials: int,
    seed: int,
) -> tuple:
    """Monte Carlo estimate (mean, standard error) of the pattern count in
    H(n, d, p) over independent seeded trials."""
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    if not pattern.is_uniform(d):
        raise ValueError(f"pattern is not {d}-uniform")
    params = DensityParams(d, Fraction(0), n)
    total = 0
    total_sq = 0
    for t in range(trials):
        host = generate_random_hypergraph(
            params, mix64(seed, TRIAL_TAG, t), p_override=p
        )
        c = count_pattern_copies(pattern, host)
        total += c
        total_sq += c * c
    mean = total / trials
    var = total_sq / trials - mean * mean
    se = math.sqrt(max(var, 0.0) / trials)
    return mean, se


# ---------------------------------------------------------------------------
# Planted ambiguous gadgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedTrial:
    seed: int
    variant: int
    collision: bool
    isolated: bool
    canonical_matches_planted: Optional[bool]
    map_exact: Optional[bool]


def planted_gadget_trial(
    d: int,
    n: int,
    seed: int,
    background: Optional[DensityParams] = None,
) -> PlantedTrial:
    """Plant one of the two gadget preimage variants (chosen uniformly) on
    random vertices inside an otherwise random hypergraph, then run MAP.

    The gadget's d-cliques form one 2-connected component of Cli(G).  If
    no other clique shares a pair with them, that component stays isolated,
    MAP keeps its canonical minimum, and exactly one of the two variants
    matches it, so MAP's success on the trial is a fair coin over the
    variant choice.  When the background touches the gadget component the
    trial is flagged collision (and should be discarded by callers
    estimating the forced-failure rate).
    """
    p1, p2, gadget_proj = build_ambiguous_gadget(d)
    gadget_v = p1.v
    if n < gadget_v:
        raise ValueError(f"n={n} too small to embed a gadget on {gadget_v} vertices")
    rng = substream(seed, TRIAL_TAG)
    variant = rng.randrange(2)
    spots = list(range(n))
    rng.shuffle(spots)

    def place(edges) -> set:
        return {tuple(sorted(spots[u] for u in e)) for e in edges}

    variant_edge_sets = [place(pat.edges) for pat in (p1, p2)]
    if background is not None:
        if (background.n, background.d) != (n, d):
            raise ValueError("background params must match (n, d)")
        base = generate_random_hypergraph(background, mix64(seed, 0xB6))
    else:
        base = Hypergraph(n, d, [])
    truth = base.union(Hypergraph(n, d, variant_edge_sets[variant]))
    g = project(truth)
    gadget_cli = place(clique_hypergraph(gadget_proj, d).edges)
    gadget_pairs = set(edge_pairs(gadget_cli))
    isolated = not any(
        c not in gadget_cli and not gadget_pairs.isdisjoint(combinations(c, 2))
        for c in clique_hypergraph(g, d).edges
    )
    if not isolated:
        return PlantedTrial(seed, variant, True, False, None, None)
    res = map_reconstruct(g, d)
    if res.ambiguous_components < 1:
        raise RuntimeError("isolated gadget component is not behaving ambiguously")
    # MAP keeps the canonical (lex-least) minimum of the gadget's component
    canonical = set(res.output.edges) & gadget_cli
    matches = [canonical == s for s in variant_edge_sets]
    if sum(matches) != 1:
        raise RuntimeError("canonical minimum should match exactly one variant")
    return PlantedTrial(
        seed=seed,
        variant=variant,
        collision=False,
        isolated=True,
        canonical_matches_planted=matches[variant],
        map_exact=verify_exact(res, truth),
    )
