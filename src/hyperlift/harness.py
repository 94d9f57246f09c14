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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .census import PatternHypergraph, automorphism_count, build_ambiguous_gadget
from .components import decompose
from .core import (
    DensityParams,
    HsbmParams,
    Hypergraph,
    clique_hypergraph,
    generate_hsbm,
    generate_random_hypergraph,
    project,
    similarity_matrix,
    support_graph,
)
from .preimage import solve_cover
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
    """A grid of (n, delta) cells replicated over derived seeds."""

    d: int
    n_list: tuple
    delta_list: tuple
    num_seeds: int
    base_seed: int
    algorithms: tuple = ("cc", "map", "greedy")
    threads: int = 1

    def __post_init__(self):
        if not self.n_list or not self.delta_list or self.num_seeds < 1:
            raise ValueError("sweep grid must be nonempty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")

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

    def result_row(self) -> list:
        return [
            self.d,
            self.n,
            str(self.delta),
            self.seed,
            self.algorithm,
            int(self.exact),
            int(self.is_preimage),
            "" if self.output_size is None else self.output_size,
            self.truth_size,
            "" if self.max_component_size is None else self.max_component_size,
            "" if self.component_count is None else self.component_count,
            ""
            if self.ambiguous_component_count is None
            else self.ambiguous_component_count,
            self.reason,
        ]

    def timing_row(self) -> list:
        return [self.d, self.n, str(self.delta), self.seed, self.algorithm, f"{self.elapsed:.6f}"]


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
            records.append(
                SweepRecord(
                    d=d,
                    n=n,
                    delta=delta,
                    seed=seed,
                    algorithm=name,
                    exact=verify_exact(res, truth),
                    is_preimage=res.is_preimage,
                    output_size=len(res.output),
                    truth_size=len(truth),
                    max_component_size=res.max_component_size if name == "map" else None,
                    component_count=res.component_count if name == "map" else None,
                    ambiguous_component_count=res.ambiguous_components
                    if name == "map"
                    else None,
                    elapsed=res.elapsed,
                )
            )
        except ComponentTooLargeError:
            records.append(
                SweepRecord(
                    d=d,
                    n=n,
                    delta=delta,
                    seed=seed,
                    algorithm=name,
                    exact=False,
                    is_preimage=False,
                    output_size=None,
                    truth_size=len(truth),
                    max_component_size=None,
                    component_count=None,
                    ambiguous_component_count=None,
                    elapsed=0.0,
                    reason="component_too_large",
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
    if spec.threads <= 1:
        for task in tasks:
            yield from _run_one(task)
    else:
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            for records in pool.map(_run_one, tasks, chunksize=4):
                yield from records


def write_sweep_csv(spec: SweepSpec, results_path, timing_path=None) -> int:
    """Run a sweep, streaming rows to CSV; timing goes to a sidecar file so
    the results file is byte-stable.  Returns the number of records."""
    count = 0
    timing_file = open(timing_path, "w", newline="") if timing_path else None
    try:
        with open(results_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(RESULT_COLUMNS)
            timing_writer = None
            if timing_file is not None:
                timing_writer = csv.writer(timing_file)
                timing_writer.writerow(TIMING_COLUMNS)
            for record in run_sweep(spec):
                writer.writerow(record.result_row())
                f.flush()
                if timing_writer is not None:
                    timing_writer.writerow(record.timing_row())
                count += 1
    finally:
        if timing_file is not None:
            timing_file.close()
    return count


# ---------------------------------------------------------------------------
# HSBM reduction pipeline
# ---------------------------------------------------------------------------


def hsbm_pipeline(params: HsbmParams, seeds: Sequence[int]) -> dict:
    """similarity matrix -> support graph -> MAP, verified against the truth.

    Returns a summary dict with the exact-recovery rate over the seeds.
    """
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
        "rate": exact / len(seeds) if seeds else float("nan"),
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
    incident: dict = {}
    for idx, e in enumerate(host.edges):
        for v in e:
            incident.setdefault(v, []).append(idx)
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
            pool = set(incident.get(image[mapped[0]], []))
            for u in mapped[1:]:
                pool &= set(incident.get(image[u], []))
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

    If the gadget's 2-connected component stays isolated, exactly one of
    the two variants can match the canonical minimum there, so MAP's
    success on the trial is a fair coin over the variant choice.  When the
    background touches the gadget component the trial is flagged collision
    (and should be discarded by callers estimating the forced-failure rate).
    """
    p1, p2, gadget_proj = build_ambiguous_gadget(d)
    gadget_v = p1.v
    if n < gadget_v:
        raise ValueError(f"n={n} too small to embed a gadget on {gadget_v} vertices")
    rng = substream(seed, TRIAL_TAG)
    variant = rng.randrange(2)
    planted_pattern = p1 if variant == 0 else p2
    spots = list(range(n))
    rng.shuffle(spots)
    embed = {i: spots[i] for i in range(gadget_v)}
    planted_edges = [tuple(sorted(embed[u] for u in e)) for e in planted_pattern.edges]
    if background is not None:
        if (background.n, background.d) != (n, d):
            raise ValueError("background params must match (n, d)")
        base = generate_random_hypergraph(background, mix64(seed, 0xB6))
    else:
        base = Hypergraph(n, d, [])
    truth = base.union(Hypergraph(n, d, planted_edges))
    g = project(truth)
    cli = clique_hypergraph(g, d)
    partition = decompose(cli)
    cli_index = {e: i for i, e in enumerate(cli.edges)}
    comp_idx = partition.component_of(cli_index[planted_edges[0]])
    comp_edges = set(partition.component_edges(comp_idx))
    expected_cli = {
        tuple(sorted(embed[u] for u in e))
        for e in clique_hypergraph(gadget_proj, d).edges
    }
    isolated = comp_edges == expected_cli
    if not isolated:
        return PlantedTrial(seed, variant, True, False, None, None)
    universe = set()
    for c in comp_edges:
        universe.update(combinations(c, 2))
    r, covers, ambiguous = solve_cover(universe, comp_edges, cap=4)
    if not (ambiguous and len(covers) == 2 and r == 2 * d - 1):
        raise RuntimeError("isolated gadget component is not behaving ambiguously")
    variant_edge_sets = [
        {tuple(sorted(embed[u] for u in e)) for e in pat.edges} for pat in (p1, p2)
    ]
    canonical = set(covers[0])
    matches = [canonical == s for s in variant_edge_sets]
    if sum(matches) != 1:
        raise RuntimeError("canonical minimum should match exactly one variant")
    res = map_reconstruct(g, d)
    return PlantedTrial(
        seed=seed,
        variant=variant,
        collision=False,
        isolated=True,
        canonical_matches_planted=matches[variant],
        map_exact=verify_exact(res, truth),
    )
