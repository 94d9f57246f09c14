"""The three reconstruction algorithms: clique cover, exact MAP, greedy.

- clique_cover outputs every d-clique of the input graph (the maximal
  preimage).
- map_reconstruct and min_preimage share one exact engine: it splits the
  clique hypergraph into 2-connected components and solves each exactly,
  a one-candidate component being its own unique minimum.  MAP unions the
  canonical (lexicographically least) minima and never consults the
  density p; min_preimage merges the components' least minima.
- greedy_reconstruct starts from the clique hypergraph and deletes
  hyperedges all of whose pairs are covered at least twice, in one
  ascending lexicographic pass, which is the fixed point: coverage never
  rises, so a hyperedge kept when scanned keeps a pair covered once.

All share the clique hypergraph memoized on the input graph; the three
algorithms return a ReconstructionResult whose is_preimage flag records
whether the output projects back onto the input graph.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat

from .components import decompose
# project is not called here; perfbench/layers.py traces reconstruct.project
# by name, so the name stays importable
from .core import Graph, Hypergraph, clique_hypergraph, edge_pairs, project
from .preimage import solve_cover


COMPONENT_LIMIT = 40  # candidates per component, for MAP and min_preimage alike


class ComponentTooLargeError(RuntimeError):
    """An exact cover search would get more than its limit of candidates."""


@dataclass(frozen=True)
class PreimageReport:
    """Result of exact minimum-preimage search.

    min_covers holds at most ``cap`` minimum covers, lexicographically
    least first; the ambiguous flag is decided by exhaustive search for a
    second minimum and never depends on the cap.
    """

    feasible: bool
    min_size: int | None
    min_covers: tuple
    ambiguous: bool

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "min_size": self.min_size,
            "min_covers": [[list(e) for e in cover] for cover in self.min_covers],
            "ambiguous": self.ambiguous,
        }


@dataclass
class ReconstructionResult:
    algorithm: str
    output: Hypergraph
    is_preimage: bool
    component_sizes: list = field(default_factory=list)
    ambiguous_components: int = 0
    elapsed: float = 0.0

    @property
    def max_component_size(self) -> int:
        return max(self.component_sizes, default=0)

    @property
    def component_count(self) -> int:
        return len(self.component_sizes)


def _finish(algorithm: str, g: Graph, output: Hypergraph, t0: float, **kw) -> ReconstructionResult:
    return ReconstructionResult(
        algorithm=algorithm,
        output=output,
        is_preimage=(output.n == g.n and set(edge_pairs(output.edges)) == g.edge_set),
        elapsed=time.perf_counter() - t0,
        **kw,
    )


def clique_cover(g: Graph, d: int) -> ReconstructionResult:
    """Every d-clique becomes a hyperedge (algorithm A_c)."""
    t0 = time.perf_counter()
    return _finish("cc", g, clique_hypergraph(g, d), t0)


def _solve_components(g: Graph, d: int, cap: int) -> tuple:
    """The one exact engine: Cli(g) split into 2-connected components, each
    solved by solve_cover at ``cap``.  Returns (sizes, lone, parts): the
    component sizes, the candidates alone in their component (each its own
    unique minimum, so not solved) and (covers, ambiguous) for every other
    component.  Before any search it raises ComponentTooLargeError, naming
    the first component over COMPONENT_LIMIT candidates."""
    cli = clique_hypergraph(g, d)
    components = decompose(cli).components
    sizes = list(map(len, components))
    for size in sizes:
        if size > COMPONENT_LIMIT:
            message = f"component with {size} candidate hyperedges: too large"
            raise ComponentTooLargeError(f"{message} (limit {COMPONENT_LIMIT})")
    lone, parts = [], []
    for comp in components:
        if len(comp) == 1:
            lone.append(cli.edges[comp[0]])
        else:
            candidates = [cli.edges[i] for i in comp]
            # a component is built from its own candidates, so always feasible
            _, covers, ambiguous = solve_cover(set(edge_pairs(candidates)), candidates, cap)
            parts.append((covers, ambiguous))
    return sizes, lone, parts


def map_reconstruct(g: Graph, d: int) -> ReconstructionResult:
    """Exact MAP: the canonical minimum preimage of every component.

    On a non-unique component minimum the lexicographically least cover is
    chosen and the component counted in ambiguous_components.
    """
    t0 = time.perf_counter()
    sizes, chosen, parts = _solve_components(g, d, 1)
    for covers, _ in parts:
        chosen.extend(covers[0])
    ambiguous = sum(amb for _, amb in parts)
    output = Hypergraph(g.n, d, chosen)
    return _finish("map", g, output, t0, component_sizes=sizes, ambiguous_components=ambiguous)


def min_preimage(g: Graph, d: int, cap: int = 16) -> PreimageReport:
    """The ``cap`` lexicographically least minimum preimages of g, merged
    from the components' ``cap`` least: a minimum preimage is a union of
    component minima, which share no pair, and adding one disjoint set to
    two covers of a size keeps their order.  Infeasible (an edge of g in
    no d-clique) is reported, not raised: the CLI accepts any graph."""
    if cap < 1:
        raise ValueError(f"cap={cap} must be >= 1")
    _, lone, parts = _solve_components(g, d, cap)
    covers = [tuple(lone)]
    for part, _ in parts:
        covers = sorted(tuple(sorted(a + b)) for a in covers for b in part)[:cap]
    if set(edge_pairs(covers[0])) != g.edge_set:
        return PreimageReport(False, None, (), False)
    return PreimageReport(True, len(covers[0]), tuple(covers), any(amb for _, amb in parts))


def greedy_reconstruct(g: Graph, d: int) -> ReconstructionResult:
    """Greedy deletion of redundant hyperedges from the clique hypergraph.

    A hyperedge is redundant when every one of its pairs is covered by at
    least two surviving hyperedges.  One ascending lexicographic pass
    deletes each hyperedge that is redundant when scanned, so the output is
    deterministic, and that pass is the fixed point: coverage only falls,
    so a hyperedge kept when scanned had a pair covered by itself alone and
    still has, and a second pass would delete nothing.
    """
    t0 = time.perf_counter()
    candidates = clique_hypergraph(g, d).edges
    pairs = list(map(tuple, map(combinations, candidates, repeat(2))))
    coverage = Counter(chain.from_iterable(pairs))
    kept = []
    for c, own in zip(candidates, pairs):
        if 1 in map(coverage.__getitem__, own):  # a pair only c covers
            kept.append(c)
        else:
            for pair in own:
                coverage[pair] -= 1
    output = Hypergraph(g.n, d, kept)
    return _finish("greedy", g, output, t0)


ALGORITHMS = {
    "cc": clique_cover,
    "map": map_reconstruct,
    "greedy": greedy_reconstruct,
}


def verify_exact(result: ReconstructionResult, truth: Hypergraph) -> bool:
    """True iff the reconstruction equals the ground-truth hypergraph."""
    out = result.output
    if (out.n, out.d) != (truth.n, truth.d):
        raise ValueError(
            f"mismatched shapes: output ({out.n},{out.d}) vs truth ({truth.n},{truth.d})"
        )
    return out.edges == truth.edges
