"""The three reconstruction algorithms: clique cover, exact MAP, greedy.

- clique_cover outputs every d-clique of the input graph (the maximal
  preimage).
- map_reconstruct computes the clique hypergraph, splits it into
  2-connected components, solves an exact minimum preimage on each
  component, and unions the canonical (lexicographically least) minima.
  A one-candidate component is its own unique minimum and skips the
  solver.  It never consults the density p.
- greedy_reconstruct starts from the clique hypergraph and repeatedly
  deletes hyperedges all of whose pairs are covered at least twice,
  scanning in ascending lexicographic order until a fixed point.

All three share the clique hypergraph memoized on the input graph, and
return a ReconstructionResult whose is_preimage flag records whether the
output actually projects back onto the input graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from .components import decompose
# project is not called here; perfbench/layers.py traces reconstruct.project
# by name, so the name stays importable
from .core import Graph, Hypergraph, clique_hypergraph, project, project_edges
from .preimage import solve_cover


class ComponentTooLargeError(RuntimeError):
    """A 2-connected component exceeded the exact-search abort threshold."""


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
        is_preimage=(output.n == g.n and project_edges(output.edges) == g.edge_set),
        elapsed=time.perf_counter() - t0,
        **kw,
    )


def clique_cover(g: Graph, d: int) -> ReconstructionResult:
    """Every d-clique becomes a hyperedge (algorithm A_c)."""
    t0 = time.perf_counter()
    return _finish("cc", g, clique_hypergraph(g, d), t0)


def map_reconstruct(
    g: Graph, d: int, component_limit: int = 40, cover_cap: int = 16
) -> ReconstructionResult:
    """Exact MAP: minimum preimage, decomposed over 2-connected components.

    On a non-unique component minimum the canonical lexicographically-least
    cover is chosen and the component counted in ambiguous_components.  A
    component with a single candidate takes it without calling the solver:
    it is the unique minimum cover of its own pairs.  Components larger
    than component_limit raise ComponentTooLargeError rather than searching
    without bound.
    """
    t0 = time.perf_counter()
    cli = clique_hypergraph(g, d)
    partition = decompose(cli)
    chosen: list = []
    ambiguous = 0
    sizes = []
    for comp in partition.components:
        if len(comp) > component_limit:
            raise ComponentTooLargeError(
                f"component with {len(comp)} candidate hyperedges exceeds "
                f"abort threshold {component_limit}"
            )
        sizes.append(len(comp))
        if len(comp) == 1:
            chosen.append(cli.edges[comp[0]])
            continue
        candidates = [cli.edges[i] for i in comp]
        universe = set()
        for c in candidates:
            universe.update(combinations(c, 2))
        r, covers, amb = solve_cover(universe, candidates, cap=cover_cap)
        # components are built from their own candidates, so always feasible
        chosen.extend(covers[0])
        ambiguous += bool(amb)
    output = Hypergraph(g.n, d, chosen)
    return _finish(
        "map", g, output, t0, component_sizes=sizes, ambiguous_components=ambiguous
    )


def greedy_reconstruct(g: Graph, d: int) -> ReconstructionResult:
    """Greedy deletion of redundant hyperedges from the clique hypergraph.

    A hyperedge is redundant when every one of its pairs is covered by at
    least two surviving hyperedges.  Scan order is ascending lexicographic,
    repeated to a fixed point, so the output is deterministic.
    """
    t0 = time.perf_counter()
    candidates = list(clique_hypergraph(g, d).edges)
    coverage: dict = {}
    for c in candidates:
        for pair in combinations(c, 2):
            coverage[pair] = coverage.get(pair, 0) + 1
    alive = [True] * len(candidates)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(candidates):
            if not alive[i]:
                continue
            if all(coverage[pair] >= 2 for pair in combinations(c, 2)):
                alive[i] = False
                changed = True
                for pair in combinations(c, 2):
                    coverage[pair] -= 1
    output = Hypergraph(g.n, d, [c for i, c in enumerate(candidates) if alive[i]])
    return _finish("greedy", g, output, t0)


ALGORITHMS = {
    "cc": clique_cover,
    "map": map_reconstruct,
    "greedy": greedy_reconstruct,
}
ALGORITHM_NAMES = frozenset(ALGORITHMS)


def run_algorithm(name: str, g: Graph, d: int, **kwargs) -> ReconstructionResult:
    try:
        algo = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return algo(g, d, **kwargs)


def verify_exact(result: ReconstructionResult, truth: Hypergraph) -> bool:
    """True iff the reconstruction equals the ground-truth hypergraph."""
    out = result.output
    if (out.n, out.d) != (truth.n, truth.d):
        raise ValueError(
            f"mismatched shapes: output ({out.n},{out.d}) vs truth ({truth.n},{truth.d})"
        )
    return out.edges == truth.edges
