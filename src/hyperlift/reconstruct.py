"""The three reconstruction algorithms: clique cover, exact MAP, greedy.

- clique_cover outputs every d-clique of the input graph (the maximal
  preimage).
- map_reconstruct computes the clique hypergraph, splits it into
  2-connected components, solves an exact minimum preimage on each
  component, and unions the canonical (lexicographically least) minima.
  A one-candidate component is its own unique minimum and skips the
  solver.  It never consults the density p.
- greedy_reconstruct starts from the clique hypergraph and deletes
  hyperedges all of whose pairs are covered at least twice, in one
  ascending lexicographic pass, which is the fixed point: coverage never
  rises, so a hyperedge kept when scanned keeps a pair covered once.

All three share the clique hypergraph memoized on the input graph, and
return a ReconstructionResult whose is_preimage flag records whether the
output actually projects back onto the input graph.
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


COMPONENT_LIMIT = 40  # candidates per exact cover search: a MAP component, a preimage graph


class ComponentTooLargeError(RuntimeError):
    """An exact cover search would get more than its limit of candidates."""


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


def map_reconstruct(g: Graph, d: int) -> ReconstructionResult:
    """Exact MAP: minimum preimage, decomposed over 2-connected components.

    On a non-unique component minimum the canonical lexicographically-least
    cover is chosen and the component counted in ambiguous_components.  A
    component with a single candidate takes it without calling the solver:
    it is the unique minimum cover of its own pairs.  Components larger
    than COMPONENT_LIMIT raise ComponentTooLargeError rather than searching
    without bound.
    """
    t0 = time.perf_counter()
    cli = clique_hypergraph(g, d)
    partition = decompose(cli)
    chosen: list = []
    ambiguous = 0
    sizes = []
    for comp in partition.components:
        if len(comp) > COMPONENT_LIMIT:
            raise ComponentTooLargeError(
                f"component with {len(comp)} candidate hyperedges exceeds "
                f"abort threshold {COMPONENT_LIMIT}"
            )
        sizes.append(len(comp))
        if len(comp) == 1:
            chosen.append(cli.edges[comp[0]])
            continue
        candidates = [cli.edges[i] for i in comp]
        r, covers, amb = solve_cover(set(edge_pairs(candidates)), candidates, cap=2)
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
