"""Isomorphism-pruned DFS search certifying (non-)existence of ambiguous graphs.

The search walks hypergraph patterns K reachable by growth steps from two
overlapping hyperedges, one pattern per isomorphism class; a step makes a
2-neighbor, a candidate sharing two vertices with one clique hyperedge, a
clique of the projection.  A grown child is a duplicate when the first
leaf of its individualize-and-refine tree has the code of a stored class
under the same refinement invariant (census.IsomorphismClasses); canonical
forms are compared only when the invariant matches and no code does.

At each pattern the search asks the exact preimage engine whether Proj(K)
is ambiguous (two minimum preimages), and it prunes a branch once the
appearance exponent v + e*(delta - d + 1) drops to zero, because every
growth step strictly decreases the exponent below the 2-connectivity
threshold.  A pattern is only *reported* when its exponent is
nonnegative: patterns with negative exponent appear with vanishing
probability and say nothing about the recovery threshold.

A report with exhausted=True is a certificate: every pattern with
2-connected clique structure and nonnegative exponent was checked up to
isomorphism.  Budget-limited runs set exhausted=False and report whatever
was found so far.
"""

from __future__ import annotations

import math
import numbers
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

# canonical_form, stable_colors and project_edges are not called here;
# perfbench/layers.py traces them as search.canonical_form,
# search.stable_colors and search.project_edges by name, so the names stay
# importable
from .census import (
    IsomorphismClasses,
    PatternHypergraph,
    canonical_form,
    graph_canonical_form,
    stable_colors,
)
from .core import Graph, clique_hypergraph, edge_pairs, hypergraph_to_text, Hypergraph, project_edges
from .preimage import covers_within, cover_masks, min_preimage


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one ambiguity search.

    max_depth counts growth steps from a root; the default
    ceil(2 / ((d-1)/(d+1) - delta)) is the provable sufficient depth below
    the 2-connectivity threshold and must be given explicitly at or above
    it.
    """

    d: int
    delta: Fraction
    max_depth: Optional[int] = None
    node_budget: int = 1_000_000
    time_budget: Optional[float] = None

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"need d >= 3, got {self.d}")
        if not isinstance(self.delta, numbers.Rational):
            raise ValueError(
                f"delta={self.delta!r} must be exact (an int or a Fraction); "
                "a float would make max_depth inexact"
            )
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta={self.delta} outside [0, 1]")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and not self.time_budget > 0:  # nan too
            raise ValueError("time budget must be positive")
        if self.max_depth is None:
            threshold = Fraction(self.d - 1, self.d + 1)
            if self.delta >= threshold:
                raise ValueError(
                    "delta at or above the 2-connectivity threshold needs an "
                    "explicit max_depth"
                )
            object.__setattr__(
                self, "max_depth", math.ceil(Fraction(2) / (threshold - self.delta))
            )
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class AmbiguousClass:
    """One ambiguous isomorphism class: a projection with two minimum preimages."""

    projection: Graph
    preimage_a: tuple
    preimage_b: tuple
    min_size: int
    exponent: Fraction
    canonical: bytes


@dataclass
class SearchReport:
    config: SearchConfig
    ambiguous_found: list = field(default_factory=list)
    nodes_visited: int = 0
    nodes_pruned_by_exponent: int = 0
    nodes_deduped: int = 0
    exhausted: bool = True

    def to_dict(self) -> dict:
        d = self.config.d
        witnesses = []
        for cls in self.ambiguous_found:
            witnesses.append(
                {
                    "projection_n": cls.projection.n,
                    "projection_edges": [list(e) for e in cls.projection.edges],
                    "min_size": cls.min_size,
                    "exponent": str(cls.exponent),
                    "preimage_a_hg": hypergraph_to_text(
                        Hypergraph(cls.projection.n, d, cls.preimage_a)
                    ),
                    "preimage_b_hg": hypergraph_to_text(
                        Hypergraph(cls.projection.n, d, cls.preimage_b)
                    ),
                }
            )
        return {
            "d": d,
            "delta": str(self.config.delta),
            "max_depth": self.config.max_depth,
            "node_budget": self.config.node_budget,
            "ambiguous_classes": witnesses,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned_by_exponent": self.nodes_pruned_by_exponent,
            "nodes_deduped": self.nodes_deduped,
            "exhausted": self.exhausted,
        }


def candidate_neighbors(pattern: PatternHypergraph, d: int) -> list:
    """Candidate hyperedges h that could join the pattern's clique structure,
    up to symmetry of (pattern, h).

    h takes k in [2, d] vertices from the pattern and d - k fresh labels,
    and the k chosen vertices must contain a pair lying inside some clique
    hyperedge of Cli(Proj(pattern)) (h is a 2-neighbor).  Candidates
    already present as cliques are excluded.

    The fresh labels lie in no pattern edge, so (pattern, h) and
    (pattern, h') are isomorphic with h marked exactly when their k-sets
    lie in one orbit of Aut(pattern); both filters above are invariant
    under Aut(pattern).  The result is the lex-least k-set of each orbit,
    k by k in lex order, orbits closed under pattern.generators.

    Only twin-canonical k-sets are walked: twins are vertices with the same
    incident edges, and a twin-canonical set takes the least members of
    each twin class it meets.  Swapping two twins is an automorphism and an
    automorphism maps twin classes onto twin classes, so a k-set's orbit is
    fixed by its count per class, and the generators act on those counts.
    Trading a member for a smaller unused twin makes a k-set lex-smaller,
    so the lex-least k-set of an orbit is twin-canonical: the list and its
    order are those of walking every k-set, at a cost that follows the
    number of twin-canonical k-sets, not C(v, k).
    """
    v, proj = pattern.v, pattern.projection
    cli_pairs = set(edge_pairs(clique_hypergraph(proj, d).edges))
    classes: dict = {}  # twin class id -> the twin class, ascending
    for u, t in enumerate(pattern.tree.twins):
        classes.setdefault(t, []).append(u)
    twins: list = [None] * v  # u -> u's twin class
    rank = [0] * v  # u -> u's index in its class
    for group in classes.values():
        for i, u in enumerate(group):
            twins[u], rank[u] = group, i
    # g maps u's class onto g(u)'s; sending the i-th member of a class to
    # the i-th member of its image maps a twin-canonical set onto the
    # twin-canonical set with g's image counts per class.  Twin swaps act
    # as the identity, and only distinct actions are kept.
    actions: list = []
    for g in pattern.generators:
        action = [twins[g[u]][rank[u]] for u in range(v)]
        if action != list(range(v)) and action not in actions:
            actions.append(action)
    seen: set = set()
    out: list = []
    level: Iterable = [(u,) for u in range(v) if not rank[u]]
    for k in range(2, d + 1):
        # twin-canonical k-sets in lex order: u joins only after its
        # smaller twin, and extending a lex-ordered level keeps the order
        grown = (
            s + (u,)
            for s in level
            for u in range(s[-1] + 1, v)
            if not rank[u] or twins[u][rank[u] - 1] in s
        )
        level = list(grown) if k < d else grown  # the last level is walked once
        for chosen in level:
            if cli_pairs.isdisjoint(combinations(chosen, 2)):
                continue
            if k == d and proj.edge_set.issuperset(combinations(chosen, 2)):
                continue  # already a clique of the projection
            if chosen in seen:
                continue
            orbit = [chosen]
            seen.add(chosen)
            for s in orbit:
                for a in actions:
                    image = tuple(sorted([a[u] for u in s]))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            out.append(chosen + tuple(range(v, v + d - k)))
    return out


@lru_cache(maxsize=4096)
def _growth_covers(d: int, size: int, known: tuple, delta: tuple, budget: int) -> tuple:
    """(family, covers, cut) of growing a candidate of ``size`` vertices,
    known[i] telling whether its i-th pair in combinations order already
    lies in Proj(pattern), with delta given as (numerator, denominator):
    family members are tuples of positions in the sorted candidate, covers
    index the family, and cut is covers_within's count of cut steps."""
    pairs = combinations(range(size), 2)
    universe = [p for p, old in zip(pairs, known) if not old]
    new = set(universe)
    family = [
        s
        for r in range(2, d + 1)
        for s in combinations(range(size), r)
        if any(p in new for p in combinations(s, 2))
    ]
    masks, full = cover_masks(universe, family)
    num, den = delta
    costs = [den * (len(s) - 1) - num for s in family]
    covers, cut = covers_within(full, masks, costs, budget)
    return tuple(family), tuple(covers), cut


def grow(
    pattern: PatternHypergraph, candidates: Sequence[Sequence[int]], d: int, delta: Fraction
) -> tuple:
    """All ways to make each candidate h a clique of the grown pattern's
    projection.

    For every candidate h in order, and every collection I of subsets S of
    h with |S| >= 2 and Proj(S) not inside Proj(pattern), whose pairwise
    projections cover Proj(h) \\ Proj(pattern), emit pattern + {h_i} where
    h_i meets h exactly in S_i and takes fresh labels elsewhere.  Results
    are sorted edge tuples; duplicates up to isomorphism are left to the
    caller.  The collections come from the shared cover enumerator,
    preimage.covers_within.

    With candidates as candidate_neighbors gives them, the results are
    normalized (_normalize) as they stand: the fresh labels of h and of
    each h_i run on from the pattern's, and every fresh vertex of h lies in
    some member S, since its pairs are all new, so the grown support is
    dense.

    Each member S costs |S| - 1 - delta of exponent, scaled to integers by
    delta's denominator den, against a budget of the parent exponent plus
    the fresh vertices of h, that is v*den + e*(num - (d-1)*den) with v the
    vertices of pattern and h together: a child's exponent is never
    negative.  A branch is skipped once the budget left is below the
    cheapest cost per pair of any member (never negative, as delta <= 1)
    times the pairs still uncovered; the number of skipped branches is
    summed over the candidates.
    Returns (children, pruned), children in candidate order.

    The family, the masks and the enumeration read nothing of h but its
    size, which of its pairs lie in Proj(pattern), delta and the integer
    budget, so they are computed once per such shape (_growth_covers) with
    members as positions in sorted h; mapping positions back to h gives the
    same collections in the same order as enumerating h's own subsets.
    """
    edges, n, proj = pattern.edges, pattern.v, pattern.projection.edge_set
    num, den = delta.numerator, delta.denominator
    children: list = []
    pruned = 0
    for h in candidates:
        h = tuple(sorted(h))
        known = tuple(map(proj.__contains__, combinations(h, 2)))
        v = n + len(h) - bisect_left(h, n)  # the vertices of pattern and h together
        budget = v * den + len(edges) * (num - (d - 1) * den)
        family, covers, cut = _growth_covers(d, len(h), known, (num, den), budget)
        pruned += cut
        first = max(h[-1] + 1, n)
        for cover in covers:
            if not cover:
                continue
            nxt = first
            new_edges = list(edges)
            for i in cover:
                s = tuple(h[p] for p in family[i])
                new_edges.append(s + tuple(range(nxt, nxt + d - len(s))))
                nxt += d - len(s)
            children.append(tuple(sorted(new_edges)))
    return children, pruned


def dfs_search(config: SearchConfig) -> SearchReport:
    """Run the ambiguity search; see the module docstring for semantics."""
    d, delta = config.d, Fraction(config.delta)
    threshold = Fraction(d - 1, d + 1)
    report = SearchReport(config=config)
    deadline = (
        time.monotonic() + config.time_budget if config.time_budget else None
    )
    # the stack holds exponents scaled by delta's denominator: v*den + e*rate
    # for v vertices and e edges; below the threshold a child's exponent
    # falls by at least threshold - delta, which is drop / (den*(d+1))
    num, den = delta.numerator, delta.denominator
    rate = num - (d - 1) * den
    drop = (d - 1) * den - (d + 1) * num if delta <= threshold else None
    visited = IsomorphismClasses()
    found: dict = {}
    stack: list = []
    for k in range(2, d):  # two hyperedges sharing k vertices: never isomorphic
        root = PatternHypergraph((tuple(range(d)), tuple(range(d - k, 2 * d - k))))
        visited.add(root)
        stack.append((root, 0, (2 * d - k) * den + 2 * rate))
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            report.exhausted = False
            break
        if report.nodes_visited >= config.node_budget:
            report.exhausted = False
            break
        pattern, depth, exp = stack.pop()
        report.nodes_visited += 1
        if exp >= 0:
            g = pattern.projection
            rep = min_preimage(g, d, cap=2)
            if rep.feasible and rep.ambiguous:
                key = graph_canonical_form(g)
                if key not in found:
                    found[key] = AmbiguousClass(
                        projection=g,
                        preimage_a=rep.min_covers[0],
                        preimage_b=rep.min_covers[1],
                        min_size=rep.min_size,
                        exponent=Fraction(exp, den),
                        canonical=key,
                    )
        if exp <= 0:
            continue  # children can only be smaller; nothing left to certify
        if depth >= config.max_depth:
            # a positive-exponent node we are not allowed to expand
            report.exhausted = False
            continue
        children, pruned = grow(pattern, candidate_neighbors(pattern, d), d, delta)
        report.nodes_pruned_by_exponent += pruned
        if drop is not None:
            limit = (d + 1) * exp - drop
        for child in map(PatternHypergraph, children):
            scaled = child.v * den + child.e * rate
            if drop is not None and (d + 1) * scaled > limit:
                raise RuntimeError(
                    "growth failed to decrease the exponent: "
                    f"{Fraction(exp, den)} -> {Fraction(scaled, den)}"
                )
            if not visited.add(child):
                report.nodes_deduped += 1
                continue
            stack.append((child, depth + 1, scaled))
    report.ambiguous_found = sorted(found.values(), key=lambda c: c.canonical)
    return report
