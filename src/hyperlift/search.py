"""Isomorphism-pruned DFS search certifying (non-)existence of ambiguous graphs.

The search walks hypergraph patterns K reachable by growth steps from two
overlapping hyperedges, one pattern per isomorphism class; a step makes a
2-neighbor, a candidate sharing two vertices with one clique hyperedge, a
clique of the projection.  The candidates are walked only while the
growth budget can pay for their new pairs (candidate_neighbors), so every
candidate listed is one whose cover search grow runs past its root.  A
grown child is a duplicate when the first leaf of the individualize-and-
refine tree of its twin quotient (one vertex per class of vertices with
the same incident edges, colored by the class size) has the code of a
stored class under the same refinement invariant
(census.IsomorphismClasses); canonical forms are compared only when the
invariant matches and no code does.

At each pattern K with a nonnegative exponent the search decides whether
Proj(K) is ambiguous (two minimum preimages).  K is itself a preimage, so
when each of its hyperedges owns a private pair, a pair of Proj(K) that no
other d-clique covers, every preimage contains K and K is the unique
minimum: the private-pair certificate (_owns_private_pairs).  Only a
pattern without it builds its projection and goes to the exact preimage
engine; the certificate, the candidate walk and grow read the N[u]
bitmasks of the node record (census.PatternHypergraph).

The search prunes a branch once the appearance exponent
v + e*(delta - d + 1) drops to zero, because every growth step strictly
decreases the exponent below the 2-connectivity threshold.  A pattern is
only *reported* when its exponent is nonnegative: patterns with negative
exponent appear with vanishing probability and say nothing about the
recovery threshold.

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
from typing import Optional, Sequence

# canonical_form, stable_colors and clique_hypergraph are not called here;
# perfbench/layers.py traces them as search.canonical_form,
# search.stable_colors and search.clique_hypergraph by name, so the names
# stay importable
from .census import (
    IsomorphismClasses,
    PatternHypergraph,
    canonical_form,
    graph_canonical_form,
    stable_colors,
)
from .core import Graph, clique_hypergraph, hypergraph_to_text, Hypergraph, project_edges
from .preimage import covers_within, cover_masks
from .reconstruct import min_preimage


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one ambiguity search.

    max_depth counts growth steps from a root; the default
    ceil(2 / ((d-1)/(d+1) - delta)) is the provable sufficient depth below
    the 2-connectivity threshold and must be given explicitly at or above
    it.  d is at most 12: one growth step at a root lists every subset of
    a d-set before any budget is checked, and its cost doubles with d.
    """

    d: int
    delta: Fraction
    max_depth: Optional[int] = None
    node_budget: int = 1_000_000
    time_budget: Optional[float] = None

    def __post_init__(self):
        if not 3 <= self.d <= 12:
            raise ValueError(f"need 3 <= d <= 12, got {self.d}")
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


def candidate_neighbors(pattern: PatternHypergraph, d: int, delta: Fraction) -> list:
    """Candidate hyperedges h that could join the pattern's clique structure,
    up to symmetry of (pattern, h), leaving out those that grow(pattern,
    [h], d, delta) cuts at the root of its cover search.

    h takes k in [2, d] vertices from the pattern and d - k fresh labels,
    and the k chosen vertices must contain a pair lying inside some clique
    hyperedge of Cli(Proj(pattern)) (h is a 2-neighbor).  Candidates
    already present as cliques are excluded.  In a d-uniform pattern every
    pair of Proj(pattern) lies in a hyperedge, itself a d-clique, so a
    2-neighbor's k-set is one holding a pair of Proj(pattern), read off the
    N[u] bitmasks pattern.closed.

    The fresh labels lie in no pattern edge, so (pattern, h) and
    (pattern, h') are isomorphic with h marked exactly when their k-sets
    lie in one orbit of Aut(pattern); both filters above are invariant
    under Aut(pattern).  The result is the lex-least k-set of each orbit,
    k by k in lex order.

    Only twin-canonical k-sets are walked: twins are vertices with the same
    incident edges, and a twin-canonical set takes the least members of
    each twin class it meets.  Swapping two twins is an automorphism and an
    automorphism maps twin classes onto twin classes, so a k-set's orbit is
    fixed by its count per class, and the orbits are closed under
    pattern.generators, which act on the classes and so on those counts.
    Trading a member for a smaller unused twin makes a k-set lex-smaller,
    so the lex-least k-set of an orbit is twin-canonical: the list and its
    order are those of walking every k-set, at a cost that follows the
    number of twin-canonical k-sets, not C(v, k).

    Only k-sets that can afford their new pairs are walked (the growth
    budget).  A member S of a cover costs |S| - 1 - delta and covers at
    most C(|S|, 2) pairs, so no pair costs less than r, the least of
    (s - 1 - delta) / C(s, 2) over s = 2..d, and grow's cover search,
    whose per-pair bound is at least r, lists nothing for a candidate
    whose budget (the pattern's exponent plus its d - k fresh vertices)
    is below r times its new pairs: the q pairs of its k-set outside
    Proj(pattern) and the C(d, 2) - C(k, 2) pairs through its fresh
    vertices.  q is invariant under Aut(pattern) and only grows as a set
    is extended, so a partial set is dropped once no size it can reach
    affords its q, and the list is the unbounded one less those
    candidates, in the same order.
    """
    v, adj = pattern.v, pattern.closed
    num, den = delta.numerator, delta.denominator
    rate = min(Fraction(den * (s - 1) - num, s * (s - 1) // 2) for s in range(2, d + 1))
    exponent = v * den + pattern.e * (num - (d - 1) * den)
    room = [-1] * (d + 2)  # room[k]: the most new pairs a k-set may hold
    for k in range(2, d + 1):
        budget = exponent + (d - k) * den
        if budget >= 0:
            fresh = (d * (d - 1) - k * (k - 1)) // 2
            room[k] = budget // rate - fresh if rate else math.inf
    reach = room[:]  # reach[k]: the most new pairs a set extended to k or more may hold
    for k in range(d - 1, 1, -1):
        reach[k] = max(reach[k], reach[k + 1])
    members: list = [[] for _ in pattern.sizes]  # class id -> its vertices, ascending
    rank = [0] * v  # u -> u's index in its class
    for u, t in enumerate(pattern.twins):
        rank[u] = len(members[t])
        members[t].append(u)
    after = [1 << members[t][rank[u] - 1] if rank[u] else 0 for u, t in enumerate(pattern.twins)]
    # g maps class t onto class g[t]; sending the i-th member of a class to
    # the i-th member of its image maps a twin-canonical set onto the
    # twin-canonical set with g's image counts per class
    actions = [
        [members[g[t]][rank[u]] for u, t in enumerate(pattern.twins)] for g in pattern.generators
    ]
    seen: set = set()
    out: list = []
    # (k-set, its vertex mask, its pairs outside Proj(pattern))
    level: list = [((u,), 1 << u, 0) for u in range(v) if not rank[u]]
    for k in range(2, d + 1):
        # twin-canonical k-sets in lex order: u joins only after its
        # smaller twin, and extending a lex-ordered level keeps the order
        grown: list = []
        for s, mask, q in level:
            for u in range(s[-1] + 1, v):
                if mask & after[u] != after[u]:
                    continue
                outside = q + k - 1 - (adj[u] & mask).bit_count()
                if outside > reach[k]:
                    continue
                chosen = s + (u,)
                if k < d and outside <= reach[k + 1]:
                    grown.append((chosen, mask | 1 << u, outside))
                if outside > room[k] or outside == k * (k - 1) // 2 or chosen in seen:
                    continue  # unaffordable, no pair of Proj(pattern), or a known orbit
                if k == d and not outside:
                    continue  # already a clique of the projection
                orbit = [chosen]
                seen.add(chosen)
                for t in orbit:
                    for a in actions:
                        image = tuple(sorted([a[w] for w in t]))
                        if image not in seen:
                            seen.add(image)
                            orbit.append(image)
                out.append(chosen + tuple(range(v, v + d - k)))
        level = grown
    return out


@lru_cache(maxsize=4096)
def _growth_covers(d: int, size: int, known: tuple, delta: tuple, budget: int) -> tuple:
    """(family, covers) of growing a candidate of ``size`` vertices,
    known[i] telling whether its i-th pair in combinations order already
    lies in Proj(pattern), with delta given as (numerator, denominator):
    family members are tuples of positions in the sorted candidate, and
    covers index the family."""
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
    return tuple(family), tuple(covers_within(full, masks, costs, budget))


def grow(
    pattern: PatternHypergraph, candidates: Sequence[Sequence[int]], d: int, delta: Fraction
) -> list:
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
    negative.  Returns the children in candidate order.

    The family, the masks and the enumeration read nothing of h but its
    size, which of its pairs lie in Proj(pattern), delta and the integer
    budget, so they are computed once per such shape (_growth_covers) with
    members as positions in sorted h; mapping positions back to h gives the
    same collections in the same order as enumerating h's own subsets.
    """
    edges, n, closed = pattern.edges, pattern.v, pattern.closed
    num, den = delta.numerator, delta.denominator
    children: list = []
    for h in candidates:
        h = tuple(sorted(h))
        known = tuple([b < n and closed[a] >> b & 1 == 1 for a, b in combinations(h, 2)])
        v = n + len(h) - bisect_left(h, n)  # the vertices of pattern and h together
        budget = v * den + len(edges) * (num - (d - 1) * den)
        family, covers = _growth_covers(d, len(h), known, (num, den), budget)
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
    return children


def _owns_private_pairs(pattern: PatternHypergraph, d: int) -> bool:
    """True when every hyperedge e of the pattern has a pair {a, b} with
    N[a] & N[b] = e, N[u] being the union of the hyperedges through u.

    A d-clique of Proj(pattern) through a and b lies in N[a] & N[b], which
    always contains e, so a meet of d vertices leaves e the only d-clique
    covering that pair, and e lies in every preimage of Proj(pattern)."""
    closed = pattern.closed
    for e in pattern.edges:
        for a, b in combinations(e, 2):
            if (closed[a] & closed[b]).bit_count() == d:
                break
        else:
            return False
    return True


def dfs_search(config: SearchConfig) -> SearchReport:
    """Run the ambiguity search; see the module docstring for semantics.

    nodes_pruned_by_exponent counts the search tree's leaves: the visited
    nodes with exponent <= 0, never expanded, and the expanded nodes that
    grow gives no child, so a pruning inside grow that keeps every child
    leaves it as it is.
    """
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
        if exp >= 0 and not _owns_private_pairs(pattern, d):
            g = Graph(pattern.v, project_edges(pattern.edges))
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
            report.nodes_pruned_by_exponent += 1
            continue  # children can only be smaller; nothing left to certify
        if depth >= config.max_depth:
            # a positive-exponent node we are not allowed to expand
            report.exhausted = False
            continue
        children = grow(pattern, candidate_neighbors(pattern, d, delta), d, delta)
        report.nodes_pruned_by_exponent += not children
        if drop is not None:
            limit = (d + 1) * exp - drop
        for child in map(PatternHypergraph.from_normalized, children):
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
