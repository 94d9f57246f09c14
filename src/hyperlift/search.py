"""Isomorphism-pruned DFS search certifying (non-)existence of ambiguous graphs.

The search walks hypergraph patterns K reachable by growth steps from two
overlapping hyperedges.  At each pattern it asks the exact preimage engine
whether Proj(K) is ambiguous (two minimum preimages), and it prunes a
branch once the appearance exponent v + e*(delta - d + 1) drops to zero,
because every growth step strictly decreases the exponent below the
2-connectivity threshold.  A pattern is only *reported* when its exponent
is nonnegative: patterns with negative exponent appear with vanishing
probability and say nothing about the recovery threshold.

A report with exhausted=True is a certificate: every pattern with
2-connected clique structure and nonnegative exponent was checked up to
isomorphism.  Budget-limited runs set exhausted=False and report whatever
was found so far.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

# stable_colors is not called here; perfbench/layers.py traces
# search.stable_colors by name, so the name stays importable
from .census import (
    automorphism_generators,
    canonical_form,
    graph_canonical_form,
    stable_colors,
)
from .core import Graph, clique_hypergraph, hypergraph_to_text, Hypergraph, project_edges
from .preimage import min_preimage

Pattern = tuple  # tuple of sorted d-tuples over dense vertex labels


def pattern_exponent(edges: Sequence[tuple], d: int, delta: Fraction) -> Fraction:
    """Exponent of the expected appearance count of the pattern."""
    v = len({u for e in edges for u in e})
    return Fraction(v) + len(edges) * (Fraction(delta) - d + 1)


def _normalize(edges) -> Pattern:
    """Sorted, densely-relabeled edge tuple (labels follow first appearance
    in sorted vertex order, so equal labeled structures normalize equally)."""
    raw = sorted(tuple(sorted(e)) for e in edges)
    support = sorted({u for e in raw for u in e})
    relabel = {u: i for i, u in enumerate(support)}
    return tuple(sorted(tuple(sorted(relabel[u] for u in e)) for e in raw))


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one ambiguity search.

    max_depth counts growth steps from a root; the default
    ceil(2 / ((d-1)/(d+1) - delta)) is the provable sufficient depth below
    the 2-connectivity threshold and must be given explicitly at or above
    it.  strict_neighbors selects whether a candidate hyperedge must share
    two vertices with a single clique hyperedge (default) or merely with
    the pattern's vertex set (looser; for sensitivity runs).
    """

    d: int
    delta: Fraction
    max_depth: Optional[int] = None
    node_budget: int = 1_000_000
    time_budget: Optional[float] = None
    dedup: bool = True
    strict_neighbors: bool = True
    include_single_root: bool = False
    cover_cap: int = 4

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"need d >= 3, got {self.d}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta={self.delta} outside [0, 1]")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
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
    source_pattern: Pattern


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


def candidate_neighbors(
    pattern: Sequence[tuple], d: int, strict: bool = True
) -> list:
    """Candidate hyperedges h that could join the pattern's clique structure,
    up to symmetry of (pattern, h).

    h takes k in [2, d] vertices from the pattern and d - k fresh labels;
    under the strict rule (the 2-neighbor definition) the k chosen vertices
    must contain a pair lying inside some clique hyperedge of
    Cli(Proj(pattern)); the loose rule only requires k >= 2.  Candidates
    already present as cliques are excluded.

    The fresh labels lie in no pattern edge, so (pattern, h) and
    (pattern, h') are isomorphic with h marked exactly when their k-sets
    lie in one orbit of Aut(pattern); both filters above are invariant
    under Aut(pattern).  The result is the first k-set of each orbit in
    combinations order, orbits closed under automorphism_generators.
    """
    edges = [tuple(sorted(e)) for e in pattern]
    support = sorted({u for e in edges for u in e})
    v = len(support)
    if support != list(range(v)):
        raise ValueError("pattern labels must be dense 0..v-1")
    proj = project_edges(edges)
    cli = clique_hypergraph(Graph(v, proj), d).edges
    cli_pairs = set()
    for c in cli:
        cli_pairs.update(combinations(c, 2))
    generators = automorphism_generators(edges)
    seen: set = set()
    out: list = []
    for k in range(2, d + 1):
        for chosen in combinations(range(v), k):
            if strict:
                if not any(p in cli_pairs for p in combinations(chosen, 2)):
                    continue
            if k == d and all(p in proj for p in combinations(chosen, 2)):
                continue  # already a clique of the projection
            if chosen in seen:
                continue
            orbit = [chosen]
            seen.add(chosen)
            for s in orbit:
                for g in generators:
                    image = tuple(sorted(g[u] for u in s))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            out.append(chosen + tuple(range(v, v + d - k)))
    return out


def grow(
    pattern: Sequence[tuple],
    h: Sequence[int],
    d: int,
    delta: Optional[Fraction] = None,
    min_child_exponent: Optional[Fraction] = None,
) -> tuple:
    """All ways to make candidate h a clique of the grown pattern's projection.

    For every collection I of subsets S of h with |S| >= 2 and Proj(S) not
    inside Proj(pattern), whose pairwise projections cover
    Proj(h) \\ Proj(pattern), emit pattern + {h_i} where h_i meets h exactly
    in S_i and takes fresh labels elsewhere.  Results are normalized
    (densely relabeled); duplicates up to isomorphism are left to the
    caller.

    When delta and min_child_exponent are given, collections whose every
    completion falls below that exponent are skipped; the number of such
    skipped branches is returned alongside.  Returns (children, pruned).
    """
    edges = [tuple(sorted(e)) for e in pattern]
    support = {u for e in edges for u in e}
    h = tuple(sorted(h))
    proj = project_edges(edges)
    universe = [p for p in combinations(h, 2) if p not in proj]
    family = []
    for size in range(2, d + 1):
        for s in combinations(h, size):
            if any(p not in proj for p in combinations(s, 2)):
                family.append(s)
    bit = {p: i for i, p in enumerate(universe)}
    masks = []
    for s in family:
        m = 0
        for p in combinations(s, 2):
            if p in bit:
                m |= 1 << bit[p]
        masks.append(m)
    full = (1 << len(universe)) - 1
    suffix = [0] * (len(family) + 1)
    for i in range(len(family) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    fresh_bonus = len(set(h) - support)  # the most new vertices h itself brings
    # exponent pruning in integers scaled by delta's denominator
    per_member = None
    floor_scaled = 0
    if delta is not None:
        delta = Fraction(delta)
        scale = delta.denominator
        a = delta.numerator
        parent_exp = pattern_exponent(edges, d, delta)
        per_member = [a + scale * (1 - len(s)) for s in family]
        floor_scaled = math.ceil(Fraction(min_child_exponent) * scale)
    children: list = []
    pruned = 0
    chosen: list = []

    def emit() -> None:
        nxt = max(max(h) + 1, max(support) + 1)
        new_edges = list(edges)
        for i in chosen:
            s = family[i]
            extra = tuple(range(nxt, nxt + d - len(s)))
            nxt += d - len(s)
            new_edges.append(tuple(sorted(s + extra)))
        children.append(_normalize(new_edges))

    def dfs(i: int, covered: int, bound_scaled: int) -> None:
        nonlocal pruned
        if per_member is not None and bound_scaled < floor_scaled:
            pruned += 1
            return
        if i == len(family):
            if covered == full and chosen:
                emit()
            return
        if covered | suffix[i] != full:
            return
        chosen.append(i)
        dfs(
            i + 1,
            covered | masks[i],
            bound_scaled + per_member[i] if per_member is not None else bound_scaled,
        )
        chosen.pop()
        dfs(i + 1, covered, bound_scaled)

    if per_member is not None:
        start = int((parent_exp + fresh_bonus) * scale)
    else:
        start = 0
    dfs(0, 0, start)
    return children, pruned


def _check_ambiguous(pattern: Pattern, d: int, cap: int):
    """Run the preimage engine on Proj(pattern); return a report or None."""
    v = len({u for e in pattern for u in e})
    g = Graph(v, project_edges(pattern))
    rep = min_preimage(g, d, vertex_bound=max(64, v), cap=max(2, cap))
    if rep.feasible and rep.ambiguous:
        return g, rep
    return None


def dfs_search(config: SearchConfig) -> SearchReport:
    """Run the ambiguity search; see the module docstring for semantics."""
    d, delta = config.d, Fraction(config.delta)
    threshold = Fraction(d - 1, d + 1)
    report = SearchReport(config=config)
    deadline = (
        time.monotonic() + config.time_budget if config.time_budget else None
    )
    roots: list = []
    if config.include_single_root:
        roots.append((tuple(range(d)),))
    for k in range(2, d):
        e1 = tuple(range(d))
        e2 = tuple(range(d - k, 2 * d - k))
        roots.append(_normalize([e1, e2]))
    visited: set = set()
    found: dict = {}
    stack: list = []
    for root in roots:
        if config.dedup:
            key = canonical_form(root)
            if key in visited:
                report.nodes_deduped += 1
                continue
            visited.add(key)
        stack.append((root, 0))
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            report.exhausted = False
            break
        if report.nodes_visited >= config.node_budget:
            report.exhausted = False
            break
        pattern, depth = stack.pop()
        report.nodes_visited += 1
        exp = pattern_exponent(pattern, d, delta)
        if exp >= 0:
            hit = _check_ambiguous(pattern, d, config.cover_cap)
            if hit is not None:
                g, rep = hit
                key = graph_canonical_form(g)
                if key not in found:
                    recheck = min_preimage(g, d, vertex_bound=max(64, g.n), cap=2)
                    if not (recheck.ambiguous and recheck.min_size == rep.min_size):
                        raise RuntimeError("ambiguity witness failed re-verification")
                    found[key] = AmbiguousClass(
                        projection=g,
                        preimage_a=rep.min_covers[0],
                        preimage_b=rep.min_covers[1],
                        min_size=rep.min_size,
                        exponent=exp,
                        canonical=key,
                        source_pattern=pattern,
                    )
        if exp <= 0:
            continue  # children can only be smaller; nothing left to certify
        if depth >= config.max_depth:
            # a positive-exponent node we are not allowed to expand
            report.exhausted = False
            continue
        for h in candidate_neighbors(pattern, d, strict=config.strict_neighbors):
            children, pruned = grow(
                pattern, h, d, delta=delta, min_child_exponent=Fraction(0)
            )
            report.nodes_pruned_by_exponent += pruned
            for child in children:
                child_exp = pattern_exponent(child, d, delta)
                if delta <= threshold and child_exp > exp - (threshold - delta):
                    raise RuntimeError(
                        f"growth failed to decrease the exponent: {exp} -> {child_exp}"
                    )
                if child_exp < 0:
                    report.nodes_pruned_by_exponent += 1
                    continue
                if config.dedup:
                    key = canonical_form(child)
                    if key in visited:
                        report.nodes_deduped += 1
                        continue
                    visited.add(key)
                stack.append((child, depth + 1))
    report.ambiguous_found = sorted(found.values(), key=lambda c: c.canonical)
    return report
