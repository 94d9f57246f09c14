"""Exact combinatorics for small hypergraph patterns.

Everything here is exact: densities, optimization values and thresholds are
Fractions, isomorphism is decided by a canonical form, and floating point
is banned.  The pieces:

- canonical labeling of colored hypergraphs by iterative color refinement
  plus individualize-and-refine backtracking (exact at pattern sizes this
  package cares about, <= ~20 vertices);
- automorphism counting by cell-respecting backtracking, and a strong
  generating set of the automorphism group by individualize-and-refine;
- max sub-hypergraph density m(K) = max e'/v' over nonempty hyperedge
  subsets, computed exactly by Dinkelbach iteration over a
  project-selection min cut;
- the appearance exponent v + e*(delta - d + 1) of a pattern's expected
  count under p = n**(-d+1+delta), and the exact expectation
  C(n, v) * v! / aut(K) * p**e;
- the cover optimizations g_k(delta) and g_0(delta) controlling spurious
  cliques, solved by exact branch and bound;
- the ambiguous gadget (two equal-size minimum preimages), the
  minimum-preimage failure gadget, and the spurious-clique gadget;
- the feasibility threshold table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import Graph, project_edges


class PatternTooLargeError(ValueError):
    """Exact routine invoked beyond its guaranteed-exact size range."""


# ---------------------------------------------------------------------------
# Pattern type
# ---------------------------------------------------------------------------


class PatternHypergraph:
    """An unlabeled hypergraph pattern: edges over vertices 0..v-1, no isolates.

    Identified with its edge set; equality of canonical forms is equality up
    to isomorphism.
    """

    __slots__ = ("edges", "v", "_canon")

    def __init__(self, edges: Iterable[Sequence[int]]):
        canon = sorted({tuple(sorted(e)) for e in edges})
        support = sorted({u for e in canon for u in e})
        if not canon:
            raise ValueError("pattern must have at least one hyperedge")
        if support != list(range(len(support))):
            raise ValueError(
                "vertices must be exactly 0..v-1 with no isolated vertices; "
                "use PatternHypergraph.from_edges to relabel"
            )
        self.edges = tuple(canon)
        self.v = len(support)
        self._canon: Optional[bytes] = None

    @classmethod
    def from_edges(cls, edges: Iterable[Sequence[int]]) -> "PatternHypergraph":
        """Build a pattern from edges over arbitrary labels (relabels densely)."""
        raw = [tuple(sorted(e)) for e in edges]
        support = sorted({u for e in raw for u in e})
        relabel = {u: i for i, u in enumerate(support)}
        return cls([tuple(relabel[u] for u in e) for e in raw])

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def canonical_form(self) -> bytes:
        if self._canon is None:
            self._canon = canonical_form(self.edges)
        return self._canon

    def is_uniform(self, d: int) -> bool:
        return all(len(e) == d for e in self.edges)

    def relabeled(self, perm: Sequence[int]) -> "PatternHypergraph":
        return PatternHypergraph(
            [tuple(sorted(perm[u] for u in e)) for e in self.edges]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PatternHypergraph) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"PatternHypergraph(v={self.v}, e={self.e})"


# ---------------------------------------------------------------------------
# Canonical labeling (colored hyperedges), refinement + backtracking
# ---------------------------------------------------------------------------


def _refine(
    n: int,
    edges: Sequence[tuple],
    edge_colors: Sequence[int],
    incident: Sequence[Sequence[int]],
    colors: list,
) -> list:
    """Refine vertex colors to a stable equitable partition.

    A vertex's signature is its color plus the sorted multiset of
    (edge color, sorted member-color multiset) over incident edges; ranks
    are reassigned by sorted signature, which preserves and refines the
    previous class order, so the loop terminates at a fixed point.
    """
    while True:
        edge_profiles = [
            (edge_colors[ei], tuple(sorted(colors[u] for u in e)))
            for ei, e in enumerate(edges)
        ]
        sigs = [
            (colors[v], tuple(sorted(edge_profiles[ei] for ei in incident[v])))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def stable_colors(edges: Sequence[Sequence[int]]) -> list:
    """The stable refinement coloring of a pattern's vertices (0..v-1).

    Isomorphism-invariant: automorphic vertices always share a color.  Not
    a canonical form by itself; it orders the base of
    automorphism_generators.
    """
    edges = [tuple(sorted(e)) for e in edges]
    n = max((u for e in edges for u in e), default=-1) + 1
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    return _refine(n, edges, [0] * len(edges), incident, [0] * n)


def canonical_form(
    edges: Sequence[Sequence[int]], edge_colors: Optional[Sequence[int]] = None
) -> bytes:
    """A byte string equal for two colored hypergraphs iff they are isomorphic.

    Exact (individualize-and-refine explores every refinement-compatible
    labeling); intended for patterns of at most ~20 vertices.
    """
    edges = [tuple(sorted(e)) for e in edges]
    if edge_colors is None:
        edge_colors = [0] * len(edges)
    else:
        edge_colors = list(edge_colors)
    vertices = sorted({u for e in edges for u in e})
    relabel = {u: i for i, u in enumerate(vertices)}
    edges = [tuple(relabel[u] for u in e) for e in edges]
    n = len(vertices)
    if n == 0:
        return b"empty"
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    best: Optional[bytes] = None

    def encode(colors: Sequence[int]) -> bytes:
        pos = [0] * n
        for i, v in enumerate(sorted(range(n), key=lambda u: colors[u])):
            pos[v] = i
        relabeled = sorted(
            (edge_colors[ei], tuple(sorted(pos[u] for u in e)))
            for ei, e in enumerate(edges)
        )
        return repr(relabeled).encode()

    incidence_key = [frozenset(incident[v]) for v in range(n)]

    def search(colors: list) -> None:
        nonlocal best
        colors = _refine(n, edges, edge_colors, incident, colors)
        cells: dict = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            cand = encode(colors)
            if best is None or cand < best:
                best = cand
            return
        # cellmates with identical incident-edge sets are swapped by an
        # automorphism, so one representative per incidence class suffices
        seen_keys = set()
        for v in target:
            key = incidence_key[v]
            if key in seen_keys:
                continue
            seen_keys.add(key)
            branched = [2 * c for c in colors]
            branched[v] -= 1
            search(branched)

    search([0] * n)
    if best is None:
        raise RuntimeError("canonical_form: the refinement search reached no leaf")
    return best


def graph_canonical_form(g: Graph) -> bytes:
    """Canonical form of a simple graph, viewed as a 2-uniform pattern.

    Isolated vertices are ignored (patterns are identified by edge sets).
    """
    return canonical_form(g.edges)


def automorphism_count(pattern: PatternHypergraph) -> int:
    """|Aut(K)|, by backtracking over the color-refined partition.

    Candidate images of each vertex are its refinement cellmates; partial
    maps are pruned as soon as a fully-mapped hyperedge leaves the edge set.
    """
    n = pattern.v
    edges = pattern.edges
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    colors = _refine(n, edges, [0] * len(edges), incident, [0] * n)
    if math.prod(
        math.factorial(c) for c in _cell_sizes(colors)
    ) > 20_000_000:
        raise PatternTooLargeError(
            "automorphism search space too large after refinement"
        )
    order = sorted(range(n), key=lambda v: (colors[v], v))
    position = {v: i for i, v in enumerate(order)}
    # edges checkable once their last vertex (in assignment order) is mapped
    ready: list = [[] for _ in range(n)]
    for e in edges:
        last = max(e, key=lambda u: position[u])
        ready[position[last]].append(e)
    edge_set = set(edges)
    image = [-1] * n
    used = [False] * n
    count = 0

    def backtrack(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            return
        v = order[i]
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            image[v] = w
            used[w] = True
            if all(
                tuple(sorted(image[u] for u in e)) in edge_set for e in ready[i]
            ):
                backtrack(i + 1)
            used[w] = False
            image[v] = -1

    backtrack(0)
    return count


def _cell_sizes(colors: Sequence[int]) -> list:
    sizes: dict = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    return list(sizes.values())


def automorphism_generators(edges: Sequence[Sequence[int]]) -> list:
    """A strong generating set of Aut(K) for edges over vertices 0..v-1.

    Each generator is an image list g (vertex u maps to g[u]).  The base is
    the vertices sorted by (stable color, label); prefix i is the refined
    coloring with base points b_0..b_{i-1} individualized in turn.  From the
    deepest level up, every cellmate w of b_i in prefix i that is not yet in
    b_i's orbit gets one automorphism fixing b_0..b_{i-1} and sending
    b_i to w, if one exists; the generators found at levels >= i then
    generate the stabilizer of b_0..b_{i-1}, so all of them generate Aut(K).
    """
    edges = [tuple(sorted(e)) for e in edges]
    n = max((u for e in edges for u in e), default=-1) + 1
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    edge_colors = [0] * len(edges)
    edge_set = set(edges)

    def individualize(colors: list, v: int) -> list:
        branched = [2 * c for c in colors]
        branched[v] -= 1
        return _refine(n, edges, edge_colors, incident, branched)

    def isomorphism(left: list, right: list) -> Optional[list]:
        # a map sending every vertex of color c in left to one of color c in
        # right and every edge to an edge, found by individualize-and-refine
        if sorted(left) != sorted(right):
            return None
        cells: dict = {}
        for v, c in enumerate(left):
            cells.setdefault(c, []).append(v)
        target = next((cell for cell in cells.values() if len(cell) > 1), None)
        if target is None:
            at = {c: w for w, c in enumerate(right)}
            image = [at[c] for c in left]
            if all(tuple(sorted(image[u] for u in e)) in edge_set for e in edges):
                return image
            return None
        v = target[0]
        branched = individualize(left, v)
        for w in range(n):
            if right[w] == left[v]:
                image = isomorphism(branched, individualize(right, w))
                if image is not None:
                    return image
        return None

    stable = stable_colors(edges)
    base = sorted(range(n), key=lambda v: (stable[v], v))
    prefixes = [stable]
    while len(set(prefixes[-1])) < n:
        prefixes.append(individualize(prefixes[-1], base[len(prefixes) - 1]))
    generators: list = []
    for i in reversed(range(len(prefixes) - 1)):  # the last prefix is discrete
        b, colors = base[i], prefixes[i]
        orbit = _orbit(b, generators)
        for w in range(n):
            if w in orbit or colors[w] != colors[b]:
                continue
            image = isomorphism(prefixes[i + 1], individualize(colors, w))
            if image is not None:
                generators.append(image)
                orbit = _orbit(b, generators)
    return generators


def _orbit(point: int, generators: Sequence[Sequence[int]]) -> set:
    orbit = {point}
    frontier = [point]
    for u in frontier:
        for g in generators:
            if g[u] not in orbit:
                orbit.add(g[u])
                frontier.append(g[u])
    return orbit


# ---------------------------------------------------------------------------
# Maximum sub-hypergraph density m(K)
# ---------------------------------------------------------------------------


class _Dinic:
    """Integer-capacity max flow on a small graph."""

    def __init__(self, n: int):
        self.n = n
        self.to: list = []
        self.cap: list = []
        self.head: list = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while it[u] < len(self.head[u]):
                    ei = self.head[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] == level[u] + 1:
                        pushed = dfs(v, min(limit, self.cap[ei]))
                        if pushed:
                            self.cap[ei] -= pushed
                            self.cap[ei ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> set:
        seen = {s}
        queue = [s]
        for u in queue:
            for ei in self.head[u]:
                v = self.to[ei]
                if self.cap[ei] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _best_subset_above(edges: Sequence[tuple], lam: Fraction) -> Optional[list]:
    """Edge-index subset maximizing b*e_S - a*v_S for lam = a/b, if positive.

    Project-selection min cut: selecting a hyperedge earns b, touching a
    vertex costs a.  Returns None when no subset beats ratio lam.
    """
    a, b = lam.numerator, lam.denominator
    vertices = sorted({u for e in edges for u in e})
    vidx = {u: i for i, u in enumerate(vertices)}
    ne, nv = len(edges), len(vertices)
    src, sink = ne + nv, ne + nv + 1
    net = _Dinic(ne + nv + 2)
    inf = b * ne + a * nv + 1
    for i, e in enumerate(edges):
        net.add(src, i, b)
        for u in set(e):
            net.add(i, ne + vidx[u], inf)
    for j in range(nv):
        net.add(ne + j, sink, a)
    cut = net.max_flow(src, sink)
    profit = b * ne - cut
    if profit <= 0:
        return None
    side = net.source_side(src)
    return [i for i in range(ne) if i in side]


def max_density(pattern: PatternHypergraph) -> Fraction:
    """m(K): the maximum of e'/v' over nonempty hyperedge subsets, exactly.

    Dinkelbach iteration: starting from the whole pattern's ratio, repeatedly
    find a subset strictly denser than the current ratio via min cut until
    none exists.  Each step strictly increases the ratio, and there are
    finitely many, so this terminates; no practical size cap.
    """
    if pattern.e < 1:
        raise ValueError("pattern needs at least one hyperedge")
    edges = pattern.edges
    lam = Fraction(pattern.e, pattern.v)
    while True:
        subset = _best_subset_above(edges, lam)
        if subset is None:
            return lam
        sub_edges = [edges[i] for i in subset]
        sub_v = len({u for e in sub_edges for u in e})
        lam = Fraction(len(sub_edges), sub_v)


# ---------------------------------------------------------------------------
# Expected appearance counts
# ---------------------------------------------------------------------------


def expected_count_exponent(
    pattern: PatternHypergraph, d: int, delta: Fraction
) -> Fraction:
    """Exponent of n in the expected number of copies: v + e*(delta - d + 1)."""
    if not pattern.is_uniform(d):
        raise ValueError(f"pattern is not {d}-uniform")
    return Fraction(pattern.v) + pattern.e * (Fraction(delta) - d + 1)


def appearance_exponent(
    pattern: PatternHypergraph, d: int, delta: Fraction
) -> Fraction:
    """min over nonempty-edge sub-patterns K' of v' + e'*(delta - d + 1).

    Nonnegative iff p = n**(-d+1+delta) is at or above the pattern's
    appearance threshold n**(-1/m(K)); the whole-pattern exponent alone
    decides this only when the pattern itself attains m(K).  Exhaustive
    over hyperedge subsets, so capped at e <= 24.
    """
    if not pattern.is_uniform(d):
        raise ValueError(f"pattern is not {d}-uniform")
    if pattern.e > 24:
        raise PatternTooLargeError("appearance_exponent enumerates subsets; e <= 24")
    slope = Fraction(delta) - d + 1
    best = None
    for r in range(1, pattern.e + 1):
        for subset in combinations(pattern.edges, r):
            v = len({u for e in subset for u in e})
            value = Fraction(v) + r * slope
            if best is None or value < best:
                best = value
    return best


def exact_expected_count(pattern: PatternHypergraph, n: int, p: Fraction) -> Fraction:
    """Exact expected number of copies of the pattern in H(n, d, p).

    The placement count is C(n, v) * v! / aut(K); each placement is present
    with probability p**e.
    """
    if n < pattern.v:
        return Fraction(0)
    aut = automorphism_count(pattern)
    total = math.comb(n, pattern.v) * math.factorial(pattern.v)
    if total % aut:
        raise RuntimeError(f"automorphism count {aut} does not divide {total} placements")
    return Fraction(total // aut) * Fraction(p) ** pattern.e


# ---------------------------------------------------------------------------
# Cover optimizations g_k and g_0
# ---------------------------------------------------------------------------


def _min_cost_cover(
    universe: Sequence[tuple], candidates: Sequence[tuple], delta: Fraction
) -> tuple:
    """Minimize sum(|S| - 1 - delta) over candidate collections covering the
    universe of pairs; returns (cost, lexicographically least optimal cover).

    Exact branch and bound on the least uncovered pair, with the standard
    forbid-earlier-candidates discipline so each collection is visited once.
    """
    delta = Fraction(delta)
    universe = sorted(universe)
    candidates = sorted(candidates)
    if not universe:
        return Fraction(0), ()
    index = {e: i for i, e in enumerate(universe)}
    masks = []
    costs = []
    for s in candidates:
        m = 0
        for pair in combinations(s, 2):
            bit = index.get(pair)
            if bit is not None:
                m |= 1 << bit
        masks.append(m)
        costs.append(len(s) - 1 - delta)
    full = (1 << len(universe)) - 1
    by_edge: list = [[] for _ in range(len(universe))]
    for ci, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            by_edge[low.bit_length() - 1].append(ci)
            mm ^= low
    unit = min(
        (costs[ci] / masks[ci].bit_count() for ci in range(len(candidates))),
        default=Fraction(0),
    )
    best_cost: Optional[Fraction] = None
    best_witness: Optional[tuple] = None

    def dfs(uncovered: int, chosen: list, cost: Fraction, banned: frozenset) -> None:
        nonlocal best_cost, best_witness
        if best_cost is not None and cost + unit * uncovered.bit_count() > best_cost:
            return
        if uncovered == 0:
            witness = tuple(sorted(candidates[i] for i in chosen))
            if (
                best_cost is None
                or cost < best_cost
                or (cost == best_cost and witness < best_witness)
            ):
                best_cost, best_witness = cost, witness
            return
        edge = (uncovered & -uncovered).bit_length() - 1
        options = [ci for ci in by_edge[edge] if ci not in banned]
        for pos, ci in enumerate(options):
            chosen.append(ci)
            dfs(
                uncovered & ~masks[ci],
                chosen,
                cost + costs[ci],
                banned | frozenset(options[:pos]),
            )
            chosen.pop()

    dfs(full, [], Fraction(0), frozenset())
    if best_cost is None:
        raise ValueError("universe cannot be covered by the candidates")
    return best_cost, best_witness


def g_k(d: int, k: int, delta: Fraction) -> Fraction:
    """Minimum cost sum(|S| - 1 - delta) of covering Proj([d]) minus a
    k-clique by projections of subsets S of [d] with |S| >= 2, S not inside
    the k-set.  Zero when k = d (empty universe).
    """
    if not 2 <= k <= d <= 7:
        raise ValueError(f"need 2 <= k <= d <= 7, got k={k}, d={d}")
    if k == d:
        return Fraction(0)
    u_h = set(range(k))
    universe = [
        pair for pair in combinations(range(d), 2) if not set(pair) <= u_h
    ]
    candidates = [
        s
        for size in range(2, d + 1)
        for s in combinations(range(d), size)
        if not set(s) <= u_h
    ]
    cost, _ = _min_cost_cover(universe, candidates, delta)
    return cost


def g_0(d: int, delta: Fraction) -> tuple:
    """Minimum cost of covering all of Proj([d]) by proper subsets of [d] of
    size >= 2, plus one optimal witness (lexicographically least).
    """
    if not 3 <= d <= 7:
        raise ValueError(f"need 3 <= d <= 7, got d={d}")
    universe = list(combinations(range(d), 2))
    candidates = [
        s for size in range(2, d) for s in combinations(range(d), size)
    ]
    return _min_cost_cover(universe, candidates, delta)


def cover_bound_min(d: int, delta: Fraction) -> Fraction:
    """min over k in [2, d] of (g_k(delta) + k - d), with the k = d branch
    evaluated on a nonempty cover.

    g_k's k = d convention returns 0 for the empty universe, but a
    hyperedge on k = d old vertices only matters when at least one of its
    pairs is still uncovered, and covering that pair costs at least
    1 - delta; that is the value the k = d branch contributes here.  Below
    the 2-connectivity threshold this minimum is >= (d-1)/(d+1) - delta.
    """
    delta = Fraction(delta)
    terms = [g_k(d, k, delta) + k - d for k in range(2, d)]
    terms.append(Fraction(1) - delta)
    return min(terms)


# ---------------------------------------------------------------------------
# Gadget constructions
# ---------------------------------------------------------------------------


def build_ambiguous_gadget(d: int) -> tuple:
    """The 2d-clique gadget whose projection has two minimum preimages.

    Layout (0-indexed): hub u1 = 0, hub u2 = 1, shared block v_1..v_{d-1} =
    2..d, then the w blocks (pendant vertices of u1's side cliques) and the
    z blocks (u2's side cliques: one per v_i through u2, which is what
    makes {u2, v_*} coverable two ways).  Returns
    (preimage1, preimage2, projection) where preimage1 keeps the clique
    {u1, v_*} and preimage2 keeps {u2, v_*}; both have 2d - 1 hyperedges
    and identical projections, and these are the only two minimum
    preimages: every side clique is forced by its pendant vertices, and the
    block edges among v_1..v_{d-1} then need exactly one of the two hub
    cliques.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got d={d}")
    u1, u2 = 0, 1
    vs = list(range(2, d + 1))
    base_w = d + 1
    base_z = base_w + (d - 1) * (d - 2)

    def block(base: int, i: int) -> list:
        return [base + i * (d - 2) + j for j in range(d - 2)]

    side_w = [tuple(sorted([u1, vs[i]] + block(base_w, i))) for i in range(d - 1)]
    side_z = [tuple(sorted([u2, vs[i]] + block(base_z, i))) for i in range(d - 1)]
    h1 = tuple(sorted([u1] + vs))
    h2 = tuple(sorted([u2] + vs))
    preimage1 = PatternHypergraph(side_w + side_z + [h1])
    preimage2 = PatternHypergraph(side_w + side_z + [h2])
    n = base_z + (d - 1) * (d - 2)
    proj1 = project_edges(preimage1.edges)
    proj2 = project_edges(preimage2.edges)
    if proj1 != proj2:
        raise RuntimeError(f"ambiguous gadget for d={d}: the two preimages project differently")
    return preimage1, preimage2, Graph(n, proj1)


def build_map_failure_gadget(d: int) -> PatternHypergraph:
    """One central hyperedge plus C(d, 2) side hyperedges covering each of
    its pairs, so dropping the central hyperedge leaves a smaller preimage
    of the same projection (the minimum-preimage rule then cannot output
    the truth).  v = d + C(d,2)(d-2), e = C(d,2) + 1.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got d={d}")
    edges = [tuple(range(d))]
    nxt = d
    for i, j in combinations(range(d), 2):
        edges.append(tuple(sorted([i, j] + list(range(nxt, nxt + d - 2)))))
        nxt += d - 2
    return PatternHypergraph(edges)


def build_spurious_clique_gadget(d: int) -> tuple:
    """The hypergraph making the clique-cover algorithm overshoot.

    Returns (truth, spurious): truth has the d hyperedges {u_1..u_d} and
    {v, u_i, w_i^(1..d-2)} for i < d; spurious = {v, u_1..u_{d-1}} is a
    d-clique of the projection that is not a hyperedge of the truth.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got d={d}")
    v = 0
    us = list(range(1, d + 1))
    edges = [tuple(us)]
    nxt = d + 1
    for i in range(d - 1):
        edges.append(tuple(sorted([v, us[i]] + list(range(nxt, nxt + d - 2)))))
        nxt += d - 2
    spurious = tuple(sorted([v] + us[: d - 1]))
    return PatternHypergraph(edges), spurious


# ---------------------------------------------------------------------------
# Threshold table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdTable:
    """Exact rational bounds on the exact-recovery density threshold."""

    def bounds(self, d: int) -> tuple:
        if d == 3:
            return Fraction(2, 5), Fraction(2, 5)
        if d == 4:
            return Fraction(1, 2), Fraction(4, 7)
        if d == 5:
            return Fraction(1, 2), Fraction(2, 3)
        if d >= 6:
            return (
                Fraction(d - 3, d),
                Fraction(d * d - d - 2, d * d - d + 2),
            )
        raise ValueError(f"need d >= 3, got d={d}")

    def two_connectivity(self, d: int) -> Fraction:
        return Fraction(d - 1, d + 1)

    def ambiguity_gadget(self, d: int) -> Fraction:
        return Fraction(2 * d - 4, 2 * d - 1)

    def clique_cover(self, d: int) -> Fraction:
        return Fraction(d - 3, d)

    def to_dict(self, d: int) -> dict:
        lower, upper = self.bounds(d)
        return {
            "d": d,
            "lower": str(lower),
            "upper": str(upper),
            "two_connectivity": str(self.two_connectivity(d)),
            "ambiguity_gadget": str(self.ambiguity_gadget(d)),
            "clique_cover": str(self.clique_cover(d)),
        }


def threshold_table() -> ThresholdTable:
    return ThresholdTable()
