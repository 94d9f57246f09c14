"""Exact combinatorics for small hypergraph patterns.

Everything here is exact: densities, optimization values and thresholds are
Fractions, isomorphism is decided by a canonical form, and floating point
is banned.  The pieces:

- the pattern type, the search's node record: it memoizes its projection,
  its individualize-and-refine tree and, from one search of that tree,
  its canonical form, a strong generating set of Aut(K) and |Aut(K)|;
- one individualize-and-refine search tree over iterative color
  refinement, giving the canonical form of a colored hypergraph (its least
  leaf), a strong generating set of its automorphism group (pruning the
  tree as it is found) and |Aut(K)| as the product of the basic orbit
  lengths;
- max sub-hypergraph density m(K) = max e'/v' over nonempty hyperedge
  subsets, computed exactly by Dinkelbach iteration over a
  project-selection min cut (shortest augmenting paths);
- the appearance exponent v + e*(delta - d + 1) of a pattern's expected
  count under p = n**(-d+1+delta), and the exact expectation
  C(n, v) * v! / aut(K) * p**e;
- the cover optimizations g_k(delta) and g_0(delta) controlling spurious
  cliques, solved by the preimage engine's cover search
  (`preimage.least_covers`);
- the ambiguous gadget (two equal-size minimum preimages), the
  minimum-preimage failure gadget, and the spurious-clique gadget;
- the feasibility threshold table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import Graph, project_edges
from .preimage import cover_masks, least_covers


class PatternTooLargeError(ValueError):
    """Exact routine invoked beyond its guaranteed-exact size range."""


# ---------------------------------------------------------------------------
# Pattern type
# ---------------------------------------------------------------------------


def _normalize(edges: Iterable[Sequence[int]]) -> tuple:
    """Sorted tuple of sorted edges relabeled densely in sorted vertex order,
    so equal labeled structures normalize equally."""
    raw = [tuple(sorted(e)) for e in edges]
    support = sorted({u for e in raw for u in e})
    relabel = {u: i for i, u in enumerate(support)}
    return tuple(sorted(tuple(relabel[u] for u in e) for e in raw))


class PatternHypergraph:
    """An unlabeled hypergraph pattern: edges over vertices 0..v-1, no isolates.

    Identified with its edge set; equality of canonical forms is equality up
    to isomorphism.  The search's node record: each of the projection (a
    Graph over 0..v-1, on which clique_hypergraph memoizes), the
    individualize-and-refine tree (_Tree) and the canonical form, strong
    generating set and |Aut| of that tree's one search (_search_tree) is
    built on first use and kept.
    """

    __slots__ = ("edges", "v", "_canon", "_aut", "_generators", "_projection", "_tree")

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
        self._aut: Optional[int] = None
        self._generators: Optional[list] = None
        self._projection: Optional[Graph] = None
        self._tree: Optional[_Tree] = None

    @classmethod
    def from_edges(cls, edges: Iterable[Sequence[int]]) -> "PatternHypergraph":
        """Build a pattern from edges over arbitrary labels (relabels densely)."""
        return cls(_normalize(edges))

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def canonical_form(self) -> bytes:
        if self._canon is None:
            self._search()
        return self._canon

    @property
    def generators(self) -> list:
        """A strong generating set of Aut(K) on the base of tree's first
        path, each generator an image list (u maps to g[u])."""
        if self._generators is None:
            self._search()
        return self._generators

    def _search(self) -> None:
        # the canonical form, the generators and |Aut| come from one search
        self._canon, self._generators, self._aut = _search_tree(self.tree)

    @property
    def projection(self) -> Graph:
        if self._projection is None:
            self._projection = Graph(self.v, project_edges(self.edges))
        return self._projection

    @property
    def tree(self) -> _Tree:
        if self._tree is None:
            self._tree = _Tree(self.v, self.edges, [0] * self.e)
        return self._tree

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
# Canonical labeling and automorphisms: one individualize-and-refine tree
# ---------------------------------------------------------------------------


def _incidence(n: int, edges: Sequence[tuple]) -> list:
    """incident[u]: the indices of the edges that contain vertex u."""
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    return incident


def _refine(
    n: int,
    edges: Sequence[tuple],
    edge_colors: Sequence[int],
    incident: Sequence[Sequence[int]],
    colors: list,
) -> list:
    """Refine vertex colors to a stable equitable partition.

    A vertex's signature is its color plus the sorted multiset of its
    incident edges' profiles (edge color, sorted member-color multiset);
    ranks are reassigned by sorted signature, which preserves and refines
    the previous class order.  Profiles and signatures are flat tuples, the
    head followed by the sorted multiset, which compare as the nested pairs
    would.  A vertex alone in its class keeps an empty multiset: the color,
    which no other vertex has, already decides every comparison it enters.

    The colors are first replaced by their dense ranks, which changes no
    comparison.  The loop stops at the first round that splits no class.
    Such a round's ranks are a strictly increasing relabeling of the colors
    it started from, so every signature of a further round would compare as
    in this one and that round would return these ranks unchanged; they are
    the fixed point, returned one round early.  A discrete coloring is a
    fixed point, since every signature is then its color alone: a coloring
    that is or becomes discrete is returned before any profile is built, so
    it never runs a confirming round.

    In the first round from one class, a profile's members all share a
    color, so a profile compares as its (edge color, edge size) pair does;
    when every edge has the same color and size, the signatures rank as the
    degrees.
    """
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = list(map(rank.__getitem__, colors))
    classes = len(rank)
    while classes < n:
        size = [0] * classes
        for c in colors:
            size[c] += 1
        if classes == 1:
            profiles = list(zip(edge_colors, map(len, edges)))
        else:
            color = colors.__getitem__
            profiles = [(ec, *sorted(map(color, e))) for ec, e in zip(edge_colors, edges)]
        if classes == 1 and len(set(profiles)) == 1:
            sigs = list(map(len, incident))
        else:
            profile = profiles.__getitem__
            sigs = [
                (c, *sorted(map(profile, edge_ids))) if size[c] > 1 else (c,)
                for c, edge_ids in zip(colors, incident)
            ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = list(map(rank.__getitem__, sigs))
        if len(rank) == classes:
            break
        classes = len(rank)
    return colors


def stable_colors(edges: Sequence[Sequence[int]]) -> list:
    """The stable refinement coloring of a pattern's vertices (0..v-1).

    Isomorphism-invariant: automorphic vertices always share a color.  Not
    a canonical form by itself; it is the root of _search_tree's tree.
    """
    edges = [tuple(sorted(e)) for e in edges]
    n = max((u for e in edges for u in e), default=-1) + 1
    return _refine(n, edges, [0] * len(edges), _incidence(n, edges), [0] * n)


class _Tree:
    """The individualize-and-refine tree of a colored hypergraph over
    vertices 0..n-1: its first path, a node's children, a node's first
    non-singleton cell and a leaf's code.

    The first path is stored: path runs from the root (the stable
    refinement of the uniform coloring) to the first leaf, each child
    individualizing the least vertex of its parent's first non-singleton
    cell, and base lists those vertices b_0, b_1, ....

    A child that individualizes v in a cell of twins of v (vertices with
    the same incident edges) is not refined.  Every edge that meets such a
    cell contains all of it, so individualizing v changes the profile of
    each such edge in the same injective way; no two signatures equal
    before differ after, and _refine would return the dense ranks of the
    branched coloring from its first round.  The child is built as those
    ranks.
    """

    __slots__ = ("n", "edges", "edge_colors", "incident", "twins", "path", "base")

    def __init__(self, n: int, edges: Sequence[tuple], edge_colors: Sequence[int]):
        self.n, self.edges, self.edge_colors = n, edges, edge_colors
        self.incident = _incidence(n, edges)
        ids: dict = {}  # vertices with the same incident edges are twins
        self.twins = [ids.setdefault(tuple(edge_ids), len(ids)) for edge_ids in self.incident]
        self.path = [_refine(n, edges, edge_colors, self.incident, [0] * n)]
        self.base: list = []
        while (cell := self.first_cell(self.path[-1])) is not None:
            self.base.append(cell[0])
            self.path.append(self.child(self.path[-1], cell, cell[0]))

    def child(self, colors: list, cell: list, v: int) -> list:
        # colors: a stable coloring with dense ranks; cell: v's cell in it
        c = colors[v]
        twins = self.twins
        t = twins[v]
        if all(twins[u] == t for u in cell):
            # a cell of twins: the branched coloring's dense ranks are stable
            ranks = [x + (x >= c) for x in colors]
            ranks[v] = c
            return ranks
        branched = [2 * x for x in colors]
        branched[v] -= 1
        return _refine(self.n, self.edges, self.edge_colors, self.incident, branched)

    @staticmethod
    def first_cell(colors: list) -> Optional[list]:
        # sorted dense ranks read 0, 1, 2, ... up to the first repeated
        # rank: the first index i holding another rank holds i - 1
        c = next((i - 1 for i, x in enumerate(sorted(colors)) if x != i), None)
        return None if c is None else [v for v, x in enumerate(colors) if x == c]

    def encode(self, colors: list) -> bytes:
        """The sorted (edge color, sorted member colors) list: a leaf's code
        when colors is discrete; at the root, its edge profiles."""
        at = colors.__getitem__
        return repr(
            sorted([(ec, tuple(sorted(map(at, e)))) for ec, e in zip(self.edge_colors, self.edges)])
        ).encode()


def _search_tree(tree: _Tree) -> tuple:
    """(canonical form, strong generating set, |Aut|) of the colored
    hypergraph of an individualize-and-refine tree, searched from its
    stored first path.

    A node is a refined coloring, its children individualize each vertex of
    its first non-singleton cell, and a leaf (discrete) is coded by its
    relabeled colored edge list; the canonical form is the least code.  The
    first path individualizes the least vertex of each cell: the base
    b_0, b_1, ....  Levels are searched deepest first, so at level i every
    leaf seen so far lies below b_i.  A cellmate w of b_i is skipped when
    an automorphism found so far maps it to b_i or to a cellmate already
    searched (its subtree is an image of theirs), and a twin of b_i (same
    incident edges) is swapped with it outright.  Otherwise the subtree of
    w is searched, cellmates with identical incident edges pruned to one,
    until a leaf has the code of the least leaf below b_i: the leaf pair
    is an automorphism fixing b_0..b_{i-1} and sending b_i to w.  When
    level i is done the generators generate the stabilizer of
    b_0..b_{i-1}, so |Aut| is the product of the orbit lengths of the b_i.
    """
    n, path, base = tree.n, tree.path, tree.base
    child, first_cell, encode, twins = tree.child, tree.first_cell, tree.encode, tree.twins
    best = (encode(path[-1]), path[-1])

    def explore(colors: list, ref: bytes) -> Optional[list]:
        # the first leaf coded ref below colors, if any; keeps the least leaf
        nonlocal best
        cell = first_cell(colors)
        if cell is None:
            code = encode(colors)
            if code < best[0]:
                best = (code, colors)
            return colors if code == ref else None
        seen: set = set()
        for v in cell:
            if twins[v] not in seen:
                seen.add(twins[v])
                leaf = explore(child(colors, cell, v), ref)
                if leaf is not None:
                    return leaf
        return None

    generators: list = []
    order = 1
    for i in reversed(range(len(base))):
        b, colors = base[i], path[i]
        ref, ref_leaf = best
        searched: list = []
        covered = _orbit(b, generators)
        cell = [w for w, x in enumerate(colors) if x == colors[b]]
        for w in cell:
            if w in covered:
                continue
            if twins[w] == twins[b]:
                image = list(range(n))
                image[b], image[w] = w, b
            else:
                leaf = explore(child(colors, cell, w), ref)
                if leaf is None:
                    searched.append(w)
                    covered |= _orbit(w, generators)
                    continue
                at = [0] * n
                for u, c in enumerate(leaf):
                    at[c] = u
                image = [at[c] for c in ref_leaf]
            generators.append(image)
            covered = set().union(*(_orbit(u, generators) for u in [b] + searched))
        order *= len(_orbit(b, generators))
    return best[0], generators, order


def canonical_form(
    edges: Sequence[Sequence[int]], edge_colors: Optional[Sequence[int]] = None
) -> bytes:
    """A byte string equal for two colored hypergraphs iff they are isomorphic.

    The least leaf code of the individualize-and-refine tree (_search_tree);
    exact, and intended for patterns of at most ~20 vertices.
    """
    edges = [tuple(sorted(e)) for e in edges]
    edge_colors = [0] * len(edges) if edge_colors is None else list(edge_colors)
    if len(edge_colors) != len(edges):
        raise ValueError(f"{len(edge_colors)} edge colors for {len(edges)} edges")
    vertices = sorted({u for e in edges for u in e})
    if not vertices:
        return b"empty"
    relabel = {u: i for i, u in enumerate(vertices)}
    edges = [tuple(relabel[u] for u in e) for e in edges]
    return _search_tree(_Tree(len(vertices), edges, edge_colors))[0]


class IsomorphismClasses:
    """A set of patterns up to isomorphism: add(pattern) files a
    PatternHypergraph and tells whether its isomorphism class is new.

    A pattern is keyed by a hash of its root refinement's class sizes and
    edge profiles (the first node of pattern.tree's path), an isomorphism
    invariant, and each class under a key keeps its first pattern's edges
    and the code of that pattern's first leaf.  Two leaves with one code
    are an explicit isomorphism, so a pattern whose first leaf has a stored
    code is a duplicate; only when the key is met and no code matches are
    canonical forms compared.  Every answer is canonical_form's, at the
    cost of one path of the tree for most patterns; the tree is left on
    the pattern for its later search.
    """

    def __init__(self):
        self._classes: dict = {}  # key -> [(first-leaf code, edges)]

    def add(self, pattern: PatternHypergraph) -> bool:
        tree = pattern.tree
        path = tree.path
        profiles = tree.encode(path[0])  # the first leaf's code when the root is discrete
        classes = self._classes.setdefault(hash((tuple(sorted(path[0])), profiles)), [])
        code = profiles if len(path) == 1 else tree.encode(path[-1])
        if any(known == code for known, _ in classes):
            return False
        if classes:
            form = canonical_form(pattern.edges)
            if any(canonical_form(other) == form for _, other in classes):
                return False
        classes.append((code, pattern.edges))
        return True


def graph_canonical_form(g: Graph) -> bytes:
    """Canonical form of a simple graph, viewed as a 2-uniform pattern.

    Isolated vertices are ignored (patterns are identified by edge sets).
    """
    return canonical_form(g.edges)


def automorphism_count(pattern: PatternHypergraph) -> int:
    """|Aut(K)|: the product of the basic orbit lengths of the strong
    generating set pattern.generators, memoized on the pattern with its
    canonical form.
    """
    if pattern._aut is None:
        pattern._search()
    return pattern._aut


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


def _best_subset_above(edges: Sequence[tuple], lam: Fraction) -> Optional[list]:
    """The least edge-index subset maximizing b*e_S - a*v_S for lam = a/b,
    or None when no subset has positive profit (none beats ratio lam).

    Project-selection min cut: selecting a hyperedge earns b, touching a
    vertex costs a.  A maximum flow is found by shortest augmenting paths;
    the hyperedges still reachable from the source in its residual graph
    form the inclusion-least minimum cut, the intersection of all
    profit-maximizing subsets, which is empty exactly when the best profit
    is 0 (the empty subset's).
    """
    a, b = lam.numerator, lam.denominator
    ne = len(edges)
    node = {u: ne + j for j, u in enumerate(sorted({u for e in edges for u in e}))}
    src, sink = ne + len(node), ne + len(node) + 1
    residual: list = [{} for _ in range(sink + 1)]

    def add(u: int, v: int, c: int) -> None:
        residual[u][v] = c
        residual[v][u] = 0

    for i, e in enumerate(edges):
        add(src, i, b)
        for u in e:
            add(i, node[u], b * ne + 1)  # never saturated
    for x in node.values():
        add(x, sink, a)
    while True:
        prev = {src: src}
        queue = [src]
        for u in queue:
            for v, c in residual[u].items():
                if c > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            subset = [i for i in range(ne) if i in prev]
            return subset or None
        path = [sink]
        while path[-1] != src:
            path.append(prev[path[-1]])
        push = min(residual[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            residual[u][v] -= push
            residual[v][u] += push


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

    The costs, scaled to integers by delta's denominator, are nonnegative
    for delta in [0, 1].  The first cover preimage.least_covers finds is the
    lex-least optimum: for delta < 1 all costs are positive, so no optimum
    contains another and include-before-exclude meets them in lex order;
    at delta = 1 the only zero-cost cover is the set of all universe pairs.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError(f"delta={delta} outside [0, 1]")
    candidates = sorted(candidates)
    masks, full = cover_masks(sorted(universe), candidates)
    scale = delta.denominator
    costs = [scale * (len(s) - 1) - delta.numerator for s in candidates]
    least = least_covers(full, masks, costs, stop_after=1)
    if least is None:
        raise ValueError("universe cannot be covered by the candidates")
    cost, (chosen,) = least
    return Fraction(cost, scale), tuple(candidates[i] for i in chosen)


def g_k(d: int, k: int, delta: Fraction) -> Fraction:
    """Minimum cost sum(|S| - 1 - delta) of covering Proj([d]) minus a
    k-clique by projections of subsets S of [d] with |S| >= 2, S not inside
    the k-set.  Zero when k = d (empty universe).
    """
    if not 2 <= k <= d <= 7:
        raise ValueError(f"need 2 <= k <= d <= 7, got k={k}, d={d}")
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

    g_k is 0 at k = d for the empty universe, but a hyperedge on k = d old
    vertices only matters when at least one of its pairs is still
    uncovered, and covering that pair costs at least 1 - delta; that is
    what the k = d branch adds here.  Below the 2-connectivity threshold
    this minimum is >= (d-1)/(d+1) - delta.  d and delta are checked as
    g_k checks them.
    """
    delta = Fraction(delta)
    terms = [g_k(d, k, delta) + k - d for k in range(2, d + 1)]
    terms[-1] += 1 - delta
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


def threshold_table(d: int) -> dict:
    """Exact rational bounds (lower, upper) on the exact-recovery density
    threshold for d, beside the 2-connectivity, ambiguity-gadget and
    clique-cover densities, as an ordered dict of Fractions."""
    if d == 3:
        lower, upper = Fraction(2, 5), Fraction(2, 5)
    elif d == 4:
        lower, upper = Fraction(1, 2), Fraction(4, 7)
    elif d == 5:
        lower, upper = Fraction(1, 2), Fraction(2, 3)
    elif d >= 6:
        lower, upper = Fraction(d - 3, d), Fraction(d * d - d - 2, d * d - d + 2)
    else:
        raise ValueError(f"need d >= 3, got d={d}")
    return {
        "lower": lower,
        "upper": upper,
        "two_connectivity": Fraction(d - 1, d + 1),
        "ambiguity_gadget": Fraction(2 * d - 4, 2 * d - 1),
        "clique_cover": Fraction(d - 3, d),
    }
