"""Core data model: hypergraphs, graphs, seeded generation, projection.

Vertices are dense 0-indexed integers.  Hyperedges are strictly increasing
d-tuples; a hypergraph's edge list is lexicographically sorted and
duplicate free, so two hypergraphs are equal iff (n, d, edges) are equal.
All file formats are 0-indexed and bit-exact canonical (sorted lines).

Density is parameterized as p = n**(-d + 1 + delta) with delta an exact
rational in [0, 1]; p itself is a float.  Everything random is a pure
function of (params, seed); see :mod:`hyperlift.rng` for the stream rules.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .rng import SIGMA_TAG, bernoulli_ranks, substream

Hyperedge = tuple  # strictly increasing d-tuple of vertex ids
Edge = tuple  # (a, b) with a < b


class Hypergraph:
    """An n-vertex d-uniform hypergraph with a canonical sorted edge list."""

    __slots__ = ("n", "d", "edges")

    def __init__(self, n: int, d: int, edges: Iterable[Sequence[int]]):
        if d < 2:
            raise ValueError(f"uniformity d={d} must be >= 2")
        if n < 0:
            raise ValueError(f"vertex count n={n} must be >= 0")
        # dict order keeps sorted input sorted, which sorted() then checks in
        # linear time; the edges are checked a column at a time, and only
        # a failed check walks them one by one to name the first bad edge
        canon = sorted(dict.fromkeys(map(tuple, edges)))
        cols = list(zip(*canon))
        if not (
            set(map(len, canon)) == {d}
            and all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:]))
            and min(cols[0]) >= 0
            and max(cols[-1]) < n
        ):
            for e in canon:
                if len(e) != d:
                    raise ValueError(f"hyperedge {e} is not of size {d}")
                if any(e[i] >= e[i + 1] for i in range(d - 1)):
                    raise ValueError(f"hyperedge {e} is not strictly increasing")
                if e[0] < 0 or e[-1] >= n:
                    raise ValueError(f"hyperedge {e} out of range for n={n}")
        self.n = n
        self.d = d
        self.edges = tuple(canon)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.d == other.d
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, d={self.d}, edges={len(self.edges)})"

    def union(self, other: "Hypergraph") -> "Hypergraph":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("union requires matching (n, d)")
        return Hypergraph(self.n, self.d, self.edges + other.edges)


class Graph:
    """A simple undirected graph with O(1) edge membership and adjacency sets.

    Immutable once built; ``_cliques`` memoizes :func:`clique_hypergraph`
    by d and takes no part in equality or hashing.
    """

    __slots__ = ("n", "edges", "edge_set", "adj", "_cliques")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError(f"vertex count n={n} must be >= 0")
        canon = sorted({(int(a), int(b)) if a < b else (int(b), int(a)) for a, b in edges})
        adj: list[set] = [set() for _ in range(n)]
        for a, b in canon:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a < 0 or b >= n:
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self.edges = tuple(canon)
        self.edge_set = frozenset(canon)
        self.adj = tuple(frozenset(s) for s in adj)
        self._cliques: dict = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    def union(self, other: "Graph") -> "Graph":
        if self.n != other.n:
            raise ValueError("union requires matching n")
        return Graph(self.n, self.edges + other.edges)


@dataclass(frozen=True)
class DensityParams:
    """Random-hypergraph parameters (d, delta, n) with p = n**(-d+1+delta).

    delta is an exact rational in [0, 1]; n >= d >= 2 then gives p <= 1.
    """

    d: int
    delta: Fraction
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d={self.d} must be >= 2")
        if self.n < self.d:
            raise ValueError(f"n={self.n} must be >= d={self.d}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta={self.delta} outside [0, 1]")

    @property
    def p(self) -> float:
        exponent = float(-self.d + 1 + self.delta)
        return self.n**exponent


@dataclass(frozen=True)
class HsbmParams:
    """Hypergraph stochastic block model parameters.

    q1 = alpha * log(n) / C(n-1, d-1) for monochromatic hyperedges,
    q2 = beta  * log(n) / C(n-1, d-1) otherwise (natural log).  Labels sigma
    are balanced: exactly n/2 entries +1.  Requires alpha >= beta >= 0 so
    that 0 <= q2 <= q1 <= 1.
    """

    d: int
    n: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d={self.d} must be >= 2")
        if self.n < self.d or self.n % 2:
            raise ValueError(f"n={self.n} must be even and >= d")
        if self.beta < 0 or self.alpha < self.beta:
            raise ValueError("need alpha >= beta >= 0")
        if self.q1 > 1.0:
            raise ValueError(f"q1={self.q1} exceeds 1")

    @property
    def q1(self) -> float:
        return float(self.alpha) * math.log(self.n) / math.comb(self.n - 1, self.d - 1)

    @property
    def q2(self) -> float:
        return float(self.beta) * math.log(self.n) / math.comb(self.n - 1, self.d - 1)


class SimilarityMatrix:
    """Symmetric pair co-occurrence counts with zero diagonal, stored sparsely.

    Built from a map {(i, j): count} in which either orientation of a pair
    may appear; ``counts`` keeps each pair with i < j and count >= 1, and
    every other entry reads 0.
    """

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Mapping[tuple, int]):
        if n < 0:
            raise ValueError(f"vertex count n={n} must be >= 0")
        sparse: dict = {}
        for (i, j), c in counts.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) out of range for n={n}")
            if i == j:
                if c != 0:
                    raise ValueError(f"diagonal entry at {i} must be 0")
                continue
            a, b = (i, j) if i < j else (j, i)
            if c < 0:
                raise ValueError(f"negative count at ({a},{b})")
            if sparse.setdefault((a, b), c) != c:
                raise ValueError(f"asymmetric at ({a},{b})")
        self.n = n
        self.counts = {pair: c for pair, c in sparse.items() if c}

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.counts.get((i, j) if i < j else (j, i), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimilarityMatrix)
            and self.n == other.n
            and self.counts == other.counts
        )


# ---------------------------------------------------------------------------
# Combinatorial rank -> d-subset (lexicographic order)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _binomial_column(n: int, j: int) -> tuple:
    """(C(m, j) for m in 0..n), built on first use."""
    return tuple(math.comb(m, j) for m in range(n + 1))


def unrank_combination(rank: int, n: int, d: int) -> tuple:
    """The rank-th d-subset of range(n) in lexicographic order.

    With prev the element chosen last and k elements still to choose after
    this one, the combinations whose next element is below v number
    ``top - C(n - v, k + 1)`` with ``top = C(n - prev - 1, k + 1)`` (hockey
    stick).  So with r the rank left, the next element is v = n - m for the
    least m with C(m, k + 1) >= top - r, one bisection of the column
    [C(m, k + 1) for m in 0..n]; the last element is prev + 1 + r.  The
    columns are cached, at most 32 of them, each n + 1 ints: less memory
    than the n adjacency sets of a projection.
    """
    if not 0 <= rank < math.comb(n, d):
        raise ValueError(f"rank {rank} out of range for C({n},{d})")
    if d == 0:
        return ()
    combo = []
    prev = -1
    r = rank
    for k in range(d - 1, 0, -1):
        col = _binomial_column(n, k + 1)
        top = col[n - prev - 1]
        m = bisect_left(col, top - r, k + 1, n - prev)
        r -= top - col[m]
        prev = n - m
        combo.append(prev)
    combo.append(prev + 1 + r)
    return tuple(combo)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_random_hypergraph(
    params: DensityParams, seed: int, p_override: Optional[float] = None
) -> Hypergraph:
    """Sample H(n, d, p): every d-subset included independently with prob p.

    ``p_override`` bypasses the (n, delta) parameterization; it exists for
    boundary tests (p = 0, p = 1).  Identical (params, seed, p_override)
    yield the identical hypergraph.
    """
    p = params.p if p_override is None else p_override
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    total = math.comb(params.n, params.d)
    ranks = bernoulli_ranks(seed, total, p)
    edges = [unrank_combination(r, params.n, params.d) for r in ranks]
    return Hypergraph(params.n, params.d, edges)


def generate_hsbm(params: HsbmParams, seed: int) -> tuple:
    """Sample (hypergraph, sigma) from the block model.

    sigma is a balanced +/-1 tuple drawn from its own substream; hyperedges
    are sampled at rate q1 and thinned to q2 for non-monochromatic ones.
    """
    n, d = params.n, params.d
    q1, q2 = params.q1, params.q2
    labels = [1] * (n // 2) + [-1] * (n // 2)
    substream(seed, SIGMA_TAG).shuffle(labels)
    sigma = tuple(labels)
    if q1 == 0.0:
        return Hypergraph(n, d, []), sigma
    thin = q2 / q1
    edges = []

    def keep(rank: int, u: float) -> bool:
        combo = unrank_combination(rank, n, d)
        mono = all(sigma[v] == sigma[combo[0]] for v in combo)
        if mono or u < thin:
            edges.append(combo)
            return True
        return False

    bernoulli_ranks(seed, math.comb(n, d), q1, keep)
    return Hypergraph(n, d, edges), sigma


# ---------------------------------------------------------------------------
# Projection and friends
# ---------------------------------------------------------------------------


def edge_pairs(edges: Iterable[Sequence[int]]):
    """Every pair of every edge, in edge order, as one iterator; the pairs
    of a sorted edge come out sorted."""
    return chain.from_iterable(map(combinations, edges, repeat(2)))


def project(h: Hypergraph) -> Graph:
    """The graph with an edge for every pair co-occurring in a hyperedge."""
    return Graph(h.n, set(edge_pairs(h.edges)))


def project_edges(edges: Iterable[Sequence[int]]) -> set:
    """Projection of a bare hyperedge collection, as a set of pairs."""
    return set(edge_pairs(map(sorted, edges)))


def clique_hypergraph(g: Graph, d: int) -> Hypergraph:
    """All d-subsets of vertices that are cliques of g, in lexicographic order.

    Each clique is listed from its least vertex u by extension inside common
    neighborhoods (Chiba and Nishizeki 1985): u's higher neighbors are read
    off the sorted edge list, and a prefix ending in v keeps the candidates
    after v that are adjacent to v, one set intersection.  A branch is
    entered only while it holds enough candidates to finish a clique, and
    the last level is emitted in one step, so the cost is output- and
    degree-sensitive rather than O(C(n, d)).  The result is memoized on g
    per d, so every algorithm run on the same graph shares one enumeration.
    """
    if d < 2:
        raise ValueError(f"d={d} must be >= 2")
    if d in g._cliques:
        return g._cliques[d]
    adj = g.adj
    out: list[tuple] = []

    def extend(prefix: tuple, cands: list, need: int) -> None:
        # cands: sorted common neighbors of prefix, all above its last vertex
        if need == 1:
            out.extend(map(prefix.__add__, zip(cands)))
            return
        for i in range(len(cands) - need + 1):
            v = cands[i]
            common = adj[v].intersection(cands[i + 1 :])
            if len(common) >= need - 1:
                extend(prefix + (v,), sorted(common), need - 1)

    for u, pairs in groupby(g.edges, operator.itemgetter(0)):
        extend((u,), list(map(operator.itemgetter(1), pairs)), d - 1)
    g._cliques[d] = Hypergraph(g.n, d, out)
    return g._cliques[d]


def similarity_matrix(h: Hypergraph) -> SimilarityMatrix:
    """W[i][j] = number of hyperedges containing both i and j."""
    return SimilarityMatrix(h.n, Counter(edge_pairs(h.edges)))


def support_graph(w: SimilarityMatrix) -> Graph:
    """Edge (i, j) present iff W[i][j] >= 1."""
    return Graph(w.n, w.counts)


def densify_reduction(
    g1: Graph, params1: DensityParams, delta2: Fraction, seed: int
) -> tuple:
    """Lift a sparse projected graph to a denser one by unioning fresh noise.

    Samples H3 at rate p3 solving p1 + (1 - p1) * p3 = p2 and returns
    (g1 union Proj(H3), H3); subtracting H3's hyperedges from a
    reconstruction of the union recovers the original hypergraph whenever
    the two are hyperedge-disjoint.
    """
    if delta2 <= params1.delta:
        raise ValueError(f"delta2={delta2} must exceed delta1={params1.delta}")
    params2 = DensityParams(params1.d, delta2, params1.n)
    p1, p2 = params1.p, params2.p
    p3 = (p2 - p1) / (1.0 - p1)
    h3 = generate_random_hypergraph(params1, seed, p_override=p3)
    return g1.union(project(h3)), h3


# ---------------------------------------------------------------------------
# File formats (.hg / .el / .sim): bit-exact canonical, 0-indexed
# ---------------------------------------------------------------------------


class FormatError(ValueError):
    """Malformed .hg / .el / .sim text; the message names the line."""


def _int_rows(text: str, header_width: int) -> list[tuple[int, tuple[int, ...]]]:
    """(line number, integers) for each non-blank line, header checked."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        try:
            rows.append((lineno, tuple(map(int, fields))))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in {line.strip()!r}") from None
    if not rows:
        raise FormatError("line 1: empty input, expected a header line")
    lineno, header = rows[0]
    if len(header) != header_width:
        raise FormatError(f"line {lineno}: header needs {header_width} integers, got {len(header)}")
    if header[-1] < 0:
        raise FormatError(f"line {lineno}: vertex count n={header[-1]} must be >= 0")
    return rows


def _check_width(lineno: int, values: tuple[int, ...], width: int) -> None:
    if len(values) != width:
        raise FormatError(f"line {lineno}: expected {width} integers, got {len(values)}")


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.d} {h.n}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    rows = _int_rows(text, 2)
    d, n = rows[0][1]
    if d < 2:
        raise FormatError(f"line {rows[0][0]}: uniformity d={d} must be >= 2")
    for lineno, e in rows[1:]:
        _check_width(lineno, e, d)
        if list(e) != sorted(set(e)) or e[0] < 0 or e[-1] >= n:
            raise FormatError(f"line {lineno}: hyperedge {e} not strictly increasing in 0..{n - 1}")
    return Hypergraph(n, d, [e for _, e in rows[1:]])


def graph_to_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    rows = _int_rows(text, 1)
    (n,) = rows[0][1]
    for lineno, e in rows[1:]:
        _check_width(lineno, e, 2)
        if not -1 < min(e) < max(e) < n:
            raise FormatError(f"line {lineno}: edge {e} needs two distinct vertices in 0..{n - 1}")
    return Graph(n, [e for _, e in rows[1:]])


def similarity_to_text(w: SimilarityMatrix) -> str:
    lines = [str(w.n)]
    lines.extend(f"{i} {j} {c}" for (i, j), c in sorted(w.counts.items()))
    return "\n".join(lines) + "\n"


def similarity_from_text(text: str) -> SimilarityMatrix:
    rows = _int_rows(text, 1)
    (n,) = rows[0][1]
    counts: dict = {}
    for lineno, row in rows[1:]:
        _check_width(lineno, row, 3)
        i, j, c = row
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"line {lineno}: pair ({i},{j}) out of range for n={n}")
        if c < 0 or (i == j and c != 0):
            raise FormatError(f"line {lineno}: count {c} at ({i},{j}): need >= 0, and 0 if i = j")
        counts[(i, j) if i <= j else (j, i)] = c  # a later line overrides
    return SimilarityMatrix(n, counts)


def write_text(path, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def read_text(path) -> str:
    with open(path) as f:
        return f.read()
