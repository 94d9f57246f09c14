"""Core data model: hypergraphs, graphs, seeded generation, projection.

Vertices are dense 0-indexed integers.  Hyperedges are strictly increasing
d-tuples; a hypergraph's edge list is lexicographically sorted and
duplicate free, so two hypergraphs are equal iff (n, d, edges) are equal.
All file formats are 0-indexed and bit-exact canonical (sorted lines).

Density is parameterized as p = c * n**(-d + 1 + delta) with delta an exact
rational in [0, 1]; p itself is a float.  Everything random is a pure
function of (params, seed); see :mod:`hyperlift.rng` for the stream rules.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .rng import SIGMA_TAG, bernoulli_ranks, substream, thinned_ranks

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
        canon = sorted({tuple(e) for e in edges})
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

    def __contains__(self, e) -> bool:
        e = tuple(e)
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, d={self.d}, edges={len(self.edges)})"

    def union(self, other: "Hypergraph") -> "Hypergraph":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("union requires matching (n, d)")
        return Hypergraph(self.n, self.d, self.edges + other.edges)

    def vertex_support(self) -> set:
        return {v for e in self.edges for v in e}


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

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edge_set

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
    """Random-hypergraph parameters (d, delta, n) with p = c * n**(-d+1+delta).

    delta is an exact rational in [0, 1]; the optional constant c (default 1)
    exists for sensitivity experiments only and does not change exponents.
    """

    d: int
    delta: Fraction
    n: int
    c: Fraction = Fraction(1)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d={self.d} must be >= 2")
        if self.n < self.d:
            raise ValueError(f"n={self.n} must be >= d={self.d}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta={self.delta} outside [0, 1]")
        if self.c <= 0:
            raise ValueError("constant c must be positive")
        if self.p > 1.0:
            raise ValueError(f"p={self.p} exceeds 1 (reduce c or delta)")

    @property
    def p(self) -> float:
        exponent = float(-self.d + 1 + self.delta)
        return float(self.c) * self.n**exponent


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
    """Symmetric pair co-occurrence counts with zero diagonal."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Sequence[Sequence[int]]):
        if len(counts) != n or any(len(row) != n for row in counts):
            raise ValueError("counts must be n x n")
        for i in range(n):
            if counts[i][i] != 0:
                raise ValueError(f"diagonal entry at {i} must be 0")
            for j in range(i + 1, n):
                if counts[i][j] != counts[j][i]:
                    raise ValueError(f"asymmetric at ({i},{j})")
                if counts[i][j] < 0:
                    raise ValueError(f"negative count at ({i},{j})")
        self.n = n
        self.counts = tuple(tuple(row) for row in counts)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.counts[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimilarityMatrix)
            and self.n == other.n
            and self.counts == other.counts
        )


# ---------------------------------------------------------------------------
# Combinatorial rank <-> d-subset (lexicographic order)
# ---------------------------------------------------------------------------


def unrank_combination(rank: int, n: int, d: int) -> tuple:
    """The rank-th d-subset of range(n) in lexicographic order."""
    if not 0 <= rank < math.comb(n, d):
        raise ValueError(f"rank {rank} out of range for C({n},{d})")
    combo = []
    prev = -1
    r = rank
    for i in range(d):
        k = d - 1 - i  # elements still to choose after this one
        lo, hi = prev + 1, n - 1 - k
        # count of combinations with this element < v:
        #   S(v) = C(n - prev - 1, k + 1) - C(n - v, k + 1)   (hockey stick)
        top = math.comb(n - prev - 1, k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if top - math.comb(n - mid - 1, k + 1) > r:
                hi = mid
            else:
                lo = mid + 1
        v = lo
        r -= top - math.comb(n - v, k + 1)
        combo.append(v)
        prev = v
    return tuple(combo)


def rank_combination(combo: Sequence[int], n: int) -> int:
    """Inverse of :func:`unrank_combination`."""
    d = len(combo)
    rank = 0
    prev = -1
    for i, v in enumerate(combo):
        k = d - 1 - i
        rank += math.comb(n - prev - 1, k + 1) - math.comb(n - v, k + 1)
        prev = v
    return rank


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

    thinned_ranks(seed, math.comb(n, d), q1, keep)
    return Hypergraph(n, d, edges), sigma


# ---------------------------------------------------------------------------
# Projection and friends
# ---------------------------------------------------------------------------


def project(h: Hypergraph) -> Graph:
    """The graph with an edge for every pair co-occurring in a hyperedge."""
    pairs = set()
    for e in h.edges:
        pairs.update(combinations(e, 2))
    return Graph(h.n, pairs)


def project_edges(edges: Iterable[Sequence[int]]) -> set:
    """Projection of a bare hyperedge collection, as a set of pairs."""
    pairs = set()
    for e in edges:
        pairs.update(combinations(sorted(e), 2))
    return pairs


def clique_hypergraph(g: Graph, d: int) -> Hypergraph:
    """All d-subsets of vertices that are cliques of g, in lexicographic order.

    Enumerated by recursive extension inside common neighborhoods, so the
    cost is output- and degree-sensitive rather than O(C(n, d)).  The result
    is memoized on g per d, so every algorithm run on the same graph shares
    one enumeration.
    """
    if d < 2:
        raise ValueError(f"d={d} must be >= 2")
    if d in g._cliques:
        return g._cliques[d]
    higher = [sorted(v for v in g.adj[u] if v > u) for u in range(g.n)]
    out: list[tuple] = []
    prefix: list[int] = []

    def extend(cands: Sequence[int]) -> None:
        need = d - len(prefix)
        if need == 0:
            out.append(tuple(prefix))
            return
        for idx, v in enumerate(cands):
            if len(cands) - idx < need:
                break
            prefix.append(v)
            adj_v = g.adj[v]
            extend([w for w in cands[idx + 1 :] if w in adj_v])
            prefix.pop()

    for u in range(g.n):
        prefix.append(u)
        extend(higher[u])
        prefix.pop()
    g._cliques[d] = Hypergraph(g.n, d, out)
    return g._cliques[d]


def similarity_matrix(h: Hypergraph) -> SimilarityMatrix:
    """W[i][j] = number of hyperedges containing both i and j."""
    counts = [[0] * h.n for _ in range(h.n)]
    for e in h.edges:
        for a, b in combinations(e, 2):
            counts[a][b] += 1
            counts[b][a] += 1
    return SimilarityMatrix(h.n, counts)


def support_graph(w: SimilarityMatrix) -> Graph:
    """Edge (i, j) present iff W[i][j] >= 1."""
    edges = [
        (i, j) for i in range(w.n) for j in range(i + 1, w.n) if w.counts[i][j] >= 1
    ]
    return Graph(w.n, edges)


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
    params2 = DensityParams(params1.d, delta2, params1.n, params1.c)
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
    for lineno, e in rows[1:]:
        _check_width(lineno, e, d)
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
    return Graph(n, [e for _, e in rows[1:]])


def similarity_to_text(w: SimilarityMatrix) -> str:
    lines = [str(w.n)]
    for i in range(w.n):
        for j in range(i + 1, w.n):
            if w.counts[i][j]:
                lines.append(f"{i} {j} {w.counts[i][j]}")
    return "\n".join(lines) + "\n"


def similarity_from_text(text: str) -> SimilarityMatrix:
    rows = _int_rows(text, 1)
    (n,) = rows[0][1]
    counts = [[0] * n for _ in range(n)]
    for lineno, row in rows[1:]:
        _check_width(lineno, row, 3)
        i, j, c = row
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"line {lineno}: pair ({i},{j}) out of range for n={n}")
        counts[i][j] = c
        counts[j][i] = c
    return SimilarityMatrix(n, counts)


def write_text(path, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def read_text(path) -> str:
    with open(path) as f:
        return f.read()
