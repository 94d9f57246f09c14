"""2-neighborhoods and 2-connected components of a hypergraph.

Two hyperedges are 2-neighbors when they share at least two vertices; a
2-connected component is a connected component under that relation.  This
is a hypergraph notion, not the usual graph 2-vertex-connectivity.  The
decomposition runs union-find keyed by vertex pairs: for each pair {a, b},
all hyperedges containing both get unioned, for total cost
O(|edges| * C(d, 2) * alpha).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import Hypergraph


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class ComponentPartition:
    """Partition of a hypergraph's hyperedge indices into 2-connected components.

    Components are sorted by smallest hyperedge index, indices within a
    component ascending, so the partition is deterministic.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Sequence[int]]):
        self.components = tuple(tuple(c) for c in components)


def two_neighbors(h: Sequence[int], hypergraph: Hypergraph) -> set:
    """Indices of hyperedges sharing >= 2 vertices with h (h itself excluded)."""
    h = tuple(sorted(h))
    if len(h) != hypergraph.d:
        raise ValueError(f"hyperedge size {len(h)} != d={hypergraph.d}")
    if h and (h[0] < 0 or h[-1] >= hypergraph.n):
        raise ValueError(f"hyperedge {h} out of range for n={hypergraph.n}")
    members = set(h)
    out = set()
    for i, e in enumerate(hypergraph.edges):
        if e == h:
            continue
        shared = 0
        for v in e:
            if v in members:
                shared += 1
                if shared >= 2:
                    out.add(i)
                    break
    return out


def decompose(hypergraph: Hypergraph) -> ComponentPartition:
    """Split a hypergraph into its 2-connected components via pair-keyed union-find."""
    m = len(hypergraph.edges)
    uf = _UnionFind(m)
    first_seen: dict = {}
    for i, e in enumerate(hypergraph.edges):
        for pair in combinations(e, 2):
            j = first_seen.setdefault(pair, i)
            if j != i:
                uf.union(i, j)
    groups: dict = {}
    for i in range(m):
        groups.setdefault(uf.find(i), []).append(i)
    components = sorted((sorted(g) for g in groups.values()), key=lambda c: c[0])
    return ComponentPartition(components)


def component_size_bound(d: int, delta: Fraction) -> Fraction:
    """The high-probability bound 1 + 2**(d+1) / ((d-1)/(d+1) - delta).

    Only meaningful for delta below the 2-connectivity threshold (d-1)/(d+1).
    """
    threshold = Fraction(d - 1, d + 1)
    if delta >= threshold:
        raise ValueError(f"delta={delta} is not below the 2-connectivity threshold")
    return 1 + Fraction(2 ** (d + 1)) / (threshold - delta)
