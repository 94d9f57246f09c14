"""2-connected components of a hypergraph.

Two hyperedges are 2-neighbors when they share at least two vertices; a
2-connected component is a connected component under that relation.  This
is a hypergraph notion, not the usual graph 2-vertex-connectivity.  The
decomposition runs union-find keyed by vertex pairs over a parent list
with path halving: each hyperedge is joined to the first hyperedge seen
with each of its pairs, for O(|edges| * C(d, 2)) find calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import Hypergraph


class ComponentPartition:
    """Partition of a hypergraph's hyperedge indices into 2-connected components.

    Components are sorted by smallest hyperedge index, indices within a
    component ascending, so the partition is deterministic.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Sequence[int]]):
        self.components = tuple(tuple(c) for c in components)


def decompose(hypergraph: Hypergraph) -> ComponentPartition:
    """Split a hypergraph into its 2-connected components via pair-keyed union-find."""
    parent = list(range(len(hypergraph.edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    first_seen: dict = {}
    for i, e in enumerate(hypergraph.edges):
        for pair in combinations(e, 2):
            j = first_seen.setdefault(pair, i)
            if j != i:
                parent[find(i)] = find(j)
    groups: dict = {}  # inserted in order of least member, so sorted
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return ComponentPartition(groups.values())


def component_size_bound(d: int, delta: Fraction) -> Fraction:
    """The high-probability bound 1 + 2**(d+1) / ((d-1)/(d+1) - delta).

    Only meaningful for delta below the 2-connectivity threshold (d-1)/(d+1).
    """
    threshold = Fraction(d - 1, d + 1)
    if delta >= threshold:
        raise ValueError(f"delta={delta} is not below the 2-connectivity threshold")
    return 1 + Fraction(2 ** (d + 1)) / (threshold - delta)
