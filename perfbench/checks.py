"""Correctness gates on the program's outputs.

Every check is an invariant that holds for any correct program at any seed,
written against plain tuples so it shares no code with the program under
test.  Each function returns a list of problems; empty means the output
passed.
"""

from __future__ import annotations

import math
from itertools import combinations

MC_TOLERANCE_SE = 5.0


def projection(edges) -> set:
    """The pairs co-occurring in some hyperedge."""
    pairs = set()
    for e in edges:
        pairs.update(combinations(sorted(e), 2))
    return pairs


def check_replicate(truth, graph_edges, outputs: dict) -> list:
    """Gate one sweep replicate.

    ``truth`` is the generated hyperedge list, ``graph_edges`` the graph the
    algorithms received, ``outputs`` maps algorithm name to its output
    hyperedges, or None when MAP aborted on a giant component (an outcome,
    not a failure).
    """
    problems = []
    g = set(map(tuple, graph_edges))
    if projection(truth) != g:
        problems.append("input graph is not the projection of the truth")
    for name, out in outputs.items():
        if out is None:
            if name != "map":
                problems.append(f"{name} produced no output")
            continue
        if projection(out) != g:
            problems.append(f"{name} output does not project onto G")
        if name == "cc" and not set(map(tuple, truth)) <= set(map(tuple, out)):
            problems.append("cc output does not contain the truth")
        if name == "map" and len(out) > len(truth):
            problems.append(
                f"map output has {len(out)} hyperedges, more than the truth's {len(truth)}"
            )
    return problems


def check_certificate(exhausted: bool, classes: int, expected_classes: int) -> list:
    """Gate a search report: exhausted, with the expected number of
    ambiguous classes (each witness is checked by check_witness)."""
    problems = []
    if exhausted is not True:
        problems.append("certificate is not exhausted")
    if classes != expected_classes:
        problems.append(f"{classes} ambiguous classes, expected {expected_classes}")
    return problems


def check_witness(witness: dict, d: int, reference_edges=None) -> list:
    """Re-verify an ambiguity witness {"edges", "a", "b", "min_size"}: both
    preimages are d-uniform, project onto the witness graph, are distinct
    and have min_size hyperedges; with reference_edges the witness graph
    must be isomorphic to that graph."""
    problems = []
    g = set(map(tuple, witness["edges"]))
    a = {tuple(sorted(e)) for e in witness["a"]}
    b = {tuple(sorted(e)) for e in witness["b"]}
    for label, pre in (("a", a), ("b", b)):
        if any(len(e) != d for e in pre):
            problems.append(f"preimage {label} is not {d}-uniform")
        if projection(pre) != g:
            problems.append(f"preimage {label} does not project onto the witness")
        if len(pre) != witness["min_size"]:
            problems.append(f"preimage {label} has {len(pre)} hyperedges, not min_size")
    if a == b:
        problems.append("the two preimages are identical")
    if reference_edges is not None and not isomorphic(g, reference_edges):
        problems.append("witness is not isomorphic to the reference gadget projection")
    return problems


def isomorphic(edges_a, edges_b) -> bool:
    """Graph isomorphism of two small edge sets by degree-pruned backtracking."""
    adj_a, adj_b = _adjacency(edges_a), _adjacency(edges_b)
    if len(adj_a) != len(adj_b) or len(projection(edges_a)) != len(projection(edges_b)):
        return False
    if sorted(map(len, adj_a.values())) != sorted(map(len, adj_b.values())):
        return False
    order = sorted(adj_a, key=lambda v: -len(adj_a[v]))
    image: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in adj_b:
            if w in used or len(adj_b[w]) != len(adj_a[v]):
                continue
            if all((image[u] in adj_b[w]) == (u in adj_a[v]) for u in order[:i]):
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                used.discard(w)
                del image[v]
        return False

    return extend(0)


def _adjacency(edges) -> dict:
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def pooled_mean_se(counts) -> tuple:
    """Mean and standard error of per-trial counts (population variance, as
    the program's Monte Carlo oracle computes it)."""
    t = len(counts)
    mean = sum(counts) / t
    var = sum(c * c for c in counts) / t - mean * mean
    return mean, math.sqrt(max(var, 0.0) / t)


def check_mc(mean: float, se: float, exact: float) -> list:
    """The Monte Carlo mean lies within MC_TOLERANCE_SE standard errors of the
    exact expectation."""
    if abs(mean - exact) > MC_TOLERANCE_SE * se:
        return [
            f"MC mean {mean:.4f} is {abs(mean - exact) / se if se else math.inf:.1f} "
            f"s.e. from the exact {exact:.4f}"
        ]
    return []
