"""The exact set-cover core: minimum covers of a pair universe by d-cliques.

A preimage (clique cover) of a graph G is a set of d-cliques of G whose
pairwise projections cover every edge of G exactly; a minimum preimage has
the fewest hyperedges.  This module is the cover core behind the exact
engine in reconstruct (MAP and min_preimage), the ambiguity search and the
census cover optimizations.  Every cover problem there goes through one
search algorithm over bitmasks of a pair universe: cover_masks builds the
masks, covers_within enumerates every candidate set covering the universe
within a cost budget (the growth step of the search), and least_covers
raises that budget from a per-pair lower bound to the least one at which
covers_within finds a cover: minimum preimages with unit costs (through
solve_cover), g_k and g_0 with the census costs.  covers_within returns
the covers alone, so how it prunes shows in no caller's result or counter.

It is meant for component-scale inputs, not whole projected graphs: the
engine refuses a component over reconstruct.COMPONENT_LIMIT candidates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

# clique_hypergraph is not called here; perfbench/layers.py traces
# preimage.clique_hypergraph by name, so the name stays importable
from .core import clique_hypergraph


def cover_masks(universe: Sequence, candidates: Sequence) -> tuple:
    """Per-candidate bitmasks of the universe pairs each sorted candidate
    covers, and the mask of the whole universe: (masks, full)."""
    index = {e: i for i, e in enumerate(universe)}
    masks = []
    for c in candidates:
        m = 0
        for pair in combinations(c, 2):
            bit = index.get(pair)
            if bit is not None:
                m |= 1 << bit
        masks.append(m)
    return masks, (1 << len(universe)) - 1


def _pair_rate(masks: Sequence[int], costs: Sequence[int]) -> Fraction:
    """The least cost per covered pair over the candidates; with nonnegative
    costs, covering u more pairs costs at least u times this.  Compared by
    integer cross-multiplication, so one Fraction is built, at the end."""
    best_cost, best_pairs = 0, 0
    for m, c in zip(masks, costs):
        if m:
            k = m.bit_count()
            if not best_pairs or c * best_pairs < best_cost * k:
                best_cost, best_pairs = c, k
    return Fraction(best_cost, best_pairs) if best_pairs else Fraction(0)


def covers_within(
    full: int,
    masks: Sequence[int],
    costs: Sequence[int],
    budget: int,
    stop_after: Optional[int] = None,
) -> list:
    """Every candidate subset covering ``full`` at total cost <= budget.

    One include-before-exclude DFS over candidate indices: covers come out
    as sorted index tuples, each index taken before it is left out, which
    is lexicographic order among covers of one size; it stops once
    ``stop_after`` covers are found.  An index is included only while the
    budget left is at least the cheapest cost per pair times the pairs still
    uncovered, so no cover within budget is lost, and a branch that can no
    longer reach every pair is dropped.  Returns the list of covers.
    """
    m = len(masks)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    rate = _pair_rate(masks, costs)
    num, den = rate.numerator, rate.denominator
    covers: list = []
    chosen: list = []

    def dfs(i: int, covered: int, left: int) -> bool:
        while i < m:
            if covered | suffix[i] != full:
                return False
            grown = covered | masks[i]
            rest = left - costs[i]
            if rest * den >= num * (full ^ grown).bit_count():
                chosen.append(i)
                if dfs(i + 1, grown, rest):
                    return True
                chosen.pop()
            i += 1
        if covered == full:
            covers.append(tuple(chosen))
            return len(covers) == stop_after
        return False

    if budget * den >= num * full.bit_count():
        dfs(0, 0, budget)
    return covers


def least_covers(
    full: int,
    masks: Sequence[int],
    costs: Sequence[int],
    stop_after: Optional[int] = None,
) -> Optional[tuple]:
    """The least cost of a cover of ``full`` and the covers at that cost in
    covers_within order, at most ``stop_after`` of them: (budget, covers),
    or None when the candidates cannot cover ``full``.  Costs are
    nonnegative integers; the budget rises by one from ceil(cheapest cost
    per pair * |universe|), which no cover undercuts.
    """
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return None
    rate = _pair_rate(masks, costs)
    budget = -(-rate.numerator * full.bit_count() // rate.denominator)
    while True:
        covers = covers_within(full, masks, costs, budget, stop_after)
        if covers:
            return budget, covers
        budget += 1


def solve_cover(
    universe: Sequence, candidates: Sequence, cap: int = 16
) -> tuple:
    """Exact minimum covers of a pair universe by candidate hyperedges.

    Returns (min_size, covers, ambiguous) where covers are tuples of
    candidate hyperedges (lex-least first, at most cap of them), or
    (None, (), False) if infeasible.  ambiguous means a second distinct
    minimum cover exists; deciding it never relies on the cap.
    """
    if cap < 1:
        raise ValueError(f"cap={cap} must be >= 1")
    universe = sorted(universe)
    candidates = sorted(candidates)
    masks, full = cover_masks(universe, candidates)
    least = least_covers(full, masks, [1] * len(masks), stop_after=max(2, cap))
    if least is None:
        return None, (), False
    r, index_covers = least
    covers = tuple(tuple(candidates[i] for i in ic) for ic in index_covers[:cap])
    return r, covers, len(index_covers) >= 2
