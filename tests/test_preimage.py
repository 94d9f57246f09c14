"""Exact minimum-preimage engine: examples, soundness, decomposition oracle."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import (
    all_preimages_bitmask,
    enumerate_preimages,
    glue_component_preimages,
    is_projection_of,
    reference_min_preimage,
)

from hyperlift.census import build_ambiguous_gadget, build_spurious_clique_gadget
from hyperlift.components import decompose
from hyperlift.core import (
    DensityParams,
    Graph,
    Hypergraph,
    clique_hypergraph,
    generate_random_hypergraph,
    project,
)
from hyperlift.preimage import covers_within, least_covers
from hyperlift.reconstruct import min_preimage
from hyperlift.rng import Stream


def test_single_clique_is_unique_minimum():
    g = project(Hypergraph(5, 3, [(1, 2, 4)]))
    rep = min_preimage(g, 3)
    assert rep.feasible and rep.min_size == 1 and not rep.ambiguous
    assert rep.min_covers == (((1, 2, 4),),)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_gadget_has_exactly_two_minimum_preimages(d):
    # what planted_gadget_trial relies on: one 2-connected component of
    # gadget cliques, whose two minimum preimages are the two variants
    p1, p2, proj = build_ambiguous_gadget(d)
    assert len(decompose(clique_hypergraph(proj, d)).components) == 1
    rep = min_preimage(proj, d)
    assert rep.feasible and rep.min_size == 2 * d - 1 and rep.ambiguous
    assert len(rep.min_covers) == 2
    found = {frozenset(c) for c in rep.min_covers}
    assert found == {frozenset(p1.edges), frozenset(p2.edges)}
    # lexicographically least minimum cover comes first
    assert sorted(rep.min_covers[0]) <= sorted(rep.min_covers[1])


def test_spurious_clique_gadget_minimum_is_the_truth():
    truth, spurious = build_spurious_clique_gadget(3)
    g = Graph(truth.v, project(Hypergraph(truth.v, 3, truth.edges)).edges)
    rep = min_preimage(g, 3)
    assert rep.min_size == 3 and not rep.ambiguous
    assert set(rep.min_covers[0]) == set(truth.edges)
    assert spurious in clique_hypergraph(g, 3).edges
    assert spurious not in rep.min_covers[0]


def test_infeasible_graph_is_reported():
    g = Graph(4, [(0, 1)])  # a lone edge is in no triangle
    rep = min_preimage(g, 3)
    assert not rep.feasible and rep.min_size is None and not rep.ambiguous


def test_enumerate_preimages_examples():
    g = project(Hypergraph(4, 3, [(0, 2, 3)]))
    assert [h.edges for h in enumerate_preimages(g, 3, 1)] == [((0, 2, 3),)]
    # a lone triangle has exactly one preimage at any limit
    assert len(enumerate_preimages(g, 3, 10)) == 1

    _, _, proj = build_ambiguous_gadget(3)
    pres = enumerate_preimages(proj, 3, 5)
    assert len(pres) == 2


def test_total_preimage_count_brute_mode():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3)])
    g = project(h)
    everything = enumerate_preimages(g, 3, len(clique_hypergraph(g, 3)))
    oracle = all_preimages_bitmask(g, 3)
    assert len(everything) == len(oracle)
    assert {frozenset(p.edges) for p in everything} == oracle


def test_soundness_and_minimality_against_oracle():
    params = DensityParams(3, Fraction(1, 4), 8)
    checked = 0
    for seed in range(60):
        h = generate_random_hypergraph(params, seed, p_override=0.12)
        g = project(h)
        if len(clique_hypergraph(g, 3)) > 14:
            continue
        rep = min_preimage(g, 3, cap=64)
        oracle = all_preimages_bitmask(g, 3)
        if not h.edges:
            assert rep.min_size == 0
            continue
        checked += 1
        # soundness: every returned cover projects exactly onto g
        for cover in rep.min_covers:
            assert is_projection_of(g, cover)
        # minimality and exact ambiguity against the oracle
        best = min(len(s) for s in oracle)
        assert rep.min_size == best
        minima = {s for s in oracle if len(s) == best}
        assert rep.ambiguous == (len(minima) >= 2)
        assert {frozenset(c) for c in rep.min_covers} <= minima
    assert checked >= 20


def test_component_decomposition_oracle():
    # the full preimage set equals the product of per-component preimage
    # sets glued by union, on random small instances
    params = DensityParams(3, Fraction(1, 4), 9)
    checked = 0
    for seed in range(80):
        h = generate_random_hypergraph(params, seed, p_override=0.08)
        g = project(h)
        cli = clique_hypergraph(g, 3)
        if not (1 <= len(cli) <= 13):
            continue
        checked += 1
        direct = all_preimages_bitmask(g, 3)
        part = decompose(cli)
        per_component = []
        for comp in part.components:
            cand = [cli.edges[i] for i in comp]
            universe = set()
            for c in cand:
                universe.update(combinations(c, 2))
            sub = Graph(g.n, universe)
            per_component.append(all_preimages_bitmask(sub, 3, candidates=cand))
        assert glue_component_preimages(per_component) == direct
    assert checked >= 25


def test_enumerate_preimages_sorted_and_exhaustive():
    h = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (3, 4, 5)])
    g = project(h)
    pres = enumerate_preimages(g, 3, size_limit=10)
    oracle = all_preimages_bitmask(g, 3)
    assert {frozenset(p.edges) for p in pres} == oracle
    assert [p.edges for p in pres] == sorted(p.edges for p in pres)


def test_first_cover_is_lexicographically_least_minimum():
    params = DensityParams(3, Fraction(1, 4), 8)
    checked = 0
    for seed in range(80):
        h = generate_random_hypergraph(params, seed, p_override=0.12)
        g = project(h)
        if not h.edges or len(clique_hypergraph(g, 3)) > 13:
            continue
        rep = min_preimage(g, 3, cap=64)
        oracle = all_preimages_bitmask(g, 3)
        minima = [tuple(sorted(s)) for s in oracle if len(s) == rep.min_size]
        assert tuple(sorted(rep.min_covers[0])) == min(minima)
        checked += 1
    assert checked >= 25


def _random_instances(count: int, seed: int):
    """Small (full, masks, costs) cover instances: some infeasible, some
    with an empty universe, zero masks or zero costs."""
    rng = Stream(seed)
    for _ in range(count):
        pairs = rng.randrange(6)
        full = (1 << pairs) - 1
        masks = [rng.randrange(full + 1) for _ in range(rng.randrange(9))]
        costs = [rng.randrange(4) for _ in masks]
        yield full, masks, costs


def _exhaustive_covers(full, masks, costs, budget):
    """Every covering subset within budget, as index tuples, in the order
    of include-before-exclude (each index picked before it is left out)."""
    out = []
    for picks in product((1, 0), repeat=len(masks)):
        chosen = tuple(i for i, p in enumerate(picks) if p)
        covered = 0
        for i in chosen:
            covered |= masks[i]
        if covered == full and sum(costs[i] for i in chosen) <= budget:
            out.append(chosen)
    return out


def test_covers_within_matches_exhaustive_subsets():
    checked = 0
    for full, masks, costs in _random_instances(400, 11):
        for budget in (-1, 0, 2, 5, 30):
            expected = _exhaustive_covers(full, masks, costs, budget)
            covers = covers_within(full, masks, costs, budget)
            assert covers == expected, (full, masks, costs, budget)
            # stop_after takes a prefix
            for stop in (1, 2):
                assert covers_within(full, masks, costs, budget, stop_after=stop) == (
                    expected[:stop]
                )
            checked += bool(expected)
    assert checked > 300


def test_covers_within_edge_cases():
    # empty universe: every subset within budget covers it, () last
    assert covers_within(0, [0, 0], [1, 0], 0) == [(1,), ()]
    assert covers_within(0, [], [], 0) == [()]
    # infeasible: a pair no candidate covers
    assert covers_within(0b11, [0b01, 0b01], [1, 1], 9) == []
    # a budget below the cheapest per-pair cost is cut at the root
    assert covers_within(0b11, [0b11], [4], 3) == []
    # zero-cost candidates can always be added
    assert covers_within(0b1, [0b1, 0b1], [0, 0], 0) == [(0, 1), (0,), (1,)]


def test_least_covers_matches_exhaustive_subsets():
    checked = positive = 0
    for full, masks, costs in _random_instances(400, 12):
        covers = _exhaustive_covers(full, masks, costs, sum(costs))
        if not covers:
            assert least_covers(full, masks, costs) is None
            continue
        low = min(sum(costs[i] for i in c) for c in covers)
        optima = _exhaustive_covers(full, masks, costs, low)
        assert least_covers(full, masks, costs) == (low, optima), (full, masks, costs)
        for stop in (1, 2):
            assert least_covers(full, masks, costs, stop) == (low, optima[:stop])
        if all(costs):
            # no optimum contains another, so the first is the lex-least
            assert optima[0] == min(optima)
            positive += 1
        checked += 1
    assert checked > 200 and positive > 50


def test_least_covers_edge_cases():
    assert least_covers(0, [], []) == (0, [()])
    assert least_covers(0, [0], [0]) == (0, [(0,), ()])
    assert least_covers(0b11, [0b01], [1]) is None
    assert least_covers(0b11, [0b11, 0b01, 0b10], [3, 1, 1]) == (2, [(1, 2)])
    assert least_covers(0b11, [0b11, 0b01, 0b10], [2, 1, 1]) == (2, [(0,), (1, 2)])
    assert least_covers(0b11, [0b11, 0b01, 0b10], [2, 1, 1], 1) == (2, [(0,)])


def _relabeled_union(graphs, rng) -> Graph:
    """The disjoint union of graphs, its vertices shuffled so that the
    parts' cliques interleave in lexicographic order."""
    n = sum(g.n for g in graphs)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for g in graphs:
        edges += [(label[a + offset], label[b + offset]) for a, b in g.edges]
        offset += g.n
    return Graph(n, edges)


def _merge_cases(count: int):
    """(graph, d) with at most 40 candidates: random projections (several
    components, some ambiguous), random graphs (mostly infeasible) and
    unions of ambiguous gadgets with projections and stray edges."""
    rng = Stream(3000)
    gadgets = {d: build_ambiguous_gadget(d)[2] for d in (3, 4)}
    made = 0
    while made < count:
        d = 3 + (rng.randrange(4) == 0)
        kind = rng.randrange(3)
        if kind == 0:
            params = DensityParams(d, Fraction(1, 4), 7 + rng.randrange(6))
            g = project(generate_random_hypergraph(params, rng.randrange(10**6), p_override=0.08))
        elif kind == 1:
            n = 5 + rng.randrange(4)
            g = Graph(n, [p for p in combinations(range(n), 2) if rng.random() < 0.55])
        else:
            parts = [gadgets[d] for _ in range(1 + rng.randrange(3))]
            params = DensityParams(d, Fraction(1, 4), d + 2)
            h = generate_random_hypergraph(params, rng.randrange(10**6), p_override=0.3)
            parts.append(project(h))
            parts.append(Graph(2, [(0, 1)] if rng.randrange(4) == 0 else []))
            g = _relabeled_union(parts, rng)
        if len(clique_hypergraph(g, d)) <= 40:
            made += 1
            yield g, d


def test_min_preimage_merge_equals_the_whole_graph_search():
    seen = dict.fromkeys(["multi", "ambiguous", "over_two", "infeasible"], 0)
    for g, d in _merge_cases(300):
        multi = sum(len(c) > 1 for c in decompose(clique_hypergraph(g, d)).components)
        for cap in (1, 2, 3, 16, 64):
            rep, ref = min_preimage(g, d, cap), reference_min_preimage(g, d, cap)
            assert rep.to_dict() == ref.to_dict() and rep == ref, (g.edges, d, cap)
        seen["multi"] += multi >= 2
        seen["ambiguous"] += rep.ambiguous
        seen["over_two"] += len(rep.min_covers) > 2
        seen["infeasible"] += not rep.feasible
    assert min(seen.values()) >= 30, seen
