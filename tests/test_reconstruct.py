"""Reconstruction algorithms: clique cover, MAP, greedy."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import all_preimages_bitmask, reference_greedy, reference_map_reconstruct

from hyperlift import reconstruct
from hyperlift.census import build_ambiguous_gadget, build_spurious_clique_gadget
from hyperlift.core import (
    DensityParams,
    Graph,
    Hypergraph,
    clique_hypergraph,
    generate_random_hypergraph,
    project,
)
from hyperlift.reconstruct import (
    ALGORITHMS,
    ComponentTooLargeError,
    _finish,
    clique_cover,
    greedy_reconstruct,
    map_reconstruct,
    verify_exact,
)


def _spurious_instance():
    truth_pat, spurious = build_spurious_clique_gadget(3)
    truth = Hypergraph(truth_pat.v, 3, truth_pat.edges)
    return truth, spurious, project(truth)


def test_clique_cover_on_disjoint_hyperedges():
    truth = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    res = clique_cover(project(truth), 3)
    assert res.output == truth and res.is_preimage
    assert verify_exact(res, truth)


def test_clique_cover_overshoots_on_spurious_gadget():
    truth, spurious, g = _spurious_instance()
    res = clique_cover(g, 3)
    assert res.is_preimage
    assert set(res.output.edges) > set(truth.edges)
    assert spurious in res.output.edges
    assert not verify_exact(res, truth)


def test_clique_cover_empty_graph():
    res = clique_cover(Graph(5, []), 3)
    assert res.output.edges == () and res.is_preimage


def test_map_recovers_two_overlapping_hyperedges():
    truth = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
    res = map_reconstruct(project(truth), 3)
    assert verify_exact(res, truth)
    assert res.component_count == 1 and res.ambiguous_components == 0


def test_map_beats_clique_cover_on_spurious_gadget():
    truth, _, g = _spurious_instance()
    res = map_reconstruct(g, 3)
    assert verify_exact(res, truth)


def test_map_on_gadget_returns_lex_least_and_flags_ambiguity():
    p1, p2, proj = build_ambiguous_gadget(3)
    res = map_reconstruct(proj, 3)
    assert res.is_preimage
    assert res.ambiguous_components == 1
    expect = min(sorted(p.edges) for p in (p1, p2))
    assert list(res.output.edges) == expect


def test_map_component_abort_threshold(monkeypatch):
    g = project(Hypergraph(8, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]))
    monkeypatch.setattr(reconstruct, "COMPONENT_LIMIT", 2)
    with pytest.raises(ComponentTooLargeError):
        map_reconstruct(g, 3)


def test_greedy_examples():
    truth = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    res = greedy_reconstruct(project(truth), 3)
    assert verify_exact(res, truth)

    truth2, spurious, g2 = _spurious_instance()
    res2 = greedy_reconstruct(g2, 3)
    assert verify_exact(res2, truth2)  # deletes exactly the spurious clique

    _, _, proj = build_ambiguous_gadget(3)
    res3 = greedy_reconstruct(proj, 3)
    assert res3.is_preimage and len(res3.output) == 5


def test_greedy_matches_the_fixed_point_reference():
    # projections at densities where cliques overlap, so some are
    # redundant, and G(n, q) graphs, which need not be projections
    rnd = random.Random(18)
    graphs = [
        (d, project(generate_random_hypergraph(DensityParams(d, delta, n), seed)))
        for d, delta, n in [
            (3, Fraction(2, 5), 30),
            (3, Fraction(3, 5), 20),
            (4, Fraction(3, 5), 24),
        ]
        for seed in range(8)
    ]
    for n, q in [(12, 0.4), (14, 0.65), (16, 0.5), (20, 0.35)]:
        for d in (3, 4):
            graphs.append((d, Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < q])))
    _, _, proj = build_ambiguous_gadget(3)
    graphs.append((3, proj))
    deleted = 0
    for d, g in graphs:
        res = greedy_reconstruct(g, d)
        assert res.output == reference_greedy(g, d), (d, g.edges)
        deleted += len(clique_hypergraph(g, d)) - len(res.output)
    assert deleted >= 50


def test_verify_exact_examples_and_errors():
    truth = Hypergraph(6, 3, [(0, 1, 2)])
    res = clique_cover(project(truth), 3)
    assert verify_exact(res, truth)
    bigger = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
    assert not verify_exact(res, bigger)
    with pytest.raises(ValueError):
        verify_exact(res, Hypergraph(7, 3, [(0, 1, 2)]))


def test_size_ordering_map_greedy_cc():
    params = DensityParams(3, Fraction(2, 5), 20)
    for seed in range(25):
        g = project(generate_random_hypergraph(params, seed))
        cc = clique_cover(g, 3)
        gr = greedy_reconstruct(g, 3)
        mp = map_reconstruct(g, 3)
        assert cc.is_preimage and gr.is_preimage and mp.is_preimage
        assert len(mp.output) <= len(gr.output) <= len(cc.output)


def test_map_output_is_a_true_minimum_on_small_instances():
    params = DensityParams(3, Fraction(1, 4), 9)
    checked = 0
    for seed in range(50):
        h = generate_random_hypergraph(params, seed, p_override=0.1)
        g = project(h)
        if not (1 <= len(clique_hypergraph(g, 3)) <= 13):
            continue
        checked += 1
        res = map_reconstruct(g, 3)
        oracle = all_preimages_bitmask(g, 3)
        best = min(len(s) for s in oracle)
        assert res.is_preimage
        assert len(res.output) == best
        assert frozenset(res.output.edges) in oracle
    assert checked >= 15


def test_map_never_consults_density():
    # same graph, any generating density: identical output
    h = Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])
    g = project(h)
    out = map_reconstruct(g, 3).output
    assert out == map_reconstruct(Graph(g.n, g.edges), 3).output


def _map_or_abort(fn, g, d, **kwargs):
    try:
        res = fn(g, d, **kwargs)
    except ComponentTooLargeError as err:
        return str(err)
    return (res.output, res.is_preimage, res.component_sizes, res.ambiguous_components)


def test_map_matches_the_solve_every_component_reference(monkeypatch):
    # (3, 60, 2/5) seeds 0..19 hold singleton and multi-candidate components,
    # two ambiguous ones (seeds 13 and 16) and eight aborts at the default limit
    cases = [(3, DensityParams(3, Fraction(2, 5), 60), s) for s in range(20)]
    cases += [(4, DensityParams(4, Fraction(3, 5), 40), s) for s in range(6)]
    seen = {"singleton": 0, "multi": 0, "ambiguous": 0, "abort": 0}
    for d, params, seed in cases:
        g = project(generate_random_hypergraph(params, seed))
        for limit in (40, 1, 0):
            monkeypatch.setattr(reconstruct, "COMPONENT_LIMIT", limit)
            new = _map_or_abort(map_reconstruct, g, d)
            old = _map_or_abort(reference_map_reconstruct, g, d, component_limit=limit)
            assert new == old, (d, seed, limit)
            if isinstance(new, str):
                seen["abort"] += 1
            else:
                seen["singleton"] += new[2].count(1)
                seen["multi"] += sum(size > 1 for size in new[2])
                seen["ambiguous"] += new[3]
    monkeypatch.undo()
    _, _, proj = build_ambiguous_gadget(3)
    assert _map_or_abort(map_reconstruct, proj, 3) == _map_or_abort(
        reference_map_reconstruct, proj, 3
    )
    assert min(seen.values()) >= 2, seen


def test_is_preimage_is_projection_equality():
    params = DensityParams(3, Fraction(2, 5), 30)
    for seed in range(10):
        h = generate_random_hypergraph(params, seed)
        g = project(h)
        for name, fn in ALGORITHMS.items():
            res = fn(g, 3)
            assert res.is_preimage == (project(res.output) == g), name
        cli = clique_hypergraph(g, 3)
        outside = next(
            t
            for t in combinations(range(g.n), 3)
            if any(p not in g.edge_set for p in combinations(t, 2))
        )
        # a hyperedge owning a pair that no other hyperedge covers
        lone = next(
            e
            for e in h.edges
            if any(
                sum(p in combinations(f, 2) for f in h.edges) == 1
                for p in combinations(e, 2)
            )
        )
        variants = [
            (h, True),
            (cli, True),  # extra cliques whose pairs are all in g
            (Hypergraph(h.n, 3, [e for e in h.edges if e != lone]), False),
            (Hypergraph(h.n, 3, h.edges + (outside,)), False),  # pairs not in g
            (Hypergraph(h.n + 1, 3, h.edges), False),  # another vertex count
        ]
        for output, expect in variants:
            assert _finish("map", g, output, 0.0).is_preimage == expect
            assert (project(output) == g) == expect
