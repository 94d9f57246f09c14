"""2-connected component decomposition."""

from fractions import Fraction

import pytest

from hyperlift.census import build_ambiguous_gadget
from hyperlift.components import component_size_bound, decompose
from hyperlift.core import (
    DensityParams,
    Hypergraph,
    clique_hypergraph,
    generate_random_hypergraph,
    project,
    project_edges,
)


def test_decompose_examples():
    h = Hypergraph(8, 3, [(1, 2, 3), (2, 3, 4), (5, 6, 7)])
    part = decompose(h)
    assert part.components == ((0, 1), (2,))
    assert [[h.edges[i] for i in comp] for comp in part.components] == [
        [(1, 2, 3), (2, 3, 4)],
        [(5, 6, 7)],
    ]

    single = decompose(Hypergraph(4, 3, [(0, 1, 2)]))
    assert single.components == ((0,),)


def test_gadget_cliques_form_one_component():
    _, _, proj = build_ambiguous_gadget(3)
    cli = clique_hypergraph(proj, 3)
    assert len(cli) == 6
    part = decompose(cli)
    assert len(part.components) == 1
    # brute-force connectivity check on the share->=2 relation
    edges = cli.edges
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(edges)):
            if j not in reached and len(set(edges[i]) & set(edges[j])) >= 2:
                reached.add(j)
                frontier.append(j)
    assert reached == set(range(len(edges)))


def test_partition_and_separation_properties():
    params = DensityParams(3, Fraction(2, 5), 25)
    for seed in range(15):
        h = generate_random_hypergraph(params, seed)
        if not h.edges:
            continue
        part = decompose(h)
        seen = [i for comp in part.components for i in comp]
        assert sorted(seen) == list(range(len(h.edges)))
        # projections of distinct components are edge-disjoint
        projections = [
            project_edges(h.edges[i] for i in comp) for comp in part.components
        ]
        for a in range(len(projections)):
            for b in range(a + 1, len(projections)):
                assert not (projections[a] & projections[b])
        # and they tile the projected graph
        union = set()
        for pr in projections:
            union |= pr
        assert union == set(project(h).edges)


def test_component_size_bound_observed():
    d = 3
    delta = Fraction(2, 5) - Fraction(1, 10)
    bound = component_size_bound(d, delta)
    params = DensityParams(d, delta, 60)
    for seed in range(25):
        h = generate_random_hypergraph(params, seed)
        cli = clique_hypergraph(project(h), d)
        if not cli.edges:
            continue
        part = decompose(cli)
        assert max(len(comp) for comp in part.components) <= bound


def test_component_size_bound_needs_subcritical_delta():
    with pytest.raises(ValueError):
        component_size_bound(3, Fraction(1, 2))
