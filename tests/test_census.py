"""Exact pattern combinatorics: canonical forms, aut, densities, g tables."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from oracles import brute_force_isomorphic, brute_max_density

from hyperlift.census import (
    cover_bound_min,
    PatternHypergraph,
    PatternTooLargeError,
    automorphism_count,
    automorphism_generators,
    build_ambiguous_gadget,
    build_map_failure_gadget,
    build_spurious_clique_gadget,
    canonical_form,
    exact_expected_count,
    expected_count_exponent,
    g_0,
    g_k,
    graph_canonical_form,
    max_density,
    threshold_table,
)
from hyperlift.core import DensityParams, generate_random_hypergraph, Hypergraph, project
from hyperlift.preimage import min_preimage
from hyperlift.rng import Stream


def test_pattern_validation_and_normalization():
    with pytest.raises(ValueError):
        PatternHypergraph([(0, 1, 3)])  # vertex 2 isolated / missing
    with pytest.raises(ValueError):
        PatternHypergraph([])
    pat = PatternHypergraph.from_edges([(10, 20, 30), (20, 30, 40)])
    assert pat.v == 4 and pat.edges == ((0, 1, 2), (1, 2, 3))


def test_canonical_form_invariant_under_relabeling():
    params = DensityParams(3, Fraction(1, 3), 9)
    rng = Stream(77)
    for seed in range(30):
        h = generate_random_hypergraph(params, seed)
        if not h.edges:
            continue
        pat = PatternHypergraph.from_edges(h.edges)
        perm = list(range(pat.v))
        rng.shuffle(perm)
        assert pat.relabeled(perm).canonical_form == pat.canonical_form


def _small_d3_patterns() -> list:
    """Every d=3 pattern with e <= 3 over a 7-vertex pool, one per edge set."""
    triples = list(combinations(range(7), 3))
    seen = {}
    for e in range(1, 4):
        for chosen in combinations(triples, e):
            pat = PatternHypergraph.from_edges(chosen)
            seen.setdefault(pat.edges, pat)
    return list(seen.values())


def test_canonical_form_separates_small_patterns_exhaustively():
    # canonical forms agree exactly with brute-force isomorphism
    patterns = _small_d3_patterns()
    by_canon = {}
    for pat in patterns:
        by_canon.setdefault(pat.canonical_form, []).append(pat)
    # same canonical form -> isomorphic (check each class against its head)
    for group in by_canon.values():
        head = group[0]
        for other in group[1:5]:
            assert brute_force_isomorphic(head, other)
    # different canonical forms with matching coarse invariants -> not isomorphic
    heads = [g[0] for g in by_canon.values()]
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            a, b = heads[i], heads[j]
            if (a.v, a.e) != (b.v, b.e):
                continue
            assert not brute_force_isomorphic(a, b)


def test_canonical_form_respects_edge_colors():
    plain = canonical_form([(0, 1, 2), (0, 1, 3)])
    marked = canonical_form([(0, 1, 2), (0, 1, 3)], [0, 1])
    marked_other = canonical_form([(0, 1, 3), (0, 1, 2)], [1, 0])
    assert plain != marked
    assert marked == marked_other


def test_automorphism_examples():
    assert automorphism_count(PatternHypergraph([(0, 1, 2)])) == 6
    assert automorphism_count(PatternHypergraph([(0, 1, 2), (0, 1, 3)])) == 4
    assert automorphism_count(PatternHypergraph([(0, 1, 2), (3, 4, 5)])) == 72


def test_automorphism_count_against_orbit_size():
    # |Aut| * #distinct relabelings = v!
    cases = [
        PatternHypergraph([(0, 1, 2), (1, 2, 3), (2, 3, 4)]),
        PatternHypergraph([(0, 1, 2), (0, 3, 4), (1, 3, 5)]),
        build_ambiguous_gadget(3)[0],
    ]
    for pat in cases:
        images = {
            tuple(sorted(tuple(sorted(p[u] for u in e)) for e in pat.edges))
            for p in permutations(range(pat.v))
        }
        assert automorphism_count(pat) * len(images) == math.factorial(pat.v)


def test_automorphism_generators_generate_the_automorphism_group():
    for pat in _small_d3_patterns():
        generators = automorphism_generators(pat.edges)
        edge_set = set(pat.edges)
        for g in generators:
            assert sorted(g) == list(range(pat.v))
            assert {tuple(sorted(g[u] for u in e)) for e in pat.edges} == edge_set
        identity = tuple(range(pat.v))
        group = {identity}
        frontier = [identity]
        for element in frontier:
            for g in generators:
                composed = tuple(g[u] for u in element)
                if composed not in group:
                    group.add(composed)
                    frontier.append(composed)
        assert len(group) == automorphism_count(pat), pat.edges


def test_max_density_examples_and_oracle():
    assert max_density(PatternHypergraph([(0, 1, 2)])) == Fraction(1, 3)
    assert max_density(PatternHypergraph([tuple(range(5))])) == Fraction(1, 5)
    for d in (3, 4):
        pre, _, _ = build_ambiguous_gadget(d)
        assert max_density(pre) == Fraction(2 * d - 1, 2 * d * d - 5 * d + 5)
        hb = build_map_failure_gadget(d)
        expect = Fraction(math.comb(d, 2) + 1, d + math.comb(d, 2) * (d - 2))
        assert max_density(hb) == expect
    params = DensityParams(3, Fraction(1, 3), 8)
    for seed in range(25):
        h = generate_random_hypergraph(params, seed, p_override=0.15)
        if not (1 <= len(h) <= 8):
            continue
        pat = PatternHypergraph.from_edges(h.edges)
        assert max_density(pat) == brute_max_density(pat.edges)


def test_max_density_monotone_under_adding_hyperedges():
    base = [(0, 1, 2), (1, 2, 3)]
    grown = base + [(2, 3, 4)]
    denser = grown + [(0, 2, 3)]
    values = [
        max_density(PatternHypergraph.from_edges(e))
        for e in (base, grown, denser)
    ]
    assert values[0] <= values[1] <= values[2]
    # every sub-pattern ratio is dominated
    pat = PatternHypergraph.from_edges(denser)
    m = max_density(pat)
    for r in range(1, pat.e + 1):
        for subset in combinations(pat.edges, r):
            v = len({u for e in subset for u in e})
            assert Fraction(len(subset), v) <= m


def test_expected_count_exponent_examples():
    single = PatternHypergraph([(0, 1, 2)])
    for delta in (Fraction(0), Fraction(2, 5), Fraction(1)):
        assert expected_count_exponent(single, 3, delta) == 1 + delta
    diamond = PatternHypergraph([(0, 1, 2), (0, 1, 3)])
    assert expected_count_exponent(diamond, 3, Fraction(2, 5)) == Fraction(4, 5)
    pre, _, _ = build_ambiguous_gadget(3)
    assert expected_count_exponent(pre, 3, Fraction(2, 5)) == 0
    with pytest.raises(ValueError):
        expected_count_exponent(single, 4, Fraction(1, 2))


def test_exact_expected_count_examples():
    single = PatternHypergraph([(0, 1, 2)])
    assert exact_expected_count(single, 10, Fraction(1, 2)) == 60
    diamond = PatternHypergraph([(0, 1, 2), (0, 1, 3)])
    assert exact_expected_count(diamond, 6, Fraction(1, 2)) == Fraction(45, 2)
    assert exact_expected_count(diamond, 6, Fraction(0)) == 0
    # brute-force placement count at p=1: C(6,4)*4!/4 = 90
    count = 0
    for quad in combinations(range(6), 4):
        for pair_edges in combinations(combinations(quad, 3), 2):
            if len(set(pair_edges[0]) & set(pair_edges[1])) == 2:
                count += 1
    assert count == exact_expected_count(diamond, 6, Fraction(1))


def test_g_k_examples_and_range():
    assert g_k(3, 3, Fraction(2, 5)) == 0
    assert g_k(3, 2, Fraction(2, 5)) == Fraction(6, 5)
    with pytest.raises(ValueError):
        g_k(3, 1, Fraction(0))
    with pytest.raises(ValueError):
        g_k(8, 2, Fraction(0))


def test_cover_bound_at_selected_points():
    # min_k {g_k(delta) + k - d} >= (d-1)/(d+1) - delta (full grid in acceptance)
    for d in (3, 4):
        threshold = Fraction(d - 1, d + 1)
        for delta in (Fraction(0), threshold / 2, threshold):
            assert cover_bound_min(d, delta) >= threshold - delta
        # equality is attained exactly at the threshold
        assert cover_bound_min(d, threshold) == 0


def test_g0_examples():
    value, witness = g_0(3, Fraction(0))
    assert value == 3 and witness == ((0, 1), (0, 2), (1, 2))
    value, witness = g_0(4, Fraction(1, 4))
    assert value == 4
    assert witness == ((0, 1), (0, 2), (0, 3), (1, 2, 3))
    value, witness = g_0(3, Fraction(1))
    assert value == 0 and witness == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        g_0(2, Fraction(0))


def test_ambiguous_gadget_structure():
    p1, p2, proj = build_ambiguous_gadget(3)
    assert p1.v == 8 and p1.e == 5 and p2.e == 5
    assert len(proj.edges) == 13
    assert p1.edges != p2.edges
    for d in (3, 4, 5):
        a, b, pr = build_ambiguous_gadget(d)
        assert a.v == d + 1 + 2 * (d - 1) * (d - 2)
        rep = min_preimage(pr, d, vertex_bound=max(64, pr.n))
        assert rep.min_size == 2 * d - 1 and rep.ambiguous
        found = {frozenset(c) for c in rep.min_covers}
        assert found == {frozenset(a.edges), frozenset(b.edges)}
    with pytest.raises(ValueError):
        build_ambiguous_gadget(2)


def test_broken_internal_invariants_raise_even_under_python_O(monkeypatch):
    import hyperlift.census as census

    single = PatternHypergraph([(0, 1, 2)])
    monkeypatch.setattr(census, "automorphism_count", lambda pattern: 4)  # true value 6
    with pytest.raises(RuntimeError, match="does not divide"):
        exact_expected_count(single, 3, Fraction(1, 2))
    monkeypatch.setattr(census, "project_edges", lambda edges: tuple(edges))
    with pytest.raises(RuntimeError, match="project differently"):
        build_ambiguous_gadget(3)


def test_map_failure_gadget_structure():
    hb3 = build_map_failure_gadget(3)
    assert hb3.v == 6 and hb3.e == 4
    for d in (3, 4):
        hb = build_map_failure_gadget(d)
        assert hb.v == d + math.comb(d, 2) * (d - 2)
        assert hb.e == math.comb(d, 2) + 1
        g = project(Hypergraph(hb.v, d, hb.edges))
        rep = min_preimage(g, d, vertex_bound=max(64, hb.v))
        assert rep.min_size == math.comb(d, 2)
        assert tuple(range(d)) not in rep.min_covers[0]  # central hyperedge dropped


def test_spurious_clique_gadget_structure():
    truth, spurious = build_spurious_clique_gadget(3)
    assert truth.v == 6 and truth.e == 3
    assert spurious == (0, 1, 2)
    for d in (3, 4, 5):
        t, s = build_spurious_clique_gadget(d)
        assert t.v == d * d - 2 * d + 3 and t.e == d


def test_threshold_table_values():
    table = threshold_table()
    assert table.bounds(3) == (Fraction(2, 5), Fraction(2, 5))
    assert table.bounds(4) == (Fraction(1, 2), Fraction(4, 7))
    assert table.bounds(5) == (Fraction(1, 2), Fraction(2, 3))
    assert table.bounds(10) == (Fraction(7, 10), Fraction(88, 92))
    assert table.two_connectivity(3) == Fraction(1, 2)
    assert table.ambiguity_gadget(3) == Fraction(2, 5)
    assert table.clique_cover(4) == Fraction(1, 4)
    for d in range(3, 12):
        lower, upper = table.bounds(d)
        assert lower <= upper
    with pytest.raises(ValueError):
        table.bounds(2)


def test_graph_canonical_form_matches_pattern_isomorphism():
    _, _, proj = build_ambiguous_gadget(3)
    perm = list(range(proj.n))
    Stream(3).shuffle(perm)
    relabeled = type(proj)(proj.n, [(perm[a], perm[b]) for a, b in proj.edges])
    assert graph_canonical_form(proj) == graph_canonical_form(relabeled)


def test_automorphism_guard_for_oversized_cells():
    # a large edgeless-refinement pattern trips the guard rather than hanging
    big = PatternHypergraph([tuple(range(14))])
    with pytest.raises(PatternTooLargeError):
        automorphism_count(big)


def test_appearance_exponent_matches_density_threshold_test():
    from hyperlift.census import appearance_exponent

    cases = [
        PatternHypergraph([(0, 1, 2)]),
        PatternHypergraph([(0, 1, 2), (0, 1, 3)]),
        build_ambiguous_gadget(3)[0],
        build_map_failure_gadget(3),
        PatternHypergraph([(0, 1, 2), (3, 4, 5)]),
    ]
    deltas = [Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(1)]
    for pat in cases:
        m = max_density(pat)
        for delta in deltas:
            app = appearance_exponent(pat, 3, delta)
            # appearance_exponent >= 0  <=>  delta >= d - 1 - 1/m(K)
            assert (app >= 0) == (delta >= 2 - 1 / m)
            assert app <= expected_count_exponent(pat, 3, delta)
    # single hyperedge attains its own max density: exponents coincide
    single = PatternHypergraph([(0, 1, 2)])
    assert appearance_exponent(single, 3, Fraction(1, 5)) == expected_count_exponent(
        single, 3, Fraction(1, 5)
    )


def test_canonical_form_cross_validated_on_d4_pendant_patterns():
    # patterns full of interchangeable pendant vertices exercise the
    # incidence-class pruning inside the canonical search
    from hyperlift.core import generate_random_hypergraph

    pool = []
    for seed in range(200):
        params = DensityParams(4, Fraction(1, 3), 9)
        h = generate_random_hypergraph(params, seed, p_override=0.06)
        if 1 <= len(h) <= 5:
            pool.append(PatternHypergraph.from_edges(h.edges))
    rng = Stream(424242)
    checked = 0
    for i in range(len(pool)):
        for j in range(i + 1, min(i + 6, len(pool))):
            a, b = pool[i], pool[j]
            assert brute_force_isomorphic(a, b) == (
                a.canonical_form == b.canonical_form
            )
            checked += 1
    for pat in pool[:40]:
        perm = list(range(pat.v))
        rng.shuffle(perm)
        assert pat.relabeled(perm).canonical_form == pat.canonical_form
    assert checked >= 150
