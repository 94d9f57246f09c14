"""Exact pattern combinatorics: canonical forms, aut, densities, g tables."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from oracles import (
    appearance_exponent,
    assert_same_partition,
    brute_force_isomorphic,
    brute_max_density,
    generated_group_order,
    reference_automorphism_count,
    reference_canonical_form,
    reference_min_cost_cover,
    reference_refine,
    reference_refine_round,
    reference_twin_class_automorphism_count,
)

from hyperlift.census import (
    _best_subset_above,
    _incidence,
    _refine,
    cover_bound_min,
    PatternHypergraph,
    automorphism_count,
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
from hyperlift.preimage import cover_masks
from hyperlift.reconstruct import min_preimage
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


def _d4_pendant_pool() -> list:
    """Small random d=4 patterns full of interchangeable pendant vertices."""
    pool = []
    for seed in range(200):
        params = DensityParams(4, Fraction(1, 3), 9)
        h = generate_random_hypergraph(params, seed, p_override=0.06)
        if 1 <= len(h) <= 5:
            pool.append(PatternHypergraph.from_edges(h.edges))
    return pool


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
    with pytest.raises(ValueError, match="1 edge colors for 2 edges"):
        canonical_form([(0, 1, 2), (0, 1, 3)], [0])
    with pytest.raises(ValueError, match="3 edge colors for 2 edges"):
        canonical_form([(0, 1, 2), (0, 1, 3)], [0, 1, 1])


def test_canonical_form_matches_the_full_tree_reference_on_random_inputs():
    # seeded random hypergraphs with edges of 2..4 vertices, plain and with
    # random edge colors, each also under a random relabeling: the forms
    # partition them as the full-tree reference's forms do
    rng = Stream(2014)
    cases = []
    for case in range(400):
        n = 2 + rng.randrange(10)
        edges = []
        for _ in range(1 + rng.randrange(10)):
            members = list(range(n))
            rng.shuffle(members)
            edges.append(tuple(members[: 2 + rng.randrange(min(3, n - 1))]))
        colors = None if case % 2 == 0 else [rng.randrange(3) for _ in edges]
        key = reference_canonical_form(edges, colors)
        cases.append((canonical_form(edges, colors), key, (edges, colors)))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [tuple(perm[u] for u in e) for e in edges]
        cases.append((canonical_form(relabeled, colors), key, (edges, colors, perm)))
    assert assert_same_partition(cases) > 300


def test_canonical_form_keeps_the_twin_class_sizes():
    # one hyperedge of 3 or 4 vertices is one class of 3 or 4 twins; a
    # pendant class enlarged; the same sorted sizes placed differently on a
    # path of three classes (a pendant pair and a single middle vertex, or
    # the other way round): each pair has one quotient, so only the sizes
    # tell them apart
    pairs = [
        ([(0, 1, 2)], [(0, 1, 2, 3)]),
        ([(0, 1, 2, 3), (2, 3, 4, 5)], [(0, 1, 2, 3, 6), (2, 3, 4, 5)]),
        ([(0, 1, 2), (2, 3, 4, 5)], [(0, 1, 2), (1, 2, 3, 4, 5)]),
    ]
    for a, b in pairs:
        assert canonical_form(a) != canonical_form(b), (a, b)
        assert PatternHypergraph(a).canonical_form != PatternHypergraph(b).canonical_form


def test_ambiguous_gadget_preimages_share_a_canonical_form():
    # the two minimum preimages swap the hubs u1 and u2
    for d in range(3, 11):
        preimage1, preimage2, _ = build_ambiguous_gadget(d)
        assert canonical_form(preimage1.edges) == canonical_form(preimage2.edges), d
        assert preimage1.canonical_form == preimage2.canonical_form, d


def _branched(colors: list, v: int) -> list:
    """colors with v individualized, as the search tree's children do."""
    branched = [2 * c for c in colors]
    branched[v] -= 1
    return branched


def test_refine_matches_the_round_by_round_reference():
    # seeded random colored hypergraphs from an arbitrary start coloring, a
    # discrete start coloring with gaps, and every individualized coloring
    # of their stable coloring, as the search tree's children build them
    rng = Stream(1975)
    starts = discrete_after_one_round = 0
    for case in range(300):
        n = 2 + rng.randrange(12)
        edges = []
        for _ in range(1 + rng.randrange(12)):
            members = list(range(n))
            rng.shuffle(members)
            edges.append(tuple(sorted(members[: 2 + rng.randrange(min(4, n - 1))])))
        edge_colors = [rng.randrange(1 + case % 3) for _ in edges]
        incident = _incidence(n, edges)
        start = [rng.randrange(1 + case % 4) * 3 for _ in range(n)]
        gapped = [3 * i for i in range(n)]
        rng.shuffle(gapped)
        stable = reference_refine(n, edges, edge_colors, incident, [0] * n)
        colorings = [start, gapped, [0] * n] + [_branched(stable, v) for v in range(n)]
        for colors in colorings:
            expected = reference_refine(n, edges, edge_colors, incident, list(colors))
            assert _refine(n, edges, edge_colors, incident, list(colors)) == expected, (
                edges,
                edge_colors,
                colors,
            )
            once = reference_refine_round(n, edges, edge_colors, incident, colors)
            if len(set(colors)) < n == len(set(once)):
                discrete_after_one_round += 1
            starts += 1
    assert starts > 2000
    assert discrete_after_one_round > 100


def _twin_heavy_hypergraphs(count: int, seed: int):
    """Seeded random hypergraphs, each edge with 2..4 pendant vertices of
    its own (a twin class), every other one with random edge colors."""
    rng = Stream(seed)
    for case in range(count):
        core = 2 + rng.randrange(5)
        n, edges = core, []
        for _ in range(1 + rng.randrange(4)):
            members = list(range(core))
            rng.shuffle(members)
            pendants = 2 + rng.randrange(3)
            edges.append(tuple(sorted(members[: 1 + rng.randrange(3)])) + tuple(range(n, n + pendants)))
            n += pendants
        edge_colors = [rng.randrange(3) if case % 2 else 0 for _ in edges]
        yield n, edges, edge_colors


def test_individualizing_a_twin_cell_needs_no_refinement():
    # in a stable coloring, a cell whose vertices are all twins of v (same
    # incident edges) lies inside every edge that meets it; individualizing
    # v changes those edges' profiles in one injective way, so no class
    # splits and the refinement of the branched coloring is its dense ranks
    # (a fact of the refinement alone: the engine no longer takes this
    # shortcut, since it only ever searches twin quotients, which have no
    # twins)
    equal = inside = 0
    for n, edges, edge_colors in _twin_heavy_hypergraphs(120, 1614):
        incident = _incidence(n, edges)
        twins = [frozenset(edge_ids) for edge_ids in incident]
        root = reference_refine(n, edges, edge_colors, incident, [0] * n)
        stable = [root] + [
            reference_refine(n, edges, edge_colors, incident, _branched(root, v))
            for v in range(n)
        ]
        for colors in stable:
            for v, c in enumerate(colors):
                cell = {u for u in range(n) if colors[u] == c}
                twin_class = {u for u in range(n) if twins[u] == twins[v]}
                if len(cell) < 2 or not cell <= twin_class:
                    continue
                ranks = [x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)]
                branched = _branched(colors, v)
                assert reference_refine(n, edges, edge_colors, incident, branched) == ranks, (
                    edges,
                    edge_colors,
                    colors,
                    v,
                )
                if cell == twin_class:
                    equal += 1
                else:
                    inside += 1
    assert equal > 500 and inside > 100


def _twin_heavy_pool() -> list:
    """d=4..6 random patterns full of pendant twins, the ambiguous gadgets
    for d=4..6 and the map-failure gadgets for d=4, 5."""
    pool = []
    for d in (4, 5, 6):
        n = d + 5
        p = 3 / math.comb(n, d)
        for seed in range(40):
            h = generate_random_hypergraph(DensityParams(d, Fraction(1, 3), n), seed, p_override=p)
            if 2 <= len(h) <= 5:
                pool.append(PatternHypergraph.from_edges(h.edges))
    pool += [build_ambiguous_gadget(d)[0] for d in (4, 5, 6)]
    pool += [build_map_failure_gadget(d) for d in (4, 5)]
    return pool


def test_twin_heavy_patterns_match_the_references_under_relabeling():
    # the forms partition the pool and its relabelings as the full-tree
    # reference's forms do, and |Aut| is the twin-class reference's: the
    # vertex-level one raises on four of these patterns and takes 21 s on
    # another
    rng = Stream(2302)
    pool = _twin_heavy_pool()
    assert len(pool) > 40
    cases = []
    for pat in pool:
        key = reference_canonical_form(pat.edges)
        order = reference_twin_class_automorphism_count(pat)
        for relabeling in range(4):
            perm = list(range(pat.v))
            if relabeling:
                rng.shuffle(perm)
            image = pat.relabeled(perm)
            cases.append((canonical_form(image.edges), key, (pat.edges, perm)))
            assert automorphism_count(image) == order, (pat.edges, perm)
    assert assert_same_partition(cases) > 20


def test_automorphism_examples():
    assert automorphism_count(PatternHypergraph([(0, 1, 2)])) == 6
    assert automorphism_count(PatternHypergraph([(0, 1, 2), (0, 1, 3)])) == 4
    assert automorphism_count(PatternHypergraph([(0, 1, 2), (3, 4, 5)])) == 72
    f = math.factorial
    for d in range(3, 11):
        ambiguous = build_ambiguous_gadget(d)[0]
        assert automorphism_count(ambiguous) == f(d - 1) * f(d - 2) ** (2 * (d - 1))
        map_failure = build_map_failure_gadget(d)
        assert automorphism_count(map_failure) == f(d) * f(d - 2) ** math.comb(d, 2)


def test_automorphism_count_matches_backtracking_reference():
    # the vertex-level reference, which the twin-class one must agree with
    for pat in _small_d3_patterns() + _d4_pendant_pool():
        order = reference_automorphism_count(pat)
        assert automorphism_count(pat) == order, pat.edges
        assert reference_twin_class_automorphism_count(pat) == order, pat.edges


def test_automorphism_count_is_memoized_on_the_pattern(monkeypatch):
    import hyperlift.census as census

    pat = PatternHypergraph([(0, 1, 2), (0, 1, 3)])
    form = canonical_form(pat.edges)
    assert automorphism_count(pat) == 4
    monkeypatch.setattr(census, "_search_tree", None)
    assert automorphism_count(pat) == 4
    assert pat.canonical_form == form  # filled in by the same search


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
    # the generators act on the twin quotient's class ids and keep its
    # edges and class sizes; with the size factorials they close to |Aut|,
    # and the generators of the pattern's own tree close to the same order
    import hyperlift.census as census

    for pat in _small_d3_patterns() + _d4_pendant_pool():
        tree, sizes = pat.tree, pat.sizes
        quotient = {tuple(sorted(e)) for e in tree.edges}
        for g in pat.generators:
            assert sorted(g) == list(range(len(sizes)))
            assert {tuple(sorted(g[t] for t in e)) for e in tree.edges} == quotient
            assert [sizes[g[t]] for t in range(len(sizes))] == sizes
        order = generated_group_order(pat.generators, len(sizes))
        assert order * math.prod(map(math.factorial, sizes)) == automorphism_count(pat)
        own = census._search_tree(
            census._Tree(pat.v, pat.edges, [0] * pat.e, _incidence(pat.v, pat.edges))
        )[1]
        assert generated_group_order(own, pat.v) == automorphism_count(pat), pat.edges


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


def test_best_subset_above_is_the_least_profit_maximizing_subset():
    # brute force over every hyperedge subset S of profit b*e_S - a*v_S at
    # lam = a/b: the min cut returns the intersection of the maximizers,
    # and None exactly when the best profit is 0 (the empty subset's)
    draw = Stream(14)
    outcomes = set()
    for _ in range(400):
        v = 3 + draw.randrange(5)
        pool = [e for k in (2, 3) for e in combinations(range(v), k)]
        draw.shuffle(pool)
        edges = sorted(pool[: 1 + draw.randrange(8)])
        lam = Fraction(1 + draw.randrange(6), 1 + draw.randrange(6))
        a, b = lam.numerator, lam.denominator
        profit = {
            subset: b * len(subset) - a * len({u for i in subset for u in edges[i]})
            for r in range(len(edges) + 1)
            for subset in combinations(range(len(edges)), r)
        }
        best = max(profit.values())
        least = set(range(len(edges))).intersection(*(s for s, x in profit.items() if x == best))
        got = _best_subset_above(edges, lam)
        assert got == (sorted(least) if best > 0 else None), (edges, lam)
        outcomes.add(got is None)
    assert outcomes == {True, False}


# m(K) of the ambiguous gadget's preimages and of the map-failure gadget,
# pinned so that any change to the min cut must reproduce them
GADGET_MAX_DENSITY = {
    3: ("5/8", "2/3"),
    4: ("7/17", "7/16"),
    5: ("3/10", "11/35"),
    6: ("11/47", "8/33"),
    7: ("13/68", "11/56"),
    8: ("5/31", "29/176"),
    9: ("17/122", "37/261"),
    10: ("19/155", "23/185"),
}


@pytest.mark.parametrize("d", sorted(GADGET_MAX_DENSITY))
def test_gadget_max_densities_are_pinned(d):
    ambiguous, failure = map(Fraction, GADGET_MAX_DENSITY[d])
    pre1, pre2, _ = build_ambiguous_gadget(d)
    assert max_density(pre1) == max_density(pre2) == ambiguous
    assert max_density(build_map_failure_gadget(d)) == failure


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
    for d in range(2, 8):
        assert g_k(d, d, Fraction(2, 5)) == 0  # the empty universe
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


@pytest.mark.parametrize("delta", [Fraction(2), Fraction(-1, 5)])
def test_cover_optimizations_reject_delta_outside_the_unit_interval(delta):
    # outside [0, 1] some member costs |S| - 1 - delta < 0, which the
    # budgeted cover search cannot minimize: g_0(3, 2) would read -3
    with pytest.raises(ValueError, match=f"delta={delta}"):
        g_0(3, delta)
    with pytest.raises(ValueError, match=f"delta={delta}"):
        g_k(3, 2, delta)
    # k = d has an empty universe and d = 2 only the cover bound's k = d
    # branch, and delta is still checked
    with pytest.raises(ValueError, match=f"delta={delta}"):
        g_k(3, 3, delta)
    for d in (2, 3):
        with pytest.raises(ValueError, match=f"delta={delta}"):
            cover_bound_min(d, delta)


# sha256 of repr([(d, delta, g_0(d, delta), [g_k(d, k, delta) for k in 2..d])])
# over d = 3..6 and delta = i/20, i = 0..20 (delta = 1 makes pairs cost 0)
G_TABLE_SHA256 = "6086a2e207f3fa34842d0a875f46e3a3d3fc99e09f3d99d477869ec2070a515e"


def test_g_tables_are_pinned():
    rows = []
    for d in range(3, 7):
        for i in range(21):
            delta = Fraction(i, 20)
            gk = [g_k(d, k, delta) for k in range(2, d + 1)]
            rows.append((d, delta, g_0(d, delta), gk))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == G_TABLE_SHA256


def _reference_cover(universe, candidates, delta):
    """(cost, cover) of the weighted branch and bound on g's masks and costs."""
    masks, full = cover_masks(universe, candidates)
    scale = delta.denominator
    costs = [scale * (len(s) - 1) - delta.numerator for s in candidates]
    cost, chosen = reference_min_cost_cover(full, masks, costs)
    return Fraction(cost, scale), tuple(candidates[i] for i in chosen)


@pytest.mark.parametrize(
    "delta", [Fraction(0), Fraction(1, 4), Fraction(3, 7), Fraction(11, 20), Fraction(1)]
)
def test_g_at_d7_matches_the_weighted_branch_and_bound(delta):
    # the pin above stops at d = 6
    d = 7
    pairs = list(combinations(range(d), 2))
    subsets = [s for size in range(2, d + 1) for s in combinations(range(d), size)]
    proper = [s for s in subsets if len(s) < d]
    assert g_0(d, delta) == _reference_cover(pairs, proper, delta)
    for k in range(2, d):
        inside = set(range(k))
        universe = [p for p in pairs if not set(p) <= inside]
        candidates = [s for s in subsets if not set(s) <= inside]
        assert g_k(d, k, delta) == _reference_cover(universe, candidates, delta)[0]


def test_ambiguous_gadget_structure():
    p1, p2, proj = build_ambiguous_gadget(3)
    assert p1.v == 8 and p1.e == 5 and p2.e == 5
    assert len(proj.edges) == 13
    assert p1.edges != p2.edges
    for d in (3, 4, 5):
        a, b, pr = build_ambiguous_gadget(d)
        assert a.v == d + 1 + 2 * (d - 1) * (d - 2)
        rep = min_preimage(pr, d)
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
        rep = min_preimage(g, d)
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
    def bounds(d):
        row = threshold_table(d)
        return row["lower"], row["upper"]

    assert bounds(3) == (Fraction(2, 5), Fraction(2, 5))
    assert bounds(4) == (Fraction(1, 2), Fraction(4, 7))
    assert bounds(5) == (Fraction(1, 2), Fraction(2, 3))
    assert bounds(10) == (Fraction(7, 10), Fraction(88, 92))
    assert threshold_table(3)["two_connectivity"] == Fraction(1, 2)
    assert threshold_table(3)["ambiguity_gadget"] == Fraction(2, 5)
    assert threshold_table(4)["clique_cover"] == Fraction(1, 4)
    for d in range(3, 12):
        lower, upper = bounds(d)
        assert lower <= upper
    with pytest.raises(ValueError):
        threshold_table(2)


def test_graph_canonical_form_matches_pattern_isomorphism():
    _, _, proj = build_ambiguous_gadget(3)
    perm = list(range(proj.n))
    Stream(3).shuffle(perm)
    relabeled = type(proj)(proj.n, [(perm[a], perm[b]) for a, b in proj.edges])
    assert graph_canonical_form(proj) == graph_canonical_form(relabeled)


def test_automorphism_count_of_a_14_vertex_hyperedge_is_14_factorial():
    # one refinement cell of 14 vertices: the old backtracking count refused
    # it (14! candidate maps, over its cap); the orbit-length product is immediate
    big = PatternHypergraph([tuple(range(14))])
    assert automorphism_count(big) == math.factorial(14) == 87_178_291_200


def test_appearance_exponent_matches_density_threshold_test():
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
    pool = _d4_pendant_pool()
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
