"""Growth enumeration and the pruned ambiguity search.  The three pilot
certificates run once per module: their counters and the d=3 report are
pinned, the patterns they expand feed the candidate-dedup oracle, and the
patterns they deduplicate feed the canonical-form oracle (the acceptance
suite checks their verdicts)."""

import hashlib
import importlib.util
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import (
    assert_same_partition,
    generated_group_order,
    reference_automorphism_count,
    reference_candidate_neighbors,
    reference_canonical_form,
    reference_grow,
    reference_orbit_candidates,
    reference_root_cuts,
    reference_twin_class_automorphism_count,
)

from hyperlift import census, preimage, search
from hyperlift.census import (
    IsomorphismClasses,
    PatternHypergraph,
    _normalize,
    automorphism_count,
    build_ambiguous_gadget,
    build_map_failure_gadget,
    canonical_form,
    expected_count_exponent,
)
from hyperlift.components import decompose
from hyperlift.core import Graph, clique_hypergraph, project_edges
from hyperlift.rng import Stream
from hyperlift.search import (
    SearchConfig,
    candidate_neighbors,
    dfs_search,
    grow,
)

# the pilot certificates: (d, delta, max_depth) -> (nodes_visited,
# nodes_deduped, nodes_pruned_by_exponent); visited and deduped as recorded
# before the orbit dedup replaced canonical forms in candidate_neighbors,
# pruned counting the search tree's leaves: the visited nodes with exponent
# <= 0 and the expanded nodes that grow gives no child
CERTIFICATES = {
    (3, Fraction(2, 5), None): (1748, 1437, 1590),
    (4, Fraction(1, 2), 12): (563, 320, 549),
    (5, Fraction(1, 2), 14): (24, 34, 20),
}
D3_REPORT_SHA256 = "cd3b7bf19a07927793af0ee87ee5785b2bc6a567c19edb03ff4fab3bac8fe871"
REPORT_SHA256 = {
    3: D3_REPORT_SHA256,
    4: "d6de3f365eb01f75d48013f2fec5ecd19a9be9b5de72e59ef653706b914d6fc1",
    5: "429e4fdf42fd1af339fc329d8c05976a6c2bc05b88a3a5ebc7712f6d09f78399",
}


@pytest.fixture(scope="module")
def certificates():
    """Each certificate's report, the patterns its search expanded and the
    patterns it deduplicated (its roots and every grown child)."""
    expanded: list = []
    deduplicated: list = []

    def recording(pattern, d, delta):
        expanded.append(pattern.edges)
        return candidate_neighbors(pattern, d, delta)

    class Recording(IsomorphismClasses):
        def add(self, pattern):
            deduplicated.append(pattern.edges)
            return super().add(pattern)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "candidate_neighbors", recording)
        mp.setattr(search, "IsomorphismClasses", Recording)
        for d, delta, depth in CERTIFICATES:
            expanded.clear()
            deduplicated.clear()
            report = dfs_search(SearchConfig(d, delta, max_depth=depth))
            runs[d] = (report, list(expanded), list(deduplicated))
    return runs


def test_candidate_neighbors_single_hyperedge_collapses_to_one_class():
    cands = candidate_neighbors(PatternHypergraph([(0, 1, 2)]), 3, Fraction(2, 5))
    assert cands == [(0, 1, 3)]


def test_candidate_neighbors_diamond_includes_closing_triple():
    cands = candidate_neighbors(PatternHypergraph([(0, 1, 2), (0, 1, 3)]), 3, Fraction(2, 5))
    # the k=3 candidate closing the diamond into K4 must be present
    assert (2, 3) in {tuple(sorted(h[:2])) for h in cands if max(h) <= 3} or any(
        set(h) == {0, 2, 3} or set(h) == {1, 2, 3} for h in cands
    )
    # and the count before dedup is bounded by sum_k C(|V|, k)
    assert len(cands) <= sum(
        1 for k in (2, 3) for _ in itertools.combinations(range(4), k)
    )


def test_candidate_neighbors_strict_vs_loose():
    # {2, 3} spans the two hyperedges but no single clique hyperedge contains
    # both, so no candidate goes through it: h must be a 2-neighbor (the
    # strict rule), not merely meet the pattern in two vertices (the loose one)
    pattern = [(0, 1, 2), (0, 1, 3)]
    assert not any(
        set(h) & {2, 3} == {2, 3} and not set(h) & {0, 1}
        for h in candidate_neighbors(PatternHypergraph(pattern), 3, Fraction(2, 5))
    )


def test_grow_children_for_single_hyperedge():
    delta = Fraction(2, 5)
    kids = grow(PatternHypergraph([(0, 1, 2)]), [(0, 1, 3)], 3, delta)
    assert kids == reference_grow([(0, 1, 2)], (0, 1, 3), 3, delta)
    kid_sets = {k for k in kids}
    # h itself
    assert ((0, 1, 2), (0, 1, 3)) in kid_sets
    # the two-new-hyperedge pattern: {012}, {03a}, {13b} (normalized labels)
    assert any(len(k) == 3 and all(len(e) == 3 for e in k) and
               sum(1 for e in k if 3 in e) >= 2 for k in kid_sets)
    # of the 5 covering collections, {03, 13, 013} costs 14/5 against a
    # budget of 12/5 (the parent's 7/5 plus h's one fresh vertex)
    assert len(kids) == 4


def test_grow_children_have_two_connected_clique_structure():
    pattern = [(0, 1, 2), (0, 1, 3)]
    delta = Fraction(2, 5)
    pat = PatternHypergraph(pattern)
    for h in candidate_neighbors(pat, 3, delta):
        kids = grow(pat, [h], 3, delta)
        assert kids == reference_grow(pattern, h, 3, delta)
        for child in kids:
            v = len({u for e in child for u in e})
            cli = clique_hypergraph(Graph(v, project_edges(child)), 3)
            assert len(decompose(cli).components) == 1


def test_grow_exponent_decrease_is_at_least_the_gap():
    d, delta = 3, Fraction(2, 5)
    threshold = Fraction(d - 1, d + 1)
    pattern = ((0, 1, 2), (0, 1, 3))
    pat = PatternHypergraph(pattern)
    parent = expected_count_exponent(pat, d, delta)
    for h in candidate_neighbors(pat, d, delta):
        kids = grow(pat, [h], d, delta)
        assert kids == reference_grow(pattern, h, d, delta)
        for child in kids:
            child_exp = expected_count_exponent(PatternHypergraph(child), d, delta)
            assert child_exp <= parent - (threshold - delta)


def test_pruned_grow_lists_the_child_of_a_large_family():
    # nine of the ten pairs of h are new: 25 subsets, up to 2**25 collections,
    # of which the exponent budget leaves few
    pattern, h = ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)), (0, 1, 8, 9, 10)
    kids = grow(PatternHypergraph(pattern), [h], 5, Fraction(1, 2))
    assert ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (0, 1, 8, 9, 10)) in kids


def test_search_config_depth_default_and_validation():
    cfg = SearchConfig(3, Fraction(2, 5))
    assert cfg.max_depth == 20  # ceil(2 / (1/2 - 2/5))
    with pytest.raises(ValueError):
        SearchConfig(3, Fraction(1, 2))  # at threshold: explicit depth needed
    assert SearchConfig(3, Fraction(1, 2), max_depth=3).max_depth == 3
    with pytest.raises(ValueError):
        SearchConfig(2, Fraction(1, 5))
    # a root's growth step lists every subset of a d-set before any budget
    # is checked, at a cost that doubles with d
    assert SearchConfig(12, Fraction(1, 2)).d == 12
    with pytest.raises(ValueError, match=r"^need 3 <= d <= 12, got 13$"):
        SearchConfig(13, Fraction(1, 2))
    # 0.4 is not 2/5 in binary: ceil(2 / (1/2 - 0.4)) would read 21
    with pytest.raises(ValueError, match="delta=0.4"):
        SearchConfig(3, 0.4)
    assert SearchConfig(3, 0).max_depth == 4


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
def test_search_config_rejects_a_time_budget_that_is_not_positive(budget):
    # nan <= 0 is False, so a nan budget once passed and never expired
    with pytest.raises(ValueError, match="time budget must be positive"):
        SearchConfig(3, Fraction(1, 5), time_budget=budget)


def test_search_below_gadget_threshold_finds_nothing():
    report = dfs_search(SearchConfig(3, Fraction(1, 5)))
    assert report.exhausted
    assert report.ambiguous_found == []
    assert report.nodes_visited >= 1
    assert report.nodes_pruned_by_exponent > 0


def test_search_budget_trips_honestly():
    report = dfs_search(SearchConfig(3, Fraction(2, 5), node_budget=5))
    assert not report.exhausted
    assert report.nodes_visited <= 5


def test_search_dedup_off_agrees_on_tiny_instance(certificates, monkeypatch):
    # a set that takes every pattern as new turns the isomorphism dedup off:
    # the search then expands every labeled pattern (1748 nodes become
    # thousands) and must find the same ambiguous class as the d=3
    # certificate
    class Off(IsomorphismClasses):
        def add(self, pattern):
            return True

    monkeypatch.setattr(search, "IsomorphismClasses", Off)
    off = dfs_search(SearchConfig(3, Fraction(2, 5)))
    on = certificates[3][0]
    assert off.exhausted
    assert off.nodes_deduped == 0
    assert off.nodes_visited > on.nodes_visited
    assert len(on.ambiguous_found) == 1
    assert {c.canonical for c in off.ambiguous_found} == {
        c.canonical for c in on.ambiguous_found
    }


def test_isomorphism_classes_partition_as_canonical_forms_do(certificates):
    # every pattern the certificates deduplicated and a seeded relabeling of
    # each, shuffled together: add() reports a new class exactly when the
    # pattern's canonical form is new
    patterns = [p for _, _, deduplicated in certificates.values() for p in deduplicated]
    assert len(patterns) == 4126
    rng = Stream(1919)
    pool = list(patterns)
    for pattern in patterns:
        perm = list(range(1 + max(map(max, pattern))))
        rng.shuffle(perm)
        pool.append(tuple(sorted(tuple(sorted(perm[u] for u in e)) for e in pattern)))
    rng.shuffle(pool)
    classes, forms = IsomorphismClasses(), set()
    for pattern in pool:
        form = canonical_form(pattern)
        assert classes.add(PatternHypergraph(pattern)) == (form not in forms), pattern
        forms.add(form)
    assert len(forms) == sum(c[0].nodes_visited for c in certificates.values())


def _first_leaf(edges) -> bytes:
    n = 1 + max(map(max, edges))
    tree = census._Tree(n, edges, [0] * len(edges), census._incidence(n, edges))
    return tree.encode(tree.path[-1])


def _pendant_cycles(lengths) -> list:
    """Disjoint cycles of the given lengths, in order from vertex 0, each
    cycle edge {a, b} made a hyperedge {a, b, p} with a pendant vertex p of
    its own after all the cycle vertices."""
    total = sum(lengths)
    edges, first = [], 0
    for length in lengths:
        for i in range(length):
            a, b = first + i, first + (i + 1) % length
            edges.append((min(a, b), max(a, b), total + len(edges)))
        first += length
    return edges


def test_isomorphism_classes_compare_canonical_forms_only_on_a_bare_key_match(monkeypatch):
    calls = []

    def counting(edges, edge_colors=None):
        calls.append(edges)
        return canonical_form(edges, edge_colors)

    monkeypatch.setattr(census, "canonical_form", counting)
    # C6 and two triangles, a pendant vertex on every edge: the refinement
    # gives both the classes {cycle vertices}, {pendants} and one edge
    # profile, so they share a key, and only canonical forms tell them apart:
    # the new pattern's form, read off the search of its own tree and
    # memoized on the node record, and canonical_form's of the stored
    # pattern
    hexagon, triangles = _pendant_cycles([6]), _pendant_cycles([3, 3])
    classes = IsomorphismClasses()
    assert classes.add(PatternHypergraph(hexagon))
    assert not calls
    pattern = PatternHypergraph(triangles)
    assert classes.add(pattern)
    assert len(classes._classes) == 1
    assert calls == [PatternHypergraph(hexagon).edges]
    assert pattern._canon == canonical_form(triangles)
    # their disjoint union, the hexagon's labels first and then last: the
    # first path individualizes a vertex of the hexagon in one and of a
    # triangle in the other, so the first leaves differ, and the canonical
    # forms find the one class
    first = tuple(sorted(_pendant_cycles([6, 3, 3])))
    last = tuple(sorted(_pendant_cycles([3, 3, 6])))
    assert _first_leaf(first) != _first_leaf(last)
    assert canonical_form(first) == canonical_form(last)
    calls.clear()
    assert classes.add(PatternHypergraph(first))
    assert not calls
    assert not classes.add(PatternHypergraph(last))
    assert calls == [first]
    assert not classes.add(PatternHypergraph(first))  # its own first leaf: no canonical form
    assert calls == [first]


def test_isomorphism_classes_keep_the_twin_class_sizes():
    # the d=5 roots, two 5-edges sharing 2, 3 and 4 vertices: each twin
    # quotient is a path of three twin classes, and only the class sizes,
    # (3, 2, 3), (2, 3, 2) and (1, 4, 1), tell the three apart
    roots = [PatternHypergraph((tuple(range(5)), tuple(range(5 - k, 10 - k)))) for k in (2, 3, 4)]
    classes = IsomorphismClasses()
    assert [classes.add(root) for root in roots] == [True, True, True]
    assert [classes.add(root.relabeled(range(root.v)[::-1])) for root in roots] == [False] * 3


def _twin_rich_pattern(rng, d: int) -> tuple:
    """A d-uniform pattern over a few shared vertices, each hyperedge
    filled up with private vertices, which are twins; dense labels."""
    shared = 2 + rng.randrange(3)
    edges, fresh = [], shared
    for _ in range(2 + rng.randrange(3)):
        k = 1 + rng.randrange(min(shared, d - 1))
        vertices = list(range(shared))
        rng.shuffle(vertices)
        edges.append(tuple(vertices[:k]) + tuple(range(fresh, fresh + d - k)))
        fresh += d - k
    return PatternHypergraph.from_edges(edges).edges


@pytest.mark.parametrize("d", [4, 5])
def test_isomorphism_classes_on_twin_rich_patterns_partition_as_canonical_forms_do(d):
    # random patterns whose hyperedges each hold private twins, and a seeded
    # relabeling of each, shuffled together: add() reports a new class
    # exactly when the pattern's canonical form is new
    rng = Stream(2700 + d)
    patterns = [_twin_rich_pattern(rng, d) for _ in range(300)]
    pool = list(patterns)
    for pattern in patterns:
        perm = list(range(1 + max(map(max, pattern))))
        rng.shuffle(perm)
        pool.append(tuple(sorted(tuple(sorted(perm[u] for u in e)) for e in pattern)))
    rng.shuffle(pool)
    classes, forms = IsomorphismClasses(), set()
    twinned = 0
    for pattern in pool:
        form = canonical_form(pattern)
        pat = PatternHypergraph(pattern)
        twinned += len(pat.sizes) < pat.v
        assert classes.add(pat) == (form not in forms), pattern
        forms.add(form)
    assert twinned > 0.9 * len(pool), twinned
    assert 20 < len(forms) < len(patterns), len(forms)


@pytest.mark.parametrize(
    "delta, child, message",
    [
        (Fraction(2, 5), ((0, 1, 2), (1, 2, 3), (2, 3, 4)), None),
        (Fraction(1, 4), ((0, 1, 2), (0, 7, 8), (1, 2, 3), (3, 4, 5), (5, 6, 7)), None),
        (Fraction(2, 5), ((0, 1, 2), (1, 2, 3), (3, 4, 5)), "4/5 -> 6/5"),
    ],
    ids=["drops", "drops-exactly-the-least", "rises"],
)
def test_search_checks_that_each_child_lowers_the_exponent(monkeypatch, delta, child, message):
    # below the threshold a child must lose at least 1/2 - delta of the
    # d=3 root's exponent: at delta=2/5 the root's 4/5 may fall to 1/5 but
    # not rise to 6/5, and at delta=1/4 its 1/2 may fall to exactly 1/4
    root = ((0, 1, 2), (1, 2, 3))
    monkeypatch.setattr(search, "grow", lambda p, cands, d, delta: [child] if p.edges == root else [])
    if message:
        with pytest.raises(RuntimeError, match=f"^growth failed to decrease the exponent: {message}$"):
            dfs_search(SearchConfig(3, delta))
    else:
        report = dfs_search(SearchConfig(3, delta))
        assert report.exhausted and report.nodes_visited == 2


@pytest.mark.parametrize("d", [3, 4, 5])
def test_grown_children_are_already_normalized(certificates, d):
    # fresh labels run on from the pattern's and every fresh vertex of h
    # lies in a cover member, so the grown support is dense and sorting the
    # edges is the whole normalization, on every child the certificate
    # grows; dfs_search relies on it to wrap each child unchecked
    report, expanded, _ = certificates[d]
    children = 0
    for pattern in expanded:
        pat = PatternHypergraph(pattern)
        grown = grow(pat, candidate_neighbors(pat, d, report.config.delta), d, report.config.delta)
        for child in grown:
            assert child == _normalize(child), pattern
            wrapped, checked = PatternHypergraph.from_normalized(child), PatternHypergraph(child)
            assert (wrapped.edges, wrapped.v) == (checked.edges, checked.v), child
        children += len(grown)
    assert children == report.nodes_visited + report.nodes_deduped - (d - 2)


def test_report_serialization_shape():
    report = dfs_search(SearchConfig(3, Fraction(1, 5)))
    payload = report.to_dict()
    assert payload["exhausted"] is True
    assert payload["ambiguous_classes"] == []
    assert payload["delta"] == "1/5"


def test_pattern_exponent_root_values():
    # two hyperedges sharing k vertices: exponent 2 - k + 2*delta
    for d in (3, 4, 5):
        for k in range(2, d):
            e1 = tuple(range(d))
            e2 = tuple(range(d - k, 2 * d - k))
            for delta in (Fraction(0), Fraction(2, 5), Fraction(1, 2)):
                root = PatternHypergraph([e1, e2])
                assert expected_count_exponent(root, d, delta) == 2 - k + 2 * delta


def test_search_d5_at_one_half_certifies_no_ambiguity(certificates):
    # the d=5 companion of the d=4 acceptance run: exhaustive, no classes
    report = certificates[5][0]
    assert report.exhausted
    assert report.ambiguous_found == []
    assert report.nodes_visited >= 3  # roots k=2,3,4 at least


def test_certificate_counters_and_d3_report_are_pinned(certificates):
    for (d, _, _), counters in CERTIFICATES.items():
        report, expanded, _ = certificates[d]
        assert report.exhausted
        assert (
            report.nodes_visited,
            report.nodes_deduped,
            report.nodes_pruned_by_exponent,
        ) == counters, d
        # the leaves: every visited node left unexpanded, and every expanded
        # node that grow gives no child
        childless = sum(
            not grow(p, candidate_neighbors(p, d, report.config.delta), d, report.config.delta)
            for p in map(PatternHypergraph, expanded)
        )
        assert report.nodes_pruned_by_exponent == (
            report.nodes_visited - len(expanded) + childless
        ), d
    for d, digest in REPORT_SHA256.items():
        payload = json.dumps(certificates[d][0].to_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, d


def test_pilot_certificates_refine_only_what_can_split(monkeypatch):
    # each filed pattern builds one tree, its twin quotient's (946 of the
    # 4,126 filed patterns have twins), and the dedup walks one path of it;
    # an expanded pattern searches that same tree for its generators, so no
    # pattern builds a second tree of itself (4,149 trees and 6,792 refined
    # colorings when the 21 expanded patterns with twins each built their
    # own tree for their generators; 6,657 refinements when each pattern's
    # own tree was filed, 10,117 when each child got a whole canonical form,
    # 19,476 when every child was refined).  The only other trees are those
    # of the two canonical_form calls, the d=3 class's key and the stored
    # class's form in the one dedup fallback; the new pattern's form comes
    # from searching the quotient tree it has already built, 3 refinements
    # (4,129 trees, 6,750 refinements and three canonical_form calls when
    # canonical_form built a tree of the new pattern itself, with 6)
    # Only the 240 patterns that lack the private-pair certificate and ask
    # min_preimage build a projection Graph and list its cliques; the
    # expanded ones read the patterns' N[u] bitmasks instead (402 when
    # each expanded pattern built its projection and listed its cliques
    # for the candidate walk, 2,334 when every pattern with exponent >= 0
    # asked min_preimage)
    counts = dict.fromkeys(["refine", "trees", "graphs", "cliques", "preimages", "forms"], 0)

    def counting(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return call

    def enumerating(g, d):
        counts["cliques"] += d not in g._cliques
        return clique_hypergraph(g, d)

    class Tree(census._Tree):
        def __init__(self, *args):
            counts["trees"] += 1
            super().__init__(*args)

    monkeypatch.setattr(census, "_refine", counting("refine", census._refine))
    monkeypatch.setattr(census, "_Tree", Tree)
    monkeypatch.setattr(Graph, "__init__", counting("graphs", Graph.__init__))
    monkeypatch.setattr(preimage, "clique_hypergraph", enumerating)
    monkeypatch.setattr(search, "clique_hypergraph", enumerating)
    monkeypatch.setattr(search, "min_preimage", counting("preimages", search.min_preimage))
    monkeypatch.setattr(census, "canonical_form", counting("forms", census.canonical_form))
    filed = 0
    for d, delta, depth in CERTIFICATES:
        report = dfs_search(SearchConfig(d, delta, max_depth=depth))
        assert report.exhausted
        filed += report.nodes_visited + report.nodes_deduped
    assert counts["graphs"] == counts["cliques"] == counts["preimages"] == 240
    assert counts["trees"] == filed + counts["forms"] == 4_128
    assert counts["forms"] == 2
    assert counts["refine"] == 6_747


def test_private_pair_certificate_agrees_with_min_preimage(certificates, monkeypatch):
    # every pattern the three pilots and the d=5 11/20 and d=7 3/5 runs file:
    # their roots and every grown child, duplicates too, so every node visited
    runs = [(d, set(certificates[d][2])) for d in certificates]
    filed: set = set()

    class Recording(IsomorphismClasses):
        def add(self, pattern):
            filed.add(pattern.edges)
            return super().add(pattern)

    monkeypatch.setattr(search, "IsomorphismClasses", Recording)
    for d, delta in ((5, Fraction(11, 20)), (7, Fraction(3, 5))):
        filed.clear()
        assert dfs_search(SearchConfig(d, delta)).exhausted
        runs.append((d, set(filed)))
    certified = []
    for d, patterns in runs:
        certified.append(0)
        for pattern in map(PatternHypergraph, sorted(patterns)):
            if search._owns_private_pairs(pattern, d):
                # the pattern's own edges are the one minimum preimage
                rep = preimage.min_preimage(Graph(pattern.v, project_edges(pattern.edges)), d, cap=2)
                assert rep.feasible and not rep.ambiguous, pattern.edges
                assert rep.min_size == pattern.e, pattern.edges
                assert rep.min_covers[0] == pattern.edges
                certified[-1] += 1
    # the search itself resolves 1,515 of the 1,748 nodes visited at d=3
    assert min(certified) > 0 and certified[0] >= 1515, certified


@pytest.mark.parametrize("d", [3, 4])
def test_private_pair_certificate_agrees_with_the_preimage_oracle(d):
    # random d-uniform patterns over few vertices, kept while their clique
    # hypergraph is small enough to enumerate every preimage
    rng = Stream(2600 + d)
    seen = {True: 0, False: 0}
    for _ in range(400):
        v = d + 2 + rng.randrange(3)
        edges = []
        for _ in range(2 + rng.randrange(4)):
            vertices = list(range(v))
            rng.shuffle(vertices)
            edges.append(vertices[:d])
        pattern = PatternHypergraph.from_edges(edges)
        g = Graph(pattern.v, project_edges(pattern.edges))
        if len(clique_hypergraph(g, d)) > 16:
            continue
        certified = search._owns_private_pairs(pattern, d)
        seen[certified] += 1
        if certified:
            minima = oracles.all_preimages_bitmask(g, d)
            best = min(map(len, minima))
            assert [s for s in minima if len(s) == best] == [frozenset(pattern.edges)]
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("d", [3, 4, 5])
def test_gadgets_lack_the_private_pair_certificate(d):
    preimage_a, preimage_b, _ = build_ambiguous_gadget(d)
    for pattern in (preimage_a, preimage_b, build_map_failure_gadget(d)):
        assert not search._owns_private_pairs(pattern, d)


@pytest.mark.parametrize(
    "d, delta, depth, counters, digest",
    [
        (5, Fraction(11, 20), 18, (27, 34, 23),
         "2762d3af63a01281c490e483ad9b08ea3454b9ac652e506d8174cd790958e104"),
        (7, Fraction(3, 5), 14, (77, 1035, 61),
         "bb00567b765a8917ff3d665f50e227e42d60d75fef2e2487f918ec8758aa2da8"),
    ],
    ids=["d5-11/20", "d7-3/5"],
)
def test_d5_certificate_at_eleven_twentieths_is_pinned(monkeypatch, d, delta, depth, counters, digest):
    # points inside the open intervals (1/2, 2/3) for d=5 and (4/7, 10/11)
    # for d=7: no ambiguous class, exhausted at the default depth; the
    # counters and the report bytes are those of walking every k-set of
    # every expanded pattern, and the leaves are the visited nodes never
    # expanded plus the expanded ones grow gives no child
    broods = []

    def recording(*args):
        children = grow(*args)
        broods.append(len(children))
        return children

    monkeypatch.setattr(search, "grow", recording)
    start = time.perf_counter()
    report = dfs_search(SearchConfig(d, delta))
    elapsed = time.perf_counter() - start
    assert report.config.max_depth == depth
    assert report.exhausted
    assert report.ambiguous_found == []
    assert (
        report.nodes_visited, report.nodes_deduped, report.nodes_pruned_by_exponent
    ) == counters
    assert report.nodes_pruned_by_exponent == (
        report.nodes_visited - len(broods) + broods.count(0)
    )
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    assert elapsed < 10.0


@pytest.mark.parametrize("d", [3, 5])
def test_orbit_dedup_matches_canonical_form_dedup(certificates, d):
    # same candidates in the same order as dedup by marked canonical forms,
    # less those the growth budget cannot pay for, on every pattern the
    # certificate expanded
    report, expanded, _ = certificates[d]
    delta = report.config.delta
    assert expanded
    for pattern in expanded:
        unbounded = reference_candidate_neighbors(pattern, d)
        cut = reference_root_cuts(pattern, unbounded, d, delta)
        assert candidate_neighbors(PatternHypergraph(pattern), d, delta) == (
            [h for h in unbounded if h not in cut]
        ), pattern


# sha256 of the sorted canonical forms of the 4,126 patterns the pilot
# certificates deduplicate, one per line
PILOT_FORMS_SHA256 = "621056e83f67820f893c5e6214f753f9117688529bb49724ff4e9f8a5a1a1f93"


def test_canonical_form_matches_the_full_tree_reference(certificates, monkeypatch):
    # the forms partition the patterns the certificates deduplicated as the
    # full-tree reference's forms do, and so the patterns with one marked
    # hyperedge that the candidate-dedup oracle builds from the expanded
    # patterns of the d=3 and d=5 certificates
    plain = [p for _, _, deduplicated in certificates.values() for p in deduplicated]
    assert len(plain) == 4126
    forms = [canonical_form(pattern) for pattern in plain]
    cases = [(form, reference_canonical_form(p), p) for form, p in zip(forms, plain)]
    assert assert_same_partition(cases) == sum(c[0].nodes_visited for c in certificates.values())
    digest = hashlib.sha256(b"\n".join(sorted(forms))).hexdigest()
    assert digest == PILOT_FORMS_SHA256
    marked: list = []

    def recording(edges, edge_colors=None):
        key = reference_canonical_form(edges, edge_colors)
        marked.append((edges, edge_colors, key))
        return key

    monkeypatch.setattr(oracles, "reference_canonical_form", recording)
    for d in (3, 5):
        for pattern in certificates[d][1]:
            reference_candidate_neighbors(pattern, d)
    assert len(marked) > 9000
    assert assert_same_partition(
        (canonical_form(edges, colors), key, (edges, colors)) for edges, colors, key in marked
    ) > 1000


def test_pattern_canonical_form_is_the_module_canonical_form(certificates):
    # the node record's form, read off its one search, is canonical_form's
    for _, _, deduplicated in certificates.values():
        for pattern in deduplicated:
            assert PatternHypergraph(pattern).canonical_form == canonical_form(pattern), pattern


@pytest.mark.parametrize("d", [3, 4, 5])
def test_grow_matches_reference_collection_dfs(certificates, d):
    # the same children in the same order as listing every collection
    # within the budget, for every candidate of every pattern the
    # certificate expanded; the budget keeps every child's exponent >= 0,
    # which dfs_search relies on
    report, expanded, _ = certificates[d]
    delta = report.config.delta
    for pattern in expanded:
        pat = PatternHypergraph(pattern)
        for h in candidate_neighbors(pat, d, delta):
            grown = grow(pat, [h], d, delta)
            assert grown == reference_grow(pattern, h, d, delta), (pattern, h)
            assert all(
                expected_count_exponent(PatternHypergraph(c), d, delta) >= 0 for c in grown
            ), (pattern, h)


@pytest.fixture(scope="module")
def frontier_expanded():
    """The patterns the d=4 delta=21/40 search expands."""
    expanded: list = []

    def recording(pattern, d, delta):
        expanded.append(pattern.edges)
        return candidate_neighbors(pattern, d, delta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "candidate_neighbors", recording)
        assert dfs_search(SearchConfig(4, Fraction(21, 40))).exhausted
    return expanded


@pytest.mark.parametrize(
    "run, listed",
    [("d3", (25_278, 3_166)), ("d4", (2_483, 367)), ("d5", (207, 57)), ("d4-21/40", (637_106, 19_612))],
)
def test_bounded_walk_drops_only_candidates_cut_at_the_root(certificates, frontier_expanded, run, listed):
    # on every pattern the pilots and the d=4 21/40 search expand, the walk
    # lists the unbounded candidates less those whose budget cannot pay for
    # their new pairs at the least cost per pair, in the same order, and the
    # collection DFS gives no child for any of those.  The unbounded list is
    # the orbit closure over every k-set on the pilots, and the walk at
    # delta = 1, where no candidate is dropped, on the 637,106 candidates of
    # d=4 21/40, whose dropped ones are checked once per pattern, k and
    # count of new pairs in the collection DFS
    if run == "d4-21/40":
        d, delta, expanded = 4, Fraction(21, 40), frontier_expanded
    else:
        report, expanded, _ = certificates[int(run[1])]
        d, delta = report.config.d, report.config.delta
    totals = [0, 0]
    for pattern in expanded:
        pat = PatternHypergraph(pattern)
        unbounded = candidate_neighbors(pat, d, Fraction(1))
        if run != "d4-21/40":
            assert unbounded == reference_orbit_candidates(pattern, d), pattern
        cut = reference_root_cuts(pattern, unbounded, d, delta)
        bounded = candidate_neighbors(pat, d, delta)
        dropped = set(cut)
        assert bounded == [h for h in unbounded if h not in dropped], pattern
        v, old, shapes = pat.v, project_edges(pattern), set()
        for h in cut:
            k = sum(u < v for u in h)
            shape = (k, sum(p not in old for p in itertools.combinations(h[:k], 2)))
            if run != "d4-21/40" or shape not in shapes:
                shapes.add(shape)
                assert reference_grow(pattern, h, d, delta) == [], (pattern, h)
        totals[0] += len(unbounded)
        totals[1] += len(bounded)
    assert tuple(totals) == listed


def test_automorphism_count_on_expanded_patterns(certificates):
    # the order of the group the twin quotient's generators close to times
    # the class size factorials, the twin-class backtracking reference on
    # every pattern of the three certificates, and the vertex-level
    # reference on the d=3 ones (it takes minutes on some d=4 ones)
    for d, (_, expanded, _) in certificates.items():
        for pattern in expanded:
            pat = PatternHypergraph(pattern)
            order = automorphism_count(pat)
            kernel = math.prod(map(math.factorial, pat.sizes))
            assert generated_group_order(pat.generators, len(pat.sizes)) * kernel == order
            assert reference_twin_class_automorphism_count(pat) == order, pattern
            if d == 3:
                assert reference_automorphism_count(pat) == order, pattern


@pytest.mark.parametrize("d", [3, 4])
def test_twin_canonical_walk_matches_the_references_on_the_gadgets(d):
    # the gadgets' pendant blocks are twin classes of d - 2 vertices each;
    # the second preimage is the first with the hubs' roles swapped; at
    # delta = 1 a pair costs nothing (a 2-member), so no candidate of a
    # pattern with a nonnegative exponent is dropped
    preimage_a, preimage_b, _ = build_ambiguous_gadget(d)
    patterns = [preimage_a.edges, build_map_failure_gadget(d).edges]
    for pattern in patterns + [preimage_b.edges] * (d == 3):
        expected = reference_candidate_neighbors(pattern, d)
        assert reference_orbit_candidates(pattern, d) == expected
        assert candidate_neighbors(PatternHypergraph(pattern), d, Fraction(1)) == expected, pattern


@pytest.mark.parametrize(
    "pattern",
    [build_ambiguous_gadget(5)[0].edges, build_map_failure_gadget(5).edges],
    ids=["ambiguous-strict", "map-failure-strict"],
)
def test_twin_canonical_walk_matches_the_orbit_walk_on_the_d5_gadgets(pattern):
    # 30 and 35 vertices: canonical forms of every marked k-set take minutes,
    # the orbit closure over every k-set a few seconds; nothing is dropped
    # at delta = 1
    assert candidate_neighbors(PatternHypergraph(pattern), 5, Fraction(1)) == (
        reference_orbit_candidates(pattern, 5)
    )


@pytest.mark.parametrize("d", [3, 5])
def test_grow_over_a_candidate_list_concatenates_the_single_candidate_calls(certificates, d):
    # children in candidate order, on every pattern the certificate expanded
    report, expanded, _ = certificates[d]
    delta = report.config.delta
    for pattern in expanded:
        pat = PatternHypergraph(pattern)
        candidates = candidate_neighbors(pat, d, delta)
        children = [kid for h in candidates for kid in grow(pat, [h], d, delta)]
        assert grow(pat, candidates, d, delta) == children, pattern


@pytest.mark.parametrize("d", [3, 4, 5])
def test_grow_is_the_same_on_a_cold_and_a_warm_cache(certificates, d):
    # each call on an emptied shape cache, then every call again after a
    # pass over all of them has filled it
    report, expanded, _ = certificates[d]
    delta = report.config.delta
    patterns = map(PatternHypergraph, expanded)
    calls = [(p, h) for p in patterns for h in candidate_neighbors(p, d, delta)]
    cold = []
    for pattern, h in calls:
        search._growth_covers.cache_clear()
        cold.append(grow(pattern, [h], d, delta))
    for pattern, h in calls:
        grow(pattern, [h], d, delta)
    hits = search._growth_covers.cache_info().hits
    warm = [grow(pattern, [h], d, delta) for pattern, h in calls]
    assert search._growth_covers.cache_info().hits - hits == len(calls)
    assert warm == cold


def test_run_frontier_records_each_point(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_frontier.py"
    spec = importlib.util.spec_from_file_location("run_frontier", script)
    run_frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_frontier)
    monkeypatch.setattr(run_frontier, "LADDER", {3: ("1/5", "2/5")})
    # the d=3 delta=2/5 certificate visits 1748 nodes, so exactly that many
    # exhaust it
    monkeypatch.setattr(run_frontier, "NODE_BUDGET", {3: 1748})
    records = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert run_frontier.main(["--out", str(out)]) == 0
        records.append(json.loads(out.read_text()))
    points = records[0]["points"]
    assert [(p["delta"], p["max_depth"], p["exhausted"], p["classes"]) for p in points] == [
        ("1/5", 7, True, 0),
        ("2/5", 20, True, 1),
    ]
    assert points[1]["nodes_visited"] == 1748
    assert len(points[1]["witnesses"]) == 1
    # a node budget, not a clock: a rerun records the same but the wall time
    for record in records:
        for point in record["points"]:
            del point["wall_s"]
    assert records[0] == records[1]
