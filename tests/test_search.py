"""Growth enumeration and the pruned ambiguity search.  The three pilot
certificates run once per module: their counters and the d=3 report are
pinned, and the patterns they expand feed the candidate-dedup oracle (the
acceptance suite checks their verdicts)."""

import hashlib
import json
from fractions import Fraction

import pytest

from oracles import reference_candidate_neighbors

from hyperlift import search
from hyperlift.components import decompose
from hyperlift.core import Graph, clique_hypergraph, project_edges
from hyperlift.search import (
    SearchConfig,
    candidate_neighbors,
    dfs_search,
    grow,
    pattern_exponent,
)

# the pilot certificates: (d, delta, max_depth) -> (nodes_visited,
# nodes_deduped, nodes_pruned_by_exponent), as recorded before the orbit
# dedup replaced canonical forms in candidate_neighbors
CERTIFICATES = {
    (3, Fraction(2, 5), None): (1748, 1437, 72885),
    (4, Fraction(1, 2), 12): (563, 320, 153586),
    (5, Fraction(1, 2), 14): (24, 34, 1166229),
}
D3_REPORT_SHA256 = "100a1d96661f74780f2e860f89deedf85cb510b511968531eb6c180f87d12048"


@pytest.fixture(scope="module")
def certificates():
    """Each certificate's report and the patterns its search expanded."""
    expanded: list = []

    def recording(pattern, d, strict=True):
        expanded.append(pattern)
        return candidate_neighbors(pattern, d, strict=strict)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "candidate_neighbors", recording)
        for d, delta, depth in CERTIFICATES:
            expanded.clear()
            report = dfs_search(SearchConfig(d, delta, max_depth=depth))
            runs[d] = (report, list(expanded))
    return runs


def test_candidate_neighbors_single_hyperedge_collapses_to_one_class():
    cands = candidate_neighbors([(0, 1, 2)], 3)
    assert cands == [(0, 1, 3)]


def test_candidate_neighbors_diamond_includes_closing_triple():
    cands = candidate_neighbors([(0, 1, 2), (0, 1, 3)], 3)
    # the k=3 candidate closing the diamond into K4 must be present
    assert (2, 3) in {tuple(sorted(h[:2])) for h in cands if max(h) <= 3} or any(
        set(h) == {0, 2, 3} or set(h) == {1, 2, 3} for h in cands
    )
    # and the count before dedup is bounded by sum_k C(|V|, k)
    assert len(cands) <= sum(
        1 for k in (2, 3) for _ in __import__("itertools").combinations(range(4), k)
    )


def test_candidate_neighbors_strict_vs_loose():
    # {2, 3} spans the two hyperedges but no single clique hyperedge contains
    # both, so a candidate through it exists only under the loose rule
    pattern = [(0, 1, 2), (0, 1, 3)]
    strict = candidate_neighbors(pattern, 3, strict=True)
    loose = candidate_neighbors(pattern, 3, strict=False)
    def has_23(cands):
        return any(set(h) & {2, 3} == {2, 3} and len(set(h) & {0, 1}) == 0 for h in cands)
    assert not has_23(strict)
    assert has_23(loose)
    assert len(loose) > len(strict)


def test_grow_children_for_single_hyperedge():
    kids, _ = grow([(0, 1, 2)], (0, 1, 3), 3)
    kid_sets = {k for k in kids}
    # h itself
    assert ((0, 1, 2), (0, 1, 3)) in kid_sets
    # the two-new-hyperedge pattern: {012}, {03a}, {13b} (normalized labels)
    assert any(len(k) == 3 and all(len(e) == 3 for e in k) and
               sum(1 for e in k if 3 in e) >= 2 for k in kid_sets)
    assert len(kids) == 5


def test_grow_children_have_two_connected_clique_structure():
    pattern = [(0, 1, 2), (0, 1, 3)]
    for h in candidate_neighbors(pattern, 3):
        kids, _ = grow(pattern, h, 3)
        for child in kids:
            v = len({u for e in child for u in e})
            cli = clique_hypergraph(Graph(v, project_edges(child)), 3)
            assert len(decompose(cli).components) == 1


def test_grow_exponent_decrease_is_at_least_the_gap():
    d, delta = 3, Fraction(2, 5)
    threshold = Fraction(d - 1, d + 1)
    pattern = ((0, 1, 2), (0, 1, 3))
    parent = pattern_exponent(pattern, d, delta)
    for h in candidate_neighbors(pattern, d):
        kids, _ = grow(pattern, h, d)
        for child in kids:
            child_exp = pattern_exponent(child, d, delta)
            assert child_exp <= parent - (threshold - delta)


def test_search_config_depth_default_and_validation():
    cfg = SearchConfig(3, Fraction(2, 5))
    assert cfg.max_depth == 20  # ceil(2 / (1/2 - 2/5))
    with pytest.raises(ValueError):
        SearchConfig(3, Fraction(1, 2))  # at threshold: explicit depth needed
    assert SearchConfig(3, Fraction(1, 2), max_depth=3).max_depth == 3
    with pytest.raises(ValueError):
        SearchConfig(2, Fraction(1, 5))


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


def test_search_dedup_off_agrees_on_tiny_instance():
    on = dfs_search(SearchConfig(3, Fraction(1, 5), dedup=True))
    off = dfs_search(SearchConfig(3, Fraction(1, 5), dedup=False))
    assert {c.canonical for c in on.ambiguous_found} == {
        c.canonical for c in off.ambiguous_found
    }
    assert off.nodes_deduped == 0


def test_search_single_root_option():
    report = dfs_search(SearchConfig(3, Fraction(1, 5), include_single_root=True))
    assert report.exhausted
    assert report.ambiguous_found == []
    # single-hyperedge root adds at least one more visited node
    assert report.nodes_visited >= 2


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
                assert pattern_exponent([e1, e2], d, delta) == 2 - k + 2 * delta


def test_search_d5_at_one_half_certifies_no_ambiguity(certificates):
    # the d=5 companion of the d=4 acceptance run: exhaustive, no classes
    report, _ = certificates[5]
    assert report.exhausted
    assert report.ambiguous_found == []
    assert report.nodes_visited >= 3  # roots k=2,3,4 at least


def test_certificate_counters_and_d3_report_are_pinned(certificates):
    for (d, _, _), counters in CERTIFICATES.items():
        report, _ = certificates[d]
        assert report.exhausted
        assert (
            report.nodes_visited,
            report.nodes_deduped,
            report.nodes_pruned_by_exponent,
        ) == counters, d
    payload = json.dumps(certificates[3][0].to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == D3_REPORT_SHA256


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("strict", [True, False])
def test_orbit_dedup_matches_canonical_form_dedup(certificates, d, strict):
    # same candidates in the same order as dedup by marked canonical forms,
    # on every pattern the certificate expanded
    _, expanded = certificates[d]
    assert expanded
    for pattern in expanded:
        assert candidate_neighbors(pattern, d, strict) == (
            reference_candidate_neighbors(pattern, d, strict)
        ), pattern
