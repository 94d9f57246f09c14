"""Core model: generation, projection, cliques, similarity, file formats."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import reference_bernoulli_ranks, reference_thinned_ranks

from hyperlift import rng
from hyperlift.core import (
    DensityParams,
    FormatError,
    Graph,
    HsbmParams,
    Hypergraph,
    SimilarityMatrix,
    clique_hypergraph,
    densify_reduction,
    generate_hsbm,
    generate_random_hypergraph,
    graph_from_text,
    graph_to_text,
    hypergraph_from_text,
    hypergraph_to_text,
    project,
    rank_combination,
    similarity_matrix,
    similarity_from_text,
    similarity_to_text,
    support_graph,
    unrank_combination,
)
from hyperlift.rng import BLOCK_SIZE, GEN_TAG, Stream, bernoulli_ranks, mix64, thinned_ranks


def test_unrank_matches_lexicographic_order():
    n, d = 9, 4
    combos = list(combinations(range(n), d))
    for r, expected in enumerate(combos):
        assert unrank_combination(r, n, d) == expected
        assert rank_combination(expected, n) == r


def test_hypergraph_canonical_and_validation():
    h = Hypergraph(5, 3, [(2, 3, 4), (0, 1, 2), (0, 1, 2)])
    assert h.edges == ((0, 1, 2), (2, 3, 4))
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 1, 4)])
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 2, 1)])
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 1)])


def test_generation_is_deterministic_per_seed():
    params = DensityParams(3, Fraction(2, 5), 40)
    a = generate_random_hypergraph(params, 123)
    b = generate_random_hypergraph(params, 123)
    c = generate_random_hypergraph(params, 124)
    assert a == b
    assert a != c


def test_generation_block_prefix_property():
    # rank blocks use independent substreams: a prefix of the rank space
    # samples identically whether or not later blocks exist
    p = 0.001
    long = [r for r in bernoulli_ranks(7, 3 * BLOCK_SIZE, p) if r < BLOCK_SIZE]
    short = bernoulli_ranks(7, BLOCK_SIZE, p)
    assert long == short


def test_rank_samplers_match_the_block_by_block_reference():
    draw = Stream(20261018)
    near_multiples = [k * BLOCK_SIZE + off for k in (1, 2, 3) for off in (-1, 0, 1)]
    for p in (1e-7, 1e-4, 0.01, 0.3, 0.9, 1 - 1e-12):
        totals = [1, 1000] + (near_multiples if p < 0.3 else near_multiples[:3])
        if p <= 1e-4:
            totals.append(2000 * BLOCK_SIZE + 17)  # many blocks, mostly empty
        for total in totals:
            for seed in (draw.u64(), draw.u64()):
                expected = reference_bernoulli_ranks(seed, total, p)
                assert bernoulli_ranks(seed, total, p) == expected, (seed, total, p)
    for seed in (-1, 2**64 + 3):  # seeds are folded modulo 2**64
        total = 2000 * BLOCK_SIZE
        assert bernoulli_ranks(seed, total, 1e-6) == reference_bernoulli_ranks(seed, total, 1e-6)


def test_thinned_ranks_match_the_reference_draw_for_draw():
    draw = Stream(7)
    for p_max, total in (
        (1e-6, 2000 * BLOCK_SIZE + 1),
        (1e-4, 3 * BLOCK_SIZE - 1),
        (0.3, BLOCK_SIZE + 1),
        (1.0, BLOCK_SIZE + 1),
    ):
        seed = draw.u64()
        seen, seen_ref = [], []

        def recording(log):
            return lambda rank, u: log.append((rank, u)) or u < 0.5

        out = thinned_ranks(seed, total, p_max, recording(seen))
        assert out == reference_thinned_ranks(seed, total, p_max, recording(seen_ref))
        assert seen == seen_ref and seen


def test_skipped_blocks_are_those_whose_first_draw_clears_the_cut():
    log1mp = math.log1p(-1e-6)
    cut = rng._empty_cut(log1mp)
    total = 500 * BLOCK_SIZE + 3
    for seed in (0, 5, -9, 2**70 + 1):
        live = list(rng._live_blocks(seed, total, log1mp))
        first = [Stream(mix64(seed, GEN_TAG, b)).u64() for b in range(500)]
        assert live == [b for b in range(500) if first[b] < cut] + [500]


@pytest.mark.parametrize("p", [1e-9, 1e-7, DensityParams(3, Fraction(1, 5), 5000).p, 1e-5, 1e-4])
def test_empty_block_cut_agrees_with_the_full_expression(p):
    log1mp = math.log1p(-p)
    cut = rng._empty_cut(log1mp)
    assert cut is not None and cut % 2048 == 0
    skip_from = cut >> 11  # a block is skipped iff its first draw x >= skip_from

    def empty(x):  # the walker's own test on a full block's first draw
        return int(math.log1p(-x * 2.0**-53) / log1mp) >= BLOCK_SIZE

    threshold = skip_from - rng._EMPTY_MARGIN
    for x in range(threshold - 2**16, threshold + 2**16 + 1):
        assert empty(x) == (x >= threshold), x
    for x in list(range(skip_from, skip_from + 2**12)) + [2**53 - 1]:
        assert empty(x), x
    assert rng._empty_cut(math.log1p(-1e-3)) is None  # every block may keep a rank


def test_rank_sampler_outputs_are_pinned_at_n5000():
    p = DensityParams(3, Fraction(1, 5), 5000).p
    total = math.comb(5000, 3)
    for seed, prefix in ((1, "2ef66708b4895650"), (2, "3f45e66907ed6a57"), (3, "b162f2c379edf168")):
        ranks = bernoulli_ranks(seed, total, p)
        digest = hashlib.sha256(",".join(map(str, ranks)).encode()).hexdigest()
        assert len(ranks) == 4646 and digest.startswith(prefix), seed


def test_subnormal_probability_keeps_no_rank():
    # log1p(-u) / log1p(-p) overflows to inf for subnormal p
    assert bernoulli_ranks(1, 10, 5e-324) == []
    assert bernoulli_ranks(1, 2 * BLOCK_SIZE + 1, 5e-324) == []
    assert thinned_ranks(1, 10, 5e-324, lambda rank, u: True) == []


def test_generation_boundaries():
    params = DensityParams(3, Fraction(2, 5), 12)
    assert len(generate_random_hypergraph(params, 5, p_override=0.0)) == 0
    full = generate_random_hypergraph(DensityParams(3, Fraction(0), 4), 5, p_override=1.0)
    assert len(full) == math.comb(4, 3)
    with pytest.raises(ValueError):
        generate_random_hypergraph(params, 5, p_override=1.5)


def test_density_params_validation():
    with pytest.raises(ValueError):
        DensityParams(1, Fraction(0), 5)
    with pytest.raises(ValueError):
        DensityParams(3, Fraction(0), 2)
    with pytest.raises(ValueError):
        DensityParams(3, Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        DensityParams(2, Fraction(1), 10, c=Fraction(50))  # p = 50/10 > 1


def test_generation_mean_matches_binomial():
    # d=3, delta=2/5, n=100: exact mean C(100,3) * 100**(-8/5)
    params = DensityParams(3, Fraction(2, 5), 100)
    exact = math.comb(100, 3) * 100 ** (-8 / 5)
    seeds = 1200
    counts = [len(generate_random_hypergraph(params, s)) for s in range(seeds)]
    mean = sum(counts) / seeds
    var = sum((c - mean) ** 2 for c in counts) / (seeds - 1)
    se = math.sqrt(var / seeds)
    assert abs(mean - exact) <= 3 * se


def test_projection_examples():
    h = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
    g = project(h)
    assert g.edges == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    assert project(Hypergraph(6, 3, [])).edges == ()


def test_projection_commutes_with_union():
    params = DensityParams(3, Fraction(1, 3), 12)
    for seed in range(20):
        h1 = generate_random_hypergraph(params, seed)
        h2 = generate_random_hypergraph(params, seed + 1000)
        assert project(h1.union(h2)) == project(h1).union(project(h2))


def test_clique_hypergraph_k4_and_edgeless():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert clique_hypergraph(k4, 3).edges == (
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    )
    assert clique_hypergraph(Graph(5, []), 3).edges == ()


def test_clique_hypergraph_matches_brute_force():
    params = DensityParams(3, Fraction(2, 5), 10)
    for seed in range(10):
        g = project(generate_random_hypergraph(params, seed))
        fast = set(clique_hypergraph(g, 3).edges)
        brute = {
            t
            for t in combinations(range(g.n), 3)
            if all(p in g.edge_set for p in combinations(t, 2))
        }
        assert fast == brute


def test_clique_hypergraph_memo_equals_a_fresh_enumeration():
    h = generate_random_hypergraph(DensityParams(4, Fraction(3, 5), 24), 3)
    g = project(h)
    first3 = clique_hypergraph(g, 3)
    first4 = clique_hypergraph(g, 4)
    assert len(first3) > len(first4) > 0
    assert clique_hypergraph(g, 3) is first3 and clique_hypergraph(g, 4) is first4
    assert first3 == clique_hypergraph(Graph(g.n, g.edges), 3)
    assert first4 == clique_hypergraph(Graph(g.n, g.edges), 4)
    with pytest.raises(ValueError):
        clique_hypergraph(g, 1)
    fresh = Graph(g.n, g.edges)
    assert g == fresh and hash(g) == hash(fresh)
    assert g != Graph(g.n, g.edges[1:])


def test_cli_superset_roundtrip():
    params = DensityParams(3, Fraction(2, 5), 15)
    for seed in range(20):
        h = generate_random_hypergraph(params, seed)
        g = project(h)
        cli = clique_hypergraph(g, 3)
        assert set(h.edges) <= set(cli.edges)
        # every hyperedge of h is a clique of project(h)
        for e in h.edges:
            assert all(p in g.edge_set for p in combinations(e, 2))


def test_similarity_matrix_examples():
    h = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
    w = similarity_matrix(h)
    assert w[2, 3] == 2 and w[1, 2] == 1 and w[1, 4] == 0
    zero = similarity_matrix(Hypergraph(4, 3, []))
    assert all(zero[i, j] == 0 for i in range(4) for j in range(4))


def test_support_graph_examples_and_consistency():
    w = similarity_matrix(Hypergraph(4, 3, [(1, 2, 3)]))
    assert support_graph(w).edges == ((1, 2), (1, 3), (2, 3))
    params = DensityParams(3, Fraction(2, 5), 12)
    for seed in range(15):
        h = generate_random_hypergraph(params, seed)
        assert support_graph(similarity_matrix(h)) == project(h)


def test_similarity_matrix_validation():
    with pytest.raises(ValueError):
        SimilarityMatrix(2, [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SimilarityMatrix(2, [[0, 1], [2, 0]])


def test_hsbm_beta_zero_only_monochromatic():
    params = HsbmParams(3, 16, Fraction(6), Fraction(0))
    h, sigma = generate_hsbm(params, 3)
    assert len(h) > 0
    for e in h.edges:
        assert len({sigma[v] for v in e}) == 1


def test_hsbm_determinism_and_balance():
    params = HsbmParams(3, 20, Fraction(3), Fraction(1))
    h1, s1 = generate_hsbm(params, 11)
    h2, s2 = generate_hsbm(params, 11)
    assert h1 == h2 and s1 == s2
    assert sum(1 for x in s1 if x == 1) == 10


def test_hsbm_alpha_equals_beta_marginal_rate():
    # with alpha == beta every hyperedge has marginal probability q1
    params = HsbmParams(3, 24, Fraction(2), Fraction(2))
    total = math.comb(24, 3)
    seeds = 300
    counts = [len(generate_hsbm(params, s)[0]) for s in range(seeds)]
    mean = sum(counts) / seeds
    exact = total * params.q1
    var = sum((c - mean) ** 2 for c in counts) / (seeds - 1)
    se = math.sqrt(var / seeds)
    assert abs(mean - exact) <= 3 * se


def test_hsbm_monochromatic_count_mean():
    # monochromatic-hyperedge count has mean 2 * C(n/2, 3) * q1
    params = HsbmParams(3, 150, Fraction(8), Fraction(2))
    exact = 2 * math.comb(75, 3) * params.q1
    seeds = 120
    counts = []
    for s in range(seeds):
        h, sigma = generate_hsbm(params, s)
        counts.append(
            sum(1 for e in h.edges if len({sigma[v] for v in e}) == 1)
        )
    mean = sum(counts) / seeds
    var = sum((c - mean) ** 2 for c in counts) / (seeds - 1)
    se = math.sqrt(var / seeds)
    assert abs(mean - exact) <= 3 * se


def test_hsbm_validation():
    with pytest.raises(ValueError):
        HsbmParams(3, 15, Fraction(2), Fraction(1))  # odd n
    with pytest.raises(ValueError):
        HsbmParams(3, 16, Fraction(1), Fraction(2))  # beta > alpha
    with pytest.raises(ValueError):
        HsbmParams(3, 6, Fraction(100), Fraction(1))  # q1 > 1


def test_densify_reduction_errors_and_mean():
    params = DensityParams(4, Fraction(1, 5), 60)
    g1 = project(generate_random_hypergraph(params, 2))
    with pytest.raises(ValueError):
        densify_reduction(g1, params, Fraction(1, 5), 3)
    with pytest.raises(ValueError):
        densify_reduction(g1, params, Fraction(1, 10), 3)

    # mean |H3| = C(60, 4) * p3 at (d=4, delta 0.2 -> 0.4, n=60)
    params1 = DensityParams(4, Fraction(1, 5), 60)
    p1 = params1.p
    p2 = DensityParams(4, Fraction(2, 5), 60).p
    p3 = (p2 - p1) / (1 - p1)
    exact = math.comb(60, 4) * p3
    seeds = 400
    sizes = []
    for s in range(seeds):
        g_union, h3 = densify_reduction(g1, params1, Fraction(2, 5), s)
        sizes.append(len(h3))
        if s < 5:
            assert g_union == g1.union(project(h3))
    mean = sum(sizes) / seeds
    var = sum((c - mean) ** 2 for c in sizes) / (seeds - 1)
    se = math.sqrt(var / seeds)
    assert abs(mean - exact) <= 3 * se


def test_file_roundtrips_are_bit_exact():
    params = DensityParams(3, Fraction(2, 5), 14)
    h = generate_random_hypergraph(params, 9)
    text = hypergraph_to_text(h)
    assert hypergraph_from_text(text) == h
    assert hypergraph_to_text(hypergraph_from_text(text)) == text
    g = project(h)
    gtext = graph_to_text(g)
    assert graph_from_text(gtext) == g
    assert graph_to_text(graph_from_text(gtext)) == gtext
    w = similarity_matrix(h)
    wtext = similarity_to_text(w)
    assert similarity_from_text(wtext) == w
    assert similarity_to_text(similarity_from_text(wtext)) == wtext


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (graph_from_text, "", "line 1"),
        (graph_from_text, "\n  \n", "line 1"),
        (graph_from_text, "4\n0 1\n\n0 1 2\n", "line 4"),
        (graph_from_text, "4 4\n0 1\n", "line 1"),
        (graph_from_text, "4\n0 x\n", "line 2"),
        (hypergraph_from_text, "", "line 1"),
        (hypergraph_from_text, "3 6\n0 1 2\n3 4\n", "line 3"),
        (similarity_from_text, "3\n0 1\n", "line 2"),
        (similarity_from_text, "3\n0 1 1\n0 3 1\n", "line 3"),
        (similarity_from_text, "3\n-1 1 1\n", "line 2"),
    ],
)
def test_malformed_text_raises_format_error_naming_the_line(parse, text, line):
    with pytest.raises(FormatError, match=line):
        parse(text)


def test_stream_randrange_and_shuffle_are_deterministic():
    s1, s2 = Stream(99), Stream(99)
    assert [s1.randrange(10) for _ in range(20)] == [s2.randrange(10) for _ in range(20)]
    xs, ys = list(range(12)), list(range(12))
    Stream(5).shuffle(xs)
    Stream(5).shuffle(ys)
    assert xs == ys and sorted(xs) == list(range(12))
    assert mix64(1, 2) != mix64(2, 1)
