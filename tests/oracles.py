"""Independent brute-force oracles used to check the exact engines.

Deliberately dumb: subset enumeration and bitmask ORs only, no shared code
with the branch-and-bound / flow paths they verify.  Also the appearance
exponent over every hyperedge subset that the max-density threshold test
must agree with, the Pasch-trade witness and the effective density
exponent behind acceptance criterion 9, the block-by-block rank samplers
that the fast one must reproduce, the inverse of unrank_combination for
its round trip, the round-by-round color refinement that the early-stopping one must
reproduce, the full-tree canonical form whose partition into isomorphism classes
the twin quotient's canonical form must reproduce, the canonical-form candidate dedup and the orbit closure over
every k-set that the twin-canonical orbit dedup must reproduce, the
solve-every-component MAP that the singleton rule must reproduce, the
whole-graph minimum preimage that the per-component merge must reproduce,
the preimage enumeration up to a size that the tests read, the greedy
deletion repeated to a fixed point that the one-pass greedy must
reproduce, the growth step's own collection DFS that the shared cover
enumerator must reproduce, the backtracking automorphism counts (vertex
by vertex, and over twin classes where that one cannot finish) that the
stabilizer chain's orbit-length product must reproduce, and the weighted
branch and bound whose cheapest covers the least-budget enumeration must
reproduce for g_k and g_0.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

from hyperlift.census import (
    PatternHypergraph,
    _incidence,
    _normalize,
    _search_tree,
    _Tree,
    stable_colors,
)
from hyperlift.components import decompose
from hyperlift.core import Graph, Hypergraph, clique_hypergraph, project, project_edges
from hyperlift.preimage import cover_masks, covers_within, solve_cover
from hyperlift.reconstruct import ComponentTooLargeError, PreimageReport, ReconstructionResult
from hyperlift.rng import BLOCK_SIZE, GEN_TAG, substream


class PatternTooLargeError(ValueError):
    """An oracle invoked beyond the size it can enumerate."""


def appearance_exponent(
    pattern: PatternHypergraph, d: int, delta: Fraction
) -> Fraction:
    """min over nonempty-edge sub-patterns K' of v' + e'*(delta - d + 1).

    Nonnegative iff p = n**(-d+1+delta) is at or above the pattern's
    appearance threshold n**(-1/m(K)); the whole-pattern exponent alone
    decides this only when the pattern itself attains m(K).  Exhaustive
    over hyperedge subsets, so capped at e <= 24.
    """
    if not pattern.is_uniform(d):
        raise ValueError(f"pattern is not {d}-uniform")
    if pattern.e > 24:
        raise PatternTooLargeError("appearance_exponent enumerates subsets; e <= 24")
    slope = Fraction(delta) - d + 1
    best = None
    for r in range(1, pattern.e + 1):
        for subset in combinations(pattern.edges, r):
            v = len({u for e in subset for u in e})
            value = Fraction(v) + r * slope
            if best is None or value < best:
                best = value
    return best


def brute_max_density(edges):
    """max e'/v' over nonempty hyperedge subsets, by full enumeration."""
    edges = list(edges)
    assert len(edges) <= 20, "oracle is exponential in e"
    best = None
    for r in range(1, len(edges) + 1):
        for subset in combinations(edges, r):
            v = len({u for e in subset for u in e})
            ratio = Fraction(len(subset), v)
            if best is None or ratio > best:
                best = ratio
    return best


def brute_force_isomorphic(a, b) -> bool:
    """Isomorphism of two PatternHypergraphs by permutation search (tiny v only)."""
    if a.v != b.v or sorted(map(len, a.edges)) != sorted(map(len, b.edges)):
        return False
    if a.v > 9:
        raise PatternTooLargeError("brute-force isomorphism is for v <= 9")
    target = set(b.edges)
    for perm in permutations(range(a.v)):
        if all(tuple(sorted(perm[u] for u in e)) in target for e in a.edges):
            return True
    return False


def all_preimages_bitmask(g: Graph, d: int, candidates=None):
    """Every subset of the d-cliques of g whose projection equals g.

    Subset-OR dynamic program over all 2**|Cli| subsets; exponential, so
    callers must keep |Cli| small.  Returns a set of frozensets of
    hyperedges.
    """
    if candidates is None:
        candidates = clique_hypergraph(g, d).edges
    assert len(candidates) <= 16, "oracle is exponential in |Cli|"
    index = {e: i for i, e in enumerate(g.edges)}
    full = (1 << len(g.edges)) - 1
    masks = []
    for c in candidates:
        m = 0
        for pair in combinations(c, 2):
            m |= 1 << index[pair]
        masks.append(m)
    n_subsets = 1 << len(candidates)
    or_of = [0] * n_subsets
    out = set()
    for s in range(1, n_subsets):
        low = s & -s
        or_of[s] = or_of[s ^ low] | masks[low.bit_length() - 1]
        if or_of[s] == full:
            out.add(
                frozenset(
                    candidates[i] for i in range(len(candidates)) if s >> i & 1
                )
            )
    if full == 0:
        out.add(frozenset())
    return out


def glue_component_preimages(per_component_sets):
    """Cartesian product of per-component preimage sets, glued by union."""
    glued = {frozenset()}
    for sets in per_component_sets:
        glued = {base | extra for base in glued for extra in sets}
    return glued


def is_projection_of(g: Graph, edges) -> bool:
    pairs = set()
    for e in edges:
        pairs.update(combinations(sorted(e), 2))
    return pairs == set(g.edges)


def clean_pasch_trades(h):
    """Clean Pasch trades of a 3-uniform hypergraph, one per distinct trade.

    A Pasch configuration on vertices {a, a', b, b', c, c'} is the eight
    transversals of the opposite pairs (a, a'), (b, b'), (c, c'); they split
    by parity into two halves of four triples that cover the same twelve
    pairs, each exactly once.  A trade is clean when one half lies in h and
    no triple of the other half does.  Yields (half_in_h, other_half) as
    frozensets of sorted triples.
    """
    assert h.d == 3, "Pasch trades are 3-uniform"
    edges = set(h.edges)
    incident = {}  # vertex -> hyperedges through it
    third = {}  # pair -> vertices completing it to a hyperedge
    for e in h.edges:
        for v in e:
            incident.setdefault(v, []).append(e)
        for pair in combinations(e, 2):
            third.setdefault(pair, set()).update(set(e) - set(pair))
    seen = set()
    for a, through in incident.items():
        for e1, e2 in combinations(through, 2):
            if len(set(e1) & set(e2)) != 1:
                continue
            b, c = (v for v in e1 if v != a)
            for b2, c2 in permutations(v for v in e2 if v != a):
                # the two triples through a' are {a', b, c2} and {a', b2, c}
                across = third.get(tuple(sorted((b, c2))), set()) & third.get(
                    tuple(sorted((b2, c))), set()
                )
                for a2 in across - {a, b, c, b2, c2}:
                    cube = product((a, a2), (b, b2), (c, c2))
                    half = frozenset(
                        tuple(sorted(t))
                        for t in ((a, b, c), (a, b2, c2), (a2, b, c2), (a2, b2, c))
                    )
                    other = frozenset(tuple(sorted(t)) for t in cube) - half
                    if half in seen or other & edges:
                        continue
                    seen.add(half)
                    yield half, other


def pasch_swap(h):
    """h with the halves of its first clean Pasch trade swapped, or None.

    The result has the same size and the same similarity matrix as h, so no
    decoder that sees only the similarity matrix can tell the two apart.
    """
    for half, other in clean_pasch_trades(h):
        return Hypergraph(h.n, h.d, (set(h.edges) - half) | other)
    return None


def hsbm_effective_delta(params) -> float:
    """Exponent delta of H(n, d, p) at the block model's mean hyperedge density.

    p_bar = m * q1 + (1 - m) * q2, where m is the share of monochromatic
    d-sets under balanced labels; delta_eff = log(p_bar * n**(d-1)) / log(n).
    """
    n, d = params.n, params.d
    mono = 2 * math.comb(n // 2, d) / math.comb(n, d)
    p_bar = mono * params.q1 + (1 - mono) * params.q2
    return math.log(p_bar * n ** (d - 1)) / math.log(n)


def rank_combination(combo: Sequence[int], n: int) -> int:
    """Lexicographic rank of a sorted d-subset of range(n): the inverse of
    core.unrank_combination."""
    d = len(combo)
    rank = 0
    prev = -1
    for i, v in enumerate(combo):
        k = d - 1 - i
        rank += math.comb(n - prev - 1, k + 1) - math.comb(n - v, k + 1)
        prev = v
    return rank


def reference_bernoulli_ranks(seed: int, total: int, p: float) -> list[int]:
    """Bernoulli(p) ranks walking every block's stream, empty blocks too."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or total == 0:
        return []
    if p == 1.0:
        return list(range(total))
    log1mp = math.log1p(-p)
    out: list[int] = []
    for start in range(0, total, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, total)
        rng = substream(seed, GEN_TAG, start // BLOCK_SIZE)
        pos = start
        while True:
            gap = int(math.log1p(-rng.random()) / log1mp)
            pos += gap
            if pos >= stop:
                break
            out.append(pos)
            pos += 1
    return out


def reference_thinned_ranks(seed: int, total: int, p_max: float, keep) -> list[int]:
    """Thinned ranks walking every block's stream, empty blocks too."""
    if not 0.0 < p_max <= 1.0:
        if p_max == 0.0:
            return []
        raise ValueError(f"probability out of range: {p_max}")
    log1mp = math.log1p(-p_max) if p_max < 1.0 else None
    out: list[int] = []
    for start in range(0, total, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, total)
        rng = substream(seed, GEN_TAG, start // BLOCK_SIZE)
        pos = start
        while True:
            if log1mp is None:
                gap = 0
            else:
                gap = int(math.log1p(-rng.random()) / log1mp)
            pos += gap
            if pos >= stop:
                break
            u = rng.random()
            if keep(pos, u):
                out.append(pos)
            pos += 1
    return out


def reference_refine(
    n: int,
    edges: Sequence[tuple],
    edge_colors: Sequence[int],
    incident: Sequence[Sequence[int]],
    colors: list,
) -> list:
    """Color refinement that rebuilds every edge profile and vertex
    signature each round and stops only when a round returns its input:
    the loop census._refine must reproduce, color for color.
    """
    while True:
        new = reference_refine_round(n, edges, edge_colors, incident, colors)
        if new == colors:
            return colors
        colors = new


def reference_refine_round(
    n: int,
    edges: Sequence[tuple],
    edge_colors: Sequence[int],
    incident: Sequence[Sequence[int]],
    colors: list,
) -> list:
    """One refinement round: each vertex's rank among the signatures
    (color, sorted profiles of its incident edges)."""
    edge_profiles = [
        (edge_colors[ei], tuple(sorted(colors[u] for u in e)))
        for ei, e in enumerate(edges)
    ]
    sigs = [
        (colors[v], tuple(sorted(edge_profiles[ei] for ei in incident[v])))
        for v in range(n)
    ]
    rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs]


def reference_canonical_form(
    edges: Sequence[Sequence[int]], edge_colors: Optional[Sequence[int]] = None
) -> bytes:
    """The least leaf code over the whole individualize-and-refine tree of
    the hypergraph itself, cellmates with identical incident edges pruned to
    one and nothing else pruned: a canonical form by an independent route,
    whose partition of any inputs into isomorphism classes the quotient's
    canonical form must reproduce (assert_same_partition).
    """
    edges = [tuple(sorted(e)) for e in edges]
    if edge_colors is None:
        edge_colors = [0] * len(edges)
    else:
        edge_colors = list(edge_colors)
    vertices = sorted({u for e in edges for u in e})
    relabel = {u: i for i, u in enumerate(vertices)}
    edges = [tuple(relabel[u] for u in e) for e in edges]
    n = len(vertices)
    if n == 0:
        return b"empty"
    incident = _incidence(n, edges)
    best: Optional[bytes] = None

    def encode(colors: Sequence[int]) -> bytes:
        pos = [0] * n
        for i, v in enumerate(sorted(range(n), key=lambda u: colors[u])):
            pos[v] = i
        relabeled = sorted(
            (edge_colors[ei], tuple(sorted(pos[u] for u in e)))
            for ei, e in enumerate(edges)
        )
        return repr(relabeled).encode()

    incidence_key = [frozenset(incident[v]) for v in range(n)]

    def search(colors: list) -> None:
        nonlocal best
        colors = reference_refine(n, edges, edge_colors, incident, colors)
        cells: dict = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            cand = encode(colors)
            if best is None or cand < best:
                best = cand
            return
        # cellmates with identical incident-edge sets are swapped by an
        # automorphism, so one representative per incidence class suffices
        seen_keys = set()
        for v in target:
            key = incidence_key[v]
            if key in seen_keys:
                continue
            seen_keys.add(key)
            branched = [2 * c for c in colors]
            branched[v] -= 1
            search(branched)

    search([0] * n)
    if best is None:
        raise RuntimeError("reference_canonical_form: the refinement search reached no leaf")
    return best


def assert_same_partition(cases: Iterable[tuple]) -> int:
    """Over (form, reference form, input) triples, assert that form ->
    reference form and reference form -> form are both functions, so the
    two forms partition the inputs alike; returns the number of classes."""
    forward: dict = {}
    backward: dict = {}
    for form, key, case in cases:
        assert forward.setdefault(form, key) == key, case
        assert backward.setdefault(key, form) == form, case
    return len(forward)


def reference_candidate_neighbors(pattern: Sequence[tuple], d: int) -> list:
    """Candidate hyperedges h that could join the pattern's clique structure,
    up to symmetry of (pattern, h).

    h takes k in [2, d] vertices from the pattern and d - k fresh labels,
    and the k chosen vertices must contain a pair lying inside some clique
    hyperedge of Cli(Proj(pattern)) (h is a 2-neighbor).  Candidates
    already present as cliques are excluded.  Deduplication is by canonical
    form of the pattern with h marked.
    """
    edges = [tuple(sorted(e)) for e in pattern]
    support = sorted({u for e in edges for u in e})
    v = len(support)
    if support != list(range(v)):
        raise ValueError("pattern labels must be dense 0..v-1")
    proj = project_edges(edges)
    cli = clique_hypergraph(Graph(v, proj), d).edges
    cli_pairs = set()
    for c in cli:
        cli_pairs.update(combinations(c, 2))
    colors = stable_colors(edges)
    base_colors = [0] * len(edges)
    out: list = []
    # full canonicalization only within equal-fingerprint buckets: the
    # fingerprint is isomorphism-invariant, so distinct fingerprints are
    # distinct classes and singleton buckets need no canonical form
    buckets: dict = {}
    for k in range(2, d + 1):
        for chosen in combinations(range(v), k):
            if not any(p in cli_pairs for p in combinations(chosen, 2)):
                continue
            if k == d and all(p in proj for p in combinations(chosen, 2)):
                continue  # already a clique of the projection
            fingerprint = (
                k,
                tuple(sorted(colors[u] for u in chosen)),
                tuple(
                    sorted(
                        (p in proj, p in cli_pairs, colors[p[0]], colors[p[1]])
                        if colors[p[0]] <= colors[p[1]]
                        else (p in proj, p in cli_pairs, colors[p[1]], colors[p[0]])
                        for p in combinations(chosen, 2)
                    )
                ),
            )
            h = tuple(chosen) + tuple(range(v, v + d - k))
            bucket = buckets.setdefault(fingerprint, [])
            if bucket:
                key = reference_canonical_form(edges + [h], base_colors + [1])
                if len(bucket) == 1 and bucket[0][1] is None:
                    first_h = bucket[0][0]
                    bucket[0] = (
                        first_h,
                        reference_canonical_form(edges + [first_h], base_colors + [1]),
                    )
                if any(key == known for _, known in bucket):
                    continue
                bucket.append((h, key))
            else:
                bucket.append((h, None))
            out.append(h)
    return out


def reference_orbit_candidates(pattern: Sequence[tuple], d: int) -> list:
    """reference_candidate_neighbors by orbit closure over every k-set: the
    first k-set of each Aut(pattern) orbit in combinations order, each
    orbit closed vertex by vertex under the generators of the pattern's own
    individualize-and-refine tree, not its twin quotient's.  The walk that
    candidate_neighbors' twin-canonical walk must reproduce, and far
    cheaper than canonical forms on patterns with large groups.
    """
    edges = [tuple(sorted(e)) for e in pattern]
    v = len({u for e in edges for u in e})
    proj = project_edges(edges)
    cli_pairs = set()
    for c in clique_hypergraph(Graph(v, proj), d).edges:
        cli_pairs.update(combinations(c, 2))
    generators = _search_tree(_Tree(v, edges, [0] * len(edges), _incidence(v, edges)))[1]
    seen: set = set()
    out: list = []
    for k in range(2, d + 1):
        for chosen in combinations(range(v), k):
            if not any(p in cli_pairs for p in combinations(chosen, 2)):
                continue
            if k == d and all(p in proj for p in combinations(chosen, 2)):
                continue
            if chosen in seen:
                continue
            orbit = [chosen]
            seen.add(chosen)
            for s in orbit:
                for g in generators:
                    image = tuple(sorted(g[u] for u in s))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            out.append(chosen + tuple(range(v, v + d - k)))
    return out


def reference_map_reconstruct(
    g: Graph, d: int, component_limit: int = 40, cover_cap: int = 16
) -> ReconstructionResult:
    """MAP solving every component, singletons included, with is_preimage
    decided by building project(output).

    The cliques are enumerated on a fresh copy of g, so the result shares
    no memoized enumeration with the code under test.
    """
    t0 = time.perf_counter()
    cli = clique_hypergraph(Graph(g.n, g.edges), d)
    partition = decompose(cli)
    chosen: list = []
    ambiguous = 0
    sizes = []
    for comp in partition.components:
        if len(comp) > component_limit:
            raise ComponentTooLargeError(
                f"component with {len(comp)} candidate hyperedges: too large "
                f"(limit {component_limit})"
            )
        candidates = [cli.edges[i] for i in comp]
        universe = set()
        for c in candidates:
            universe.update(combinations(c, 2))
        r, covers, amb = solve_cover(universe, candidates, cap=cover_cap)
        # components are built from their own candidates, so always feasible
        chosen.extend(covers[0])
        ambiguous += bool(amb)
        sizes.append(len(comp))
    output = Hypergraph(g.n, d, chosen)
    return ReconstructionResult(
        algorithm="map",
        output=output,
        is_preimage=(project(output) == g),
        component_sizes=sizes,
        ambiguous_components=ambiguous,
        elapsed=time.perf_counter() - t0,
    )


def reference_min_preimage(g: Graph, d: int, cap: int = 16) -> PreimageReport:
    """min_preimage as one cover search over the whole graph: every d-clique
    a candidate, every edge in the universe, no decomposition.

    The cliques are enumerated on a fresh copy of g.
    """
    candidates = clique_hypergraph(Graph(g.n, g.edges), d).edges
    r, covers, ambiguous = solve_cover(g.edges, candidates, cap)
    return PreimageReport(r is not None, r, covers, ambiguous)


def enumerate_preimages(g: Graph, d: int, size_limit: int) -> list:
    """All preimages of g with at most size_limit hyperedges, sorted."""
    candidates = clique_hypergraph(g, d).edges
    masks, full = cover_masks(g.edges, candidates)
    subsets = covers_within(full, masks, [1] * len(masks), size_limit)
    hypergraphs = [
        Hypergraph(g.n, d, [candidates[i] for i in ic]) for ic in subsets
    ]
    return sorted(hypergraphs, key=lambda h: h.edges)


def reference_greedy(g: Graph, d: int) -> Hypergraph:
    """Greedy deletion repeated to a fixed point: ascending passes over the
    surviving cliques, each deleting every clique all of whose pairs are
    covered at least twice, until a pass deletes nothing.

    The cliques are enumerated on a fresh copy of g.
    """
    candidates = list(clique_hypergraph(Graph(g.n, g.edges), d).edges)
    coverage: dict = {}
    for c in candidates:
        for pair in combinations(c, 2):
            coverage[pair] = coverage.get(pair, 0) + 1
    alive = [True] * len(candidates)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(candidates):
            if not alive[i]:
                continue
            if all(coverage[pair] >= 2 for pair in combinations(c, 2)):
                alive[i] = False
                changed = True
                for pair in combinations(c, 2):
                    coverage[pair] -= 1
    return Hypergraph(g.n, d, [c for i, c in enumerate(candidates) if alive[i]])


def reference_grow(
    pattern: Sequence[tuple], h: Sequence[int], d: int, delta: Fraction
) -> list:
    """search.grow with its own collection DFS and no bound but the budget:
    the children the shared cover enumerator, with whatever pruning it
    does, must reproduce.

    All ways to make candidate h a clique of the grown pattern's projection.

    For every collection I of subsets S of h with |S| >= 2 and Proj(S) not
    inside Proj(pattern), whose pairwise projections cover
    Proj(h) \\ Proj(pattern), emit pattern + {h_i} where h_i meets h exactly
    in S_i and takes fresh labels elsewhere.  Results are normalized
    (densely relabeled); duplicates up to isomorphism are left to the
    caller.

    Each member S costs |S| - 1 - delta of the exponent v + e*(delta - d + 1)
    that pattern and h's fresh vertices leave, and no child may go below 0.
    Costs are nonnegative (delta <= 1), so a member is taken only when it
    fits in the budget left, and a branch stops once the members left cannot
    cover every new pair; every other collection is listed, each member
    taken before it is left out.  Returns the children.
    """
    edges = [tuple(sorted(e)) for e in pattern]
    support = {u for e in edges for u in e}
    h = tuple(sorted(h))
    proj = project_edges(edges)
    universe = [p for p in combinations(h, 2) if p not in proj]
    family = []
    for size in range(2, d + 1):
        for s in combinations(h, size):
            if any(p not in proj for p in combinations(s, 2)):
                family.append(s)
    bit = {p: i for i, p in enumerate(universe)}
    masks = []
    for s in family:
        m = 0
        for p in combinations(s, 2):
            if p in bit:
                m |= 1 << bit[p]
        masks.append(m)
    full = (1 << len(universe)) - 1
    suffix = [0] * (len(family) + 1)
    for i in range(len(family) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    # costs and the exponent in units of 1/den, so the DFS compares integers
    delta = Fraction(delta)
    den = delta.denominator
    cost = [int((len(s) - 1 - delta) * den) for s in family]
    v = len(support | set(h))  # with every fresh vertex h itself brings
    children: list = []
    chosen: list = []

    def emit() -> None:
        nxt = max(max(h) + 1, max(support) + 1)
        new_edges = list(edges)
        for i in chosen:
            s = family[i]
            extra = tuple(range(nxt, nxt + d - len(s)))
            nxt += d - len(s)
            new_edges.append(tuple(sorted(s + extra)))
        children.append(_normalize(new_edges))

    def dfs(i: int, covered: int, left: int) -> None:
        if covered | suffix[i] != full:
            return
        if i == len(family):
            if chosen:
                emit()
            return
        if left >= cost[i]:
            chosen.append(i)
            dfs(i + 1, covered | masks[i], left - cost[i])
            chosen.pop()
        dfs(i + 1, covered, left)

    dfs(0, 0, int((v + len(edges) * (delta - d + 1)) * den))
    return children


def reference_automorphism_count(pattern) -> int:
    """|Aut(K)|, by backtracking over the color-refined partition.

    Candidate images of each vertex are its refinement cellmates; partial
    maps are pruned as soon as a fully-mapped hyperedge leaves the edge set.
    """
    n = pattern.v
    edges = pattern.edges
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    colors = reference_refine(n, edges, [0] * len(edges), incident, [0] * n)
    if math.prod(
        math.factorial(c) for c in _cell_sizes(colors)
    ) > 20_000_000:
        raise PatternTooLargeError(
            "automorphism search space too large after refinement"
        )
    order = sorted(range(n), key=lambda v: (colors[v], v))
    position = {v: i for i, v in enumerate(order)}
    # edges checkable once their last vertex (in assignment order) is mapped
    ready: list = [[] for _ in range(n)]
    for e in edges:
        last = max(e, key=lambda u: position[u])
        ready[position[last]].append(e)
    edge_set = set(edges)
    image = [-1] * n
    used = [False] * n
    count = 0

    def backtrack(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            return
        v = order[i]
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            image[v] = w
            used[w] = True
            if all(
                tuple(sorted(image[u] for u in e)) in edge_set for e in ready[i]
            ):
                backtrack(i + 1)
            used[w] = False
            image[v] = -1

    backtrack(0)
    return count


def _cell_sizes(colors: Sequence[int]) -> list:
    sizes: dict = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    return list(sizes.values())


def reference_twin_class_automorphism_count(pattern) -> int:
    """|Aut(K)|, by backtracking over the twin classes of K.

    Twins (vertices with the same incident edges) can be permuted freely,
    every hyperedge is a union of twin classes, and every automorphism maps
    twin classes onto twin classes of the same size.  So |Aut| is the
    product of the class-size factorials times the number of class
    bijections that keep sizes and refinement colors and map the hyperedges
    (as sets of classes) into themselves.  Classes are assigned in the
    order the sorted edge list first meets them, and partial maps are
    pruned as soon as a fully-mapped hyperedge leaves the edge set; more
    than 5,000,000 partial maps raise PatternTooLargeError.  It relies on
    the twin argument that the twin quotient (census._quotient) also rests
    on, so it stands in for reference_automorphism_count only where that
    one cannot finish, and is checked against it where it can.
    """
    n = pattern.v
    edges = pattern.edges
    incident: list = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            incident[u].append(ei)
    colors = reference_refine(n, edges, [0] * len(edges), incident, [0] * n)
    classes: dict = {}
    for e in edges:
        for u in e:
            classes.setdefault(tuple(incident[u]), set()).add(u)
    members = list(classes.values())
    class_of = {u: i for i, cls in enumerate(members) for u in cls}
    kind = [(colors[min(cls)], len(cls)) for cls in members]
    m = len(members)
    class_edges = [frozenset(class_of[u] for u in e) for e in edges]
    # class edges checkable once their last class (in assignment order) is mapped
    ready: list = [[] for _ in range(m)]
    for e in class_edges:
        ready[max(e)].append(e)
    edge_set = set(class_edges)
    image = [-1] * m
    used = [False] * m
    count = 0
    nodes = 0

    def backtrack(i: int) -> None:
        nonlocal count, nodes
        nodes += 1
        if nodes > 5_000_000:
            raise PatternTooLargeError("automorphism search visits too many partial maps")
        if i == m:
            count += 1
            return
        for j in range(m):
            if used[j] or kind[j] != kind[i]:
                continue
            image[i] = j
            used[j] = True
            if all(frozenset(image[c] for c in e) in edge_set for e in ready[i]):
                backtrack(i + 1)
            used[j] = False
            image[i] = -1

    backtrack(0)
    return count * math.prod(math.factorial(len(cls)) for cls in members)


def generated_group_order(generators: Sequence[Sequence[int]], v: int) -> int:
    """The order of the permutation group the generators generate on
    0..v-1, by closing the identity under them breadth first."""
    identity = tuple(range(v))
    group = {identity}
    frontier = [identity]
    for element in frontier:
        for g in generators:
            composed = tuple(g[u] for u in element)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return len(group)


def reference_min_cost_cover(
    full: int, masks: Sequence[int], costs: Sequence[int]
) -> Optional[tuple]:
    """Least total cost of a candidate set covering ``full``.

    Branch and bound on the least uncovered pair over the candidates
    containing it; each option bans the options before it, so every
    collection is visited once, and a branch is cut only when its cost
    plus the cheapest cost per pair times the uncovered pairs exceeds the
    best found, so every optimal cover the branching reaches is compared.
    Costs must be nonnegative.  Returns (cost, lexicographically least
    sorted index tuple among those optima), or None if infeasible.
    """
    by_pair: list = [[] for _ in range(full.bit_length())]
    for ci, m in enumerate(masks):
        while m:
            low = m & -m
            by_pair[low.bit_length() - 1].append(ci)
            m ^= low
    rate = min(
        (Fraction(c, m.bit_count()) for m, c in zip(masks, costs) if m),
        default=Fraction(0),
    )
    num, den = rate.numerator, rate.denominator
    best: Optional[tuple] = None
    chosen: list = []

    def dfs(uncovered: int, cost: int, banned: int) -> None:
        nonlocal best
        if best is not None and (
            (cost - best[0]) * den + num * uncovered.bit_count() > 0
        ):
            return
        if uncovered == 0:
            found = (cost, tuple(sorted(chosen)))
            if best is None or found < best:
                best = found
            return
        for ci in by_pair[(uncovered & -uncovered).bit_length() - 1]:
            if banned >> ci & 1:
                continue
            chosen.append(ci)
            dfs(uncovered & ~masks[ci], cost + costs[ci], banned)
            chosen.pop()
            banned |= 1 << ci

    dfs(full, 0, 0)
    return best


def reference_root_cuts(
    pattern: Sequence[tuple], candidates: Sequence[Sequence[int]], d: int, delta: Fraction
) -> list:
    """The candidates h whose growth budget cannot pay for their new pairs
    at the least cost per pair of any member, (s - 1 - delta) / C(s, 2)
    over member sizes s = 2..d: the budget is the exponent
    v + e*(delta - d + 1) that pattern and h's fresh vertices leave, and
    the new pairs are h's pairs outside Proj(pattern).  A cover search
    whose per-pair bound is at least that rate lists no collection for h."""
    edges = [tuple(sorted(e)) for e in pattern]
    support = {u for e in edges for u in e}
    proj = project_edges(edges)
    delta = Fraction(delta)
    rate = min((s - 1 - delta) / Fraction(s * (s - 1), 2) for s in range(2, d + 1))
    cuts: dict = {}  # (fresh vertices, new pairs) -> whether h is cut
    out = []
    for h in candidates:
        fresh = sum(u not in support for u in h)
        new = sum(p not in proj for p in combinations(sorted(h), 2))
        if (fresh, new) not in cuts:
            budget = len(support) + fresh + len(edges) * (delta - d + 1)
            cuts[fresh, new] = budget < rate * new
        if cuts[fresh, new]:
            out.append(h)
    return out
