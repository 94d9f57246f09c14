"""Independent brute-force oracles used to check the exact engines.

Deliberately dumb: subset enumeration and bitmask ORs only, no shared code
with the branch-and-bound / flow paths they verify.  Also the Pasch-trade
witness and the effective density exponent behind acceptance criterion 9,
the block-by-block rank samplers that the fast ones must reproduce, the
canonical-form candidate dedup that the orbit dedup must reproduce, and
the solve-every-component MAP that the singleton rule must reproduce.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

from hyperlift.census import PatternTooLargeError, canonical_form, stable_colors
from hyperlift.components import decompose
from hyperlift.core import Graph, Hypergraph, clique_hypergraph, project, project_edges
from hyperlift.preimage import solve_cover
from hyperlift.reconstruct import ComponentTooLargeError, ReconstructionResult
from hyperlift.rng import BLOCK_SIZE, GEN_TAG, substream


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


def reference_candidate_neighbors(
    pattern: Sequence[tuple], d: int, strict: bool = True
) -> list:
    """Candidate hyperedges h that could join the pattern's clique structure,
    up to symmetry of (pattern, h).

    h takes k in [2, d] vertices from the pattern and d - k fresh labels;
    under the strict rule (the 2-neighbor definition) the k chosen vertices
    must contain a pair lying inside some clique hyperedge of
    Cli(Proj(pattern)); the loose rule only requires k >= 2.  Candidates
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
            if strict:
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
                key = canonical_form(edges + [h], base_colors + [1])
                if len(bucket) == 1 and bucket[0][1] is None:
                    first_h = bucket[0][0]
                    bucket[0] = (
                        first_h,
                        canonical_form(edges + [first_h], base_colors + [1]),
                    )
                if any(key == known for _, known in bucket):
                    continue
                bucket.append((h, key))
            else:
                bucket.append((h, None))
            out.append(h)
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
                f"component with {len(comp)} candidate hyperedges exceeds "
                f"abort threshold {component_limit}"
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
