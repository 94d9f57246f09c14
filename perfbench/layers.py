"""Which program names the traced run wraps, and the per-layer metrics it
derives from the spans.

Layers are the program's modules: rng, core, components, preimage,
reconstruct, census, search, harness.  A span is named ``<layer>.<what>``.
The wrapped names are the module-level names that the workloads' call
paths look up at call time (``reconstruct.solve_cover`` is what MAP calls,
``search.canonical_form`` what the search calls), plus the entries of
``reconstruct.ALGORITHMS`` that the sweep dispatches through.

Times are self times (a span minus its children), per benchmark operation;
counts are per operation unless named otherwise.
"""

from __future__ import annotations

import math

from tracer import OP

LAYERS = ("rng", "core", "components", "preimage", "reconstruct", "census", "search", "harness")


def trace_targets(hl) -> list:
    """(container, key, span name, on_result) for every name to wrap."""
    block_size = getattr(hl.rng, "BLOCK_SIZE", 1 << 16)
    seen_forms: set = set()

    def on_ranks(tr, args, kwargs, result):
        total = args[1] if len(args) > 1 else kwargs["total"]
        p = args[2] if len(args) > 2 else kwargs["p"]
        if 0.0 < p < 1.0:  # only then does the sampler walk its rank blocks
            tr.count("rng.blocks", math.ceil(total / block_size))
        tr.count("rng.ranks_kept", len(result))

    def on_cliques(tr, args, kwargs, result):
        tr.count("core.cliques_out", len(result.edges))

    def on_decompose(tr, args, kwargs, result):
        sizes = [len(c) for c in result.components]
        tr.count("components.count", len(sizes))
        tr.counters["components.max_size"] = max(
            [tr.counters.get("components.max_size", 0)] + sizes
        )

    def on_canonical(tr, args, kwargs, result):
        edges = args[0] if args else kwargs["edges"]
        colors = args[1] if len(args) > 1 else kwargs.get("edge_colors")
        key = (tuple(map(tuple, edges)), None if colors is None else tuple(colors))
        if key in seen_forms:
            tr.count("census.canonical_form_repeats")
        seen_forms.add(key)

    def on_search(tr, args, kwargs, report):
        for field in ("nodes_visited", "nodes_deduped", "nodes_pruned_by_exponent"):
            tr.count(f"search.{field}", getattr(report, field))

    def on_replicate(tr, args, kwargs, records):
        for r in records:
            if r.algorithm == "map":
                tr.count("reconstruct.map_aborts", r.reason == "component_too_large")
                tr.count("reconstruct.map_exact", bool(r.exact))

    algos = hl.reconstruct.ALGORITHMS
    return [
        (hl.core, "bernoulli_ranks", "rng.sample", on_ranks),
        (hl.core, "unrank_combination", "core.unrank", None),
        (hl.harness, "generate_random_hypergraph", "core.generate", None),
        (hl.harness, "project", "core.project", None),
        (hl.reconstruct, "project", "core.project", None),
        (hl.search, "project_edges", "core.project_edges", None),
        (hl.reconstruct, "clique_hypergraph", "core.clique_hypergraph", on_cliques),
        (hl.preimage, "clique_hypergraph", "core.clique_hypergraph", on_cliques),
        (hl.search, "clique_hypergraph", "core.clique_hypergraph", on_cliques),
        (hl.reconstruct, "decompose", "components.decompose", on_decompose),
        (hl.reconstruct, "solve_cover", "preimage.solve_cover", None),
        (hl.search, "min_preimage", "preimage.min_preimage", None),
        (algos, "cc", "reconstruct.cc", None),
        (algos, "map", "reconstruct.map", None),
        (algos, "greedy", "reconstruct.greedy", None),
        (hl.harness, "verify_exact", "reconstruct.verify_exact", None),
        (hl.census, "canonical_form", "census.canonical_form", on_canonical),
        (hl.search, "canonical_form", "census.canonical_form", on_canonical),
        (hl.search, "graph_canonical_form", "census.graph_canonical_form", None),
        (hl.search, "stable_colors", "census.stable_colors", None),
        (hl.harness, "automorphism_count", "census.automorphism_count", None),
        (hl.search, "dfs_search", "search.dfs_search", on_search),
        (hl.search, "candidate_neighbors", "search.candidate_neighbors", None),
        (hl.search, "grow", "search.grow", None),
        (hl.harness, "_run_one", "harness.replicate", on_replicate),
        (hl.harness, "mc_subgraph_count", "harness.mc_subgraph_count", None),
        (hl.harness, "count_pattern_copies", "harness.count_pattern_copies", None),
    ]


# per-layer metric -> (kind, span or counter name); the kinds:
# "self": the span's self seconds per op; "calls": its calls per op;
# "count": the counter per op; "layer_self": the layer's self seconds per op.
PER_OP = {
    "rng.sample_s": ("self", "rng.sample"),
    "rng.blocks": ("count", "rng.blocks"),
    "rng.ranks_kept": ("count", "rng.ranks_kept"),
    "core.unrank_s": ("self", "core.unrank"),
    "core.unrank_calls": ("calls", "core.unrank"),
    "core.generate_s": ("self", "core.generate"),
    "core.project_s": ("self", "core.project"),
    "core.project_calls": ("calls", "core.project"),
    "core.clique_hypergraph_s": ("self", "core.clique_hypergraph"),
    "core.clique_hypergraph_calls": ("calls", "core.clique_hypergraph"),
    "core.cliques_out": ("count", "core.cliques_out"),
    "core.self_s": ("layer_self", "core"),
    "components.decompose_s": ("self", "components.decompose"),
    "components.count": ("count", "components.count"),
    "preimage.solve_cover_s": ("self", "preimage.solve_cover"),
    "preimage.solve_cover_calls": ("calls", "preimage.solve_cover"),
    "preimage.min_preimage_s": ("self", "preimage.min_preimage"),
    "preimage.min_preimage_calls": ("calls", "preimage.min_preimage"),
    "reconstruct.cc_s": ("self", "reconstruct.cc"),
    "reconstruct.map_s": ("self", "reconstruct.map"),
    "reconstruct.greedy_s": ("self", "reconstruct.greedy"),
    "reconstruct.map_aborts": ("count", "reconstruct.map_aborts"),
    "reconstruct.map_exact": ("count", "reconstruct.map_exact"),
    "reconstruct.self_s": ("layer_self", "reconstruct"),
    "census.canonical_form_s": ("self", "census.canonical_form"),
    "census.canonical_form_calls": ("calls", "census.canonical_form"),
    "census.stable_colors_s": ("self", "census.stable_colors"),
    "census.automorphism_count_s": ("self", "census.automorphism_count"),
    "census.automorphism_count_calls": ("calls", "census.automorphism_count"),
    "census.self_s": ("layer_self", "census"),
    "search.nodes_visited": ("count", "search.nodes_visited"),
    "search.nodes_deduped": ("count", "search.nodes_deduped"),
    "search.nodes_pruned_by_exponent": ("count", "search.nodes_pruned_by_exponent"),
    "search.candidate_neighbors_s": ("self", "search.candidate_neighbors"),
    "search.grow_s": ("self", "search.grow"),
    "search.self_s": ("layer_self", "search"),
    "harness.count_pattern_copies_s": ("self", "harness.count_pattern_copies"),
    "harness.count_pattern_copies_calls": ("calls", "harness.count_pattern_copies"),
    "harness.self_s": ("layer_self", "harness"),
}

UNITS = {"self": "s/op", "calls": "calls/op", "count": "count/op", "layer_self": "s/op"}

OTHER_UNITS = {
    "rng.kept_per_block": "ratio",
    "components.max_size": "count",
    "census.canonical_form_repeat_frac": "frac",
    "search.nodes_per_s": "1/s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def metric_units() -> dict:
    out = {name: UNITS[kind] for name, (kind, _) in PER_OP.items()}
    out.update(OTHER_UNITS)
    return out


def layer_metrics(summary: dict, counters: dict, n_ops: int, overhead_frac: float) -> dict:
    """Every per-layer metric from a span summary (see tracer.summarize)."""

    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    values = {}
    for metric, (kind, key) in PER_OP.items():
        if kind == "self":
            total = span(key, "self_s")
        elif kind == "calls":
            total = span(key, "calls")
        elif kind == "count":
            total = counters.get(key, 0)
        else:
            total = sum(row["self_s"] for name, row in summary.items() if name.startswith(key + "."))
        values[metric] = total / n_ops
    blocks = counters.get("rng.blocks", 0)
    forms = span("census.canonical_form", "calls")
    search_s = span("search.dfs_search", "total_s")
    op_s = span(OP, "total_s")
    values.update(
        {
            "rng.kept_per_block": counters.get("rng.ranks_kept", 0) / blocks if blocks else 0.0,
            "components.max_size": counters.get("components.max_size", 0),
            "census.canonical_form_repeat_frac": (
                counters.get("census.canonical_form_repeats", 0) / forms if forms else 0.0
            ),
            "search.nodes_per_s": (
                counters.get("search.nodes_visited", 0) / search_s if search_s else 0.0
            ),
            "trace.overhead_frac": overhead_frac,
            "trace.unattributed_frac": span(OP, "self_s") / op_s if op_s else 0.0,
        }
    )
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
