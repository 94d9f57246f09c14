"""Command-line interface.

Subcommands:
    gen          sample a random hypergraph, write .hg
    project      project a .hg file to a .el graph
    reconstruct  run cc / map / greedy on a .el graph, write .hg + stats JSON
    preimage     exact minimum-preimage report for a .el graph, as JSON
    census       exact densities, g tables and thresholds for (d, delta)
    search       the ambiguity search (2-neighbor growth, deduplicated up to
                 isomorphism); exit 0 if exhausted, 2 if budget-limited
    sweep        run a seeded grid from a config file, write CSV
    hsbm         similarity-matrix -> support -> MAP pipeline summary

The options before the subcommand are --seed (the base seed of gen and
hsbm), --out (the output path, stdout by default; sweep writes sweep.csv)
and --threads (sweep worker processes, at most one per replicate and per
CPU; the CSV bytes do not depend on it).

Malformed input (a bad file, config or parameter, such as a census or
search --d outside 3..12 or a --threads below 1), a file that cannot be
read or written and an input too large for the exact engine (a 2-connected
component over COMPONENT_LIMIT candidate hyperedges, in map and preimage
alike, or one too deep for its recursion) print one line to stderr, exit 1.

Fractions on the command line are exact: "2/5" or "0.4" both mean 2/5;
one that does not parse, or has a zero denominator, is a bad parameter.

The sweep config grammar is one `key = value` pair per line, `#` comments,
lists comma-separated; d, n, delta and seeds are required, and a key not
shown here or set twice is an error, as is a value no sweep can run
(d < 2, an empty list, some n < d, some delta outside [0, 1], seeds < 1, an
unknown algorithm):

    d = 3
    n = 100, 200
    delta = 1/5, 2/5
    seeds = 50
    base_seed = 7
    algorithms = cc, map, greedy
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .census import (
    automorphism_count,
    build_ambiguous_gadget,
    build_map_failure_gadget,
    expected_count_exponent,
    g_0,
    g_k,
    max_density,
    threshold_table,
)
from .core import (
    DensityParams,
    FormatError,
    HsbmParams,
    generate_random_hypergraph,
    graph_from_text,
    graph_to_text,
    hypergraph_from_text,
    hypergraph_to_text,
    project,
    read_text,
    write_text,
)
from .harness import SweepSpec, hsbm_pipeline, write_sweep_csv
from .reconstruct import ALGORITHMS, ComponentTooLargeError, min_preimage
from .search import SearchConfig, dfs_search


def _emit(args, text: str) -> None:
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load(path, parse):
    try:
        return parse(read_text(path))
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad {flag} value {text!r}: {err}") from None


def _cmd_gen(args) -> int:
    params = DensityParams(args.d, _fraction("--delta", args.delta), args.n)
    h = generate_random_hypergraph(params, args.seed, p_override=args.p_override)
    _emit(args, hypergraph_to_text(h))
    return 0


def _cmd_project(args) -> int:
    h = _load(args.input, hypergraph_from_text)
    _emit(args, graph_to_text(project(h)))
    return 0


def _cmd_reconstruct(args) -> int:
    g = _load(args.input, graph_from_text)
    res = ALGORITHMS[args.algo](g, args.d)
    stats = {
        "algorithm": res.algorithm,
        "is_preimage": res.is_preimage,
        "output_size": len(res.output),
        "component_sizes": res.component_sizes,
        "ambiguous_components": res.ambiguous_components,
        "elapsed": res.elapsed,
    }
    if args.out:
        write_text(args.out, hypergraph_to_text(res.output))
        write_text(args.out + ".json", json.dumps(stats, indent=2) + "\n")
    else:
        sys.stdout.write(hypergraph_to_text(res.output))
        sys.stderr.write(json.dumps(stats) + "\n")
    return 0


def _cmd_preimage(args) -> int:
    g = _load(args.input, graph_from_text)
    report = min_preimage(g, args.d, cap=args.cap)
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_census(args) -> int:
    d, delta = args.d, _fraction("--delta", args.delta)
    if not 3 <= d <= 12:  # max_density's min cuts grow steeply with d
        raise ValueError(f"need 3 <= d <= 12, got {d}")
    if not 0 <= delta <= 1:
        raise ValueError(f"delta={delta} outside [0, 1]")
    preimage1, _, _ = build_ambiguous_gadget(d)
    hb = build_map_failure_gadget(d)
    g0_value, g0_witness = g_0(d, delta) if 3 <= d <= 7 else (None, None)
    payload = {
        "thresholds": {"d": d, **{k: str(v) for k, v in threshold_table(d).items()}},
        "ambiguous_gadget_preimage": {
            "v": preimage1.v,
            "e": preimage1.e,
            "max_density": str(max_density(preimage1)),
            "aut": automorphism_count(preimage1),
            "exponent": str(expected_count_exponent(preimage1, d, delta)),
        },
        "map_failure_gadget": {
            "v": hb.v,
            "e": hb.e,
            "max_density": str(max_density(hb)),
        },
        "g0": None
        if g0_value is None
        else {"value": str(g0_value), "witness": [list(s) for s in g0_witness]},
        "gk": {str(k): str(g_k(d, k, delta)) for k in range(2, d + 1)}
        if d <= 7
        else None,
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0


def _cmd_search(args) -> int:
    config = SearchConfig(
        d=args.d,
        delta=_fraction("--delta", args.delta),
        max_depth=args.max_depth,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )
    report = dfs_search(config)
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return 0 if report.exhausted else 2


_SWEEP_KEYS = ("d", "n", "delta", "seeds", "base_seed", "algorithms")


def parse_sweep_config(text: str) -> SweepSpec:
    """A SweepSpec from the config grammar; FormatError names the bad line."""
    values: dict = {}  # key -> (line number, value text)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise FormatError(
                f"line {lineno}: unknown key {key!r}; keys are {', '.join(_SWEEP_KEYS)}"
            )
        if key in values:
            raise FormatError(f"line {lineno}: {key} is already set on line {values[key][0]}")
        values[key] = (lineno, value.strip())
    missing = {"d", "n", "delta", "seeds"} - values.keys()
    if missing:
        raise FormatError(f"config is missing {', '.join(sorted(missing))}")

    def field(key: str, parse, default=None):
        if key not in values:
            return default
        lineno, value = values[key]
        try:
            return parse(value)
        except (ValueError, ZeroDivisionError) as err:
            raise FormatError(f"line {lineno}: bad {key} value {value!r}: {err}") from None

    def many(parse):
        return lambda v: tuple(parse(x.strip()) for x in v.split(",") if x.strip())

    def check(key: str, ok, why: str) -> None:
        if not ok:
            lineno, value = values[key]
            raise FormatError(f"line {lineno}: bad {key} value {value!r}: {why}")

    # the constraints DensityParams and SweepSpec put on every cell,
    # checked here so that a bad value names its line before any output opens
    d = field("d", int)
    check("d", d >= 2, "d must be >= 2")
    n_list = field("n", many(int))
    check("n", n_list and min(n_list) >= d, f"need a nonempty list of n >= d={d}")
    delta_list = field("delta", many(Fraction))
    check(
        "delta",
        delta_list and 0 <= min(delta_list) and max(delta_list) <= 1,
        "need a nonempty list of delta in [0, 1]",
    )
    num_seeds = field("seeds", int)
    check("seeds", num_seeds >= 1, "need at least 1 seed")
    algorithms = field("algorithms", many(str), SweepSpec.algorithms)
    if "algorithms" in values:
        check(
            "algorithms",
            algorithms and set(algorithms) <= ALGORITHMS.keys(),
            f"need a nonempty list from {', '.join(sorted(ALGORITHMS))}",
        )
    return SweepSpec(
        d=d,
        n_list=n_list,
        delta_list=delta_list,
        num_seeds=num_seeds,
        base_seed=field("base_seed", int, 0),
        algorithms=algorithms,
    )


def _cmd_sweep(args) -> int:
    spec = replace(_load(args.config, parse_sweep_config), threads=args.threads)
    out = args.out or "sweep.csv"
    count = write_sweep_csv(spec, out, out + ".timing")
    sys.stderr.write(f"wrote {count} records to {out}\n")
    return 0


def _cmd_hsbm(args) -> int:
    params = HsbmParams(
        args.d, args.n, _fraction("--alpha", args.alpha), _fraction("--beta", args.beta)
    )
    seeds = [args.seed + i for i in range(args.seeds)]
    summary = hsbm_pipeline(params, seeds)
    _emit(args, json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlift",
        description="reconstruct random d-uniform hypergraphs from projections",
    )
    parser.add_argument("--seed", type=int, default=0, help="base 64-bit seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a random hypergraph")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True, help="exact rational, e.g. 2/5")
    p.add_argument("--p-override", type=float, default=None, dest="p_override")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("project", help="project .hg to .el")
    p.add_argument("input")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("reconstruct", help="reconstruct a hypergraph from .el")
    p.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("input")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("preimage", help="exact minimum-preimage report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("input")
    p.set_defaults(func=_cmd_preimage)

    p = sub.add_parser("census", help="exact densities, g tables, thresholds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("search", help="ambiguity search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--max-depth", type=int, default=None, dest="max_depth")
    p.add_argument("--node-budget", type=int, default=SearchConfig.node_budget, dest="node_budget")
    p.add_argument("--time-budget", type=float, default=None, dest="time_budget")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="run a sweep config, write CSV")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hsbm", help="HSBM reduction pipeline")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=_cmd_hsbm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ComponentTooLargeError) as err:
        sys.stderr.write(f"hyperlift {args.command}: {err}\n")
        return 1
    except RecursionError:
        sys.stderr.write(f"hyperlift {args.command}: input too large for the exact engine\n")
        return 1
    except OSError as err:
        where = f"{err.filename}: " if err.filename is not None else ""
        sys.stderr.write(f"hyperlift {args.command}: {where}{err.strerror or err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
