#!/usr/bin/env python3
"""Probe the open threshold intervals with the ambiguity search.

Walks a ladder of delta values per d, each point at the search's default
(provably sufficient) depth under the strict neighbor rule and a node budget
per d, and writes pilot/frontier.json: for every point its d, delta, depth,
node counters, whether the search was exhausted, the number of ambiguous
classes found and the wall time.  An exhausted point with no class is a
certificate; a point that runs out of nodes certifies nothing.  Every class
found is recorded as a witness: a projection together with the two minimum
preimages min_preimage found for it.  A budget in nodes, not seconds, makes
every field but wall_s the same on every rerun, whatever the machine load.

    python3 scripts/run_frontier.py                       # LADDER, NODE_BUDGET per d
    python3 scripts/run_frontier.py --out /tmp/frontier.json

The ladder lies inside the intervals the threshold table leaves open:
d=4 between 1/2 and 4/7, d=5 between 1/2 and 2/3, d=6 between 1/2 and
7/8, d=7 between 4/7 and 10/11.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperlift.search import SearchConfig, dfs_search

LADDER = {
    4: ("21/40", "17/32", "43/80", "11/20"),
    5: ("11/20", "23/40", "3/5", "5/8"),
    6: ("11/20", "3/5", "13/20"),
    7: ("3/5", "5/8", "13/20"),
}
NODE_BUDGET = {4: 1300, 5: 2300, 6: 120, 7: 100}  # nodes per point, by d


def probe(d: int, delta: Fraction) -> dict:
    """One point of the ladder."""
    start = time.monotonic()
    report = dfs_search(SearchConfig(d, delta, node_budget=NODE_BUDGET[d]))
    wall = time.monotonic() - start
    return {
        "d": d,
        "delta": str(delta),
        "max_depth": report.config.max_depth,
        "nodes_visited": report.nodes_visited,
        "nodes_deduped": report.nodes_deduped,
        "nodes_pruned_by_exponent": report.nodes_pruned_by_exponent,
        "exhausted": report.exhausted,
        "classes": len(report.ambiguous_found),
        "wall_s": round(wall, 2),
        "witnesses": report.to_dict()["ambiguous_classes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "pilot" / "frontier.json")
    args = parser.parse_args(argv)
    points = []
    for d, ladder in sorted(LADDER.items()):
        for text in ladder:
            point = probe(d, Fraction(text))
            points.append(point)
            print(
                f"d={d} delta={text} depth={point['max_depth']} "
                f"nodes={point['nodes_visited']} exhausted={point['exhausted']} "
                f"classes={point['classes']} wall={point['wall_s']}s",
                file=sys.stderr,
            )
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"node_budget": NODE_BUDGET, "points": points}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
