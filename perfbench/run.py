#!/usr/bin/env python3
"""Benchmark for hyperlift: four workloads, end-to-end metrics, and a layer
trace taken from outside the program.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  Each
workload runs in one process with no threads.  Set-up (import plus input
construction) is timed SETUP_REPEATS times before the measured pass and
once more every SETUP_INTERVAL_S seconds between its operations.
Operations run back to back until ``--seconds`` have passed (whole rounds
only), each timed from outside and gated for correctness.

``--trace 0`` prints the end-to-end metrics.  Every time in them is scaled
by the machine's speed around it, measured by the reference load of
``reference.py``; the unscaled figures are printed too.  ``--trace 1`` runs
the same pass without the reference load, then replays its operations with
the layer wrappers of ``layers.py`` installed, checks that both passes
produce the same result digest, writes the spans to ``.perfbench/`` and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 1 when a correctness check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_INTERVAL_S = 1.0
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
RATE_NAMES = {"replicate": "replicates_per_s", "trial": "mc_trials_per_s"}

sys.path.insert(0, str(HERE))

from layers import LAYERS, layer_metrics, trace_targets  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program() -> SimpleNamespace:
    """Import the program's modules afresh from this checkout's src/."""
    if not (SRC / "hyperlift" / "__init__.py").is_file():
        raise ProgramMissing(f"no hyperlift package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hyperlift" or m.startswith("hyperlift.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"hyperlift.{name}") for name in LAYERS + ("cli",)}
    if Path(mods["core"].__file__).resolve().parent != (SRC / "hyperlift").resolve():
        raise ProgramMissing(f"hyperlift was imported from {mods['core'].__file__}")
    return SimpleNamespace(**mods)


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    times: list = field(default_factory=list)  # by the pass's clock
    walls: list = field(default_factory=list)  # (start, end) by perf_counter
    results: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # op index -> [problem]

    @property
    def failed(self) -> int:
        return len(self.problems)


def set_up(workload_cls, seed: int, clock=perf_counter) -> tuple:
    """Import plus input construction: (workload, seconds, (start, end)).

    Re-importing leaves the previous modules as cyclic garbage; it is
    collected here, untimed, so that no later operation pays for it."""
    w0, t0 = perf_counter(), clock()
    workload = workload_cls(load_program(), seed)
    t1, w1 = clock(), perf_counter()
    gc.collect()
    return workload, t1 - t0, (w0, w1)


def run_pass(workload, ops, seconds=None, tracer=None, between=None, clock=perf_counter) -> Pass:
    """Run operations from ``ops`` until ``seconds`` of wall time have passed
    (whole rounds, at least workload.min_rounds), or all of them when
    seconds is None.  Each op is timed by ``clock`` around the program call
    alone; ``between`` is called after each op, outside its timing."""
    out = Pass()
    patches = workload.instrument()
    if tracer is not None:
        tracer.install(trace_targets(workload.hl))
    min_ops = workload.round_len * workload.min_rounds
    start = perf_counter()
    try:
        for i, op in enumerate(ops):
            problems = None
            w0, t0 = perf_counter(), clock()
            try:
                if tracer is None:
                    result = workload.run(op)
                else:
                    result = tracer.run_op(i, workload.run, op)
            except Exception as exc:  # any failure of one op is counted, not fatal
                result = None
                problems = [f"{type(exc).__name__}: {exc}"]
                if not out.problems:
                    traceback.print_exc(file=sys.stderr)
            out.times.append(clock() - t0)
            out.walls.append((w0, perf_counter()))
            if problems is None:
                problems = workload.check(op, result)
            out.ops.append(op)
            out.results.append(result if workload.keep_results else None)
            out.digests.append(
                None if result is None else hashlib.sha256(workload.result_bytes(op, result)).digest()
            )
            if problems:
                out.problems[i] = problems
            if between is not None:
                between()
            done = i + 1
            if (
                seconds is not None
                and done % workload.round_len == 0
                and done >= min_ops
                and perf_counter() - start >= seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.patches.restore()
        patches.restore()
    for idx, problems in workload.final_check(list(zip(out.ops, out.results))).items():
        out.problems.setdefault(idx, []).extend(problems)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest quantile, up to 0.95, with TAIL_BEYOND samples beyond it;
    the median when there are too few samples for any tail."""
    return max(0.5, min(0.95, 1 - TAIL_BEYOND / n))


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for d in p.digests:
        h.update(d or b"-")
    return h.hexdigest()


def end_to_end(times: list, setup_times: list, failed: int) -> dict:
    n = len(times)
    values = {
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (percentile(times, tail_quantile(n)), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / n, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def named_figures(workload, ops: list, times: list) -> list:
    """The per-workload figures under their own names, with sample counts:
    replicates_per_s, replicate_p50_s/p95_s, cert_d<k>_s, mc_trials_per_s."""
    groups: dict = {}
    for op, t in zip(ops, times):
        groups.setdefault(workload.label(op), []).append(t)
    lines = []
    for label, ts in groups.items():
        n = len(ts)
        if label in RATE_NAMES:
            lines.append((RATE_NAMES[label], n / sum(ts), "1/s", n))
        if label == "replicate":
            lines.append(("replicate_p50_s", statistics.median(ts), "s", n))
            if tail_quantile(n) == 0.95:
                lines.append(("replicate_p95_s", percentile(ts, 0.95), "s", n))
        elif label not in RATE_NAMES:
            lines.append((f"{label}_s", statistics.median(ts), "s", n))
    return lines


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{name}-seed{seed}.csv.gz"
    with gzip.open(path, "wt") as f:
        f.write("name,start,end,parent,op\n")
        for row in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.ops):
            f.write("%s,%.9f,%.9f,%d,%d\n" % row)
    return path


def measure(cls, seed: int, seconds: float) -> tuple:
    """The untraced pass under the reference load, with set-up samples taken
    before it and between its operations.  Returns (workload, pass, scaled
    op times, scaled set-up times)."""
    ref = Reference()
    setups = []
    ref.start()
    try:
        for _ in range(SETUP_REPEATS):
            workload, t, wall = set_up(cls, seed, ref.clock)
            setups.append((t, wall))

        def sample_setup():
            # spreads set-up samples over the run, so that they meet the same
            # machine load as the operations; the fresh modules are discarded
            if perf_counter() - setups[-1][1][1] >= SETUP_INTERVAL_S:
                setups.append(set_up(cls, seed, ref.clock)[1:])

        measured = run_pass(workload, workload.ops(), seconds, None, sample_setup, ref.clock)
    finally:
        ref.stop()
    scaled = [t * ref.scale(*wall) for t, wall in zip(measured.times, measured.walls)]
    setup_scaled = [t * ref.scale(*wall) for t, wall in setups]
    return workload, measured, scaled, setup_scaled


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = WORKLOADS[name]
    if trace:
        workload = set_up(cls, seed)[0]
        measured = run_pass(workload, workload.ops(), seconds)
    else:
        workload, measured, scaled, setup_scaled = measure(cls, seed, seconds)
    attempted, failed = len(measured.ops), measured.failed
    print(f"{name}: {attempted} operations, {failed} failed, digest sha256={digest(measured)}")
    for idx in sorted(measured.problems)[:10]:
        print(f"  op {idx}: {'; '.join(measured.problems[idx])}")
    if trace:
        tracer = Tracer()
        traced = run_pass(workload, measured.ops, None, tracer)
        mismatched = [
            i for i, (a, b) in enumerate(zip(measured.digests, traced.digests)) if a != b
        ]
        print(f"{name}: traced digest sha256={digest(traced)}, {len(mismatched)} ops differ")
        attempted += len(traced.ops)
        failed += len(set(traced.problems) | set(mismatched))
        overhead = sum(traced.times) / sum(measured.times) - 1
        metrics = layer_metrics(tracer.summary(), tracer.counters, len(traced.ops), overhead)
        print(f"{name}: {len(tracer.names)} spans written to {write_spans(tracer, name, seed)}")
    else:
        raw = dict((f[0], f[1]) for f in named_figures(workload, measured.ops, measured.times))
        for figure, value, unit, n in named_figures(workload, measured.ops, scaled):
            print(f"{name}: {figure} = {value:.6g} {unit} (unscaled {raw[figure]:.6g}, n={n})")
        metrics = end_to_end(scaled, setup_scaled, failed)
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
