"""End-to-end CLI checks on temp files."""

import argparse
import dataclasses
import json
import math
import time
from fractions import Fraction
from itertools import combinations

import pytest

from hyperlift import cli
from hyperlift.cli import build_parser, main, parse_sweep_config
from hyperlift.core import (
    FormatError,
    Graph,
    graph_to_text,
    hypergraph_from_text,
    project,
)
from hyperlift.census import build_ambiguous_gadget
from hyperlift.reconstruct import COMPONENT_LIMIT, ComponentTooLargeError, map_reconstruct
from hyperlift.search import SearchConfig


def test_gen_project_reconstruct_roundtrip(tmp_path, capsys):
    hg = tmp_path / "h.hg"
    el = tmp_path / "g.el"
    out = tmp_path / "rec.hg"
    assert main(["--seed", "7", "--out", str(hg), "gen", "--d", "3", "--n", "30", "--delta", "2/5"]) == 0
    assert main(["--out", str(el), "project", str(hg)]) == 0
    assert main(["--out", str(out), "reconstruct", "--algo", "map", "--d", "3", str(el)]) == 0
    truth = hypergraph_from_text(hg.read_text())
    recon = hypergraph_from_text(out.read_text())
    stats = json.loads((tmp_path / "rec.hg.json").read_text())
    assert stats["is_preimage"]
    assert project(recon) == project(truth)


def test_gen_p_override_and_stdout(capsys):
    assert main(["gen", "--d", "3", "--n", "5", "--delta", "0", "--p-override", "1.0"]) == 0
    text = capsys.readouterr().out
    h = hypergraph_from_text(text)
    assert len(h) == 10  # C(5,3)


def test_gen_subnormal_p_override_writes_no_hyperedge(capsys):
    assert main(["gen", "--d", "3", "--n", "10", "--delta", "0", "--p-override", "5e-324"]) == 0
    assert len(hypergraph_from_text(capsys.readouterr().out)) == 0


@pytest.mark.parametrize("text, line", [("", "line 1"), ("4\n0 1\n0 1 2\n", "line 3")])
def test_malformed_edge_list_exits_1_with_one_stderr_line(tmp_path, capsys, text, line):
    el = tmp_path / "g.el"
    el.write_text(text)
    assert main(["reconstruct", "--algo", "cc", "--d", "3", str(el)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(el) in err and line in err


@pytest.mark.parametrize("text, line", [("3 4\n0 1 2\n0 1 9\n", "line 3"), ("1 4\n", "line 1")])
def test_invalid_hypergraph_cell_exits_1_naming_file_and_line(tmp_path, capsys, text, line):
    path = tmp_path / "h.hg"
    path.write_text(text)
    assert main(["project", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert str(path) in captured.err and line in captured.err


def test_search_nan_time_budget_exits_1_with_one_stderr_line(capsys):
    assert main(["search", "--d", "3", "--delta", "1/5", "--time-budget", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "time budget must be positive" in captured.err


def test_search_with_d_above_the_bound_exits_1_at_once(capsys):
    start = time.monotonic()
    assert main(["search", "--d", "40", "--delta", "1/2"]) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "d <= 12" in captured.err


def test_census_with_d_outside_the_bound_exits_1_at_once(capsys):
    start = time.monotonic()
    assert main(["census", "--d", "40", "--delta", "1/2"]) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "need 3 <= d <= 12, got 40" in captured.err
    assert main(["census", "--d", "12", "--delta", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["thresholds"]["d"] == 12


def test_preimage_reports_gadget_ambiguity(tmp_path, capsys):
    _, _, proj = build_ambiguous_gadget(3)
    el = tmp_path / "g.el"
    el.write_text(graph_to_text(proj))
    assert main(["preimage", "--d", "3", str(el)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] and report["min_size"] == 5 and report["ambiguous"]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_preimage_cap_below_one_exits_1_with_one_stderr_line(tmp_path, capsys, cap):
    el = tmp_path / "g.el"
    el.write_text(graph_to_text(build_ambiguous_gadget(3)[2]))
    assert main(["preimage", "--d", "3", "--cap", cap, str(el)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"cap={cap}" in captured.err


def test_preimage_bounds_candidates_not_vertices(tmp_path, capsys):
    # 80 vertices and no triangle: no candidate, so nothing to refuse
    el = tmp_path / "g.el"
    el.write_text(graph_to_text(Graph(80, [(0, 1)])))
    assert main(["preimage", "--d", "3", str(el)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def _triangle_strip(k: int) -> Graph:
    # k triangles (i, i+1, i+2) on k + 2 vertices: k candidates in one component
    return Graph(k + 2, [p for i in range(k) for p in combinations((i, i + 1, i + 2), 2)])


@pytest.mark.parametrize(
    "g, solved",
    [
        (_triangle_strip(40), True),
        (_triangle_strip(41), False),
        (Graph(10, list(combinations(range(10), 2))), False),  # K_10: 120 candidates
    ],
    ids=["strip40", "strip41", "K10"],
)
def test_preimage_and_map_share_one_candidate_limit(tmp_path, capsys, monkeypatch, g, solved):
    if solved:
        assert map_reconstruct(g, 3).is_preimage
    else:
        with pytest.raises(ComponentTooLargeError):
            map_reconstruct(g, 3)

        def unreachable(*args, **kwargs):
            raise AssertionError("min_preimage called on a graph over the limit")

        monkeypatch.setattr(cli, "min_preimage", unreachable)
    el = tmp_path / "g.el"
    el.write_text(graph_to_text(g))
    assert main(["preimage", "--d", "3", str(el)]) == (0 if solved else 1)
    captured = capsys.readouterr()
    if solved:
        assert json.loads(captured.out)["feasible"] is True
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "too large" in captured.err and f"limit {COMPONENT_LIMIT}" in captured.err


def test_preimage_too_deep_for_the_engine_exits_1_with_one_stderr_line(tmp_path, capsys):
    # K_46 at d=2: 1,035 candidates, one recursion frame per included one
    el = tmp_path / "k46.el"
    el.write_text(graph_to_text(Graph(46, list(combinations(range(46), 2)))))
    assert main(["preimage", "--d", "2", str(el)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "too large" in captured.err


@pytest.mark.parametrize("delta", ["2", "-1/5"])
def test_census_delta_outside_unit_interval_exits_1_with_one_stderr_line(capsys, delta):
    assert main(["census", "--d", "3", f"--delta={delta}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"delta={Fraction(delta)}" in captured.err


@pytest.mark.parametrize("delta", ["2", "-1/5"])
def test_census_beyond_the_g_tables_rejects_delta_outside_unit_interval(capsys, delta):
    # for d >= 8 no g_0/g_k runs, so the command itself must check delta
    assert main(["census", "--d", "8", f"--delta={delta}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"delta={Fraction(delta)}" in captured.err


def test_census_payload(capsys):
    assert main(["census", "--d", "3", "--delta", "2/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["thresholds"]["lower"] == "2/5"
    assert payload["ambiguous_gadget_preimage"]["max_density"] == "5/8"
    assert payload["ambiguous_gadget_preimage"]["exponent"] == "0"
    assert payload["map_failure_gadget"]["max_density"] == "2/3"
    assert payload["g0"]["value"] == "9/5"  # three pairs at cost 1 - 2/5 each
    assert payload["gk"]["3"] == "0"


@pytest.mark.parametrize("d", range(3, 11))
def test_census_reports_the_ambiguous_gadget_automorphism_count(capsys, d):
    assert main(["census", "--d", str(d), "--delta", "1/2"]) == 0
    aut = json.loads(capsys.readouterr().out)["ambiguous_gadget_preimage"]["aut"]
    assert aut == math.factorial(d - 1) * math.factorial(d - 2) ** (2 * (d - 1))


def test_search_exit_codes(capsys):
    assert main(["search", "--d", "3", "--delta", "1/5"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["search", "--d", "3", "--delta", "2/5", "--node-budget", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exhausted"] is False


def test_search_options_are_the_search_config_fields():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {a.dest for a in subparsers.choices["search"]._actions} - {"help"}
    assert options == {f.name for f in dataclasses.fields(SearchConfig)}
    assert options == {"d", "delta", "max_depth", "node_budget", "time_budget"}


def test_top_level_and_gen_options():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    top = {a.dest for a in parser._actions} - {"help", "command"}
    assert top == {"seed", "out", "threads"}
    gen = {a.dest for a in subparsers.choices["gen"]._actions} - {"help"}
    assert gen == {"d", "n", "delta", "p_override"}
    preimage = {a.dest for a in subparsers.choices["preimage"]._actions} - {"help"}
    assert preimage == {"d", "cap", "input"}


def test_sweep_config_and_run(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        """
        # tiny sweep
        d = 3
        n = 16
        delta = 1/5
        seeds = 2
        base_seed = 4
        algorithms = cc, map
        """
    )
    spec = parse_sweep_config(cfg.read_text())
    assert spec.d == 3 and spec.algorithms == ("cc", "map")
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert (tmp_path / "sweep.csv.timing").exists()


def test_sweep_config_rejects_garbage(tmp_path, capsys):
    with pytest.raises(ValueError):
        parse_sweep_config("nonsense without equals")
    with pytest.raises(ValueError, match="missing delta, seeds"):
        parse_sweep_config("d = 3\nn = 10\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 3\n")
    assert main(["sweep", str(cfg)]) == 1
    assert "missing" in capsys.readouterr().err


_SWEEP_OK = "d = 3\nn = 16\ndelta = 1/5\nseeds = 2\n"


@pytest.mark.parametrize(
    "text, fragments",
    [
        ("d = 3\nn = x\ndelta = 1/5\nseeds = 2\n", ["line 2", "n", "'x'"]),
        ("d = 3\nn = 16, 2.5\ndelta = 1/5\nseeds = 2\n", ["line 2", "n", "'16, 2.5'"]),
        ("d = 3\nn = 16\ndelta = 1/0\nseeds = 2\n", ["line 3", "delta"]),
        ("# header\n\nd = 3\nnonsense\n", ["line 4", "key = value"]),
        (_SWEEP_OK + "foo = 2\n", ["line 5", "unknown key 'foo'"]),
        (_SWEEP_OK + "base_sed = 7\n", ["line 5", "unknown key 'base_sed'"]),
        (_SWEEP_OK + "n = 20\n", ["line 5", "n is already set on line 2"]),
    ],
)
def test_sweep_config_errors_name_the_line(tmp_path, capsys, text, fragments):
    with pytest.raises(ValueError) as info:
        parse_sweep_config(text)
    for fragment in fragments:
        assert fragment in str(info.value)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    assert main(["sweep", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err and fragments[0] in err


@pytest.mark.parametrize(
    "text, fragments",
    [
        (_SWEEP_OK + "algorithms = foo\n", ["line 5", "algorithms", "'foo'"]),
        (_SWEEP_OK + "algorithms = map, bogus\n", ["line 5", "algorithms", "'map, bogus'"]),
        (_SWEEP_OK + "algorithms =\n", ["line 5", "algorithms", "nonempty"]),
        ("d = 3\nn =\ndelta = 1/5\nseeds = 2\n", ["line 2", "n", "nonempty"]),
        ("d = 3\nn = 16\ndelta = 1/5\nseeds = 0\n", ["line 4", "seeds", "'0'"]),
        ("d = 3\nn = 16, 2\ndelta = 1/5\nseeds = 2\n", ["line 2", "n", "n >= d=3"]),
        ("d = 3\nn = 16\ndelta = 1/5, 3/2\nseeds = 2\n", ["line 3", "delta", "[0, 1]"]),
        ("d = 3\nn = 16\ndelta = -1/5\nseeds = 2\n", ["line 3", "delta", "[0, 1]"]),
        ("d = 1\nn = 16\ndelta = 1/5\nseeds = 2\n", ["line 1", "d", "'1'"]),
    ],
)
def test_sweep_config_rejects_cells_no_sweep_can_run(tmp_path, capsys, text, fragments):
    with pytest.raises(FormatError) as info:
        parse_sweep_config(text)
    for fragment in fragments:
        assert fragment in str(info.value)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["--out", str(out), "sweep", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err and fragments[0] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_sweep_threads_below_one_exits_1_and_writes_nothing(tmp_path, capsys, threads):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_SWEEP_OK)
    out = tmp_path / "o.csv"
    assert main(["--out", str(out), f"--threads={threads}", "sweep", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"threads={threads}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_sweep_config_defaults():
    spec = parse_sweep_config(_SWEEP_OK)
    assert (spec.base_seed, spec.algorithms) == (0, ("cc", "map", "greedy"))
    assert spec.n_list == (16,) and spec.delta_list == (Fraction(1, 5),)


@pytest.mark.parametrize("command", [["project"], ["reconstruct", "--algo", "cc", "--d", "3"], ["sweep"]])
def test_missing_input_file_exits_1_with_one_stderr_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.hg"
    assert main(command + [str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err and "No such file" in err


def test_hsbm_command(capsys):
    assert main(["hsbm", "--d", "3", "--n", "20", "--alpha", "1/2", "--beta", "1/8", "--seeds", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 3


def test_hsbm_without_seeds_exits_1_with_one_stderr_line(capsys):
    args = ["hsbm", "--d", "3", "--n", "20", "--alpha", "1/2", "--beta", "1/8", "--seeds", "0"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "seed" in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        (["gen", "--d", "3", "--n", "10", "--delta", "1/0"], "--delta"),
        (["census", "--d", "3", "--delta", "1/0"], "--delta"),
        (["search", "--d", "3", "--delta", "1/0"], "--delta"),
        (["hsbm", "--d", "3", "--n", "20", "--alpha", "1/0", "--beta", "1/8"], "--alpha"),
        (["hsbm", "--d", "3", "--n", "20", "--alpha", "1/2", "--beta", "1/0"], "--beta"),
    ],
    ids=["gen", "census", "search", "hsbm-alpha", "hsbm-beta"],
)
def test_zero_denominator_exits_1_with_one_stderr_line(capsys, command, flag):
    assert main(command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"bad {flag} value '1/0'" in captured.err
