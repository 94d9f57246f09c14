"""End-to-end CLI checks on temp files."""

import json
from fractions import Fraction

import pytest

from hyperlift.cli import main, parse_sweep_config
from hyperlift.core import (
    FormatError,
    graph_to_text,
    hypergraph_from_text,
    project,
)
from hyperlift.census import build_ambiguous_gadget


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


def test_preimage_reports_gadget_ambiguity(tmp_path, capsys):
    _, _, proj = build_ambiguous_gadget(3)
    el = tmp_path / "g.el"
    el.write_text(graph_to_text(proj))
    assert main(["preimage", "--d", "3", str(el)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] and report["min_size"] == 5 and report["ambiguous"]


def test_census_payload(capsys):
    assert main(["census", "--d", "3", "--delta", "2/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["thresholds"]["lower"] == "2/5"
    assert payload["ambiguous_gadget_preimage"]["max_density"] == "5/8"
    assert payload["ambiguous_gadget_preimage"]["exponent"] == "0"
    assert payload["map_failure_gadget"]["max_density"] == "2/3"
    assert payload["g0"]["value"] == "9/5"  # three pairs at cost 1 - 2/5 each
    assert payload["gk"]["3"] == "0"


def test_search_exit_codes(capsys):
    assert main(["search", "--d", "3", "--delta", "1/5"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["search", "--d", "3", "--delta", "2/5", "--node-budget", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exhausted"] is False


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


def test_sweep_json_format_mirrors_csv_schema(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 3\nn = 14\ndelta = 1/5\nseeds = 2\nbase_seed = 4\nalgorithms = map\n")
    assert main(["--format", "json", "sweep", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert list(rows[0]) == [
        "d", "n", "delta", "seed", "algorithm", "exact", "is_preimage",
        "output_size", "truth_size", "max_component_size", "component_count",
        "ambiguous_component_count", "reason",
    ]
