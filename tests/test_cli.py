"""Command-line interface: reports, exit codes, external ids."""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import alphabound as ab
from alphabound import cli
from alphabound.cli import RunReport, main
from helpers import disjoint_cliques, petersen


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.col"
    ab.write_graph(ab.cycle_graph(5), str(path))
    return str(path)


def test_bounds_command(c5_path, capsys):
    code, out, err = run_cli(capsys, "bounds", c5_path, "--p2")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "bounds"
    assert rep["result"] == {"p": 3, "p1": 3, "p2": 2, "wp_complement": 3}
    assert rep["input"]["format"] == "dimacs"
    assert (rep["input"]["n"], rep["input"]["m"]) == (5, 5)
    assert rep["wall_ms"] >= 0


def test_bounds_without_p2(c5_path, capsys):
    code, out, _ = run_cli(capsys, "bounds", c5_path)
    assert code == 0
    assert json.loads(out)["result"]["p2"] is None


def test_decide_yes_exit_zero(c5_path, capsys):
    code, out, _ = run_cli(capsys, "decide", c5_path, "--k", "1")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["answer"] == "YES" and res["resolved_at"] == "P2_BOUND"


def test_decide_no_reports_external_ids(tmp_path, capsys):
    path = tmp_path / "h.edges"
    ab.write_graph(ab.h_np(10, 4), str(path), external_ids=[v * 10 for v in range(10)])
    code, out, _ = run_cli(capsys, "decide", str(path), "--k", "1")
    assert code == 1
    res = json.loads(out)["result"]
    assert res["answer"] == "NO"
    assert res["certificate"]["vertices"] == [60, 70, 80, 90]


def test_decide_skip_bound_steps(c5_path, capsys):
    code, out, _ = run_cli(capsys, "decide", c5_path, "--k", "1", "--skip-bound-steps")
    assert code == 0
    assert json.loads(out)["result"]["resolved_at"] == "VC_SEARCH"


def test_shared_parser_keeps_no_state_between_calls(c5_path, capsys):
    code, out, _ = run_cli(capsys, "decide", c5_path, "--k", "1",
                           "--skip-bound-steps", "--node-budget", "7")
    assert code == 0
    assert json.loads(out)["parameters"] == {
        "k": 1, "skip_bound_steps": True, "node_budget": 7,
    }
    code, out, _ = run_cli(capsys, "decide", c5_path, "--k", "1")
    assert code == 0
    assert json.loads(out)["parameters"] == {
        "k": 1, "skip_bound_steps": False, "node_budget": ab.DEFAULT_NODE_BUDGET,
    }


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, err = run_cli(capsys, "gen", "cycle", "5")
    assert code == 0 and err == ""
    assert ab.parse_edgelist(out)[0] == ab.cycle_graph(5)


def test_decide_parameter_error_exit_two(tmp_path, capsys):
    path = tmp_path / "k9.col"
    ab.write_graph(ab.complete_graph(9), str(path))
    code, out, err = run_cli(capsys, "decide", str(path), "--k", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParameterError"


def test_deep_search_exits_zero_with_json(tmp_path, capsys):
    path = tmp_path / "k4x1000.col"
    ab.write_graph(disjoint_cliques(1000, 4), str(path))
    code, out, err = run_cli(capsys, "decide", str(path), "--k", "1500", "--skip-bound-steps")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert (result["answer"], result["resolved_at"]) == ("YES", "VC_SEARCH")
    assert result["certificate"] == {
        "type": "search_exhausted",
        "cover_budget": 1501,
        "nodes_explored": 1,
    }


def test_node_budget_exceeded_exits_two_with_json(tmp_path, capsys):
    path = tmp_path / "gnp12.col"
    ab.write_graph(ab.gnp(12, 0.3, seed=0), str(path))
    code, out, err = run_cli(capsys, "decide", str(path), "--k", "4", "--node-budget", "1")
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ResourceLimitError"
    assert payload["message"] == "vertex cover search exceeded 1 nodes"


def test_node_budget_below_one_exits_two_with_json(c5_path, capsys):
    # C5 at k = 0 resolves at P1, so no search would ever read the budget.
    code, out, err = run_cli(capsys, "decide", c5_path, "--k", "0", "--node-budget", "0")
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ParameterError"
    assert payload["message"] == "node_budget must be at least 1, got 0"


@pytest.mark.parametrize("n", [2 ** 61, 10 ** 20], ids=["2^61", "10^20"])
def test_huge_dimacs_header_exits_two_with_json(tmp_path, capsys, n):
    # The header is valid, so the parser asks for a row list of n entries;
    # CPython refuses a list that long (2^61), or an n past the index range
    # (10^20), before it allocates anything.
    path = tmp_path / "huge.col"
    path.write_text(f"p edge {n} 1\ne 1 2\n")
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ParseError"
    assert payload["message"].startswith("line 1:")
    assert f"declares {n} vertices" in payload["message"]


@pytest.mark.parametrize("n", [2 ** 61, 10 ** 20], ids=["2^61", "10^20"])
def test_huge_dimacs_endpoint_exits_two_with_json(tmp_path, capsys, n):
    # The endpoint is in range, so the parser grows its rows to reach it.
    path = tmp_path / "huge.col"
    path.write_text(f"p edge {n} 1\ne 1 {n}\n")
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ParseError"
    assert payload["message"].startswith("line 2:")
    assert f"endpoint {n} needs" in payload["message"]


@pytest.mark.parametrize("family", ["empty", "complete", "path", "cycle"])
def test_gen_past_the_index_range_exits_two_with_json(capsys, family):
    code, out, err = run_cli(capsys, "gen", family, str(10 ** 20))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "OverflowError"


def test_missing_file_exit_two(capsys):
    code, out, err = run_cli(capsys, "bounds", "/nonexistent/graph.col")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, out, err = run_cli(capsys, "bounds", str(bad))
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["type"] == "ParseError" and "line 2" in payload["message"]


def test_usage_error_is_json(capsys):
    with pytest.raises(SystemExit) as e:
        main(["decide"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "usage"


def test_kernel_command_with_emit(tmp_path, capsys):
    src = tmp_path / "h.col"
    ab.write_graph(ab.h_np(10, 4), str(src))
    emitted = tmp_path / "kernel.edges"
    code, out, _ = run_cli(capsys, "kernel", str(src), "--k", "1", "--emit", str(emitted))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["n0"] == 4 and res["budget"] == 0
    assert res["kept"] == [7, 8, 9, 10]
    back, ids = ab.read_graph(str(emitted))
    assert back.n == 4 and back.m == 0 and ids == (7, 8, 9, 10)


def test_kernel_emit_follows_the_extension(tmp_path, capsys):
    # DIMACS renumbers vertices 1..n, so it cannot carry the kernel's labels.
    src = tmp_path / "h.col"
    ab.write_graph(ab.h_np(12, 5), str(src))
    for name in ("k.col", "k.unknown"):
        emitted = tmp_path / name
        code, _, err = run_cli(capsys, "kernel", str(src), "--k", "1", "--emit", str(emitted))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ParameterError"
        assert not emitted.exists()


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "pet.col"
    ab.write_graph(petersen(), str(path))
    code, out, _ = run_cli(capsys, "oracle", str(path))
    res = json.loads(out)["result"]
    assert res["alpha"] == 4 and len(res["witness"]) == 4
    code, out, _ = run_cli(capsys, "oracle", str(path), "--vc")
    res = json.loads(out)["result"]
    assert res["vc_size"] == 6 and len(res["witness"]) == 6


def test_oracle_alpha_and_vc_together_is_a_usage_error(c5_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["oracle", c5_path, "--alpha", "--vc"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "usage", "message": "argument --vc: not allowed with argument --alpha",
    }


@pytest.fixture
def member_path(tmp_path):
    path = tmp_path / "member.edges"
    ab.write_graph(ab.generate_extremal("k2_c1", 8), str(path))
    return str(path)


# (argv, parameters in report order, input file or None).  ``{c5}``,
# ``{member}`` and ``{tmp}`` are filled in from the fixtures.
REPORT_CASES = [
    (["bounds", "{c5}"], {"with_p2": False}, "c5"),
    (["bounds", "{c5}", "--p2"], {"with_p2": True}, "c5"),
    (["decide", "{c5}", "-k", "1"],
     {"k": 1, "skip_bound_steps": False, "node_budget": ab.DEFAULT_NODE_BUDGET}, "c5"),
    (["kernel", "{c5}", "-k", "1"], {"k": 1}, "c5"),
    (["kernel", "{c5}", "-k", "1", "--emit", "{tmp}/k.edges"], {"k": 1}, "c5"),
    (["oracle", "{c5}"], {"what": "alpha"}, "c5"),
    (["oracle", "{c5}", "--alpha"], {"what": "alpha"}, "c5"),
    (["oracle", "{c5}", "--vc"], {"what": "vc"}, "c5"),
    (["gen", "path", "4", "--out", "{tmp}/p.edges"], {"n": 4}, None),
    (["gen", "h_np", "10", "4", "--out", "{tmp}/h.col"], {"n": 10, "p": 4}, None),
    (["gen", "gnp", "10", "0.5", "--seed", "3", "--out", "{tmp}/g.col"],
     {"n": 10, "prob": 0.5, "seed": 3}, None),
    (["extremal", "generate", "k2_c1", "8", "--out", "{tmp}/m.col"],
     {"tag": "k2_c1", "p": 8, "edge_choice": "lower", "seed": None}, None),
    (["extremal", "classify", "{member}", "-p", "8", "-k", "2"], {"p": 8, "k": 2}, "member"),
    (["extremal", "enumerate", "3"], {"p": 3}, None),
]


@pytest.mark.parametrize("argv, parameters, source", REPORT_CASES,
                         ids=[" ".join(case[0]) for case in REPORT_CASES])
def test_report_parameters_and_input(tmp_path, c5_path, member_path, capsys,
                                     argv, parameters, source):
    files = {"c5": (c5_path, "dimacs", ab.cycle_graph(5)),
             "member": (member_path, "edgelist", ab.generate_extremal("k2_c1", 8))}
    argv = [a.format(c5=c5_path, member=member_path, tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report["parameters"].items()) == list(parameters.items())
    if source is None:
        assert report["input"] is None
    else:
        path, fmt, g = files[source]
        assert report["input"] == {"path": path, "format": fmt, "n": g.n, "m": g.m}


def test_gen_writes_raw_edgelist_to_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "cycle", "5")
    assert code == 0 and err == ""
    g, _ = ab.parse_edgelist(out)
    assert g == ab.cycle_graph(5)


def test_gen_writes_raw_dimacs_to_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "cycle", "5", "--format", "dimacs")
    assert code == 0 and err == ""
    assert out == ab.format_dimacs(ab.cycle_graph(5))
    g, _ = ab.parse_dimacs(out)
    assert g == ab.cycle_graph(5)


def test_gen_gnp_to_file(tmp_path, capsys):
    target = tmp_path / "g.col"
    code, out, _ = run_cli(capsys, "gen", "gnp", "30", "0.2", "--seed", "7", "--out", str(target))
    assert code == 0
    rep = json.loads(out)
    written, _ = ab.read_graph(str(target))
    assert written == ab.gnp(30, 0.2, seed=7)
    assert rep["result"]["m"] == written.m


def test_gen_files_survive_a_read_write_round_trip(tmp_path, capsys):
    # Hosts this large take the writers' block pass and the parsers' bulk pass.
    for name in ("big.col", "big.edges"):
        path, again = tmp_path / name, tmp_path / ("again-" + name)
        code, _, err = run_cli(capsys, "gen", "gnp", "2000", "0.05", "--seed", "2",
                               "--out", str(path))
        assert code == 0 and err == ""
        g, ids = ab.read_graph(str(path))
        ab.write_graph(g, str(again), external_ids=ids if name.endswith(".edges") else None)
        assert g.m > 90_000 and again.read_bytes() == path.read_bytes()
    # A file written by --out holds the bytes printed to stdout.
    target = tmp_path / "g.col"
    code, _, _ = run_cli(capsys, "gen", "gnp", "300", "0.1", "--seed", "1", "--out", str(target))
    assert code == 0
    code, out, _ = run_cli(capsys, "gen", "gnp", "300", "0.1", "--seed", "1", "--format", "dimacs")
    assert code == 0 and target.read_bytes() == out.encode("ascii")


def test_gen_gnp_requires_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen", "gnp", "10", "0.5"])
    assert e.value.code == 2


def test_extremal_generate_and_classify(tmp_path, capsys):
    target = tmp_path / "member.edges"
    code, _, _ = run_cli(capsys, "extremal", "generate", "k2_c1", "8", "--out", str(target))
    assert code == 0
    code, out, _ = run_cli(capsys, "extremal", "classify", str(target), "-p", "8", "-k", "2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["family_tag"] == "k2_c1"
    assert res["residual_nonedges"] == 12
    assert res["residual_budget"] == 14
    assert res["rest_size_range"] == [0, 2]


def test_extremal_enumerate(capsys):
    code, out, _ = run_cli(capsys, "extremal", "enumerate", "3")
    assert code == 0
    assert json.loads(out)["result"]["counts"] == {"k1_a": 1, "k1_b": 6}


def test_run_report_roundtrip():
    rep = RunReport(
        command="bounds",
        input={"path": "x.col", "format": "dimacs", "n": 3, "m": 1},
        parameters={"with_p2": True},
        result={"p": 2},
        wall_ms=1.25,
    )
    assert RunReport.from_json(rep.to_json()) == rep


def test_to_json_is_the_asdict_dump(c5_path, tmp_path, capsys, monkeypatch):
    dumped = []
    original = RunReport.to_json

    def recording(report):
        text = original(report)
        dumped.append((report, text))
        return text

    monkeypatch.setattr(RunReport, "to_json", recording)
    h10 = tmp_path / "h10.col"
    ab.write_graph(ab.h_np(10, 4), str(h10))
    runs = (["decide", c5_path, "--k", "1"], ["decide", str(h10), "--k", "1"],
            ["kernel", str(h10), "--k", "1", "--emit", str(tmp_path / "k.edges")],
            ["bounds", c5_path, "--p2"])
    for argv in runs:
        run_cli(capsys, *argv)
    assert len(dumped) == len(runs)
    for report, text in dumped:
        assert text == json.dumps(asdict(report), indent=2)


# Run under ``python -O``, which strips plain asserts: a certificate that
# fails its re-check must still stop ``decide`` and the CLI.
BROKEN_CHECK_SCRIPT = """
import sys
import alphabound as ab
from alphabound.cli import main

if not sys.flags.optimize:
    raise SystemExit(10)
ab.Graph.is_independent_set = lambda self, vs: False
g = ab.join(ab.complete_graph(3), ab.h_np(10, 4))  # a padded NO instance
try:
    ab.decide(g, 1)
except ab.InternalError:
    pass
else:
    raise SystemExit(11)
ab.write_graph(g, sys.argv[1])
raise SystemExit(main(["decide", sys.argv[1], "--k", "1"]))
"""


def test_failed_recheck_exits_three_under_optimize(tmp_path):
    src_root = os.path.dirname(os.path.dirname(ab.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src_root + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CHECK_SCRIPT, str(tmp_path / "g.col")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "InternalError"


# Under ``python -O``: a generated family member whose independence number
# fails its re-check must end in an InternalError, not in a written file.
LYING_ORACLE_SCRIPT = """
import sys
import alphabound.extremal
from alphabound.cli import main

if not sys.flags.optimize:
    raise SystemExit(10)
alphabound.extremal.exact_alpha = lambda g, *args: (0, ())
raise SystemExit(main(["extremal", "generate", "k1_b", "5", "--out", sys.argv[1]]))
"""


def test_failed_extremal_recheck_exits_three_under_optimize(tmp_path):
    src_root = os.path.dirname(os.path.dirname(ab.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src_root + (os.pathsep + path if path else "")}
    target = tmp_path / "k1_b.col"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_ORACLE_SCRIPT, str(target)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and not target.exists()
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "InternalError" and "alpha=0" in error["message"]
