import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowsat
from rainbowsat.cli import main
from rainbowsat.constructions import gadget, ladder_construction, p4_construction
from rainbowsat.graphs import complete_graph, graph6_decode, graph6_encode, wheel

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_colorable_exit_codes(capsys):
    code, out = run(capsys, "colorable", "K4", "P4")
    assert code == 0 and out.startswith("COLORABLE")

    ga = graph6_encode(gadget("GA").graph)
    code, out = run(capsys, "colorable", ga, "C4")
    assert code == 1 and out.startswith("UNCOLORABLE")

    code, out = run(capsys, "colorable", "E5", "K3")
    assert code == 0

    code, _ = run(capsys, "--nodes", "2", "colorable", "K6", "C4")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code = main(["colorable", "@@@nope", "K3"])
    assert code == 64
    code = main(["colorable", "D?", "K3"])
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "ehm", "--n", "6"],
        ["construct", "ladder", "--n", "9"],
        ["colorable", "@{empty}", "K3"],
        ["--nodes", "-1", "colorable", "K4", "P4"],
        ["verify-paper", "--only", "c4-degree1", "--timeout", "0.001"],
        ["--timeout", "0.001", "verify-paper", "--only", "c4-degree1"],
        ["sat", "7", "C4", "--timeout", "0.001"],
        ["--nodes", "0", "sat", "7", "C4"],
        ["gadget", "GA", "--nodes", "5"],
        ["satstar", "5", "P4", "--seed", "3"],
        ["--timeout", "-1", "colorable", "K4", "P4"],
        ["--timeout", "nan", "colorable", "K6", "C4"],
        ["verify-paper", "--only", "ehm,ehm"],
        ["verify-paper", "--only", ""],
    ],
    ids=["ehm-without-r", "ladder-without-pattern", "empty-graph-file", "negative-nodes",
         "verify-paper-timeout-after", "verify-paper-timeout-before", "sat-timeout",
         "sat-nodes", "gadget-nodes", "satstar-seed", "negative-timeout", "nan-timeout",
         "repeated-claim", "empty-selection"],
)
def test_bad_input_exits_64(argv, tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert main([arg.format(empty=empty) for arg in argv]) == 64
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["check", "K4"], ["satstar", "x", "C4"], ["colorable", "K4", "P4", "--bogus"],
     ["gadget"], ["gadget", "GA", "--list"]],
    ids=["missing-patterns", "non-integer-n", "unknown-flag", "gadget-without-name",
         "gadget-name-and-list"],
)
def test_usage_error_exits_64_not_2(argv, capsys):
    # exit 2 means INDETERMINATE, so argparse's own usage exit would read as one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: rainbowsat") and "error: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rainbowsat check")


def test_verify_paper_timeout_error_points_to_nodes(capsys):
    assert main(["verify-paper", "--only", "c4-degree1", "--timeout", "5"]) == 64
    err = capsys.readouterr().err
    assert "node-budgeted" in err and "--nodes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "ladder", "--pattern", "K3", "--n", "9", "--nodes", "1"],
        ["satstar", "6", "C4", "--nodes", "1"],
    ],
    ids=["ladder", "satstar"],
)
@pytest.mark.usefixtures("no_catalogue")
def test_budget_abort_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("INDETERMINATE: budget exhausted")


def test_construct_verify_exits_2_when_indeterminate(capsys):
    code, out = run(capsys, "construct", "wheel", "--n", "8", "--verify", "--nodes", "1")
    assert code == 2 and out.endswith("verified: INDETERMINATE\n")


def test_check_command(capsys):
    code, out = run(capsys, "check", "W8", "C4")
    assert code == 0 and "SATURATED" in out

    code, out = run(capsys, "--json", "check", "K1_3", "P4")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "NOT_SATURATED"
    assert payload["failing_edge"]

    code, out = run(capsys, "check", "E2", "K2")
    assert code == 0 and "SATURATED" in out


@pytest.mark.parametrize(
    "graph, pattern, golden",
    [
        ("W24", "C4", "check-W24-C4.json"),
        (graph6_encode(p4_construction(18).graph), "P4", "check-p4-18-P4.json"),
    ],
    ids=["W24-C4", "p4-18-P4"],
)
def test_check_json_matches_golden(graph, pattern, golden, capsys):
    # the orbit count and the witness coloring rest on the canonical search's
    # twin rule and on the union-find that merges non-edge orbits
    code, out = run(capsys, "check", graph, pattern, "--json")
    assert code == 0 and out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("pattern, n", [("K4", "14"), ("K3", "33")], ids=["K4-14", "K3-33"])
def test_construct_ladder_json_matches_golden(pattern, n, capsys):
    # the K4 ladder's patching rejects pairs through an obstruction of the
    # catalogue; the K3 ladder's one lift takes its guaranteed size, h^3 + h =
    # 30, unclamped.  Each graph and its trace stay byte for byte as they were
    code, out = run(capsys, "construct", "ladder", "--pattern", pattern, "--n", n, "--json")
    assert code == 0 and out == (GOLDEN / f"ladder-{pattern}-{n}.json").read_text()


@pytest.mark.parametrize(
    "pattern", ["C4", pytest.param("K4", marks=pytest.mark.extended), "P4"])
def test_sat_at_eight_matches_golden(pattern, capsys):
    # sat decides each child by whether a copy goes through its new edge, one
    # placement search per arc orbit: C4 has one orbit, P4 three; K4 walks
    # the n = 8 levels to 13 edges
    code, out = run(capsys, "sat", "8", pattern, "--json")
    assert code == 0 and out == (GOLDEN / f"sat-8-{pattern}.json").read_text()


@pytest.mark.extended
@pytest.mark.parametrize("pattern", ["C4", "K4", "P4"])
def test_satstar_at_eight_matches_golden(pattern, capsys):
    # sat* walks every level of the n = 8 table with one witness coloring
    # per free class, so its witnesses and class counts stay byte for byte
    code, out = run(capsys, "satstar", "8", pattern, "--json")
    assert code == 0 and out == (GOLDEN / f"satstar-8-{pattern}.json").read_text()


def test_satstar_at_nine_matches_golden(capsys):
    # sat*(9, P4) = 7 reads the level with 8 edges, the first on 9 vertices
    # that the coarse class key comes up short on and that is built again
    # with the fine key
    code, out = run(capsys, "satstar", "9", "P4", "--json")
    assert code == 0 and out == (GOLDEN / "satstar-9-P4.json").read_text()


@pytest.mark.parametrize(
    "token, message",
    [
        ("C2", "cycle needs at least three vertices"),
        ("K0", "complete graph order 0 outside 1..64"),
        ("W3", "wheel needs at least four vertices"),
        ("K65", "complete graph order 65 outside 1..64"),
        ("P0", "path needs at least one vertex"),
        ("E70", "vertex count 70 outside 0..64"),
        ("K1_70", "vertex count 70 outside 0..64"),
    ],
    ids=["C2", "K0", "W3", "K65", "P0", "E70", "K1_70"],
)
def test_name_with_a_bad_size_shows_the_generator_error(token, message, capsys):
    # a letter and a digit make a name: a graph6 body never holds a digit
    assert main(["check", token, "C4"]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_graph_file_reads_its_first_line(tmp_path, capsys):
    want = run(capsys, "check", "W8", "C4")
    for first in (graph6_encode(wheel(8)), "W8"):
        path = tmp_path / "host.g6"
        path.write_text(f"{first}\n{graph6_encode(complete_graph(3))}\n")
        assert run(capsys, "check", f"@{path}", "C4") == want


@pytest.mark.usefixtures("no_catalogue")
def test_indeterminate_check_names_no_failing_edge(capsys):
    host = graph6_encode(ladder_construction(complete_graph(4), 12).graph)
    code, out = run(capsys, "check", host, "K4", "--nodes", "0")
    assert code == 2 and out == "INDETERMINATE: budget exhausted on non-edge (1, 2)\n"
    code, out = run(capsys, "--json", "check", host, "K4", "--nodes", "0")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "INDETERMINATE"
    assert "failing_edge" not in payload and "failing_coloring" not in payload


def test_closed_stdout_exits_141():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    env = {**os.environ, "PYTHONPATH": str(Path(rainbowsat.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "rainbowsat.cli", "gadget", "--list"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_sat_commands(capsys):
    code, out = run(capsys, "--json", "sat", "5", "K3")
    assert code == 0
    assert json.loads(out)["value"] == 4

    code, out = run(capsys, "--json", "sat", "6", "C4")
    assert code == 0
    assert json.loads(out)["value"] == 6

    code, out = run(capsys, "--json", "satstar", "5", "P4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4 and payload["witnesses"]

    # no saturated graph: sat says so in satstar's words, and JSON gives null
    code, out = run(capsys, "sat", "3", "E2")
    assert code == 0 and out.startswith("sat(3) = none (no saturated graph exists)\n")
    code, out = run(capsys, "--json", "sat", "3", "E2")
    assert code == 0 and json.loads(out)["value"] is None


def test_construct_commands(capsys):
    code, out = run(capsys, "--json", "construct", "wheel", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    assert graph6_decode(payload["graph6"]).edge_count == 14
    assert len(payload["coloring"]["classes"]) == 14

    code, out = run(capsys, "--json", "construct", "p4", "--n", "20")
    assert code == 0
    assert graph6_decode(json.loads(out)["graph6"]).edge_count == 16

    code, out = run(capsys, "--json", "construct", "ehm", "--n", "6", "--r", "4")
    assert code == 0
    assert graph6_decode(json.loads(out)["graph6"]).edge_count == 9

    code, out = run(capsys, "construct", "ladder", "--pattern", "K3", "--n", "9", "--verify")
    assert code == 0 and "SATURATED" in out


def test_gadgets_match_golden(capsys):
    # one line per gadget, in the order that gadget --list prints them
    code, names = run(capsys, "gadget", "--list")
    assert code == 0
    lines = [run(capsys, "gadget", name, "--json") for name in names.split()]
    assert all(code == 0 for code, _ in lines)
    assert "".join(out for _, out in lines) == (GOLDEN / "gadgets.jsonl").read_text()


def test_gadget_command(capsys):
    code, out = run(capsys, "gadget", "--list")
    assert code == 0 and "GA" in out
    code, out = run(capsys, "--json", "gadget", "GB")
    assert code == 0
    payload = json.loads(out)
    assert payload["marked_edge"] == [1, 4]
    assert graph6_decode(payload["graph6"]).n == 7


def test_verify_paper_subset(capsys):
    code, out = run(capsys, "--json", "verify-paper", "--only", "p3-equality")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["claims"][0]["claim"] == "p3-equality"


def test_verify_paper_prints_a_table_by_default(capsys):
    code, out = run(capsys, "verify-paper", "--only", "ehm")
    _, report = run(capsys, "verify-paper", "--only", "ehm", "--json")
    checks = json.loads(report)["claims"][0]["checks"]
    lines = out.splitlines()
    assert code == 0 and lines[0] == "[  PASS] ehm" and lines[-1] == "overall: pass"
    assert [line.split()[0] for line in lines[1:-1]] == ["ok"] * len(checks)


def test_verify_paper_uses_the_given_node_budget(capsys):
    code, out = run(capsys, "verify-paper", "--only", "p3-equality", "--nodes", "0", "--json")
    payload = json.loads(out)
    assert (code, payload["node_limit"], payload["status"]) == (1, 0, "indeterminate")
    _, out = run(capsys, "--json", "verify-paper", "--only", "p3-equality")
    assert json.loads(out)["node_limit"] == 20_000_000


def test_verify_paper_reports_are_reproducible(capsys):
    _, first = run(capsys, "--json", "verify-paper", "--only", "p3-equality,ehm")
    _, second = run(capsys, "--json", "verify-paper", "--only", "p3-equality,ehm")
    assert first == second
