import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from flowcont import cli
from flowcont.decide import ff_gcd, parse_edge_map
from flowcont.graphs import dicycle, digon, k4, parse_digraph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1, f"expected one JSON line, got {out!r}"
    return code, json.loads(lines[0]), err


COLORING = "0,1,2,2,1,0"


def test_check_yes(capsys):
    code, out, err = run_cli(
        capsys, "check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Z2"
    )
    assert code == 0
    assert out.startswith("yes:") and "gcd 2" in out
    assert err == ""


def test_check_no_with_certificate(capsys):
    code, record, _ = run_json(
        capsys, "check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Z3"
    )
    assert code == 1
    assert record["status"] == "no"
    assert record["gcd"] == 2 and record["ff"] is False
    cert = record["certificate"]
    assert cert["modulus"] == 3
    assert cert["value"] % 3 != 0


def test_check_over_integers(capsys):
    code, record, _ = run_json(
        capsys, "check", "--g", "digon:2", "--h", "digon:2", "--map", "identity", "--group", "Z"
    )
    assert code == 0 and record["gcd"] == 0 and record["ff"] is True


def test_check_constant_map_form(capsys):
    code, record, _ = run_json(
        capsys, "check", "--g", "digon:9", "--h", "digon:7", "--map", "constant:0", "--group", "Z9"
    )
    assert code == 0 and record["gcd"] == 9


def test_map_file_form(capsys, tmp_path):
    path = tmp_path / "f.map"
    path.write_text("# coloring\n0\n1\n2\n2\n1\n0\n")
    code, record, _ = run_json(
        capsys, "check", "--g", "k4", "--h", "digon:3", "--map", str(path), "--group", "Z2"
    )
    assert code == 0 and record["gcd"] == 2


def test_graph_file_and_union_arguments(capsys, tmp_path):
    path = tmp_path / "g.dg"
    path.write_text("2 3\n0 1\n0 1\n0 1\n")
    code, record, _ = run_json(
        capsys, "ffset", "--g", str(path), "--h", "digon:5"
    )
    assert code == 0 and record["maximal_elements"] == [3]
    # 9 = 7 + 2 and 4 = 2 + 2, so every modulus works here
    code, record, _ = run_json(
        capsys, "ffset", "--g", "digon:9,digon:4", "--h", "digon:7,digon:2"
    )
    assert code == 0 and record["kind"] == "all_of_N"
    code, record, _ = run_json(
        capsys, "ffset", "--g", "digon:9,digon:4", "--h", "digon:7,digon:6"
    )
    assert code == 0
    assert record["kind"] == "finite"
    assert record["maximal_elements"] == [2]


def test_ffset_of_single_map(capsys):
    code, record, _ = run_json(
        capsys, "ffset", "--g", "digon:6", "--h", "loop", "--map", "constant:0"
    )
    assert code == 0
    assert record["gcd"] == 6 and record["maximal_elements"] == [6]


def test_ffset_scan_and_text_output(capsys):
    code, out, _ = run_cli(capsys, "ffset", "--g", "digon:4", "--h", "digon:3")
    assert code == 0 and out.strip() == "1 2 4"
    code, out, _ = run_cli(capsys, "ffset", "--g", "k4", "--h", "k4")
    assert code == 0 and out.strip() == "all n >= 1"
    # 6**15 maps, but the frontier needs about 2.2 million entries
    code, out, _ = run_cli(capsys, "ffset", "--g", "petersen", "--h", "k4")
    assert code == 0 and out.strip() == "1"


def test_ffset_json_keys(capsys):
    code, record, _ = run_json(capsys, "ffset", "--g", "digon:4", "--h", "digon:3")
    assert code == 0
    assert set(record) == {"status", "kind", "maximal_elements"}
    code, record, _ = run_json(
        capsys, "ffset", "--g", "digon:6", "--h", "loop", "--map", "constant:0"
    )
    assert code == 0
    assert set(record) == {"status", "kind", "maximal_elements", "gcd"}


def test_digits_past_the_int_text_cap_print_in_full(capsys):
    # 1000**1500 maps: 4,501 digits, past the 4,300 Python turns to text
    # by default
    everything = "1" + "0" * 4500
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run_cli(
        capsys, "count", "--g", "dicycle:1500", "--h", "dicycle:1000", "--group", "Z1"
    )
    assert code == 0 and out.strip() == everything
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_ffset_budget_exhaustion_is_unknown(capsys):
    # the frontier for k4 -> digon:3 needs 1,131 entries
    code, out, err = run_cli(
        capsys, "ffset", "--g", "k4", "--h", "digon:3", "--budget", "10"
    )
    assert code == 2
    assert out.startswith("unknown:")
    assert err == ""


def test_ffset_digon_route_answers_under_any_budget(capsys):
    # n is a member iff some 100000 - k*n is a multiple of 7; the maximal
    # members are the values = 5 (mod 7) above 12,500
    code, out, _ = run_cli(
        capsys, "--json", "ffset", "--g", "digon:100000", "--h", "digon:7", "--budget", "10"
    )
    record = json.loads(out)
    assert code == 0 and record["kind"] == "finite"
    assert record["maximal_elements"] == list(range(12507, 100001, 7))


def test_refusal_reports_the_frontier_entries_counted(capsys):
    # k4 -> digon:3 passes a budget of 10 at its first level, after 15
    # entries, and the whole pass builds 1,131
    code, out, _ = run_cli(capsys, "ffset", "--g", "k4", "--h", "digon:3", "--budget", "10")
    assert code == 2
    assert out.strip() == "unknown: enumeration needs 15 frontier entries or more, budget is 10"
    code, record, _ = run_json(capsys, "ffset", "--g", "k4", "--h", "digon:3", "--budget", "1130")
    assert code == 2
    assert record["message"] == "enumeration needs 1131 frontier entries or more, budget is 1130"
    code, out, _ = run_cli(capsys, "ffset", "--g", "k4", "--h", "digon:3", "--budget", "1131")
    assert code == 0 and out.strip() == "1 2"


@pytest.mark.parametrize("budget", ["0", "-1", "-5"])
@pytest.mark.parametrize(
    "command",
    [
        ["ffset", "--g", "k4", "--h", "k4"],
        ["--json", "ffset", "--g", "digon:3", "--h", "digon:2"],
        ["count", "--g", "digon:2", "--h", "digon:2", "--group", "Z2"],
        ["search", "--g", "loop", "--h", "k4", "--n", "2"],
    ],
    ids=["ffset", "ffset-json", "count", "search"],
)
def test_a_budget_below_one_is_a_usage_error(capsys, command, budget):
    with pytest.raises(SystemExit) as info:
        cli.main([*command, "--budget", budget])
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_USAGE == 3
    assert captured.out == ""
    assert "argument --budget:" in captured.err and "Traceback" not in captured.err


def test_count_and_cross_check(capsys):
    code, record, _ = run_json(
        capsys, "count", "--g", "digon:2", "--h", "digon:2", "--group", "Z2"
    )
    assert code == 0 and record == {"status": "yes", "group": "Z2", "count": 4}
    # Z6 and Z2xZ3 share exponent 6, so their counts agree
    outputs = []
    for group in ("Z6", "Z2xZ3"):
        code, out, _ = run_cli(
            capsys, "count", "--g", "digon:2", "--h", "digon:3", "--group", group
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # the count has one route; there is no option to pick another
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["count", "--g", "digon:2", "--h", "digon:2", "--group", "Z3", "--method", "oracle"]
        )
    assert info.value.code == 3 and "--method" in capsys.readouterr().err


def test_search_found_output_is_a_map_file(capsys):
    code, out, _ = run_cli(capsys, "search", "--g", "digon:9", "--h", "digon:7", "--n", "2")
    assert code == 0
    witness = parse_edge_map(out, digon(9), digon(7))
    assert ff_gcd(witness) % 2 == 0


def test_search_none_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "search", "--g", "digon:9", "--h", "digon:7", "--n", "6")
    assert code == 1 and out.strip() == "none"
    code, record, _ = run_json(
        capsys, "search", "--g", "k4", "--h", "digon:3", "--n", "3", "--budget", "5"
    )
    # the first level's 15 entries already pass the budget
    assert code == 2 and record["status"] == "unknown" and record["nodes"] == 0


def test_search_modulus_z(capsys):
    code, record, _ = run_json(
        capsys, "search", "--g", "dicycle:3", "--h", "digon:2", "--n", "Z"
    )
    assert code == 0 and record["modulus"] == "Z" and record["gcd"] == 0


@pytest.mark.parametrize("target", ["petersen", "k4"])
def test_search_past_int64_modulus_answers_as_z(capsys, target):
    # every entry lies in [-3, 3], so no modulus past 6 tells states apart
    # that n = 0 does not
    huge = run_json(capsys, "search", "--g", "k4", "--h", target, "--n", str(10**20))
    integers = run_json(capsys, "search", "--g", "k4", "--h", target, "--n", "0")
    assert huge[0] == integers[0]
    for key in ("status", "witness", "nodes"):
        assert huge[1][key] == integers[1][key]


def test_search_rejects_negative_modulus(capsys):
    code, out, err = run_cli(capsys, "search", "--g", "digon:2", "--h", "digon:2", "--n", "-4")
    assert code == 3 and out == "" and "modulus" in err


def test_construct_writes_verified_pair(capsys, tmp_path):
    out_dir = tmp_path / "w"
    code, record, _ = run_json(capsys, "construct", "--t", "2,3", "--out", str(out_dir))
    assert code == 0
    assert record["verified"] is True
    assert record["prime"] == 13 and record["companion"] == 17
    assert record["ff_set"] == {"kind": "finite", "maximal_elements": [2, 3]}
    g = parse_digraph((out_dir / "G.dg").read_text())
    h = parse_digraph((out_dir / "H.dg").read_text())
    assert g.num_edges == 13 + 17
    assert h.num_edges == 10 + 11 + 14 + 15
    plan = json.loads((out_dir / "plan.json").read_text())
    assert plan["verified"] is True
    assert plan["target_digons"] == [10, 11, 14, 15]


def test_construct_empty_target_set(capsys, tmp_path):
    out_dir = tmp_path / "empty"
    code, record, _ = run_json(capsys, "construct", "--t", "", "--out", str(out_dir))
    assert code == 0
    assert record["targets"] == [] and record["verified"] is True
    h = parse_digraph((out_dir / "H.dg").read_text())
    assert h.num_edges == 0


def test_selftest_smoke(capsys):
    code, record, _ = run_json(capsys, "selftest", "--seed", "5")
    assert code == 0
    assert record["status"] == "yes"
    assert len(record["suites"]) == 7
    assert all(suite["passed"] for suite in record["suites"])


def test_selftest_reports_time_per_suite(capsys):
    code, record, _ = run_json(capsys, "selftest", "--seed", "5")
    assert code == 0
    for suite in record["suites"]:
        assert suite["seconds"] > 0
        assert suite["checks_per_s"] == pytest.approx(suite["checks"] / suite["seconds"])
    code, out, _ = run_cli(capsys, "selftest", "--seed", "5")
    lines = out.splitlines()[1:]
    assert len(lines) == 7
    assert all(line.endswith(" checks/s)") and " s, " in line for line in lines)


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["check", "--g", "digon:2"])
    assert info.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 3


def test_unknown_builtin_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "check", "--g", "heptagon", "--h", "digon:2", "--map", "identity",
        "--group", "Z2",
    )
    assert code == 3 and out == ""
    assert "heptagon" in err and "digon" in err


def test_bad_group_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "--g", "digon:2", "--h", "digon:2", "--map", "identity",
        "--group", "Q8",
    )
    assert code == 3 and "Q8" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "flowcont.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3


def test_closed_stdout_exits_internal_without_traceback():
    # the reader goes away before the answer is written: no answer was
    # delivered, so the exit is 4, never a "no"
    argv = [sys.executable, "-m", "flowcont.cli", "ffset", "--g", "digon:9", "--h", "digon:7"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_INTERNAL
    assert "Traceback" not in err


def test_json_errors_go_to_stdout(capsys):
    code, record, err = run_json(
        capsys, "check", "--g", "nope", "--h", "digon:2", "--map", "identity", "--group", "Z2"
    )
    assert code == 3
    assert record["status"] == "error" and "nope" in record["message"]


def test_check_builds_discrepancy_and_circuits_once(capsys, monkeypatch):
    import flowcont.decide
    import flowcont.flows

    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(flowcont.decide, "discrepancy")
    count(flowcont.flows, "spanning_structure")
    # a yes, and a no that also needs its certificate
    for group, expected_code in (("Z2", 0), ("Z3", 1)):
        calls.clear()
        code, _, _ = run_cli(
            capsys, "check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", group
        )
        assert code == expected_code
        assert calls == {"discrepancy": 1, "spanning_structure": 1}


SEARCH = ("search", "--g", "dicycle:1200", "--h", "k4", "--n", "2")

# a whole process whose search handler overflows the stack
CRASHING_PROCESS = """
import sys
from flowcont import cli

def crash(args):
    raise RecursionError("maximum recursion depth exceeded")

cli.cmd_search = crash
sys.exit(cli.main(sys.argv[1:]))
"""


def crash_search(args):
    raise RecursionError("maximum recursion depth exceeded")


def test_internal_error_exits_4_without_traceback():
    # a failure of the program, not a proven "no" (exit 1)
    proc = subprocess.run(
        [sys.executable, "-c", CRASHING_PROCESS, *SEARCH],
        capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_INTERNAL == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("internal error: RecursionError")


def test_internal_error_json_status(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_search", crash_search)
    code, record, _ = run_json(capsys, *SEARCH)
    assert code == 4
    assert record["status"] == "error"
    assert record["message"].startswith("internal error: RecursionError")
    assert "\n" not in record["message"]


def test_search_on_a_long_cycle_finds_a_witness(capsys):
    # the search keeps no recursion, so a source of 1,200 edges is fine
    code, out, _ = run_cli(capsys, *SEARCH)
    assert code == 0
    witness = parse_edge_map(out, dicycle(1200), k4())
    assert ff_gcd(witness) % 2 == 0


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_any_handler_crash_exits_4(capsys, monkeypatch, error):
    def crash(args):
        raise error("two\nlines")

    monkeypatch.setattr(cli, "cmd_check", crash)
    argv = ("check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Z2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"internal error: {error.__name__}: two\n"
    code, record, _ = run_json(capsys, *argv)
    assert code == 4
    assert record == {"status": "error", "message": f"internal error: {error.__name__}: two"}


HUGE_CHECK = ("check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", f"Z{10**20 - 1}")


def test_check_past_int64_exponent_is_a_proven_no(capsys):
    # no entry reaches 10^20 - 1, so it fails where Z does
    code, out, err = run_cli(capsys, *HUGE_CHECK)
    assert code == 1 and err == ""
    assert out.splitlines()[1] == (
        "certificate: vertex 1, circuit 0, value 2, modulus 99999999999999999999"
    )
    code, record, _ = run_json(capsys, *HUGE_CHECK)
    assert code == 1 and record["status"] == "no" and record["gcd"] == 2
    assert record["certificate"] == {
        "vertex": 1, "circuit": 0, "value": 2, "modulus": 10**20 - 1
    }


def run_quiet(*argv):
    """cli.main with stdout and stderr captured, for hypothesis bodies."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


BUILTIN_GRAPHS = ["k4", "petersen", "loop", "digon:1", "digon:3", "dicycle:2", "dicycle:5"]


@st.composite
def group_arguments(draw):
    """A group text with cyclic orders up to 10^30, and its exponent
    worked out here."""
    free = draw(st.sampled_from([0, 0, 0, 1, 2]))
    order = st.one_of(st.integers(1, 12), st.integers(2**62, 10**30))
    orders = draw(st.lists(order, min_size=0 if free else 1, max_size=3))
    group = "x".join(["Z"] * free + [f"Z{n}" for n in orders])
    return group, 0 if free else math.lcm(*orders)


@st.composite
def check_arguments(draw):
    """A builtin pair with edges on both sides, a valid map given as an
    index list, and a group."""
    source = draw(st.sampled_from(BUILTIN_GRAPHS))
    target = draw(st.sampled_from(BUILTIN_GRAPHS))
    sizes = [cli.parse_graph_argument(name).num_edges for name in (source, target)]
    indices = st.integers(0, sizes[1] - 1)
    assignment = draw(st.lists(indices, min_size=sizes[0], max_size=sizes[0]))
    group, exponent = draw(group_arguments())
    argv = ("--json", "check", "--g", source, "--h", target, "--map", ",".join(map(str, assignment)))
    return argv + ("--group", group), exponent


@settings(max_examples=120, deadline=None)
@given(check_arguments())
def test_check_answers_every_valid_input(arguments):
    argv, exponent = arguments
    code, out, err = run_quiet(*argv)
    assert code in (0, 1) and err == ""
    assert "Traceback" not in out
    record = json.loads(out)
    assert record["status"] == ("yes", "no")[code]
    assert record["ff"] == (math.gcd(exponent, record["gcd"]) == exponent) == (code == 0)


SMALL_SOURCES = [name for name in BUILTIN_GRAPHS if cli.parse_graph_argument(name).num_edges <= 8]


@st.composite
def scan_arguments(draw):
    """ffset, count or search on a builtin pair with at most 8 source
    edges, under a budget from 1 to 10^4."""
    command = draw(st.sampled_from(["ffset", "count", "search"]))
    source = draw(st.sampled_from(SMALL_SOURCES))
    target = draw(st.sampled_from(BUILTIN_GRAPHS))
    budget = draw(st.integers(1, 10**4))
    argv = ("--json", command, "--g", source, "--h", target, "--budget", str(budget))
    if command == "count":
        argv += ("--group", draw(group_arguments())[0])
    if command == "search":
        moduli = st.one_of(st.integers(0, 12), st.integers(2**62, 10**30)).map(str)
        argv += ("--n", draw(st.one_of(st.just("Z"), moduli)))
    return argv


@settings(max_examples=120, deadline=None)
@given(scan_arguments())
def test_scans_answer_or_run_out_on_every_valid_input(argv):
    code, out, err = run_quiet(*argv)
    assert code in (0, 1, 2) and err == ""
    assert "Traceback" not in out
    assert json.loads(out)["status"] == ("yes", "no", "unknown")[code]


def test_map_list_with_non_ascii_digits_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "check", "--g", "k4", "--h", "digon:3", "--map", "¹,0", "--group", "Z2")
    assert code == 3 and "neither a named form, an index list, nor a file" in err


@pytest.mark.parametrize(
    "argv, exit_code, status",
    [
        (("check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Z2"), 0, "yes"),
        (("check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Z3"), 1, "no"),
        (("ffset", "--g", "k4", "--h", "digon:3", "--budget", "10"), 2, "unknown"),
        (("check", "--g", "k4", "--h", "digon:3", "--map", COLORING, "--group", "Q"), 3, "error"),
        (SEARCH, 4, "error"),
    ],
)
def test_each_exit_code_carries_its_json_status(capsys, monkeypatch, argv, exit_code, status):
    # exit 4 needs a crash, which no valid input gives
    monkeypatch.setattr(cli, "cmd_search", crash_search)
    code, record, _ = run_json(capsys, *argv)
    assert code == exit_code and record["status"] == status


JUNK = ["x", "1.5", "0x1", "-", "one", "1e2", "∞"]


@st.composite
def graph_files(draw, flaw=None):
    """Graph-file text with 0-6 vertices and 0-8 edges, with loops,
    parallel edges, isolated vertices, blank lines and comments, and its
    edge count; or, given a flaw ("header", "count" or "token"), text
    broken by a bad header, a wrong edge count or a non-numeric token."""
    vertices = draw(st.integers(0, 6))
    ends = st.integers(0, max(vertices - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8 if vertices else 0))
    rows = [[str(vertices), str(len(edges))]] + [[str(t), str(h)] for t, h in edges]
    if flaw == "header":
        rows[0] = draw(st.sampled_from([rows[0][:1], rows[0] + ["0"], ["V", "E"]]))
    elif flaw == "count":
        rows[0][1] = str(len(edges) + draw(st.sampled_from([-2, -1, 1, 2])))
    elif flaw == "token":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(JUNK))
    comments = st.sampled_from(["", "", "  # a comment", "#"])
    lines = [" ".join(row) + draw(comments) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "   "])))
    return "\n".join(lines) + "\n", len(edges)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_graph_files_answer_or_are_rejected(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("graphs")
    flaw = data.draw(st.sampled_from([None, None, "header", "count", "token"]))
    flawed = data.draw(st.sampled_from(["G", "H"]))
    sizes = []
    for name in ("G", "H"):
        text, edge_count = data.draw(graph_files(flaw if name == flawed else None))
        (folder / f"{name}.dg").write_text(text, encoding="utf-8")
        sizes.append(edge_count)
    command = data.draw(st.sampled_from(["check", "ffset", "count", "search"]))
    argv = ["--json", command, "--g", str(folder / "G.dg"), "--h", str(folder / "H.dg")]
    if command == "check":
        # a valid map, written as a map file so an edgeless source has one too
        assume(sizes[1] or not sizes[0])
        targets = st.integers(0, max(sizes[1] - 1, 0))
        assignment = data.draw(st.lists(targets, min_size=sizes[0], max_size=sizes[0]))
        (folder / "f.map").write_text("".join(f"{j}\n" for j in assignment), encoding="utf-8")
        argv += ["--map", str(folder / "f.map")]
    else:
        argv += ["--budget", str(data.draw(st.integers(1, 10**4)))]
    if command in ("check", "count"):
        argv += ["--group", data.draw(group_arguments())[0]]
    if command == "search":
        argv += ["--n", data.draw(st.one_of(st.just("Z"), st.integers(0, 12).map(str)))]
    code, out, err = run_quiet(*argv)
    assert err == "" and "Traceback" not in out
    assert code == 3 if flaw else code in (0, 1, 2)
    assert json.loads(out)["status"] == ("yes", "no", "unknown", "error")[code]


TARGET_TOKENS = st.one_of(
    st.integers(1, 300).map(str),
    st.integers(-300, 300).map(str),
    st.just(""),
    # no decimal digits, so a junk token never reads as a large target
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters=","), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(TARGET_TOKENS, max_size=6))
def test_construct_targets_build_a_verified_pair_or_are_rejected(tmp_path_factory, tokens):
    folder = tmp_path_factory.mktemp("construct")
    # "--t=" keeps a list that starts with "-" from reading as an option
    code, out, err = run_quiet("--json", "construct", f"--t={','.join(tokens)}", "--out", str(folder))
    assert code in (0, 3) and err == ""
    record = json.loads(out)
    assert record["status"] == ("yes", "error")[code == 3]
    if code == 0:
        assert record["verified"] is True
