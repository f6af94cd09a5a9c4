"""End-to-end tests for the command-line front end."""
from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import json
import pickle
import os
import random
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import satgraph.canon
import satgraph.search
from satgraph import cli
from satgraph.cli import main
from satgraph.constructions import duffus_hanson_t2
from satgraph.errors import (
    DomainError,
    FatalInconsistencyError,
    Graph6Error,
    LabelingLimitError,
    ParseError,
    VerificationError,
)
from satgraph.graph6 import decode, encode
from satgraph.graphs import Graph
from satgraph.search import SearchProblem
from satgraph.verify import is_saturated, is_semi_saturated


def run(argv, stdin=""):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_construct_petersen():
    assert run(["construct", "petersen"]) == (0, "IheA@GUAo\n", "")


def test_construct_is_deterministic():
    first = run(["construct", "split-family", "--n", "20", "--t", "4"])
    second = run(["construct", "split-family", "--n", "20", "--t", "4"])
    assert first == second and first[0] == 0


def test_construct_split_family_json_layout():
    code, out, err = run(
        ["construct", "split-family", "--n", "16", "--t", "4", "--format", "json"]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["name"] == "split-family"
    assert payload["n"] == 16
    assert payload["edges"] == 36
    assert payload["min_degree"] == 4
    assert payload["layout"] == {
        "t": 4, "n": 16, "hub": [0, 1, 2, 3],
        "splits": [[0, 1], [0, 2], [0, 3]],
        "left": [[4, 5], [8, 9], [12, 13]],
        "right": [[6, 7], [10, 11], [14, 15]],
        "bulk": [],
    }


def test_construct_format_both_prints_graph6_then_json():
    code, out, _ = run(["construct", "petersen", "--format", "both"])
    line1, line2 = out.splitlines()
    assert code == 0
    assert line1 == "IheA@GUAo"
    assert json.loads(line2)["graph6"] == "IheA@GUAo"


def test_construct_cone_and_duplicate_read_stdin():
    code, out, _ = run(["construct", "cone"], stdin="Bw\n")
    assert (code, out) == (0, "C~\n")
    code, out, _ = run(["construct", "duplicate", "--vertex", "0"], stdin="DLo\n")
    assert code == 0
    g = decode(out.strip())
    assert g.n == 6 and g.edge_count() == 7


def test_construct_missing_flag_is_usage_error():
    code, _, err = run(["construct", "ehm", "--n", "7"])
    assert code == 2
    assert json.loads(err) == {"error": "domain", "detail": "ehm requires --p"}


def test_construct_duplicate_without_vertex_is_usage_error():
    code, _, err = run(["construct", "duplicate"], stdin="DLo\n")
    assert code == 2
    assert json.loads(err) == {"error": "domain", "detail": "duplicate requires --vertex"}


def test_construct_unknown_name_is_usage_error():
    code, _, err = run(["construct", "nonsense"])
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_verify_saturated_graph_exits_zero():
    code, out, _ = run(["verify", "--p", "3", "--t", "2", "--threads", "1"],
                       stdin="DLo\n")
    assert code == 0
    report = json.loads(out)
    assert report["saturated"] is True
    assert report["witness"] is None


def test_verify_unsaturated_graph_exits_one_with_witness():
    code, out, _ = run(["verify", "--p", "3", "--threads", "1"], stdin="EhEG\n")
    assert code == 1
    report = json.loads(out)
    assert report["saturated"] is False
    assert report["witness"] == {"kind": "non_edge", "vertices": [0, 3]}


def test_verify_semi_flag_judges_semi_saturation():
    code, out, _ = run(
        ["verify", "--p", "4", "--t", "3", "--semi", "--threads", "1"],
        stdin="I?CaCB~~w\n",
    )
    assert code == 0
    assert json.loads(out)["semi_saturated"] is True


def test_verify_many_lines_reports_each_and_any_failure_wins():
    code, out, _ = run(["verify", "--p", "3", "--threads", "1"],
                       stdin="DLo\nEhEG\nE@v_\n")
    assert code == 1
    flags = [json.loads(line)["saturated"] for line in out.splitlines()]
    assert flags == [True, False, True]


def test_verify_parallel_output_matches_serial(monkeypatch):
    monkeypatch.setattr(cli, "_VERIFY_QUOTA", 0)  # every line to the pool
    stdin = "DLo\nEhEG\nE@v_\nC~\n"
    serial = run(["verify", "--p", "3", "--threads", "1"], stdin=stdin)
    parallel = run(["verify", "--p", "3", "--threads", "2"], stdin=stdin)
    assert serial == parallel


def test_verify_chunked_parallel_output_matches_serial(monkeypatch):
    # 60 lines make chunks of 8 under two workers; the order must survive
    monkeypatch.setattr(cli, "_VERIFY_QUOTA", 0)
    rng = random.Random(5)
    lines = []
    for i in range(60):
        if i % 3 == 0:
            g = duffus_hanson_t2(7 + i % 5)
        else:
            n = rng.randint(5, 9)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        lines.append(encode(g))
    stdin = "\n".join(lines) + "\n"
    serial = run(["verify", "--p", "3", "--t", "2", "--threads", "1"], stdin=stdin)
    parallel = run(["verify", "--p", "3", "--t", "2", "--threads", "2"], stdin=stdin)
    assert serial == parallel
    flags = [json.loads(line)["saturated"] for line in serial[1].splitlines()]
    assert len(flags) == 60 and True in flags and False in flags


def test_verify_reports_each_graph_by_its_canonical_line():
    code, out, err = run(["verify", "--p", "3", "--threads", "1"],
                         stdin="~??Dhc\n>>graph6<<Dhc\n>>graph6<<~??Dhc\nDhc\n")
    assert (code, err) == (0, "")
    assert [json.loads(line)["subject"] for line in out.splitlines()] == ["Dhc"] * 4


def test_verify_bad_graph6_is_usage_error(monkeypatch):
    monkeypatch.setattr(cli, "_VERIFY_QUOTA", 0)
    code, _, err = run(["verify", "--p", "3", "--threads", "1"], stdin="D~\x01\n")
    assert code == 2
    assert json.loads(err)["error"] == "graph6"
    # in a process pool the error is pickled back to the caller
    for threads in ("1", "2"):
        code, out, err = run(["verify", "--p", "3", "--threads", threads],
                             stdin="Dhc\nD~\x01\nDhc\n")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "graph6", "detail": "character '\\x01' outside graph6 range (offset 2)"}


def test_mapped_errors_survive_pickling():
    errors = [
        cli._UsageError("argument --p: invalid int value: 'x'"),
        Graph6Error("nonzero padding bits", 2),
        ParseError("empty hypergraph input"),
        DomainError("need p >= 3, got 2"),
        LabelingLimitError("labeling guard hit"),
        VerificationError("input graph is not saturated"),
        FatalInconsistencyError("bound violated", report={"subject": "Dhc"}),
        BrokenPipeError(32, "Broken pipe"),
    ]
    assert set(cli._EXITS) <= {type(e) for e in errors}
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert (str(back), back.args) == (str(exc), exc.args)
        assert vars(back) == vars(exc)
    assert str(errors[1]) == "nonzero padding bits (offset 2)"
    assert pickle.loads(pickle.dumps(errors[1])).offset == 2


def test_verify_missing_required_flag():
    code, _, err = run(["verify", "--t", "2"], stdin="DLo\n")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_certify_five_cycle():
    code, out, _ = run(["certify", "--p", "3", "--t", "2"], stdin="Dhc\n")
    assert code == 0
    cert = json.loads(out)
    assert cert["r0"] == [0]
    assert cert["r_star"] == [0, 2, 3, 4]
    assert cert["iterations"] == 2
    assert len(cert["steps"]) == 2
    assert cert["bound"] == 2
    assert cert["edges"] == 5
    assert cert["verified"] is True


def test_certify_seed_spellings(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Dhc\n")
    explicit = run(["certify", "--p", "3", "--t", "2", "--r0", "0,1,2",
                    "--input", str(path)])
    t1 = run(["certify", "--p", "3", "--t", "2", "--r0", "t1",
              "--input", str(path)])
    assert explicit == t1 and explicit[0] == 0
    code, _, err = run(["certify", "--p", "3", "--t", "2", "--r0", "a,b"],
                       stdin="Dhc\n")
    assert code == 2
    assert json.loads(err)["error"] == "domain"


def test_certify_seed_is_a_set():
    # R0 is a set of vertices, so a repeated one names the same seed
    once = run(["certify", "--p", "3", "--t", "2", "--r0", "0"], stdin="Dhc\n")
    assert run(["certify", "--p", "3", "--t", "2", "--r0", "0,0"], stdin="Dhc\n") == once
    assert once[0] == 0 and json.loads(once[1])["r0"] == [0]


def test_certify_rejects_unsaturated_input():
    code, _, err = run(["certify", "--p", "3", "--t", "2"], stdin="EhEG\n")
    assert code == 1
    assert json.loads(err)["error"] == "verification"


def test_search_result_json(monkeypatch):
    for var in ("SATGRAPH_NODE_BUDGET", "SATGRAPH_TIME_BUDGET"):
        monkeypatch.delenv(var, raising=False)
    code, out, _ = run(["search", "--n", "5", "--p", "3", "--t", "2"])
    assert code == 0
    result = json.loads(out)
    assert result["value"] == 5
    assert result["witness_graph6"] == "DLo"
    assert result["problem"]["mode"] == "sat"
    # with no flags set, the library's defaults
    assert result["problem"] == SearchProblem(5, 3, 2).to_json()


def test_search_enumerate_lists_extremal_graphs():
    code, out, _ = run(["search", "--n", "6", "--p", "3", "--t", "2",
                        "--enumerate"])
    assert code == 0
    assert json.loads(out)["extremal_list"] == ["E@v_"]


def test_search_resource_limit_exits_three():
    code, out, _ = run(["search", "--n", "6", "--p", "3", "--t", "2",
                        "--node-budget", "10"])
    assert code == 3
    assert json.loads(out)["value"] == "resource-limit"


def test_search_labeling_guard_is_a_resource_limit(monkeypatch):
    monkeypatch.setattr(satgraph.canon, "_LABELING_GUARD", 0)
    code, out, _ = run(["search", "--n", "6", "--p", "3", "--t", "2"])
    assert code == 3
    assert json.loads(out)["value"] == "resource-limit"


def test_search_witness_failing_its_check_exits_fatal(monkeypatch):
    # a witness that fails its mode's checker is a fault of the search,
    # reported like any other error: one JSON line on stderr, exit 1
    monkeypatch.setattr(satgraph.search, "is_saturated", lambda g, p: False)
    code, out, err = run(["search", "--n", "6", "--p", "3", "--t", "2"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "fatal-inconsistency",
                               "detail": "witness fails its own mode checker"}


def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0 and out.startswith("usage: satgraph")


def test_search_over_max_n_is_usage_error():
    code, _, err = run(["search", "--n", "11", "--p", "3", "--t", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "domain"


def test_search_budget_env_defaults(monkeypatch):
    monkeypatch.setenv("SATGRAPH_NODE_BUDGET", "10")
    code, out, _ = run(["search", "--n", "6", "--p", "3", "--t", "2"])
    assert code == 3
    assert json.loads(out)["problem"]["node_budget"] == 10
    monkeypatch.setenv("SATGRAPH_TIME_BUDGET", "123.5")
    code, out, _ = run(["search", "--n", "5", "--p", "3", "--t", "1",
                        "--node-budget", str(10**9)])
    assert code == 0
    assert json.loads(out)["problem"]["time_budget"] == 123.5


def test_malformed_budget_variable_is_a_usage_error_of_search_only(monkeypatch):
    for var, kind in [("SATGRAPH_NODE_BUDGET", "int"), ("SATGRAPH_TIME_BUDGET", "float")]:
        monkeypatch.setenv(var, "abc")
        code, out, err = run(["search", "--n", "5", "--p", "3", "--t", "2"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage", "detail": f"{var}: invalid {kind} value: 'abc'"}
        assert run(["construct", "petersen"]) == (0, "IheA@GUAo\n", "")
        assert run(["bounds", "--n", "10", "--p", "3"])[0] == 0
        monkeypatch.delenv(var)
    # a flag wins over its variable, which is then not read
    monkeypatch.setenv("SATGRAPH_NODE_BUDGET", "abc")
    monkeypatch.setenv("SATGRAPH_TIME_BUDGET", "")
    code, out, err = run(["search", "--n", "5", "--p", "3", "--t", "2",
                          "--node-budget", "1000", "--time-budget", "60"])
    assert (code, err) == (0, "")
    assert json.loads(out)["problem"]["node_budget"] == 1000


def test_unreadable_input_file_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing.g6"
    for argv in [["construct", "cone"], ["verify", "--p", "3"],
                 ["certify", "--p", "3", "--t", "2"], ["table"]]:
        for path, reason in [(missing, "No such file or directory"),
                             (tmp_path, "Is a directory")]:
            code, out, err = run(argv + ["--input", str(path)])
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "error": "usage", "detail": f"cannot read {path}: {reason}"}


def test_non_finite_time_budget_is_a_domain_error(monkeypatch):
    argv = ["search", "--n", "10", "--p", "3", "--t", "2", "--node-budget", "2000000"]
    for text in ("nan", "inf", "Infinity"):
        code, out, err = run(argv + ["--time-budget", text])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "domain"
        assert "time budget must be finite" in json.loads(err)["detail"]
        monkeypatch.setenv("SATGRAPH_TIME_BUDGET", text)
        assert run(argv) == (code, out, err)
        monkeypatch.delenv("SATGRAPH_TIME_BUDGET")


def test_non_utf8_input_file_reads_like_stdin(tmp_path):
    path = tmp_path / "bytes.g6"
    path.write_bytes(b"\xff\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONIOENCODING="utf-8:surrogateescape")
    for argv in (["certify", "--p", "3", "--t", "2"], ["verify", "--p", "3", "--t", "2"]):
        cmd = [sys.executable, "-m", "satgraph.cli"] + argv
        from_file = subprocess.run(cmd + ["--input", str(path)], capture_output=True,
                                   env=env, timeout=60)
        from_stdin = subprocess.run(cmd, input=b"\xff\n", capture_output=True,
                                    env=env, timeout=60)
        assert (from_file.returncode, from_file.stdout) == (2, b"")
        assert (from_stdin.returncode, from_stdin.stdout) == (2, b"")
        assert from_file.stderr == from_stdin.stderr
        assert json.loads(from_file.stderr) == {
            "error": "graph6",
            "detail": "character '\\udcff' outside graph6 range (offset 0)"}


def test_unwritable_search_out_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "results.jsonl"
    code, out, err = run(["search", "--n", "5", "--p", "3", "--t", "2",
                          "--out", str(target)])
    assert code == 2
    assert json.loads(out)["value"] == 5
    assert json.loads(err) == {
        "error": "usage", "detail": f"cannot write {target}: No such file or directory"}


def test_search_out_file_appends(tmp_path):
    target = tmp_path / "results.jsonl"
    run(["search", "--n", "5", "--p", "3", "--t", "2", "--out", str(target)])
    run(["search", "--n", "6", "--p", "3", "--t", "2", "--out", str(target)])
    lines = target.read_text().splitlines()
    assert [json.loads(line)["value"] for line in lines] == [5, 7]


def test_hyper_base_text_and_meta():
    code, out, _ = run(["hyper", "base", "--r", "3", "--t", "2", "--n", "8",
                        "--json"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 8 34"
    assert len(lines) == 1 + 34 + 1
    meta = json.loads(lines[-1])
    assert meta["partition"] == {"r": 3, "t": 2, "n": 8, "sizes": [4, 2, 2]}
    assert meta["edges"] == 34


def test_hyper_bollobas_meta():
    code, out, _ = run(["hyper", "bollobas", "--r", "3", "--n", "8", "--p", "5",
                        "--json"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 8 36"
    assert json.loads(lines[-1]) == {"edges": 36, "core": [0, 1]}


def test_hyper_complete_text_and_meta():
    code, out, err = run(["hyper", "complete", "--r", "3", "--t", "2", "--n", "10",
                          "--p", "5", "--json"])
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[0] == "3 10 83"
    assert lines[-1] == (
        '{"partition": {"r": 3, "t": 2, "n": 10, "sizes": [6, 2, 2]}, "edges": 83}')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1d81214a071c8edf0c2c8a55e1f6ef81b6bc645260f214378f27aa57ac386744")


def test_hyper_saturated_text_and_meta():
    code, out, err = run(["hyper", "saturated", "--r", "4", "--p", "5", "--t", "2",
                          "--n", "13", "--json"])
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[0] == "4 13 380"
    assert lines[-1] == '{"edges": 380, "universal": []}'
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d982b63fd8e23e625e860b2fa1d15ff76c830c44b6d1729945dfb8942501f9e")


def test_every_family_member_names_its_missing_flags():
    construct = {
        "ehm": "ehm requires --n, --p",
        "bipartite": "bipartite requires --n, --t",
        "clique-join": "clique-join requires --n, --p, --t",
        "duffus-hanson": "duffus-hanson requires --n",
        "petersen": None,
        "split-family": "split-family requires --n, --t",
        "f-graph": "f-graph requires --n, --t",
        "semi-sat": "semi-sat requires --n, --p, --t",
        "cone": "expected exactly one graph6 line, got 0",
        "duplicate": "duplicate requires --vertex",
    }
    hyper = {
        "base": "hyper base requires --r, --t, --n",
        "complete": "hyper complete requires --r, --t, --n, --p",
        "saturated": "hyper saturated requires --r, --t, --n, --p",
        "bollobas": "hyper bollobas requires --r, --n, --p",
    }
    assert list(construct) == list(cli._CONSTRUCTIONS)
    assert list(hyper) == list(cli._HYPER)
    calls = [(["construct", name], detail) for name, detail in construct.items()]
    calls += [(["hyper", kind], detail) for kind, detail in hyper.items()]
    for argv, detail in calls:
        code, _, err = run(argv)
        if detail is None:
            assert (code, err) == (0, "")
        else:
            assert (code, json.loads(err)) == (2, {"error": "domain", "detail": detail})


def test_hyper_missing_flags():
    code, _, err = run(["hyper", "saturated", "--r", "3", "--n", "8"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "--t" in payload["detail"] and "--p" in payload["detail"]
    code, _, err = run(["hyper", "base", "--p", "4"])
    assert (code, json.loads(err)) == (
        2, {"error": "domain", "detail": "hyper base requires --r, --t, --n"})


def test_bounds_with_degree_and_uniformity():
    code, out, _ = run(["bounds", "--n", "10", "--p", "4", "--t", "3",
                        "--r", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds"] == {
        "ehm": 17, "dh_semi": 17, "semi_sat_lower": 17,
        "semi_sat_upper": 21, "bollobas": 36,
    }


def test_bounds_fractional_values_use_pairs():
    code, out, _ = run(["bounds", "--n", "10", "--p", "3", "--t", "2"])
    assert code == 0
    bounds = json.loads(out)["bounds"]
    assert bounds["ehm"] == 9
    assert bounds["dh_semi"] == [25, 2]
    assert bounds["semi_sat_lower"] == [25, 2]
    assert bounds["semi_sat_upper"] == 14
    assert isinstance(bounds["closure_tower"], int)


def test_negative_degree_is_a_domain_error():
    for argv, stdin in [(["verify", "--p", "3", "--t", "-1"], "Dhc\n"),
                        (["bounds", "--n", "5", "--p", "3", "--t", "-2"], "")]:
        code, out, err = run(argv, stdin)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        reason = json.loads(err)
        assert reason["error"] == "domain" and f">= 0, got {argv[-1]}" in reason["detail"]


def test_verify_and_certify_check_parameters_before_input():
    # refused once before the first line, with the message the line would
    # get: an empty stream is refused too, and p = 2 before the degree test
    for argv, stdin, detail in [
        (["verify", "--p", "2", "--t", "-1"], "", "need t >= 0, got -1"),
        (["certify", "--p", "3", "--t", "0"], "", "need t >= 1, got 0"),
        (["certify", "--p", "2", "--t", "3"], "Dhc\n", "clique order must be >= 3, got 2"),
    ]:
        code, out, err = run(argv, stdin)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": "domain", "detail": detail}, argv


def test_table_renders_grid():
    rows = []
    for n, p, t in [(5, 3, 2), (6, 3, 2), (4, 3, 3)]:
        rows.append(run(["search", "--n", str(n), "--p", str(p), "--t", str(t)])[1])
    code, out, _ = run(["table"], stdin="".join(rows))
    assert code == 0
    assert out == (
        "mode=sat p=3\n"
        " t\\n |   4   5   6\n"
        "-----+------------\n"
        "   2 |       5   7\n"
        "   3 |   -        \n"
        "\n"
    )


def test_table_rejects_malformed_rows():
    good = run(["search", "--n", "5", "--p", "3", "--t", "2"])[1].strip()
    row = json.loads(good)
    no_value = dict(row)
    del no_value["value"]
    wrong = [
        "notjson", "{}", "[1, 2]", "5", json.dumps(no_value),
        json.dumps(dict(row, value=[5])),
        json.dumps(dict(row, value=5.0)),
        json.dumps(dict(row, problem=dict(row["problem"], p="3"))),
        json.dumps(dict(row, problem=dict(row["problem"], n=None))),
        json.dumps(dict(row, problem=[1, 2])),
    ]
    for line in wrong:
        code, out, err = run(["table"], stdin=good + "\n" + line + "\n")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "parse", "detail": f"not a search result row: {line}"}


def test_parser_is_built_once_per_process():
    run(["construct", "petersen"])
    before = cli._build_parser.cache_info()
    for argv in (["construct", "petersen"], ["bounds", "--n", "10", "--p", "3"], ["nonsense"]):
        run(argv)
    after = cli._build_parser.cache_info()
    assert (after.misses, after.currsize) == (before.misses, 1)


def test_commands_reach_names_patched_after_import(monkeypatch):
    # the benchmark's tracer wraps these module names after import
    seen = []
    for name in ("decode", "check_bounds", "certify_run", "exact_sat", "exact_semi_sat",
                 "saturated_hypergraph", "to_text"):
        def wrapper(*args, _name=name, _fn=getattr(cli, name)):
            seen.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, wrapper)
    run(["verify", "--p", "3", "--threads", "1"], stdin="Dhc\n")
    run(["certify", "--p", "3", "--t", "2"], stdin="Dhc\n")
    run(["search", "--n", "5", "--p", "3", "--t", "2"])
    run(["search", "--n", "5", "--p", "3", "--t", "2", "--mode", "semi"])
    run(["hyper", "saturated", "--r", "3", "--p", "4", "--t", "2", "--n", "8"])
    assert seen == ["decode", "check_bounds", "decode", "certify_run", "exact_sat",
                    "exact_semi_sat", "saturated_hypergraph", "to_text"]


def test_construct_verify_round_trip():
    for argv, p, t, semi in [
        (["construct", "ehm", "--n", "8", "--p", "3"], 3, 1, False),
        (["construct", "duffus-hanson", "--n", "9"], 3, 2, False),
        (["construct", "semi-sat", "--n", "12", "--p", "3", "--t", "2"], 3, 2, True),
    ]:
        code, out, _ = run(argv)
        assert code == 0
        verify_argv = ["verify", "--p", str(p), "--t", str(t), "--threads", "1"]
        if semi:
            verify_argv.append("--semi")
        vcode, vout, _ = run(verify_argv, stdin=out)
        assert vcode == 0
        report = json.loads(vout)
        assert report["min_degree"] >= t
        g = decode(out.strip())
        assert is_semi_saturated(g, p) if semi else is_saturated(g, p)


def test_threads_below_one_is_a_usage_error():
    for argv, stdin in ((["verify", "--p", "3", "--t", "2"], "Dhc\n"),
                        (["search", "--n", "5", "--p", "3", "--t", "2"], "")):
        for value in ("0", "-3"):
            code, out, err = run(argv + ["--threads", value], stdin=stdin)
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "error": "usage", "detail": f"argument --threads: need at least 1, got {value}"}
        code, out, err = run(argv + ["--threads", "x"], stdin=stdin)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"


class _RecordingPool:
    """Stands in for the `verify` pool: records its size, starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_threads_are_capped_at_tasks_and_cpus(monkeypatch):
    # a fork-started pool starts every worker at its first task, so an
    # uncapped `--threads 5000` would start 5,000 processes for two lines
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "_VERIFY_QUOTA", 0)
    for lines, threads, size in [(2, "5000", 2), (20, "5000", 3), (20, "2", 2), (1, "5000", None)]:
        before = list(_RecordingPool.sizes)
        code, out, err = run(["verify", "--p", "3", "--t", "2", "--threads", threads],
                             stdin="Dhc\n" * lines)
        assert (code, err) == (0, "") and len(out.splitlines()) == lines
        assert _RecordingPool.sizes == before + ([size] if size else [])
    asked = []
    exact_sat = cli.exact_sat
    monkeypatch.setattr(cli, "exact_sat",
                        lambda problem, threads: asked.append(threads) or exact_sat(problem, 1))
    for threads, size in (("5000", 3), ("2", 2)):
        code, out, err = run(["search", "--n", "5", "--p", "3", "--t", "2", "--threads", threads])
        assert (code, err) == (0, "")
        assert asked.pop() == size


def test_short_verify_stream_stays_in_process(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    stdin = "Dhc\nD??\n" * 30
    argv = ["verify", "--p", "3", "--t", "2"]  # default threads
    serial = run(argv + ["--threads", "1"], stdin=stdin)
    assert serial[0] == 1 and len(serial[1].splitlines()) == 60
    assert run(argv, stdin=stdin) == serial
    assert _RecordingPool.sizes == []
    # a clock that passes the quota partway through: the rest goes to the
    # pool (at more than one default thread) and the output keeps its order
    clock = iter(range(1000))
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(cli, "_VERIFY_QUOTA", 10)
    assert run(argv, stdin=stdin) == serial
    workers = min(cli._build_parser().parse_args(argv).threads, 3)
    assert _RecordingPool.sizes == ([workers] if workers > 1 else [])


def test_search_threads_flag_keeps_the_json(monkeypatch):
    # two usable CPUs, so that `--threads 2` starts a pool on one CPU too,
    # and quotas small enough that (9, 3, 2) hands its levels to it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(satgraph.search, "_QUOTA", 1_000)
    monkeypatch.setattr(satgraph.search, "_WORKER_QUOTA", 500)
    tasks = []
    pool_submit = satgraph.search._Pool.submit
    monkeypatch.setattr(satgraph.search._Pool, "submit",
                        lambda pool, *call: tasks.append(1) or pool_submit(pool, *call))
    argv = ["search", "--n", "9", "--p", "3", "--t", "2"]
    outs = []
    for threads in ("1", "2"):
        tasks.clear()
        code, out, err = run(argv + ["--threads", threads])
        assert (code, err) == (0, "")
        outs.append({k: v for k, v in json.loads(out).items() if k != "wall_ms"})
    assert sum(tasks) > 0  # the 2-thread run shared its levels
    assert outs[0] == outs[1]
    assert outs[0]["value"] == 13 and outs[0]["witness_graph6"] == "H???Nv{"


def test_calls_without_a_pool_load_no_pool_or_hashlib_module():
    # in a fresh interpreter without site hooks, so that nothing else
    # loads these first: a call that starts no pool and names no
    # hypergraph imports neither the pool's modules nor OpenSSL's; the
    # CLI loads only the modules of `search` and `verify`, whose calls
    # then load no other package module
    code = (
        "import contextlib, io, sys\n"
        "from satgraph import cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('satgraph.')\n"
        "                  or m in ('dataclasses', 'fractions'))\n"
        "print('import', *loaded())\n"
        "calls = [(['search', '--n', '7', '--p', '3', '--t', '2'], ''),\n"
        "         (['verify', '--p', '3', '--t', '2'], 'Dhc\\nD??\\n' * 20),\n"
        "         (['certify', '--p', '3', '--t', '2'], 'Dhc\\n'),\n"
        "         (['hyper', 'saturated', '--r', '3', '--p', '5', '--t', '2', '--n', '8'], '')]\n"
        "for argv, stdin in calls:\n"
        "    sys.stdin = io.StringIO(stdin)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(argv[0], cli.main(argv), file=sys.stderr)\n"
        "    print(argv[0], *(m for m in loaded() if m.startswith('satgraph.')))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process', 'hashlib',\n"
        "              '_hashlib'} & set(sys.modules)))\n"
    )
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["search", "0", "verify", "1", "certify", "0", "hyper", "0"]
    used = ["satgraph.canon", "satgraph.cli", "satgraph.errors", "satgraph.graph6",
            "satgraph.graphs", "satgraph.search", "satgraph.verify"]

    def loaded(after, *more):
        return " ".join([after, *sorted(used + list(more))])

    assert out.stdout.splitlines() == [
        loaded("import"), loaded("search"), loaded("verify"),
        loaded("certify", "satgraph.closure"),
        loaded("hyper", "satgraph.closure", "satgraph.hypergraphs", "satgraph.hypersat"),
        "[]",
    ]
