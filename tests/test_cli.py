import csv
import json
import os
import threading
import time

import pytest

from planar_turan.cli import (
    EXIT_FAIL,
    EXIT_INCOMPLETE,
    EXIT_PASS,
    EXIT_USAGE,
    UsageError,
    main,
    parse_forbid,
    parse_pattern,
)
from planar_turan.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_with_edges,
)
from planar_turan import verify
from planar_turan.search import SearchBudget, SearchIncomplete
from planar_turan.verify import run_claim


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_pattern_shorthand():
    assert parse_pattern("C5") == cycle_graph(5)
    assert parse_pattern("P3") == path_with_edges(3)
    assert parse_pattern("P0") == path_with_edges(0)
    assert parse_pattern("K4") == complete_graph(4)
    assert parse_pattern("K2_3") == complete_bipartite(2, 3)
    assert parse_pattern("Dhc") == cycle_graph(5)
    with pytest.raises(UsageError):
        parse_pattern("C2")
    with pytest.raises(UsageError):
        parse_pattern("notagraph???")


def test_parse_forbid():
    assert parse_forbid(None).sorted_lengths == ()
    assert parse_forbid("C4").sorted_lengths == (4,)
    assert parse_forbid("C4,C6").sorted_lengths == (4, 6)
    assert parse_forbid("4, 6").sorted_lengths == (4, 6)
    with pytest.raises(UsageError):
        parse_forbid("C1")
    with pytest.raises(UsageError):
        parse_forbid("x")


def test_is_planar_exit_codes(capsys):
    code, payload = _run_json(capsys, ["is-planar", "--graph", "C5"])
    assert code == EXIT_PASS
    assert payload["planar"] is True
    code, payload = _run_json(capsys, ["is-planar", "--graph", "K5", "--witness"])
    assert code == EXIT_FAIL
    assert payload["planar"] is False
    assert payload["witness_kind"] == "K5"
    assert len(payload["witness_edges"]) == 10


def test_count_cycles_command(capsys):
    code, payload = _run_json(capsys, ["count-cycles", "--graph", "K4", "--k", "3"])
    assert code == EXIT_PASS
    assert payload["count"] == 4


def test_count_command(capsys):
    code, payload = _run_json(capsys, ["count", "--graph", "K4",
                                       "--pattern", "P3"])
    assert code == EXIT_PASS
    assert payload["count"] == 12
    assert payload["automorphisms"] == 2


def test_params_command(capsys):
    code, payload = _run_json(capsys, ["params", "--graph", "P6", "--ell", "2"])
    assert code == EXIT_PASS
    assert payload["beta"] == 1 + (6 + 1) // 3
    assert payload["degeneracy"] == 1
    assert "tree_partition" in payload
    assert payload["tree_partition"]["leaves"] == [0, 6]
    code, payload = _run_json(capsys, ["params", "--graph", "C6"])
    assert "tree_partition" not in payload
    assert payload["beta"] == 3


def test_construct_json(capsys):
    code, payload = _run_json(capsys, [
        "construct", "--family", "pentagon_extremal", "--params", "t=2,s=3"])
    assert code == EXIT_PASS
    assert payload["vertices"] == 17
    assert payload["certification"]["declared_count"] == 13
    assert payload["certification"]["computed_count"] == 13
    assert payload["certification"]["planar"] is True


def test_construct_graph6(capsys):
    code = main(["construct", "--family", "cycle_blowup", "--params", "k=4",
                 "--n", "20", "--format", "graph6"])
    assert code == EXIT_PASS
    text = capsys.readouterr().out.strip()
    g = parse_pattern(text)
    assert g.n == 20


def test_construct_with_tree_param(capsys):
    code, payload = _run_json(capsys, [
        "construct", "--family", "tree_beta_blowup",
        "--params", "tree=P2", "--n", "24"])
    assert code == EXIT_PASS
    assert payload["certification"]["declared_count"] == 36


def test_construct_usage_errors(capsys):
    assert main(["construct", "--family", "no_such"]) == EXIT_USAGE
    # missing k surfaces as a usage problem, not a stack trace
    assert main(["construct", "--family", "cycle_blowup", "--n", "16"]) == EXIT_USAGE
    assert main(["construct", "--family", "cycle_blowup",
                 "--params", "k=two", "--n", "16"]) == EXIT_USAGE
    capsys.readouterr()
    # parameters the family does not read are refused, not ignored
    for argv in (["--family", "pentagon_extremal", "--params", "t=1,s=1,foo=3"],
                 ["--family", "pentagon_extremal", "--params", "t=1,s=1",
                  "--n", "99"],
                 ["--family", "cycle_blowup", "--params", "k=6,ell=9",
                  "--n", "24"]):
        assert main(["construct"] + argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "takes only" in captured.err


def test_construct_refuses_a_repeated_parameter(capsys):
    assert main(["construct", "--family", "cycle_blowup", "--params", "k=6,k=7",
                 "--n", "24"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "'k' is given twice" in captured.err


def test_search_refuses_workers_without_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert main(["search", "--n", "5", "--pattern", "C5", "--forbid", "C4",
                 "--jobs", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "os.fork" in captured.err


def test_search_refuses_workers_while_another_thread_runs(capsys):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        code = main(["search", "--n", "5", "--pattern", "C5", "--forbid", "C4",
                     "--jobs", "2"])
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "use width 1" in captured.err


def test_search_command(capsys):
    code, payload = _run_json(capsys, ["search", "--n", "5", "--pattern", "C5",
                                       "--forbid", "C4"])
    assert code == EXIT_PASS
    assert payload["max_count"] == 1
    assert payload["status"] == "complete"
    assert payload["n"] == 5
    assert payload["family"] == [4]


def test_search_incomplete_exit_code(capsys):
    code = main(["search", "--n", "7", "--pattern", "C5", "--forbid", "C4",
                 "--budget-seconds", "0.0000001"])
    capsys.readouterr()
    assert code == EXIT_INCOMPLETE


def test_search_connected_flag(capsys):
    code, payload = _run_json(capsys, ["search", "--n", "5", "--pattern", "C3",
                                       "--connected"])
    assert code == EXIT_PASS
    assert payload["max_count"] > 0


def test_verify_command(capsys):
    code, payload = _run_json(capsys, ["verify", "--claim", "beta-closed-forms"])
    assert code == EXIT_PASS
    assert payload["status"] == "pass"
    assert payload["details"] == []  # failures only unless --all-details
    assert payload["checks"] > 100
    code, payload = _run_json(capsys, ["verify", "--claim", "beta-closed-forms",
                                       "--all-details"])
    assert len(payload["details"]) > 100


def test_verify_rows_carry_runtime(capsys):
    code, payload = _run_json(capsys, ["verify", "--claim", "beta-closed-forms",
                                       "--all-details"])
    assert code == EXIT_PASS
    runtimes = {d["instance"]: d["runtime_s"] for d in payload["details"]}
    assert len(runtimes) == len(payload["details"])
    assert all(t >= 0 for t in runtimes.values())
    slowest = payload["slowest"]
    assert runtimes[slowest["instance"]] == slowest["runtime_s"] == max(runtimes.values())


@pytest.mark.parametrize("claim", ["planarity-oracle", "degenerate-structure"])
def test_verify_enumeration_claims_honour_the_time_limit(capsys, claim):
    code, payload = _run_json(capsys, ["verify", "--claim", claim,
                                       "--budget-seconds", "0.01"])
    assert code == EXIT_INCOMPLETE
    assert payload["status"] == "incomplete"
    assert payload["runtime_s"] < 0.5


@pytest.mark.parametrize("claim", ["growth-exponents", "tree-partition-forest",
                                   "copy-count-oracle", "certification-matrix"])
def test_verify_claims_that_never_search_honour_the_time_limit(capsys, claim):
    # checked between rows; the full claims take seconds
    start = time.monotonic()
    report = run_claim(claim, SearchBudget(time_limit=0.01))
    assert time.monotonic() - start < 1
    assert report.status == "incomplete"
    assert report.details
    code, payload = _run_json(capsys, ["verify", "--claim", claim,
                                       "--budget-seconds", "0.01"])
    assert code == EXIT_INCOMPLETE
    assert payload["status"] == "incomplete"


@pytest.mark.parametrize("claim, rows", [("c5-c4free-exact", 126),
                                         ("planar-cycle-maxima", 5),
                                         ("planarity-oracle", 7),
                                         ("degenerate-structure", 2)])
def test_verify_search_claims_share_one_deadline(capsys, claim, rows):
    # each search or enumeration gets only the time left, and the
    # pentagon grid and the enumerated classes check the limit between
    # rows; the full claims take 0.3 s to a second
    start = time.monotonic()
    report = run_claim(claim, SearchBudget(max_vertices=8, time_limit=0.05))
    assert time.monotonic() - start < 0.5
    assert report.status == "incomplete"
    assert len(report.details) < rows
    # the CLI refuses a vertex cap for a claim that does not read it
    cap = ["--max-vertices", "8"] if claim in verify.SEARCH_CLAIMS else []
    code, payload = _run_json(capsys, ["verify", "--claim", claim, *cap,
                                       "--budget-seconds", "0.01"])
    assert code == EXIT_INCOMPLETE
    assert payload["status"] == "incomplete"


@pytest.mark.parametrize("claim", sorted(set(verify.CLAIMS)
                                         - set(verify.SEARCH_CLAIMS)))
@pytest.mark.parametrize("option", [["--max-vertices", "3"], ["--jobs", "2"]])
def test_verify_refuses_options_a_claim_does_not_read(capsys, claim, option):
    # the claim would run in full and pass, with the option ignored
    assert main(["verify", "--claim", claim, *option]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(name in captured.err for name in verify.SEARCH_CLAIMS)


def _fake_claim(*oks, stop=False, sleep=0.0):
    def claim(budget, deadline):
        for i, ok in enumerate(oks):
            time.sleep(sleep)
            yield {"instance": f"row {i}", "ok": ok}
        if stop:
            raise SearchIncomplete("the claim's time limit passed")
    return claim


def test_run_claim_keeps_the_rows_of_a_stopped_claim(monkeypatch, capsys):
    # a stop outranks a failed row, and the rows done so far are kept
    monkeypatch.setitem(verify.CLAIMS, "beta-closed-forms",
                        _fake_claim(False, stop=True))
    report = run_claim("beta-closed-forms")
    assert report.status == "incomplete"
    assert [d["instance"] for d in report.details] == ["row 0"]
    assert report.details[0]["runtime_s"] >= 0
    assert main(["verify", "--claim", "beta-closed-forms"]) == EXIT_INCOMPLETE
    capsys.readouterr()


@pytest.mark.parametrize("oks, status, code", [((True, True), "pass", EXIT_PASS),
                                               ((True, False), "fail", EXIT_FAIL),
                                               ((), "pass", EXIT_PASS)])
def test_run_claim_judges_a_finished_claim_on_its_rows(monkeypatch, capsys,
                                                      oks, status, code):
    monkeypatch.setitem(verify.CLAIMS, "beta-closed-forms", _fake_claim(*oks))
    report = run_claim("beta-closed-forms")
    assert report.status == status
    assert [d["ok"] for d in report.details] == list(oks)
    assert all("runtime_s" in d for d in report.details)
    assert main(["verify", "--claim", "beta-closed-forms"]) == code
    capsys.readouterr()


def test_run_claim_passes_a_claim_whose_last_row_ends_past_the_limit(monkeypatch):
    # claims check the deadline before a row, never after their last one
    monkeypatch.setitem(verify.CLAIMS, "beta-closed-forms",
                        _fake_claim(True, sleep=0.05))
    report = run_claim("beta-closed-forms", SearchBudget(time_limit=0.01))
    assert report.status == "pass"
    assert report.details[0]["runtime_s"] >= 0.05


def test_search_refuses_a_cache_path_that_is_a_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(path))
    code = main(["search", "--n", "5", "--pattern", "C5", "--forbid", "C4"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "PLANAR_TURAN_CACHE" in err and str(path) in err


def test_verify_unknown_claim(capsys):
    assert main(["verify", "--claim", "no-such-claim"]) == EXIT_USAGE
    capsys.readouterr()


def test_table_extremal(tmp_path, capsys):
    base = tmp_path / "sweep"
    code = main(["table", "--spec", "extremal n=4..6 pattern=C5 forbid=C4",
                 "--output", str(base)])
    capsys.readouterr()
    assert code == EXIT_PASS
    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "max_count", "graphs_explored", "status", "witnesses"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("4", "0"), ("5", "1"), ("6", "1")]
    with open(f"{base}.json") as fh:
        data = json.load(fh)
    assert [r["max_count"] for r in data["rows"]] == [0, 1, 1]


def test_table_with_an_incomplete_row_exits_2(tmp_path, capsys):
    base = tmp_path / "cut"
    code = main(["table", "--spec", "extremal n=4..7 pattern=C5 forbid=",
                 "--budget-seconds", "0.01", "--output", str(base)])
    capsys.readouterr()
    assert code == EXIT_INCOMPLETE
    with open(f"{base}.json") as fh:
        rows = json.load(fh)["rows"]
    assert [r["n"] for r in rows] == [4, 5, 6, 7]
    assert rows[-1]["status"] == "incomplete"


def test_table_rows_share_one_deadline(tmp_path, capsys):
    # each row's search gets only the time left; the sizes after the cut
    # are listed as incomplete rows with nothing scanned.  A full run
    # takes over ten seconds, n = 9 alone most of it; with 0.05 s per row
    # instead, the three cut rows alone would take 0.15 s.
    base = tmp_path / "shared"
    start = time.monotonic()
    code = main(["table", "--spec", "extremal n=6..9 pattern=C5 forbid=",
                 "--max-vertices", "9", "--budget-seconds", "0.05",
                 "--output", str(base)])
    assert time.monotonic() - start < 0.15
    capsys.readouterr()
    assert code == EXIT_INCOMPLETE
    with open(f"{base}.json") as fh:
        rows = json.load(fh)["rows"]
    assert [r["n"] for r in rows] == [6, 7, 8, 9]
    assert sum(r["status"] == "complete" for r in rows) < 4
    assert (rows[-1]["status"], rows[-1]["graphs_explored"]) == ("incomplete", 0)


def test_table_beta(tmp_path, capsys):
    base = tmp_path / "beta"
    code = main(["table", "--spec", "beta graph=path k=1..4 ell=1..2",
                 "--output", str(base)])
    capsys.readouterr()
    assert code == EXIT_PASS
    with open(f"{base}.json") as fh:
        data = json.load(fh)
    assert len(data["rows"]) == 8
    for row in data["rows"]:
        k, ell = row["k"], row["ell"]
        assert row["beta"] == 1 + (k + ell - 1) // (ell + 1)


@pytest.mark.parametrize("option", [
    ["--jobs", "7"], ["--max-vertices", "3"], ["--budget-seconds", "0.000001"],
    ["--jobs", "7", "--max-vertices", "3", "--budget-seconds", "0.000001"],
], ids=["jobs", "max-vertices", "budget-seconds", "all-three"])
def test_table_beta_refuses_the_search_options(tmp_path, capsys, option):
    # a beta table runs no search, so it would write every row with the
    # options ignored
    base = tmp_path / "beta"
    assert main(["table", "--spec", "beta graph=path k=1..3 ell=1..2", *option,
                 "--output", str(base)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and option[0] in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", [
    "beta graph=path k=2..1 ell=1..1",
    "beta k=6..1",
    "beta k=1..6 ell=3..1",
    "extremal n=9..6",
], ids=["beta-k-2..1", "beta-k-6..1", "beta-ell-3..1", "extremal-n-9..6"])
def test_table_reversed_range_is_refused(tmp_path, capsys, spec):
    base = tmp_path / "reversed"
    assert main(["table", "--spec", spec, "--output", str(base)]) == EXIT_USAGE
    assert "reversed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, message", [
    ("extremal n=5 patern=C3 forbid=", "not 'patern'"),
    ("extremal n=5 n=6", "'n' twice"),
    ("extremal n=5 k=3", "not 'k'"),
    ("beta k=1..3 k=4", "'k' twice"),
    ("beta n=4", "not 'n'"),
    ("beta ell=1 graph=path graph=cycle", "'graph' twice"),
])
def test_table_refuses_repeated_and_unread_keys(tmp_path, capsys, spec, message):
    base = tmp_path / "t"
    assert main(["table", "--spec", spec, "--output", str(base)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_table_usage_errors(capsys):
    assert main(["table", "--spec", "beta graph=cycle k=1..4 ell=1..1",
                 "--output", "/tmp/never"]) == EXIT_USAGE
    assert main(["table", "--spec", "unknown a=1", "--output", "/tmp/never"]) == EXIT_USAGE
    assert main(["table", "--spec", "extremal n=four", "--output", "/tmp/never"]) == EXIT_USAGE
    capsys.readouterr()


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["count", "--graph", "C5", "--pattern", "P2",
                 "--output", str(target)])
    capsys.readouterr()
    assert code == EXIT_PASS
    payload = json.loads(target.read_text())
    assert payload["count"] == 5


@pytest.mark.parametrize("argv", [
    ["search", "--n", "12", "--pattern", "C5"],  # above the vertex cap
    ["search", "--n", "0", "--pattern", "C5"],
    ["count-cycles", "--graph", "K4", "--k", "2"],
    ["search", "--n", "5", "--pattern", "C5", "--budget-seconds", "0"],
    ["search", "--n", "5", "--pattern", "C5", "--jobs", "0"],
    ["search", "--n", "5", "--pattern", "C5", "--max-vertices", "0"],
    ["search", "--n", "6", "--pattern", "C5", "--forbid", "C4",
     "--budget-seconds", "nan"],
])
def test_refused_inputs_become_usage_exit(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_vertex_cap_refusal_names_the_cli_option(capsys):
    assert main(["search", "--n", "12", "--pattern", "C5"]) == EXIT_USAGE
    assert "--max-vertices" in capsys.readouterr().err.splitlines()[0]


def test_argparse_errors_become_usage_exit(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["is-planar"]) == EXIT_USAGE
    assert main(["count-cycles", "--graph", "K4", "--k", "three"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
