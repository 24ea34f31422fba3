"""Command-line interface: envelopes, formats, exit codes, determinism.

Claims covered here:

- every report carries the schema tag, tool block, command name, and the
  sha256 of the graph file bytes
- exit codes: 0 success, 2 I/O and configuration (a flag the
  subcommand does not take included), 3 parse errors, 4 validation,
  more than --cap degenerate words at one length in loops, or a --tol
  finer than doubles resolve, 5 degenerate loop structure
- spectra resolves the Perron root of a 150-cycle, analyze that of a
  p=20000 loop
- error paths print to stderr and leave stdout empty
- reruns are byte-identical; --out writes the payload to a file
- the loops table serializes degenerate lengths as nulls and its CSV
  leaves those cells blank; analyze --format csv emits the same table,
  from one transfer-matrix count
- the transfer-matrix counts decide degeneracy: analyze and conjecture
  stop on the first degenerate word at any --kmax, drawing just that
  word; loops refuses a length with more than --cap degenerate words
  before walking any; tables whose closed words outnumber the cap run
- non-tabular commands fall back from csv to their text rendering
- the rewrite command returns the normal form in json and text
- the installed console script behaves like the library entry point and
  warns (on stderr only) when a thread budget is requested
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, doubled_cycle_graph, heavy_loop_graph, write_spec
from tge import CircleGraph
from tge.cli import main
from tge.path_counting import ClosedWordTables

TWO_LOOPS = str(FIXTURES / "two_loops.json")
DEGENERATE = str(FIXTURES / "degenerate_11.json")
MALFORMED = str(FIXTURES / "malformed.json")
INVALID = str(FIXTURES / "invalid_missing_range.json")
FOUR_LOOPS = str(FIXTURES / "four_loops.json")
FOUR_DEGENERATE = str(FIXTURES / "four_loops_degenerate.json")
SRC = str(FIXTURES.parents[1] / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_envelope(capsys):
    code, out, err = run(capsys, ["analyze", TWO_LOOPS, "--kmax", "6"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["tool"]["name"] == "tge"
    assert doc["command"] == "analyze"
    digest = hashlib.sha256(open(TWO_LOOPS, "rb").read()).hexdigest()
    assert doc["graph_sha256"] == digest
    assert doc["rho_P"] == 3.0
    assert doc["conjecture_verdict"]["verdict"] == "consistent"


def test_reruns_are_byte_identical(capsys):
    _, first, _ = run(capsys, ["analyze", TWO_LOOPS, "--kmax", "6"])
    _, second, _ = run(capsys, ["analyze", TWO_LOOPS, "--kmax", "6"])
    assert first == second


def test_out_file_writes_payload(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, ["analyze", TWO_LOOPS, "--kmax", "4", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "analyze"


def test_loops_csv_golden(capsys):
    code, out, _ = run(capsys, ["loops", TWO_LOOPS, "--kmax", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,L_k,a_k"
    assert lines[1].startswith("1,3,")
    assert lines[2].startswith("2,13,")
    assert lines[3].startswith("3,57,")
    assert lines[4].startswith("4,245,")


def test_analyze_csv_matches_loops_csv(capsys):
    _, from_analyze, _ = run(
        capsys, ["analyze", TWO_LOOPS, "--kmax", "4", "--format", "csv"]
    )
    _, from_loops, _ = run(
        capsys, ["loops", TWO_LOOPS, "--kmax", "4", "--format", "csv"]
    )
    assert from_analyze == from_loops


def test_analyze_csv_builds_one_loop_table(capsys, monkeypatch):
    built, tabulated = [], []
    real_init, real_table = ClosedWordTables.__init__, ClosedWordTables.table

    def counted_init(self, g):
        built.append(g)
        real_init(self, g)

    def counted_table(self, k_max):
        tabulated.append(k_max)
        return real_table(self, k_max)

    monkeypatch.setattr(ClosedWordTables, "__init__", counted_init)
    monkeypatch.setattr(ClosedWordTables, "table", counted_table)
    code, out, _ = run(capsys, ["analyze", TWO_LOOPS, "--kmax", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[4].startswith("4,245,")
    assert len(built) == 1
    assert tabulated == [4]


def count_drawn_words(monkeypatch) -> list:
    """Record (k, word) for every word ClosedWordTables.degenerate_words yields."""
    drawn = []
    real = ClosedWordTables.degenerate_words

    def counted(self, k):
        for word, pp in real(self, k):
            drawn.append((k, word))
            yield word, pp

    monkeypatch.setattr(ClosedWordTables, "degenerate_words", counted)
    return drawn


def test_four_loops_past_the_closed_word_cap(capsys):
    # 4^14 > 10^7 closed words at k = 14; none is degenerate
    for argv in (["analyze", FOUR_LOOPS], ["analyze", FOUR_LOOPS, "--kmax", "40"],
                 ["loops", FOUR_LOOPS]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
    doc = json.loads(out)
    loops = [(2, 1), (3, 1), (1, 5), (1, 7)]
    expected = 0
    for js in itertools.product(range(15), repeat=4):
        if sum(js) == 14:
            pp = math.prod(p**j for (p, _), j in zip(loops, js))
            qq = math.prod(q**j for (_, q), j in zip(loops, js))
            coefficient = math.factorial(14) // math.prod(math.factorial(j) for j in js)
            expected += coefficient * abs(pp - qq)
    assert doc["rows"][13]["k"] == 14
    assert doc["rows"][13]["loop_count"] == expected


@pytest.mark.parametrize("kmax", ["2", "10", "14", "40"])
def test_degenerate_four_loops_exit_5_on_first_word(capsys, monkeypatch, kmax):
    drawn = count_drawn_words(monkeypatch)
    for cmd in ("analyze", "conjecture"):
        drawn.clear()
        code, out, err = run(capsys, [cmd, FOUR_DEGENERATE, "--kmax", kmax])
        assert (code, out) == (5, "")
        assert err == ("tge: closed word a.b has equal degree and winding products; "
                       "loop counts at this length are infinite\n")
        assert drawn == [(2, ("a", "b"))]


def test_loops_refuses_degenerate_words_past_cap_before_walking(capsys, monkeypatch):
    drawn = count_drawn_words(monkeypatch)
    code, out, err = run(capsys, ["loops", FOUR_DEGENERATE, "--kmax", "14"])
    assert (code, out) == (4, "")
    assert err == "tge: more than 10000000 degenerate words of length 14\n"
    assert drawn == []


def test_loops_reports_degenerate_rows_without_failing(capsys):
    code, out, _ = run(capsys, ["loops", DEGENERATE, "--kmax", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["has_negative_winding"] is False
    for row in doc["rows"]:
        assert row["loop_count"] is None
        assert row["periodic_point_count"] is None
        assert row["degenerate_words"] == [["e"] * row["k"]]
        assert row["sandwich"]["ok"] is None
    code2, out2, _ = run(capsys, ["loops", DEGENERATE, "--kmax", "2", "--format", "csv"])
    assert code2 == 0
    assert out2.strip().splitlines()[1] == "1,,"


def test_degenerate_analyze_and_conjecture_exit_5(capsys):
    for cmd in ("analyze", "conjecture"):
        code, out, err = run(capsys, [cmd, DEGENERATE])
        assert code == 5
        assert out == ""
        assert "tge:" in err


def test_parse_errors_exit_3(capsys):
    code, out, err = run(capsys, ["analyze", MALFORMED])
    assert code == 3
    assert out == ""
    assert MALFORMED in err
    code2, out2, err2 = run(capsys, ["rewrite", TWO_LOOPS, "-e", "S(e1,"])
    assert code2 == 3
    assert out2 == ""
    assert "offset" in err2


def test_validation_errors_exit_4(capsys):
    code, out, err = run(capsys, ["analyze", INVALID])
    assert code == 4
    assert out == ""
    assert "invalid graph" in err
    assert "'w' is not the range of any edge" in err
    code2, out2, err2 = run(capsys, ["loops", FOUR_DEGENERATE, "--kmax", "4", "--cap", "5"])
    assert code2 == 4
    assert out2 == ""
    assert err2 == "tge: more than 5 degenerate words of length 4\n"


def test_spectra_radius_exits(capsys, tmp_path):
    cycle = write_spec(doubled_cycle_graph(150), tmp_path / "cycle150.json")
    code, out, err = run(capsys, ["spectra", cycle, "--format", "text"])
    assert (code, err) == (0, "")
    assert f"rho_P: {2 ** (1 / 150):.12g}\n" in out
    # spectra would also print the 20002 x 20002 symbol matrix
    heavy = write_spec(heavy_loop_graph(20000), tmp_path / "heavy.json")
    code, out, err = run(capsys, ["analyze", heavy, "--kmax", "4", "--format", "text"])
    assert (code, err) == (0, "")
    assert "rho_P: 20000.00005\n" in out
    # P = [[1, 3], [3, 0]]: no pair of doubles brackets (1 + sqrt 37)/2 within 1e-300
    square = write_spec(CircleGraph.build(["v", "w"], [
        ("a", "v", "v", 1, 1), ("b", "v", "w", 3, 1), ("c", "w", "v", 3, 1),
    ]), tmp_path / "square.json")
    code, out, err = run(capsys, ["spectra", square, "--tol", "1e-300"])
    assert (code, out) == (4, "")
    assert "stopped narrowing" in err and "tol=1e-300" in err


def test_io_and_config_errors_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, ["analyze", "no_such_file.json"])
    assert code == 2
    assert out == ""
    monkeypatch.setenv("TGE_THREADS", "abc")
    code2, _, err2 = run(capsys, ["analyze", TWO_LOOPS])
    assert code2 == 2
    assert "TGE_THREADS" in err2
    monkeypatch.delenv("TGE_THREADS")
    for argv in (["analyze", "--kmax", "0"], ["analyze", "--tol", "0"],
                 ["analyze", "--tol", "nan"], ["analyze", "--tol", "inf"],
                 ["analyze", "--tol", "1"], ["loops", "--cap", "0"]):
        code3, out3, err3 = run(capsys, [argv[0], TWO_LOOPS, *argv[1:]])
        assert code3 == 2, argv
        assert out3 == ""
        assert err3.startswith("tge: "), argv
    # each subcommand takes only the flags it reads; argparse refuses the rest
    for argv in (["analyze", "--cap", "5"], ["conjecture", "--cap", "5"],
                 ["loops", "--tol", "0.5"], ["verify-basis", "--tol", "0.5"],
                 ["rewrite", "-e", "u(v)", "--tol", "0.5"], ["spectra", "--cap", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], TWO_LOOPS, *argv[1:]])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err, argv


def test_rewrite_normal_form(capsys):
    code, out, _ = run(capsys, ["rewrite", TWO_LOOPS, "-e", "u(v)*S(e1,1)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "rewrite"
    assert doc["input"] == "u(v)*S(e1,1)"
    assert doc["normal_form"] == "S(e1,2)"
    assert doc["terms"] == 1
    code2, out2, _ = run(
        capsys, ["rewrite", TWO_LOOPS, "-e", "u(v)*S(e1,1)", "--format", "text"]
    )
    assert code2 == 0
    assert out2 == "S(e1,2)\n"


def test_conjecture_payload_and_csv_fallback(capsys):
    code, out, _ = run(capsys, ["conjecture", TWO_LOOPS])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["sandwich_low"] <= doc["estimate"] <= doc["sandwich_high"]
    code2, out2, _ = run(capsys, ["conjecture", TWO_LOOPS, "--format", "csv"])
    assert code2 == 0
    assert out2.startswith("verdict: consistent")


def test_verify_basis_and_spectra(capsys):
    code, out, _ = run(capsys, ["verify-basis", TWO_LOOPS])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    code2, out2, _ = run(capsys, ["spectra", TWO_LOOPS])
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["P"] == {"labels": ["v"], "rows": [[3]]}
    assert doc2["Q"] == {"labels": ["v"], "rows": [[4]]}
    assert doc2["Lambda"]["labels"] == ["e1:1", "e1:2", "e2:1"]
    assert doc2["rho_P"] == 3.0
    assert doc2["rho_Lambda"] == 3.0
    code3, out3, _ = run(capsys, ["spectra", TWO_LOOPS, "--format", "text"])
    assert code3 == 0
    assert "rho_P: 3" in out3


def test_console_script_and_thread_warning(tmp_path):
    # the child sees only these variables; it finds tge through src/ even
    # without an install, plus whatever PYTHONPATH the caller set
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tge.cli", "loops", TWO_LOOPS, "--kmax", "3"],
        capture_output=True,
        text=True,
        env={"PATH": "", "TGE_THREADS": "4", "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "loops"
    assert "sequentially" in proc.stderr
