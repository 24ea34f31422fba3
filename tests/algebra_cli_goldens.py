"""Byte goldens for every CLI subcommand.

The run list covers the algebra subcommands `rewrite` and `verify-basis`,
in json and text, on every graph file under tests/fixtures and on one
two-vertex graph written out below, plus fixed rewrite expressions in the
style of the benchmark's anchors.  It also covers `analyze`, `loops`,
`conjecture` (each with --kmax 10) and `spectra` (which has no --kmax), in
json, text and csv, on the same graph files.  `verify-basis` alone, in json
and text, also runs on a one-vertex graph with loops (p, q) = (50, -2) and
(2, 3), the size of the benchmark's verify-basis requests.  Each run
calls tge.cli.main in-process from a scratch directory holding copies of
the graphs, so file names in messages carry no checkout path.  A run's
digest is the SHA-256 of the JSON list [exit code, stdout, stderr].

    PYTHONPATH=src python tests/algebra_cli_goldens.py

rewrites algebra_cli_digests.json (beside this file) from the current
sources; test_algebra_cli_golden.py compares a fresh pass against it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tge import cli

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
DIGESTS = HERE / "algebra_cli_digests.json"

TWO_VERTEX = json.dumps({"vertices": ["v", "w"], "edges": [
    {"name": "f", "source": "v", "range": "w", "p": 2, "q": 1},
    {"name": "h", "source": "w", "range": "v", "p": 1, "q": -1},
    {"name": "l", "source": "v", "range": "v", "p": 1, "q": 2},
]}, indent=2) + "\n"

# sum p = 52: verify-basis only, the other subcommands add nothing at this size
BENCH_LOOPS = json.dumps({"vertices": ["v"], "edges": [
    {"name": "a", "source": "v", "range": "v", "p": 50, "q": -2},
    {"name": "b", "source": "v", "range": "v", "p": 2, "q": 3},
]}, indent=2) + "\n"

# rewritten on every graph file: every fixture has a vertex named v
GENERIC = "2*u(v)^0 - 1/3 + u(v)*u*(v)"

EXPRESSIONS = (
    ("two_loops.json", "S(e1,1)*S*(e1,1) + S(e1,2)*S*(e1,2) + 3/-4*u(v)^0"),
    ("two_loops.json", "(S(e1,1) + S(e2,1) + u(v))*(S*(e1,2) + 1/2 + u(v)^-1)"
                       "*(S(e1,2) + S*(e2,1) + 3)*(u(v)^2 + S*(e1,1) + -5/6)"),
    ("two_loops.json", "S*(e1,1)*u(v)^3*S(e1,2) - S*(e2,1)*u(v)*S(e2,1) + 7/-3"),
    ("single_23.json", "(S(e,1) + S(e,2) + u(v))*(S*(e,1) + u(v)^-1 + 2)"
                       "*(S(e,2) + S*(e,2) + 1/2)*(u(v)^3 + S*(e,1) + S(e,1))"),
    ("single_23.json", "u(v)^0*S(e,1)*S(e,2)*S*(e,2)*S*(e,1) - 1"),
    ("four_loops.json", "(S(a,1) + S(b,3) + 1)*(S*(c,1) + u(v)^-2)"
                        "*(S(d,1) + 2/-5)*(S*(a,2) + S*(b,1) + u(v))"),
    ("two_vertex.json", "(S(f,1) + S(f,2) + u(v) + S(l,1))*(S*(h,1) + S*(f,1) + u(w)^-1 + 3)"
                        "*(S(h,1) + u(w) + S*(l,1) + 1/2)*(u(w)^0 + S*(f,2) + 2/3)"),
    ("two_vertex.json", "S(f,1)*S(h,1) + S(l,1)*u(v)^2 ++ 1"),
)


def graph_files() -> dict[str, bytes]:
    files = {p.name: p.read_bytes() for p in sorted(FIXTURES.glob("*.json"))}
    files["two_vertex.json"] = TWO_VERTEX.encode("utf-8")
    return files


def runs(names) -> list[list[str]]:
    out = []
    for name in names:
        for fmt in ("json", "text"):
            out.append(["verify-basis", name, "--format", fmt])
            out.append(["rewrite", name, "-e", GENERIC, "--format", fmt])
        for fmt in ("json", "text", "csv"):
            for cmd in ("analyze", "loops", "conjecture"):
                out.append([cmd, name, "--kmax", "10", "--format", fmt])
            out.append(["spectra", name, "--format", fmt])
    for name, expr in EXPRESSIONS:
        for fmt in ("json", "text"):
            out.append(["rewrite", name, "-e", expr, "--format", fmt])
    for fmt in ("json", "text"):
        out.append(["verify-basis", "bench_loops.json", "--format", fmt])
    return out


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def digest_runs(workdir: Path) -> dict[str, str]:
    """{shell-quoted argv: digest} for every run, executed inside workdir."""
    files = graph_files()
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    (workdir / "bench_loops.json").write_bytes(BENCH_LOOPS.encode("utf-8"))
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return {shlex.join(argv): run_digest(argv) for argv in runs(files)}
    finally:
        os.chdir(home)


def main() -> None:
    os.environ.pop("TGE_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        digests = digest_runs(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
