"""Command-line front end for circle-graph growth analysis.

Subcommands operate on a graph description file (JSON with "vertices" and
"edges") and write one report to stdout or --out.  All diagnostics go to
stderr; stdout carries nothing but the report, so outputs are safe to
pipe and byte-stable across runs.  Machine-readable reports carry
"schema": 1, the sha256 of the graph file bytes, and the tool version.

Exit codes: 0 success; 2 I/O or configuration trouble (a flag the
subcommand does not take included); 3 unparseable graph or expression;
4 an invalid graph, more than --cap degenerate words at one length in
loops, or radius non-convergence; 5 a loop family with a continuum of
members where a finite count was required.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import math
import os
import sys

from . import __version__
from .entropy_report import (
    DEFAULT_KMAX,
    analyze,
    conjecture_check,
    vertex_radii,
)
from .errors import (
    CapExceededError,
    DegenerateLoopError,
    ExpressionSyntaxError,
    GraphFormatError,
    GraphValidationError,
    SpectralConvergenceError,
)
from .exact_matrix import DEFAULT_TOL
from .bimodule_engine import verify_basis
from .graph_core import DEFAULT_WORD_CAP, CircleGraph, parse_graph_spec
from .monomial_rewriter import normalize, parse_expression, render_sum
from .path_counting import loop_table, symbol_matrix

log = logging.getLogger("tge")

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_DEGENERATE = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tge",
        description="growth and normal-form reports for circle graphs",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        p.add_argument("graph", help="path to a graph description JSON file")
        if "kmax" in flags:
            p.add_argument(
                "--kmax",
                type=int,
                default=DEFAULT_KMAX,
                help="largest word length to tabulate (default %(default)s)",
            )
        if "tol" in flags:
            p.add_argument(
                "--tol",
                type=float,
                default=DEFAULT_TOL,
                help="relative tolerance for radius iteration (default %(default)s)",
            )
        if "cap" in flags:
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_WORD_CAP,
                help="most degenerate words listed at any one word length "
                "(default %(default)s)",
            )
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="json",
            help="report format (default %(default)s)",
        )

    common(sub.add_parser("analyze", help="full growth-rate report"), "kmax", "tol")
    common(sub.add_parser("loops", help="loop-count table"), "kmax", "cap")
    common(sub.add_parser("conjecture", help="loop rate vs matrix target"), "kmax", "tol")
    common(sub.add_parser("verify-basis", help="check the standard generators"))
    common(sub.add_parser("spectra", help="weight matrices and their radii"), "tol")
    rew = sub.add_parser("rewrite", help="normalize a generator expression")
    common(rew)
    rew.add_argument(
        "-e",
        "--expression",
        required=True,
        help="expression over S(edge,k), S*(edge,k), u(vertex), rationals",
    )
    return parser


def _thread_budget() -> int:
    raw = os.environ.get("TGE_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise OSError(f"TGE_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise OSError(f"TGE_THREADS must be >= 1, got {n}")
    return n


def _load_graph(path: str) -> tuple[CircleGraph, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    g = parse_graph_spec(obj)
    g.require_valid()
    return g, digest


def _round(x):
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    return x


def _envelope(command: str, digest: str, body: dict) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "tge", "version": __version__},
        "command": command,
        "graph_sha256": digest,
        **body,
    }


def _matrix_doc(m) -> dict:
    return {"labels": list(m.labels or ()), "rows": [list(r) for r in m.entries]}


def cmd_analyze(args, g: CircleGraph, digest: str):
    report = analyze(g, k_max=args.kmax, tol=args.tol)
    if args.format == "csv":
        return _loop_csv(report.table)
    body = report.to_json_dict()
    if args.format == "text":
        lines = [f"{k}: {json.dumps(_round(v))}" for k, v in body.items()]
        return "\n".join(lines) + "\n"
    return _envelope("analyze", digest, body)


def _loop_csv(table) -> str:
    buf = io.StringIO()
    buf.write("k,L_k,a_k\n")
    for e in table.entries:
        count = "" if e.loop_count is None else e.loop_count
        rate = "" if e.log_rate is None else f"{e.log_rate:.12g}"
        buf.write(f"{e.k},{count},{rate}\n")
    return buf.getvalue()


def cmd_loops(args, g: CircleGraph, digest: str):
    table = loop_table(g, args.kmax, cap=args.cap)
    rows = []
    for e in table.entries:
        rows.append(
            {
                "k": e.k,
                "loop_count": e.loop_count,
                "periodic_point_count": e.loop_count,
                "formula_count": e.formula_count,
                "degenerate_words": [list(w) for w in e.degenerate_words],
                "log_rate": e.log_rate,
                "sandwich": {
                    "lower": e.sandwich_lower,
                    "upper": e.sandwich_upper,
                    "ok": e.sandwich_ok,
                },
            }
        )
    if args.format == "csv":
        return _loop_csv(table)
    if args.format == "text":
        lines = ["  k  loops         rate"]
        for r in rows:
            count = "degenerate" if r["loop_count"] is None else str(r["loop_count"])
            rate = "-" if r["log_rate"] is None else f"{r['log_rate']:.6f}"
            lines.append(f"{r['k']:>3}  {count:<12}  {rate}")
        return "\n".join(lines) + "\n"
    return _envelope(
        "loops",
        digest,
        {
            "kmax": args.kmax,
            "has_negative_winding": table.has_negative_winding,
            "rows": rows,
        },
    )


def cmd_conjecture(args, g: CircleGraph, digest: str):
    v = conjecture_check(g, k_max=args.kmax, tol=args.tol)
    body = {
        "verdict": v.verdict,
        "estimate": v.estimate,
        "target": v.target,
        "difference": v.difference,
        "tolerance": v.tolerance,
        "sandwich_low": v.sandwich_low,
        "sandwich_high": v.sandwich_high,
        "rho_P": v.rho_p,
        "rho_Q_abs": v.rho_q_abs,
        "rho_Q_signed": v.rho_q_signed,
        "signed_matrix": [list(r) for r in v.signed_matrix]
        if v.signed_matrix is not None
        else None,
        "strongly_connected": v.strongly_connected,
        "component_count": v.component_count,
        "notes": list(v.notes),
    }
    if args.format in ("text", "csv"):
        lines = [f"verdict: {v.verdict}"]
        for key in ("estimate", "target", "difference", "tolerance"):
            val = body[key]
            lines.append(f"{key}: {'-' if val is None else f'{val:.6f}'}")
        lines.extend(f"note: {n}" for n in v.notes)
        return "\n".join(lines) + "\n"
    return _envelope("conjecture", digest, body)


def cmd_verify_basis(args, g: CircleGraph, digest: str):
    report = verify_basis(g)
    body = {
        "passed": report.passed,
        "orthogonality_checks": report.orthogonality_checks,
        "reconstruction_checks": report.reconstruction_checks,
        "failures": list(report.failures),
    }
    if args.format in ("text", "csv"):
        status = "ok" if report.passed else "FAILED"
        lines = [
            f"basis check: {status} "
            f"({report.orthogonality_checks} orthogonality, "
            f"{report.reconstruction_checks} reconstruction checks)"
        ]
        lines.extend(report.failures)
        return "\n".join(lines) + "\n"
    return _envelope("verify-basis", digest, body)


def cmd_spectra(args, g: CircleGraph, digest: str):
    r = vertex_radii(g, tol=args.tol)
    body = {
        "P": _matrix_doc(r.P),
        "Q": _matrix_doc(r.Q),
        "Q_abs": _matrix_doc(r.Q_abs),
        "Lambda": _matrix_doc(symbol_matrix(g)),
        "rho_P": r.rho_P,
        "rho_Q_abs": r.rho_Q_abs,
        "rho_Q_signed": r.rho_Q_signed,
        "rho_Lambda": r.rho_P,  # the same radius, see vertex_radii
    }
    if args.format in ("text", "csv"):
        lines = []
        for name in ("P", "Q", "Q_abs", "Lambda"):
            lines.append(f"{name}:")
            for row in body[name]["rows"]:
                lines.append("  " + " ".join(str(x) for x in row))
        lines += [f"{k}: {body[k]:.12g}" for k in ("rho_P", "rho_Q_abs", "rho_Lambda")]
        return "\n".join(lines) + "\n"
    return _envelope("spectra", digest, body)


def cmd_rewrite(args, g: CircleGraph, digest: str):
    expr = parse_expression(args.expression, g)
    nf = normalize(expr, g)
    rendered = render_sum(nf)
    if args.format in ("text", "csv"):
        return rendered + "\n"
    return _envelope(
        "rewrite",
        digest,
        {"input": args.expression, "normal_form": rendered, "terms": len(nf.terms)},
    )


_HANDLERS = {
    "analyze": cmd_analyze,
    "loops": cmd_loops,
    "conjecture": cmd_conjecture,
    "verify-basis": cmd_verify_basis,
    "spectra": cmd_spectra,
    "rewrite": cmd_rewrite,
}


def _emit(payload, out_path: str | None) -> None:
    if isinstance(payload, dict):
        text = json.dumps(_round(payload), indent=2) + "\n"
    else:
        text = payload
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = _thread_budget()
        if threads > 1:
            log.warning("TGE_THREADS=%d requested; computation runs sequentially", threads)
        kmax = getattr(args, "kmax", None)
        if kmax is not None and kmax < 1:
            raise OSError(f"--kmax must be >= 1, got {kmax}")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 < tol < 1:
            raise OSError(f"--tol must lie strictly between 0 and 1, got {tol}")
        cap = getattr(args, "cap", None)
        if cap is not None and cap < 1:
            raise OSError(f"--cap must be >= 1, got {cap}")
        g, digest = _load_graph(args.graph)
        payload = _HANDLERS[args.command](args, g, digest)
        _emit(payload, args.out)
    except GraphValidationError as exc:
        print(f"tge: invalid graph: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GraphFormatError, ExpressionSyntaxError) as exc:
        print(f"tge: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateLoopError as exc:
        print(f"tge: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CapExceededError, SpectralConvergenceError) as exc:
        print(f"tge: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"tge: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
