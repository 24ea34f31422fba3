"""Correctness checks for every benchmark response.

Each check returns a list of problems; an empty list means the response is
correct.  CLI reports are parsed as JSON or CSV and compared field by
field, never byte by byte, so reports may gain fields without breaking
the checks.  Expected values come from reference.py and from the
benchmark's frozen data, never from tge itself; the one exception is the
idempotence of normal forms, which by definition re-runs the rewriter.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import reference
from workloads import DEFAULT_KMAX

VERDICT_SLACK = 0.05  # documented slack of the loop-rate verdict
REL_TOL = 1e-9

FROZEN = Path(__file__).resolve().parent / "data" / "normal_forms.json"


def close(got, want, rel: float = REL_TOL) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= rel * max(1.0, abs(want))


def _log(x: float | None) -> float | None:
    return math.log(x) if x is not None and x > 0 else None


def _kmax(argv) -> int:
    argv = list(argv)
    return int(argv[argv.index("--kmax") + 1]) if "--kmax" in argv else DEFAULT_KMAX


def _fmt(argv) -> str:
    argv = list(argv)
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def is_simple_cycle(graph: dict) -> bool:
    n = len(graph["vertices"])
    if len(graph["edges"]) != n:
        return False
    succ = {e["source"]: e["range"] for e in graph["edges"]}
    if len(succ) != n:
        return False
    v, seen = graph["vertices"][0], set()
    while v not in seen:
        seen.add(v)
        v = succ[v]
    return len(seen) == n


class Checker:
    """Checks responses against references cached per graph."""

    def __init__(self, workload):
        self.workload = workload
        self._loop_refs: dict[tuple, reference.LoopReference] = {}
        self._radii: dict[str, tuple[float, float]] = {}
        self._digest: dict[str, str] = {}
        self._frozen = None

    def forget(self, keys) -> None:
        """Drop the cached references of graphs the workload has released."""
        keys = set(keys)
        for cache in (self._radii, self._digest):
            for key in keys & set(cache):
                del cache[key]
        for ident in [i for i in self._loop_refs if i[0] in keys]:
            del self._loop_refs[ident]

    # references -----------------------------------------------------------

    def loops(self, key: str, k_max: int) -> reference.LoopReference:
        if (key, k_max) not in self._loop_refs:
            graph = self.workload.graphs[key]
            if len(graph["vertices"]) == 1:
                ref = reference.multinomial_reference(graph, k_max)
            else:
                ref = reference.loop_reference(graph, k_max)
            self._loop_refs[(key, k_max)] = ref
        return self._loop_refs[(key, k_max)]

    def radii(self, key: str) -> tuple[float, float]:
        """(rho(P), rho(|Q|)); rho(Lambda) equals rho(P) because Lambda = A B with B A = P^T."""
        if key not in self._radii:
            graph = self.workload.graphs[key]
            if is_simple_cycle(graph):
                n = len(graph["vertices"])
                rp = math.prod(e["p"] for e in graph["edges"]) ** (1.0 / n)
                rq = math.prod(abs(e["q"]) for e in graph["edges"]) ** (1.0 / n)
            else:
                rp = reference.radius(reference.covering(graph))
                rq = reference.radius(reference.winding_abs(graph))
            self._radii[key] = (rp, rq)
        return self._radii[key]

    def signed_radius(self, key: str) -> float | None:
        """rho(Q) when the summed signed winding matrix is nonnegative, else None."""
        q_rows = reference.winding(self.workload.graphs[key])
        if any(x < 0 for row in q_rows for x in row):
            return None
        if is_simple_cycle(self.workload.graphs[key]):
            return self.radii(key)[1]
        return reference.radius(q_rows)

    def digest(self, key: str) -> str:
        if key not in self._digest:
            raw = self.workload.graph_path(key).read_bytes()
            self._digest[key] = hashlib.sha256(raw).hexdigest()
        return self._digest[key]

    def frozen(self) -> dict:
        if self._frozen is None:
            doc = json.loads(FROZEN.read_text(encoding="utf-8"))
            self._frozen = {(a["graph"], a["expression"]): a for a in doc["anchors"]}
        return self._frozen

    # dispatch -------------------------------------------------------------

    def check_cli(self, req, code: int, out: str, tge=None) -> list[str]:
        graph = self.workload.graphs[req.graph]
        # analyze and conjecture refuse graphs with degenerate closed words
        degenerate = req.command in ("analyze", "conjecture") and any(
            self.loops(req.graph, _kmax(req.argv)).degenerate)
        want_exit = 5 if degenerate else 0
        if code != want_exit:
            return [f"exit code {code}, want {want_exit}"]
        if want_exit != 0:
            return [] if out == "" else ["failed request wrote a report"]
        fmt = _fmt(req.argv)
        if fmt == "csv":
            return self._csv(req, out)
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        problems = []
        if doc.get("command") != req.command:
            problems.append(f"command {doc.get('command')!r}")
        if doc.get("graph_sha256") != self.digest(req.graph):
            problems.append("graph_sha256 does not match the graph file")
        handler = getattr(self, "_" + req.command.replace("-", "_"))
        if req.command == "rewrite":
            return problems + handler(req, doc, graph, tge)
        return problems + handler(req, doc, graph)

    # growth -----------------------------------------------------------------

    def _expected_rates(self, req):
        k_max = _kmax(req.argv)
        ref = self.loops(req.graph, k_max)
        rates = []
        for k in range(1, k_max + 1):
            count = ref.loop_count(k)
            rates.append(math.log(count) / k if count else None)
        lo_k = max(1, math.ceil(2 * k_max / 3))
        window = [a for a in rates[lo_k - 1:] if a is not None]
        every = [a for a in rates if a is not None]
        estimate = max(window) if window else (max(every) if every else None)
        lows, highs = [], []
        for k in range(lo_k, k_max + 1):
            tp, tq = ref.trace_p[k - 1], ref.trace_q_abs[k - 1]
            if abs(tp - tq) > 0:
                lows.append(math.log(abs(tp - tq)) / k)
            if tp + tq > 0:
                highs.append(math.log(tp + tq) / k)
        return rates, estimate, (max(lows) if lows else None), (max(highs) if highs else None)

    def _verdict(self, req, doc_verdict: dict, flat: bool) -> list[str]:
        """Check the loop-rate comparison block of analyze or conjecture."""
        graph = self.workload.graphs[req.graph]
        _, estimate, low, high = self._expected_rates(req)
        rp, rq = self.radii(req.graph)
        target = math.log(max(rp, rq))
        problems = []
        for name, want in (("estimate", estimate), ("target", target),
                           ("sandwich_low", low), ("sandwich_high", high)):
            if not close(doc_verdict.get(name), want):
                problems.append(f"{name} {doc_verdict.get(name)} != {want}")
        width = high - low if low is not None and high is not None else None
        tolerance = max(VERDICT_SLACK, width) if width is not None else VERDICT_SLACK
        if not close(doc_verdict.get("tolerance"), tolerance):
            problems.append(f"tolerance {doc_verdict.get('tolerance')} != {tolerance}")
        allowed = set()
        if estimate is None:
            allowed.add("inconclusive")
            if doc_verdict.get("difference") is not None:
                problems.append("difference without an estimate")
        else:
            difference = abs(estimate - target)
            if not close(doc_verdict.get("difference"), difference):
                problems.append(f"difference {doc_verdict.get('difference')} != {difference}")
            margin = 1e-7
            above = None if high is None else estimate - high
            below = None if low is None else low - estimate
            edges = [d for d in (above, below) if d is not None]
            if any(d > margin for d in edges):
                allowed.add("inconsistent")
            else:
                if any(abs(d) <= margin for d in edges):
                    allowed.add("inconsistent")
                gap = abs(rp - rq) / max(1.0, rp, rq)
                if gap <= 1e-7:
                    allowed.add("inconclusive")
                if gap >= 1e-10:
                    if difference <= tolerance + margin:
                        allowed.add("consistent")
                    if difference >= tolerance - margin:
                        allowed.add("inconclusive")
        if doc_verdict.get("verdict") not in allowed:
            problems.append(f"verdict {doc_verdict.get('verdict')!r} not in {sorted(allowed)}")
        q_rows = reference.winding(graph)
        nonneg = all(x >= 0 for row in q_rows for x in row)
        signed_key = "rho_Q_signed" if flat else "rho_q_signed"
        if not close(doc_verdict.get(signed_key), self.signed_radius(req.graph)):
            problems.append(f"{signed_key} {doc_verdict.get(signed_key)}")
        if doc_verdict.get("signed_matrix") != (None if nonneg else q_rows):
            problems.append("signed_matrix differs from the winding matrix")
        if doc_verdict.get("strongly_connected") is not True or doc_verdict.get("component_count") != 1:
            problems.append("graph is strongly connected with one component")
        if flat:
            for name, want in (("rho_P", rp), ("rho_Q_abs", rq)):
                if not close(doc_verdict.get(name), want):
                    problems.append(f"{name} {doc_verdict.get(name)} != {want}")
        return problems

    def _analyze(self, req, doc, graph) -> list[str]:
        rates, estimate, _, _ = self._expected_rates(req)
        rp, rq = self.radii(req.graph)
        problems = []
        seq = doc.get("h_ell_sequence") or []
        if [row.get("k") for row in seq] != list(range(1, len(rates) + 1)):
            problems.append("h_ell_sequence lengths")
        else:
            for row, want in zip(seq, rates):
                if not close(row.get("rate"), want):
                    problems.append(f"rate at k={row['k']}: {row.get('rate')} != {want}")
        expected = {"h_ell_estimate": estimate, "ht_psi_lower": estimate,
                    "rho_P": rp, "rho_Q_abs": rq, "rho_Lambda": rp,
                    "h_b": _log(rq), "h_b_transpose": _log(rp), "ht_phi": _log(rp)}
        for name, want in expected.items():
            if not close(doc.get(name), want):
                problems.append(f"{name} {doc.get(name)} != {want}")
        return problems + self._verdict(req, doc.get("conjecture_verdict") or {}, flat=False)

    def _conjecture(self, req, doc, graph) -> list[str]:
        return self._verdict(req, doc, flat=True)

    def _loops(self, req, doc, graph) -> list[str]:
        k_max = _kmax(req.argv)
        ref = self.loops(req.graph, k_max)
        problems = []
        if doc.get("kmax") != k_max:
            problems.append(f"kmax {doc.get('kmax')}")
        if doc.get("has_negative_winding") != any(e["q"] < 0 for e in graph["edges"]):
            problems.append("has_negative_winding")
        rows = doc.get("rows") or []
        if [r.get("k") for r in rows] != list(range(1, k_max + 1)):
            return problems + ["rows do not cover k = 1 .. kmax"]
        for k, row in enumerate(rows, start=1):
            count = ref.loop_count(k)
            lower = abs(ref.trace_p[k - 1] - ref.trace_q_abs[k - 1])
            upper = ref.trace_p[k - 1] + ref.trace_q_abs[k - 1]
            want = {
                "loop_count": count,
                "periodic_point_count": count,
                "formula_count": ref.formula[k - 1],
                "sandwich": {"lower": lower, "upper": upper,
                             "ok": None if count is None else lower <= count <= upper},
            }
            for name, value in want.items():
                if row.get(name) != value:
                    problems.append(f"k={k} {name} {row.get(name)} != {value}")
            if count is not None and not lower <= count <= upper:
                problems.append(f"k={k} reference count escapes the trace sandwich")
            if not close(row.get("log_rate"), math.log(count) / k if count else None):
                problems.append(f"k={k} log_rate {row.get('log_rate')}")
            words = row.get("degenerate_words") or []
            if len(words) != ref.degenerate[k - 1]:
                problems.append(f"k={k}: {len(words)} degenerate words, want {ref.degenerate[k - 1]}")
            elif len({tuple(w) for w in words}) != len(words) or not all(
                    len(w) == k and reference.word_is_degenerate_loop(graph, w) for w in words):
                problems.append(f"k={k}: listed words are not distinct degenerate closed words")
        return problems

    def _csv(self, req, out: str) -> list[str]:
        k_max = _kmax(req.argv)
        ref = self.loops(req.graph, k_max)
        lines = out.splitlines()
        if not lines or lines[0].split(",")[:3] != ["k", "L_k", "a_k"]:
            return ["CSV header"]
        if len(lines) != k_max + 1:
            return [f"{len(lines) - 1} CSV rows, want {k_max}"]
        problems = []
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            count = ref.loop_count(k)
            if cells[0] != str(k) or cells[1] != ("" if count is None else str(count)):
                problems.append(f"CSV row {k}: {line!r}, want count {count}")
                continue
            rate = float(cells[2]) if cells[2] else None
            if not close(rate, math.log(count) / k if count else None):
                problems.append(f"CSV rate at k={k}: {cells[2]!r}")
        return problems

    # spectra -----------------------------------------------------------------

    def _spectra(self, req, doc, graph) -> list[str]:
        rp, rq = self.radii(req.graph)
        q_rows = reference.winding(graph)
        problems = []
        mats = {"P": (graph["vertices"], reference.covering(graph)),
                "Q": (graph["vertices"], q_rows),
                "Q_abs": (graph["vertices"], reference.winding_abs(graph)),
                "Lambda": (reference.symbol_labels(graph), reference.symbol_rows(graph))}
        for name, (labels, rows) in mats.items():
            got = doc.get(name) or {}
            if got.get("labels") != labels or got.get("rows") != rows:
                problems.append(f"matrix {name} differs")
        expected = {"rho_P": rp, "rho_Q_abs": rq, "rho_Lambda": rp,
                    "rho_Q_signed": self.signed_radius(req.graph)}
        for name, want in expected.items():
            if not close(doc.get(name), want):
                problems.append(f"{name} {doc.get(name)} != {want}")
        return problems

    # algebra -----------------------------------------------------------------

    def _verify_basis(self, req, doc, graph) -> list[str]:
        total_p = sum(e["p"] for e in graph["edges"])
        max_p = max(e["p"] for e in graph["edges"])
        want = {"passed": True, "orthogonality_checks": total_p ** 2,
                "reconstruction_checks": len(graph["edges"]) * (4 * max_p + 1), "failures": []}
        return [f"{k} {doc.get(k)!r} != {v!r}" for k, v in want.items() if doc.get(k) != v]

    def _rewrite(self, req, doc, graph, tge) -> list[str]:
        expr = req.argv[req.argv.index("-e") + 1]
        nf, terms = doc.get("normal_form"), doc.get("terms")
        if doc.get("input") != expr or not isinstance(nf, str) or not isinstance(terms, int):
            return ["rewrite report fields"]
        problems = []
        if req.expect.get("anchor"):
            frozen = self.frozen().get((req.graph, expr))
            if frozen is None:
                problems.append("anchor missing from the frozen data")
            elif (hashlib.sha256(nf.encode()).hexdigest(), terms) != (frozen["sha256"], frozen["terms"]):
                problems.append("normal form differs from the frozen value")
        g = tge.parse_graph_spec(graph)
        again = tge.normalize(tge.parse_expression(nf, g), g)
        if tge.render_sum(again) != nf:
            problems.append("normal form is not idempotent")
        if len(again.terms) != terms:
            problems.append(f"terms {terms} != {len(again.terms)}")
        return problems

    def check_lib(self, req, result) -> list[str]:
        if req.command == "lib.matrix_unit_check":
            graph = self.workload.graphs[req.graph]
            pairs, refined, products = reference.matrix_unit_counts(graph, req.expect["k"])
            got = (result.passed, result.unit_pairs, result.refined_units, result.products_checked)
            want = (True, pairs, refined, products)
            return [] if got == want else [f"matrix units {got} != {want}"]
        want = req.expect.get("mode") != "perturbed"
        return [] if result is want else [f"{req.command} returned {result!r}, want {want}"]
