"""Independent reference values for checking tge's answers.

Nothing here imports tge.  Graphs are the plain dicts of the JSON graph
format ({"vertices": [...], "edges": [{"name", "source", "range", "p", "q"}]}).
Loop counts come from a transfer-matrix count over edge-product states
(and, on one-vertex graphs, from the multinomial closed form), traces from
exact integer matrix powers, and Perron roots from closed forms or from a
Collatz-Wielandt bracket of our own.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import product as cartesian


def vertex_matrix(graph: dict, weight) -> list[list[int]]:
    """Entry (s, r) totals weight(edge) over edges from s to r."""
    idx = {v: i for i, v in enumerate(graph["vertices"])}
    n = len(idx)
    rows = [[0] * n for _ in range(n)]
    for e in graph["edges"]:
        rows[idx[e["source"]]][idx[e["range"]]] += weight(e)
    return rows


def covering(graph: dict) -> list[list[int]]:
    return vertex_matrix(graph, lambda e: e["p"])


def winding(graph: dict) -> list[list[int]]:
    return vertex_matrix(graph, lambda e: e["q"])


def winding_abs(graph: dict) -> list[list[int]]:
    return vertex_matrix(graph, lambda e: abs(e["q"]))


def symbol_labels(graph: dict) -> list[str]:
    return [f"{e['name']}:{k}" for e in graph["edges"] for k in range(1, e["p"] + 1)]


def symbol_rows(graph: dict) -> list[list[int]]:
    """0/1 symbol adjacency: (e, k) -> (f, l) iff s(e) = r(f)."""
    ends = [(e["source"], e["range"]) for e in graph["edges"] for _ in range(e["p"])]
    return [[1 if s == r else 0 for _, r in ends] for s, _ in ends]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def traces(m: list[list[int]], k_max: int) -> list[int]:
    """tr(m^k) for k = 1 .. k_max, exactly."""
    out = []
    power = m
    for k in range(1, k_max + 1):
        out.append(sum(power[i][i] for i in range(len(m))))
        if k < k_max:
            power = _matmul(power, m)
    return out


def perron_root(m: list[list[int]], rel_tol: float = 1e-14) -> float:
    """Spectral radius of an irreducible nonnegative matrix.

    1x1 and 2x2 use closed forms.  Larger matrices iterate x -> (m + I) x
    and stop once the Collatz-Wielandt bracket min/max (y_i / x_i), which
    always encloses rho(m + I), is narrower than rel_tol.
    """
    n = len(m)
    if n == 1:
        return float(m[0][0])
    if n == 2:
        (a, b), (c, d) = m
        return (a + d) / 2 + math.sqrt(((a - d) / 2) ** 2 + b * c)
    x = [1.0] * n
    for _ in range(1_000_000):
        y = [x[i] + sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        ratios = [y[i] / x[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= rel_tol * hi:
            return (lo + hi) / 2 - 1
        top = max(y)
        x = [v / top for v in y]
    raise ArithmeticError("reference power iteration did not settle")


def radius(m: list[list[int]]) -> float:
    """Spectral radius of any nonnegative matrix: the largest over its irreducible blocks."""
    n = len(m)
    reach = [[bool(m[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):  # transitive closure
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    best, done = 0.0, set()
    for i in range(n):
        if i in done or not reach[i][i]:
            continue
        block = [j for j in range(n) if reach[i][j] and reach[j][i]]
        done.update(block)
        best = max(best, perron_root([[m[a][b] for b in block] for a in block]))
    return best


@dataclass(frozen=True)
class LoopReference:
    """Per-length loop statistics for k = 1 .. k_max (index k - 1)."""

    loops: tuple[int, ...]          # sum of |prod p - prod q| over non-degenerate closed words
    formula: tuple[int, ...]        # sum of |prod p - prod |q|| over all closed words
    degenerate: tuple[int, ...]     # number of closed words with prod p == prod q
    trace_p: tuple[int, ...]
    trace_q_abs: tuple[int, ...]

    def loop_count(self, k: int) -> int | None:
        return None if self.degenerate[k - 1] else self.loops[k - 1]


def _with_traces(graph: dict, k_max: int, loops, formula, degenerate) -> LoopReference:
    return LoopReference(
        tuple(loops), tuple(formula), tuple(degenerate),
        tuple(traces(covering(graph), k_max)),
        tuple(traces(winding_abs(graph), k_max)),
    )


def loop_reference(graph: dict, k_max: int) -> LoopReference:
    """Transfer-matrix count of closed words by their (prod p, prod q, prod |q|).

    A word e_1 ... e_k needs s(e_i) = r(e_{i+1}) and is closed when
    s(e_k) = r(e_1).  Its weight depends only on the three products, so
    states (first range, current source, products) carry multiplicities.
    """
    states: dict[tuple, int] = defaultdict(int)
    for e in graph["edges"]:
        states[(e["range"], e["source"], e["p"], e["q"], abs(e["q"]))] += 1
    by_range = defaultdict(list)
    for e in graph["edges"]:
        by_range[e["range"]].append(e)
    loops, formula, degenerate = [], [], []
    for k in range(1, k_max + 1):
        total = form = bad = 0
        for (start, cur, pp, qq, aq), mult in states.items():
            if cur != start:
                continue
            form += mult * abs(pp - aq)
            if pp == qq:
                bad += mult
            else:
                total += mult * abs(pp - qq)
        loops.append(total)
        formula.append(form)
        degenerate.append(bad)
        if k == k_max:
            break
        nxt: dict[tuple, int] = defaultdict(int)
        for (start, cur, pp, qq, aq), mult in states.items():
            for e in by_range[cur]:
                nxt[(start, e["source"], pp * e["p"], qq * e["q"], aq * abs(e["q"]))] += mult
        states = nxt
    return _with_traces(graph, k_max, loops, formula, degenerate)


def _compositions(k: int, parts: int):
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


def multinomial_reference(graph: dict, k_max: int) -> LoopReference:
    """One-vertex graphs: L_k = sum over m with |m| = k of k!/prod m_i! |prod p^m - prod q^m|."""
    if len(graph["vertices"]) != 1:
        raise ValueError("the multinomial closed form needs a one-vertex graph")
    ps = [e["p"] for e in graph["edges"]]
    qs = [e["q"] for e in graph["edges"]]
    loops, formula, degenerate = [], [], []
    for k in range(1, k_max + 1):
        total = form = bad = 0
        for m in _compositions(k, len(ps)):
            mult = math.factorial(k)
            pp = qq = aq = 1
            for mi, p, q in zip(m, ps, qs):
                mult //= math.factorial(mi)
                pp *= p ** mi
                qq *= q ** mi
                aq *= abs(q) ** mi
            form += mult * abs(pp - aq)
            if pp == qq:
                bad += mult
            else:
                total += mult * abs(pp - qq)
        loops.append(total)
        formula.append(form)
        degenerate.append(bad)
    return _with_traces(graph, k_max, loops, formula, degenerate)


def word_is_degenerate_loop(graph: dict, word) -> bool:
    """True when the edge word is a valid closed word with prod p == prod q."""
    edges = {e["name"]: e for e in graph["edges"]}
    if not word or any(name not in edges for name in word):
        return False
    es = [edges[name] for name in word]
    if any(a["source"] != b["range"] for a, b in zip(es, es[1:])):
        return False
    if es[-1]["source"] != es[0]["range"]:
        return False
    return math.prod(e["p"] for e in es) == math.prod(e["q"] for e in es)


def symbol_words(graph: dict, length: int) -> list[tuple[tuple[str, int], ...]]:
    """Admissible symbol words: consecutive (e, k)(f, l) need s(e) = r(f)."""
    syms = [(e["name"], k) for e in graph["edges"] for k in range(1, e["p"] + 1)]
    edges = {e["name"]: e for e in graph["edges"]}
    words = []
    for w in cartesian(syms, repeat=length):
        if all(edges[a[0]]["source"] == edges[b[0]]["range"] for a, b in zip(w, w[1:])):
            words.append(w)
    return words


def matrix_unit_counts(graph: dict, k: int) -> tuple[int, int, int]:
    """(unit pairs, refined units, products) of the matrix-unit check at length k."""
    edges = {e["name"]: e for e in graph["edges"]}
    by_source: dict[str, int] = defaultdict(int)
    for w in symbol_words(graph, k):
        by_source[edges[w[-1][0]]["source"]] += 1
    into: dict[str, int] = defaultdict(int)
    for e in graph["edges"]:
        into[e["range"]] += e["p"]
    pairs = sum(c * c for c in by_source.values())
    refined = sum(c * c * into[v] for v, c in by_source.items())
    return pairs, refined, refined * refined
