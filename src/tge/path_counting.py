"""Growth counts for circle graphs: path totals, loop weights, torus systems.

Two weight matrices drive everything.  The covering matrix totals the
covering degrees p(e) between vertex pairs; the winding matrix totals the
(signed) winding numbers q(e).  Row sums of covering-matrix powers count
forward path lifts; column sums of powers of the entrywise-absolute
winding matrix count backward lifts.

A closed edge word contributes a finite family of periodic circle loops.
Its size is |prod p(e_i) - prod q(e_i)|, the absolute determinant of the
word's cyclic exponent system; when the two products are equal the system
is singular and the word carries a continuum of loops instead of a finite
count, which every summary here must surface rather than absorb.

Loop totals are counted by the transfer-matrix method (Stanley,
Enumerative Combinatorics I, 4.7), not by listing words.  The products
commute, so a word's weight depends only on its edge multiset: one length
at a time, the words of each start vertex are grouped into states
(current source, prod p, prod q) with a multiplicity.  A length has at
most n^2 * C(k+E-1, E-1) states for n vertices and E edges, so tables
grow polynomially in k where the E^k words grow exponentially.  The
states also count the degenerate words, so only loop_table lists them one
by one, and a report that must refuse them walks to the first one alone.
The word enumerators in graph_core stay as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import CapExceededError, DegenerateLoopError
from .exact_matrix import ExactMatrix, determinant
from .graph_core import (
    DEFAULT_WORD_CAP,
    CircleGraph,
    DiscreteWord,
    iter_word_products,
)


def covering_matrix(g: CircleGraph) -> ExactMatrix:
    """Entry (v, w) totals p(e) over edges from v to w."""
    return _vertex_matrix(g, lambda e: e.p)


def winding_matrix(g: CircleGraph) -> ExactMatrix:
    """Entry (v, w) totals the signed q(e) over edges from v to w."""
    return _vertex_matrix(g, lambda e: e.q)


def winding_matrix_abs(g: CircleGraph) -> ExactMatrix:
    """Entry (v, w) totals |q(e)| over edges from v to w."""
    return _vertex_matrix(g, lambda e: abs(e.q))


def edge_count_matrix(g: CircleGraph) -> ExactMatrix:
    """Plain edge-count adjacency between vertex pairs."""
    return _vertex_matrix(g, lambda e: 1)


def _vertex_matrix(g: CircleGraph, weight) -> ExactMatrix:
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for e in g.edges:
        rows[idx[e.source]][idx[e.range]] += weight(e)
    return ExactMatrix.from_rows(rows, labels=g.vertices)


def symbol_matrix(g: CircleGraph) -> ExactMatrix:
    """0/1 adjacency of sheet symbols: (e, k) may precede (f, l) iff s(e) = r(f)."""
    g.require_valid()
    syms = g.symbols()
    ranges = [g.edge_named(s.edge).range for s in syms]
    rows = [[int(r == g.edge_named(a.edge).source) for r in ranges] for a in syms]
    return ExactMatrix.from_rows(rows, labels=tuple(f"{s.edge}:{s.k}" for s in syms))


# Compact matrix names, matching the report vocabulary of the other modules.
mat_P = covering_matrix
mat_Q = winding_matrix
mat_Q_abs = winding_matrix_abs


def count_source_paths(g: CircleGraph, k: int, vertex: str) -> int:
    """Lifts through the source covers of length-k paths out of a vertex.

    Equals the vertex row sum of the k-th power of the covering matrix.
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    m = covering_matrix(g).power(k)
    return m.row_sum(m.label_index(vertex))


def count_range_paths(g: CircleGraph, k: int, vertex: str) -> int:
    """Lifts through the range windings of length-k paths into a vertex.

    Equals the vertex column sum of the k-th power of the absolute
    winding matrix.
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    m = winding_matrix_abs(g).power(k)
    return m.col_sum(m.label_index(vertex))


def cyclic_exponent_matrix(g: CircleGraph, word: DiscreteWord) -> ExactMatrix:
    """Exponent system of a closed word's loop equations.

    Row i says: p(e_i) copies of angle i minus q(e_{i+1}) copies of angle
    i+1 (cyclically) must vanish.  For a length-1 word both terms land in
    the single cell, giving p - q.
    """
    if not word.is_closed(g):
        raise ValueError("cyclic exponent matrix needs a closed word")
    k = len(word.edges)
    rows = [[0] * k for _ in range(k)]
    for i, name in enumerate(word.edges):
        e = g.edge_named(name)
        rows[i][i] += e.p
        rows[i][(i + 1) % k] -= g.edge_named(word.edges[(i + 1) % k]).q
    return ExactMatrix.from_rows(rows)


@dataclass(frozen=True)
class WordWeight:
    """Loop statistics of one closed word.

    loop_count is |prod p - prod q| with signed windings, or None when the
    products coincide (degenerate word: a continuum of loops).
    formula_count is the unsigned variant |prod p - prod |q||; the two
    agree unless some winding is negative.
    """

    word: tuple[str, ...]
    p_product: int
    q_product: int
    loop_count: int | None
    formula_count: int

    @property
    def degenerate(self) -> bool:
        return self.loop_count is None

    @property
    def discrepancy(self) -> bool:
        return self.loop_count is not None and self.loop_count != self.formula_count


def word_weight(g: CircleGraph, word: DiscreteWord) -> WordWeight:
    if not word.is_closed(g):
        raise ValueError("loop weights are defined for closed words only")
    pp = 1
    qq = 1
    aq = 1
    for name in word.edges:
        e = g.edge_named(name)
        pp *= e.p
        qq *= e.q
        aq *= abs(e.q)
    det = pp - qq
    return WordWeight(
        word=word.edges,
        p_product=pp,
        q_product=qq,
        loop_count=abs(det) if det else None,
        formula_count=abs(pp - aq),
    )


def loop_weight(g: CircleGraph, word: DiscreteWord) -> int | None:
    """|prod p - prod q| for a closed word, None when degenerate."""
    return word_weight(g, word).loop_count


@dataclass(frozen=True)
class LoopCountEntry:
    """Loop totals for one word length."""

    k: int
    loop_count: int | None
    formula_count: int
    degenerate_words: tuple[tuple[str, ...], ...]
    trace_p: int
    trace_q_abs: int

    @property
    def sandwich_lower(self) -> int:
        return abs(self.trace_p - self.trace_q_abs)

    @property
    def sandwich_upper(self) -> int:
        return self.trace_p + self.trace_q_abs

    @property
    def sandwich_ok(self) -> bool | None:
        if self.loop_count is None:
            return None
        return self.sandwich_lower <= self.loop_count <= self.sandwich_upper

    @property
    def log_rate(self) -> float | None:
        """log(L_k) / k; None when the count is degenerate or zero."""
        if not self.loop_count:
            return None
        return math.log(self.loop_count) / self.k


@dataclass(frozen=True)
class LoopCountTable:
    """Loop totals for k = 1 .. k_max.

    The per-length total is reported as loop_count; the identical number
    doubles as the periodic-point count of the induced circle dynamics, so
    serializations expose it under both names.
    """

    entries: tuple[LoopCountEntry, ...]
    has_negative_winding: bool

    def entry(self, k: int) -> LoopCountEntry:
        return self.entries[k - 1]

    def counts(self) -> list[int | None]:
        return [e.loop_count for e in self.entries]

    @property
    def any_degenerate(self) -> bool:
        return any(e.degenerate_words for e in self.entries)

    @property
    def any_discrepancy(self) -> bool:
        return any(
            e.loop_count is not None and e.loop_count != e.formula_count
            for e in self.entries
        )


class ClosedWordTables:
    """Transfer-matrix tables of the closed edge words of one graph.

    Layer m maps a (start, current) vertex pair to {(prod p, prod q):
    multiplicity} over the m-edge words e_1 ... e_m with r(e_1) = start and
    s(e_m) = current; layer 0 holds the empty word at every vertex.  Layer
    m+1 extends each word through the edges whose range is its current
    source, and the closed words of length k are the layer-k states whose
    current source is back at the start.  Layers are built on demand and
    kept: a degeneracy scan and the table that follows it read the same
    layers, and listing degenerate words reads the shorter ones.
    """

    def __init__(self, g: CircleGraph):
        g.require_valid()
        self.graph = g
        self.layers = [{(v, v): {(1, 1): 1} for v in g.vertices}]
        self._suffix_cache: dict = {}
        self._totals: dict = {}

    def layer(self, m: int) -> dict:
        while len(self.layers) <= m:
            nxt: dict = {}
            for (start, cur), states in self.layers[-1].items():
                for f in self.graph.edges_into(cur):
                    fp, fq = f.p, f.q
                    bucket = nxt.setdefault((start, f.source), {})
                    for (pp, qq), mult in states.items():
                        key = (pp * fp, qq * fq)
                        bucket[key] = bucket.get(key, 0) + mult
            self.layers.append(nxt)
        return self.layers[m]

    def totals(self, k: int) -> tuple[int, int, int]:
        """Closed words of length k: (degenerate count, sum |prod p - prod q|
        over the others, sum |prod p - |prod q||); computed once per length."""
        if k not in self._totals:
            layer = self.layer(k)
            degenerate = loops = formula = 0
            for v in self.graph.vertices:
                for (pp, qq), mult in layer.get((v, v), {}).items():
                    if pp == qq:
                        degenerate += mult
                    else:
                        loops += mult * abs(pp - qq)
                    formula += mult * abs(pp - abs(qq))
            self._totals[k] = (degenerate, loops, formula)
        return self._totals[k]

    def _suffixes(self, m: int, cur: str, end: str) -> set:
        """Ratios prod q / prod p of the m-edge walks from source cur to source end."""
        key = (m, cur, end)
        if key not in self._suffix_cache:
            states = self.layer(m).get((cur, end), {})
            self._suffix_cache[key] = {Fraction(qq, pp) for pp, qq in states}
        return self._suffix_cache[key]

    def degenerate_words(self, k: int) -> Iterator[tuple[tuple[str, ...], int]]:
        """Yield (word, prod p) for the degenerate closed words of length k.

        Words come in enumeration order: first edge in edge order, each
        later edge among those whose range is the current source, in edge
        order.  A prefix is extended only when some suffix brings
        prod p / prod q back to 1, so every branch walked ends in a
        degenerate word.
        """
        prefix: list[str] = []

        def walk(choices, start, pp, qq, m):
            for e in choices:
                end = e.range if start is None else start
                p2, q2 = pp * e.p, qq * e.q
                if Fraction(p2, q2) not in self._suffixes(m - 1, e.source, end):
                    continue
                prefix.append(e.name)
                if m == 1:
                    yield tuple(prefix), p2
                else:
                    yield from walk(self.graph.edges_into(e.source), end, p2, q2, m - 1)
                prefix.pop()

        return walk(self.graph.edges, None, 1, 1, k)

    def table(self, k_max: int) -> LoopCountTable:
        """Loop totals, every degenerate word and the trace bounds for k = 1 .. k_max."""
        if k_max < 1:
            raise ValueError("k_max must be positive")
        p_mat = covering_matrix(self.graph)
        qa_mat = winding_matrix_abs(self.graph)
        p_pow = p_mat
        qa_pow = qa_mat
        entries = []
        for k in range(1, k_max + 1):
            degenerate, total, formula = self.totals(k)
            bad = tuple(w for w, _ in self.degenerate_words(k)) if degenerate else ()
            entries.append(
                LoopCountEntry(
                    k=k,
                    loop_count=None if degenerate else total,
                    formula_count=formula,
                    degenerate_words=bad,
                    trace_p=p_pow.trace(),
                    trace_q_abs=qa_pow.trace(),
                )
            )
            if k < k_max:
                p_pow = p_pow @ p_mat
                qa_pow = qa_pow @ qa_mat
        return LoopCountTable(
            entries=tuple(entries),
            has_negative_winding=any(e.q < 0 for e in self.graph.edges),
        )


def loop_count(g: CircleGraph, k: int) -> int:
    """Total loops over all closed words of length k.

    Raises DegenerateLoopError when some word's loop family is a
    continuum, naming the first such word in word order: a finite count
    would be a lie.  The transfer-matrix count decides that, so no other
    word is walked.
    """
    if k < 1:
        raise ValueError("length must be positive")
    tables = ClosedWordTables(g)
    degenerate, total, _ = tables.totals(k)
    if degenerate:
        word, pp = next(tables.degenerate_words(k))
        raise DegenerateLoopError(
            word,
            f"closed word {'.'.join(word)} has equal degree and winding "
            f"products ({pp}); its loops form a continuum",
        )
    return total


# The loop total of length k is also the number of k-periodic points of the
# induced shift dynamics; report the one computed value under both names.
periodic_point_count = loop_count


def word_weights(g: CircleGraph, k: int, cap: int = DEFAULT_WORD_CAP) -> list[WordWeight]:
    """Per-word loop statistics for all closed words of length k."""
    return [
        word_weight(g, DiscreteWord(word))
        for word, _, _ in iter_word_products(g, k, closed=True, cap=cap)
    ]


def loop_table(g: CircleGraph, k_max: int, cap: int = DEFAULT_WORD_CAP) -> LoopCountTable:
    """Tabulate loop totals, degenerate words and trace bounds up to k_max.

    Degenerate words are listed rather than raised so the table can
    still report the lengths that remain meaningful; the affected lengths
    carry loop_count None.  cap bounds the degenerate words listed at one
    length: the first length with more raises CapExceededError, decided
    from the transfer-matrix counts before any word is walked.
    """
    tables = ClosedWordTables(g)
    for k in range(1, k_max + 1):
        if tables.totals(k)[0] > cap:
            raise CapExceededError(f"more than {cap} degenerate words of length {k}")
    return tables.table(k_max)


def torus_solutions_bruteforce(m: ExactMatrix, cap: int = 10**7) -> int:
    """Count solutions of M a = 0 over Z_N, N = |det M|, by exhaustion.

    Deliberately dumb: enumerates candidate tuples coordinate by
    coordinate and checks each congruence as soon as its last variable is
    set.  Exists as an independent check on determinant-based loop counts
    (the solution count of a nonsingular integer system over Z_N^n with
    N = |det| equals |det|).
    """
    n = m.n
    det = determinant(m)
    if det == 0:
        raise ValueError("singular system: solution set over the torus is infinite")
    big_n = abs(det)
    if big_n**n > cap:
        raise CapExceededError(
            f"{big_n}^{n} candidate tuples exceed the cap of {cap}"
        )
    rows = [[x % big_n for x in row] for row in m.entries]
    check_at: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            check_at[nz[-1]].append(i)
    partial = [0] * n
    count = 0

    def assign(j: int) -> None:
        nonlocal count
        for a in range(big_n):
            saved = []
            for i in range(n):
                if rows[i][j]:
                    saved.append((i, partial[i]))
                    partial[i] = (partial[i] + rows[i][j] * a) % big_n
            if all(partial[i] == 0 for i in check_at[j]):
                if j + 1 == n:
                    count += 1
                else:
                    assign(j + 1)
            for i, val in reversed(saved):
                partial[i] = val

    assign(0)
    return count
