"""Independent oracles: second ways of computing what the reports compute.

Closed words one at a time with their loop weights, a brute-force torus
count, and radii iterated on the dense symbol matrix and the transposed
graph: tests hold each against the report path.  No package module but
__init__ imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

from .entropy_report import _log, block_entropy
from .errors import CapExceededError
from .exact_matrix import DEFAULT_TOL, ExactMatrix, determinant, spectral_radius
from .graph_core import CircleGraph, walk_words
from .path_counting import DEFAULT_WORD_CAP, symbol_matrix


@dataclass(frozen=True)
class DiscreteWord:
    """A finite word of edge names, leftmost edge outermost."""

    edges: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def check_valid(self, g: CircleGraph) -> None:
        if not self.edges:
            raise ValueError("empty word")
        es = [g.edge_named(n) for n in self.edges]
        for a, b in zip(es, es[1:]):
            if a.source != b.range:
                raise ValueError(f"word breaks at {a.name!r}{b.name!r}: "
                                 f"s({a.name})={a.source!r} != r({b.name})={b.range!r}")

    def is_closed(self, g: CircleGraph) -> bool:
        self.check_valid(g)
        return self.source(g) == self.range(g)

    def source(self, g: CircleGraph) -> str:
        return g.edge_named(self.edges[-1]).source

    def range(self, g: CircleGraph) -> str:
        return g.edge_named(self.edges[0]).range


def enumerate_words(g: CircleGraph, k: int, closed: bool = False,
                    cap: int = DEFAULT_WORD_CAP) -> list[DiscreteWord]:
    """All length-k words, lexicographic in the input edge order.

    With closed=True only words whose source equals their range are kept.
    Raises CapExceededError once more than cap words have been produced.
    """
    return [DiscreteWord(w) for w, _, _ in iter_word_products(g, k, closed, cap)]


def iter_word_products(g: CircleGraph, k: int, closed: bool = True,
                       cap: int = DEFAULT_WORD_CAP) -> Iterator[tuple[tuple[str, ...], int, int]]:
    """Yield (word, product of p, signed product of q) without storing all words."""
    g.require_valid()
    if k < 1:
        raise ValueError(f"word length must be >= 1, got {k}")
    count = 0
    for word in walk_words(g.edges, lambda e: g.edges_into(e.source), k):
        if closed and word[-1].source != word[0].range:
            continue
        count += 1
        if count > cap:
            raise CapExceededError(f"more than {cap} words of length {k}")
        yield tuple(e.name for e in word), prod(e.p for e in word), prod(e.q for e in word)


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
        rows[i][i] += g.edge_named(name).p
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
    es = [g.edge_named(name) for name in word.edges]
    pp, qq = prod(e.p for e in es), prod(e.q for e in es)
    return WordWeight(word.edges, pp, qq, abs(pp - qq) if pp != qq else None,
                      abs(pp - prod(abs(e.q) for e in es)))


def loop_weight(g: CircleGraph, word: DiscreteWord) -> int | None:
    """|prod p - prod q| for a closed word, None when degenerate."""
    return word_weight(g, word).loop_count


def word_weights(g: CircleGraph, k: int, cap: int = DEFAULT_WORD_CAP) -> list[WordWeight]:
    """Per-word loop statistics for all closed words of length k."""
    return [word_weight(g, DiscreteWord(w)) for w, _, _ in iter_word_products(g, k, True, cap)]


def torus_solutions_bruteforce(m: ExactMatrix, cap: int = 10**7) -> int:
    """Count solutions of M a = 0 over Z_N, N = |det M|, by exhaustion.

    Deliberately dumb: tries candidate tuples coordinate by coordinate and
    checks each congruence once its last variable is set.  A nonsingular
    system has exactly |det| solutions, so this checks determinant-based
    loop counts independently.
    """
    n = m.n
    det = determinant(m)
    if det == 0:
        raise ValueError("singular system: solution set over the torus is infinite")
    big_n = abs(det)
    if big_n**n > cap:
        raise CapExceededError(f"{big_n}^{n} candidate tuples exceed the cap of {cap}")
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


def block_entropy_transpose(g: CircleGraph, tol: float = DEFAULT_TOL) -> float:
    """Block entropy computed on the transposed graph; an oracle for log rho(P)."""
    return block_entropy(g.transpose(), tol=tol)


def ht_phi(g: CircleGraph, tol: float = DEFAULT_TOL) -> float:
    """log rho(Lambda) iterated on the dense symbol matrix; an oracle for log rho(P)."""
    return _log(spectral_radius(symbol_matrix(g), tol=tol).radius)
