"""Exact square integer matrices with arbitrary-precision entries.

Everything structural (products, powers, traces, determinants, Smith form)
is computed over Python ints, so no overflow is possible.  Only the
spectral radius is numeric: a shifted power iteration run per strongly
connected block of the support digraph, which keeps the iteration on
irreducible pieces where it converges geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpectralConvergenceError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable n x n integer matrix with optional row/column labels."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in size {n}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count must match dimension")

    @classmethod
    def from_rows(cls, rows, labels=None) -> "ExactMatrix":
        ents = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(ents, tuple(labels) if labels is not None else None)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def label_index(self, label: str) -> int:
        if self.labels is None:
            raise KeyError("matrix has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no label {label!r}") from None

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        cols = tuple(zip(*other.entries))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return ExactMatrix(rows, self.labels)

    def power(self, k: int) -> "ExactMatrix":
        if k < 0:
            raise ValueError("negative power")
        result = ExactMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return ExactMatrix(result.entries, self.labels)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def row_sum(self, i: int) -> int:
        return sum(self.entries[i])

    def col_sum(self, j: int) -> int:
        return sum(row[j] for row in self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries)), self.labels)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)

    def abs(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(abs(x) for x in row) for row in self.entries), self.labels)


def power_trace(m: ExactMatrix, k: int) -> int:
    """Exact trace of m^k."""
    return m.power(k).trace()


def row_sums(m: ExactMatrix, k: int, index) -> int:
    """Exact row sum of m^k at a row given by index or label."""
    i = m.label_index(index) if isinstance(index, str) else index
    return m.power(k).row_sum(i)


def determinant(m: ExactMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = m.n
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for r in range(t + 1, n):
                if a[r][t] != 0:
                    a[t], a[r] = a[r], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                # exact division: prev divides every 2x2 minor here
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithNormalForm:
    """diagonal = left @ m @ right with unimodular left/right transforms."""

    invariants: tuple[int, ...]
    left: ExactMatrix
    right: ExactMatrix
    diagonal: ExactMatrix


def smith_normal_form(m: ExactMatrix) -> SmithNormalForm:
    """Smith normal form over the integers with tracked transforms.

    Pivots are chosen as the smallest nonzero absolute entry of the
    remaining block, which keeps intermediate growth modest.  Invariant
    factors come out nonnegative with d_1 | d_2 | ... and, when m is
    nonsingular, their product equals |det m|.
    """
    n = m.n
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        arow, asrc = a[dst], a[src]
        for j in range(n):
            arow[j] += c * asrc[j]
        urow, usrc = u[dst], u[src]
        for j in range(n):
            urow[j] += c * usrc[j]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // p))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // p))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < n and a[t][t] < 0:
            negate_row(t)

    diag = ExactMatrix(tuple(tuple(a[i][j] for j in range(n)) for i in range(n)))
    return SmithNormalForm(
        invariants=tuple(a[i][i] for i in range(n)),
        left=ExactMatrix(tuple(tuple(row) for row in u)),
        right=ExactMatrix(tuple(tuple(row) for row in v)),
        diagonal=diag,
    )


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    iterations: int
    residual: float


def strong_components(m: ExactMatrix) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components of the matrix's nonzero pattern.

    Indices group by mutual reachability; components come out in reverse
    topological order of the condensation (iterative Tarjan).
    """
    n = m.n
    succ = [[j for j, x in enumerate(row) if x] for row in m.entries]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, edge_iter = work[-1]
            descended = False
            for w in edge_iter:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    descended = True
                    break
                if on_stack[w]:
                    low[node] = min(low[node], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comps.append(tuple(comp))
    return tuple(comps)


def _power_iteration_block(rows: list[list[float]], tol: float, max_iter: int) -> tuple[float, int, float]:
    """Shifted power iteration on an irreducible nonnegative block.

    Iterates x -> (B + I) x from the all-ones vector; B + I is primitive
    for irreducible B, so the iterate converges to the Perron vector
    geometrically.  Convergence is certified by the Collatz-Wielandt
    enclosure: for any positive x, min_i y_i/x_i <= rho(B + I) <=
    max_i y_i/x_i, so the loop only stops once that bracket is tighter
    than tol.  (The sup-norm growth factor alone can plateau for several
    steps far from the true root and must not be trusted as a residual.)
    """
    n = len(rows)
    x = [1.0] * n
    lo, hi = 1.0, math.inf
    for it in range(1, max_iter + 1):
        y = [xi + sum(r[j] * x[j] for j in range(n)) for xi, r in zip(x, rows)]
        # y_i >= x_i > 0 throughout, so the ratios are always defined
        ratios = [yi / xi for yi, xi in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0, it, hi - lo
        top = max(y)
        x = [yi / top for yi in y]
    raise SpectralConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        best_estimate=(lo + hi) / 2.0 - 1.0,
        iterations=max_iter,
        residual=hi - lo,
    )


def spectral_radius(m: ExactMatrix, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Perron root of a nonnegative integer matrix.

    The support digraph is split into strongly connected components; the
    shifted power iteration runs on each nontrivial component and the
    radius is the maximum over components.  (Running the iteration on the
    whole matrix stalls when two equal-radius blocks are chained: the
    dominant eigenvalue turns defective and convergence degrades to O(1/t),
    which can never meet a 1e-12 tolerance.)
    """
    if not m.is_nonnegative():
        raise ValueError("spectral_radius requires a nonnegative matrix")
    if m.n == 0:
        return SpectralResult(0.0, 0, 0.0)
    best = 0.0
    total_iters = 0
    worst_residual = 0.0
    for comp in strong_components(m):
        if len(comp) == 1:
            i = comp[0]
            if m.entries[i][i] == 0:
                continue  # trivial component, contributes 0
        rows = [[float(m.entries[i][j]) for j in comp] for i in comp]
        rho, iters, residual = _power_iteration_block(rows, tol, max_iter)
        best = max(best, rho)
        total_iters += iters
        worst_residual = max(worst_residual, residual)
    return SpectralResult(best, total_iters, worst_residual)
