"""Exact square integer matrices with arbitrary-precision entries.

Everything structural (products, powers, traces, determinants, Smith form)
is computed over Python ints, so no overflow is possible.  Only the
spectral radius is numeric: Noda inverse iteration run per strongly
connected block of the support digraph.  On those irreducible pieces each
step solves one shifted M-matrix system and the Collatz-Wielandt bracket
shrinks quadratically, so the loop needs no iteration limit: it stops on
tolerance, or raises once rounding keeps the bracket from shrinking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import SpectralConvergenceError

DEFAULT_TOL = 1e-12
_EPS = 2.0 ** -52  # spacing of doubles at 1


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


def _shifted_solve(rows: list[list[float]], sigma: float, x: list[float]) -> list[float] | None:
    """z with (sigma I - B) z = x, by dense elimination without pivoting.

    Returns None at the first pivot that is not positive, or when some z_i
    is not positive and finite: either means sigma is not safely above
    rho(B) in doubles.  Rows whose entry in the pivot column is zero are
    skipped, so a sparse block such as a long cycle eliminates in O(n^2)
    rather than O(n^3).
    """
    n = len(rows)
    a = [[sigma - v if i == j else -v for j, v in enumerate(r)] for i, r in enumerate(rows)]
    b = list(x)
    for k in range(n):
        pivot = a[k][k]
        if not pivot > 0.0:
            return None
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            if row[k]:
                f = row[k] / pivot
                row[k + 1:] = [u - f * v for u, v in zip(row[k + 1:], tail)]
                b[i] -= f * b[k]
    z = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        z[k] = (b[k] - sum(row[j] * z[j] for j in range(k + 1, n))) / row[k]
    return z if all(0.0 < zi < math.inf for zi in z) else None


def _noda_block(rows: list[list[float]], tol: float) -> tuple[float, int, float]:
    """Noda inverse iteration on an irreducible nonnegative block.

    Each step starts from a positive x (all ones at first), forms y = B x
    and the Collatz-Wielandt enclosure lo = min y_i/x_i <= rho(B) <=
    max y_i/x_i = hi, and stops once that bracket is tighter than tol,
    returning its midpoint.  Otherwise it solves (sigma I - B) z = x with
    sigma just above hi and takes z, normalised, as the next x.  For
    sigma > rho, sigma I - B is a nonsingular M-matrix whose inverse is
    positive for irreducible B, so elimination without pivoting meets only
    positive pivots and z > 0; hi falls strictly and, with sigma = hi,
    converges to rho quadratically (T. Noda, Numer. Math. 17, 1971;
    L. Elsner, Linear Algebra Appl. 15, 1976).

    Rounding shifts those guarantees.  The float hi can sit a few ulps
    below the exact max of Bx/x, and so below rho, while lo still lags
    far behind (for [[20000, 1], [1, 0]], hi is within 1e-13 of rho while
    lo is 5e-5 short).  So sigma exceeds hi by hi * (n + 2) * 2**-52, past
    the rounding of y, and whenever the solve still fails, by 16 times
    more, up to the bracket's width.  Likewise hi may stop falling while
    lo still climbs.  There is no step limit: a step that lowers the least
    hi seen or raises the greatest lo counts as progress, and a step that
    does neither, or a solve that fails even a bracket's width above hi,
    means tol is finer than doubles resolve: the loop raises
    SpectralConvergenceError with the narrowest bracket.
    """
    n = len(rows)
    x = [1.0] * n
    least_hi, greatest_lo = math.inf, -math.inf
    best = (math.inf, 0.0, math.inf)  # narrowest bracket seen: (width, lo, hi)
    for it in itertools.count(1):
        # every row of an irreducible block has a positive entry, so y > 0
        y = [sum(v * xj for v, xj in zip(r, x)) for r in rows]
        ratios = [yi / xi for yi, xi in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        width = hi - lo
        if width <= tol * max(1.0, hi):
            return (lo + hi) / 2.0, it, width
        z = None
        if hi < least_hi or lo > greatest_lo:
            least_hi, greatest_lo = min(least_hi, hi), max(greatest_lo, lo)
            best = min(best, (width, lo, hi))
            gap = (n + 2) * _EPS * hi
            while (z := _shifted_solve(rows, hi + gap, x)) is None and gap < width:
                gap = min(16.0 * gap, width)
        if z is None:
            width, lo, hi = best
            raise SpectralConvergenceError(
                f"radius bracket [{lo!r}, {hi!r}] stopped narrowing after {it} steps, "
                f"short of tol={tol}: doubles cannot resolve it",
                best_estimate=(lo + hi) / 2.0,
                iterations=it,
                residual=width,
            )
        top = max(z)
        x = [zi / top for zi in z]


def spectral_radius(m: ExactMatrix, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Perron root of a nonnegative integer matrix, to relative tolerance tol.

    The support digraph is split into strongly connected components; Noda
    iteration runs on each nontrivial component and the radius is the
    maximum over components.  Per component, the radius is the midpoint
    of a Collatz-Wielandt bracket no wider than tol * max(1, hi);
    iterations counts the steps over all components and residual is the
    widest final bracket.  (On a reducible matrix the shifted inverse is
    only nonnegative, so z could vanish somewhere and leave the bracket
    undefined; irreducible pieces keep z positive.)  tol must lie strictly
    between 0 and 1; SpectralConvergenceError means it is finer than
    double precision resolves for this matrix.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
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
        rho, iters, residual = _noda_block(rows, tol)
        best = max(best, rho)
        total_iters += iters
        worst_residual = max(worst_residual, residual)
    return SpectralResult(best, total_iters, worst_residual)
