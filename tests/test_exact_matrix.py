"""Exact integer matrix layer.

Claims covered here:

- construction validates squareness and label counts
- products, powers, traces and row/column sums are exact over Python ints
- the determinant matches cofactor expansion and hand-checked values
- Smith normal form yields a nonnegative divisibility chain, unimodular
  transforms, and a diagonal that factors as left @ m @ right
- the spectral radius matches known Perron roots, stays inside the
  row-sum bounds, rejects negative matrices and any tol outside (0, 1),
  and reports a tolerance finer than doubles resolve as nonconvergence
- Noda iteration resolves long cycles in a dozen steps, retries a failed
  solve with a larger shift before it gives up, and every radius
  it returns is bracketed exactly: in Fraction arithmetic,
  rho*(1 + 2 tol) I - B eliminates through positive pivots only (a
  nonsingular M-matrix, so the bound lies above the Perron root) and
  rho*(1 - 2 tol) I - B does not
- strongly connected components split the support digraph correctly
"""

import random
from fractions import Fraction

import pytest

from conftest import doubled_cycle_graph, heavy_loop_graph
from tge import exact_matrix
from tge.errors import SpectralConvergenceError
from tge.exact_matrix import (
    DEFAULT_TOL,
    ExactMatrix,
    determinant,
    power_trace,
    row_sums,
    smith_normal_form,
    spectral_radius,
    strong_components,
)
from tge.path_counting import covering_matrix


def _cofactor_det(rows):
    """Reference determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * _cofactor_det(minor)
    return total


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_rejects_label_count_mismatch():
    with pytest.raises(ValueError, match="label"):
        ExactMatrix.from_rows([[1, 0], [0, 1]], labels=["a"])


def test_indexing_labels_and_sums():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]], labels=["a", "b"])
    assert m.n == 2
    assert m[0, 1] == 2
    assert m.label_index("b") == 1
    with pytest.raises(KeyError):
        m.label_index("c")
    assert m.row_sum(0) == 3
    assert m.col_sum(0) == 4
    assert m.trace() == 5
    unlabeled = ExactMatrix.from_rows([[7]])
    with pytest.raises(KeyError):
        unlabeled.label_index("a")


def test_matmul_and_power():
    m = ExactMatrix.from_rows([[1, 1], [0, 1]])
    sq = m @ m
    assert sq.entries == ((1, 2), (0, 1))
    assert m.power(5).entries == ((1, 5), (0, 1))
    assert m.power(0).entries == ExactMatrix.identity(2).entries
    with pytest.raises(ValueError):
        m.power(-1)
    other = ExactMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        m @ other


def test_power_keeps_labels():
    m = ExactMatrix.from_rows([[2]], labels=["v"])
    assert m.power(3).labels == ("v",)
    assert (m @ m).labels == ("v",)


def test_power_trace_known_values():
    assert power_trace(ExactMatrix.from_rows([[3]]), 4) == 81
    ones = ExactMatrix.from_rows([[1] * 3] * 3)
    for k in range(1, 7):
        assert power_trace(ones, k) == 3**k


def test_row_sums_by_index_and_label():
    m = ExactMatrix.from_rows([[3]], labels=["v"])
    assert row_sums(m, 3, 0) == 27
    assert row_sums(m, 3, "v") == 27
    two = ExactMatrix.from_rows([[1, 1], [0, 2]], labels=["a", "b"])
    # (two^2) = [[1,3],[0,4]]
    assert row_sums(two, 2, "a") == 4
    assert row_sums(two, 2, "b") == 4


def test_transpose_abs_nonnegative():
    m = ExactMatrix.from_rows([[1, -2], [3, 0]], labels=["a", "b"])
    assert m.transpose().entries == ((1, 3), (-2, 0))
    assert m.transpose().labels == ("a", "b")
    assert not m.is_nonnegative()
    assert m.abs().entries == ((1, 2), (3, 0))
    assert m.abs().is_nonnegative()


def test_determinant_known_values():
    assert determinant(ExactMatrix.from_rows([[2, -3], [-3, 2]])) == -5
    assert determinant(ExactMatrix.identity(4)) == 1
    # zero pivot forces a row swap
    assert determinant(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    # rank-deficient
    assert determinant(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(ExactMatrix.from_rows([[0, 0], [0, 5]])) == 0


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        expected = _cofactor_det(rows)
        assert determinant(ExactMatrix.from_rows(rows)) == expected


def test_smith_form_known_values():
    assert smith_normal_form(ExactMatrix.from_rows([[2, 0], [0, 3]])).invariants == (1, 6)
    assert smith_normal_form(ExactMatrix.from_rows([[2, -3], [-3, 2]])).invariants == (1, 5)
    assert smith_normal_form(ExactMatrix.from_rows([[0]])).invariants == (0,)
    assert smith_normal_form(ExactMatrix.identity(3)).invariants == (1, 1, 1)
    assert smith_normal_form(ExactMatrix.from_rows([[4, 0], [0, 6]])).invariants == (2, 12)


def test_smith_form_properties():
    rng = random.Random(411)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = ExactMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        snf = smith_normal_form(m)
        # factorization and diagonal shape
        assert (snf.left @ m @ snf.right).entries == snf.diagonal.entries
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert snf.diagonal[i, j] == 0
            assert snf.diagonal[i, i] == snf.invariants[i]
        # nonnegative divisibility chain, zeros trailing
        for d in snf.invariants:
            assert d >= 0
        for a, b in zip(snf.invariants, snf.invariants[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
            if a == 0:
                assert b == 0
        # unimodular transforms, product of invariants = |det|
        assert abs(determinant(snf.left)) == 1
        assert abs(determinant(snf.right)) == 1
        prod = 1
        for d in snf.invariants:
            prod *= d
        assert prod == abs(determinant(m))


def test_spectral_radius_known_values():
    assert abs(spectral_radius(ExactMatrix.from_rows([[3]])).radius - 3.0) <= 1e-9
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert abs(spectral_radius(swap).radius - 1.0) <= 1e-9
    ones = ExactMatrix.from_rows([[1] * 3] * 3)
    assert abs(spectral_radius(ones).radius - 3.0) <= 1e-9
    # two equal-radius diagonal blocks chained: defective if handled whole
    jordan = ExactMatrix.from_rows([[2, 1], [0, 2]])
    assert abs(spectral_radius(jordan).radius - 2.0) <= 1e-9
    fib = ExactMatrix.from_rows([[1, 1], [1, 0]])
    golden = (1 + 5**0.5) / 2
    assert abs(spectral_radius(fib).radius - golden) <= 1e-9


def test_spectral_radius_zero_matrix():
    result = spectral_radius(ExactMatrix.from_rows([[0, 0], [0, 0]]))
    assert result.radius == 0.0
    assert result.iterations == 0


def test_spectral_radius_row_sum_bounds():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
        )
        rho = spectral_radius(m).radius
        lo = min(m.row_sum(i) for i in range(n))
        hi = max(m.row_sum(i) for i in range(n))
        assert lo - 1e-9 <= rho <= hi + 1e-9


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_radius(ExactMatrix.from_rows([[1, -1], [0, 1]]))


@pytest.mark.parametrize("tol", [5.0, 1.0, 0.0, -1.0, float("nan"), float("inf")])
def test_spectral_radius_rejects_tol_outside_unit_interval(tol):
    fib = ExactMatrix.from_rows([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="tol must lie strictly between 0 and 1"):
        spectral_radius(fib, tol=tol)


def test_spectral_radius_reports_nonconvergence():
    # rho = (1 + sqrt 37)/2 = 3.5413...: at a tolerance no double can meet,
    # the bracket stops narrowing a few steps in and the loop gives up
    m = ExactMatrix.from_rows([[1, 3], [3, 0]])
    with pytest.raises(SpectralConvergenceError) as exc:
        spectral_radius(m, tol=1e-300)
    err = exc.value
    assert 2 <= err.iterations <= 12
    assert err.residual > 0
    assert err.best_estimate == pytest.approx((1 + 37 ** 0.5) / 2, rel=1e-15)


CYCLE_LENGTHS = (15, 40, 150)


@pytest.mark.parametrize("n", CYCLE_LENGTHS)
def test_long_cycle_radius_in_few_steps(n):
    result = spectral_radius(covering_matrix(doubled_cycle_graph(n)))
    assert result.radius == pytest.approx(2 ** (1 / n), rel=1e-12, abs=0)
    assert result.iterations <= 12


def eliminates_through_positive_pivots(lam: Fraction, m: ExactMatrix) -> bool:
    """Whether lam*I - m has only positive pivots under elimination without
    pivoting, in exact arithmetic.  For irreducible m >= 0 that holds iff
    lam*I - m is a nonsingular M-matrix, iff lam > rho(m) (Berman and
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6)."""
    n = m.n
    a = [[(lam if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        pivot_row = [(j, a[k][j]) for j in range(k + 1, n) if a[k][j]]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                for j, v in pivot_row:
                    a[i][j] -= f * v
    return True


def strongly_connected_matrices(rng: random.Random, count: int):
    """Random nonnegative integer matrices, n <= 8, each strongly connected
    through a spanning cycle in a random vertex order."""
    for _ in range(count):
        n = rng.randint(1, 8)
        density = rng.choice((0.1, 0.4, 0.8))
        rows = [[rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        order = rng.sample(range(n), n)
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a][b] = rng.randint(1, 5)
        yield ExactMatrix.from_rows(rows)


# Perron vector entries span 1 down to 1e-40; the float hi sits on rho
# several steps before lo leaves 1
UNEVEN_8 = [
    [485260622, 0, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 281051946, 0], [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 0, 1], [0, 530028064, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 1, 1],
]


def test_spectral_radius_is_bracketed_exactly():
    rng = random.Random(1971)
    cases = list(strongly_connected_matrices(rng, 220))
    cases += [covering_matrix(doubled_cycle_graph(n)) for n in CYCLE_LENGTHS]
    # uneven Perron vectors: hi rounds onto rho while lo still lags
    cases.append(covering_matrix(heavy_loop_graph(20000)))
    cases += [ExactMatrix.from_rows([[round(10 ** (4 + i / 100)), 1], [1, 0]]) for i in range(201)]
    cases.append(ExactMatrix.from_rows(UNEVEN_8))
    assert len(cases) >= 200
    tol = Fraction(DEFAULT_TOL)
    for m in cases:
        assert len(strong_components(m)) == 1
        rho = Fraction(spectral_radius(m).radius)
        assert eliminates_through_positive_pivots(rho * (1 + 2 * tol), m), m
        assert not eliminates_through_positive_pivots(rho * (1 - 2 * tol), m), m


def test_failed_solve_retries_with_a_larger_shift(monkeypatch):
    solve = exact_matrix._shifted_solve
    refused = []  # (x, sigma) of each step's first solve

    def first_try_fails(rows, sigma, x):
        tried = [shift for seen, shift in refused if seen is x]
        if not tried:
            refused.append((x, sigma))
            return None
        assert sigma > tried[0]
        return solve(rows, sigma, x)

    monkeypatch.setattr(exact_matrix, "_shifted_solve", first_try_fails)
    fib = ExactMatrix.from_rows([[1, 1], [1, 0]])
    assert spectral_radius(fib).radius == pytest.approx((1 + 5 ** 0.5) / 2, rel=1e-12, abs=0)
    assert len(refused) >= 2


def test_solve_failing_at_every_shift_raises(monkeypatch):
    shifts = []
    monkeypatch.setattr(exact_matrix, "_shifted_solve", lambda rows, sigma, x: shifts.append(sigma))
    # from x = 1 the bracket is [1, 2]; shifts rise 16-fold to hi + width
    with pytest.raises(SpectralConvergenceError) as exc:
        spectral_radius(ExactMatrix.from_rows([[1, 1], [1, 0]]))
    assert (exc.value.iterations, exc.value.residual, exc.value.best_estimate) == (1, 1.0, 1.5)
    assert shifts == sorted(shifts) and shifts[0] > 2.0 and shifts[-1] == 3.0
    assert len(shifts) <= 16


def test_strong_components_structure():
    triangular = ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert strong_components(triangular) == ((1,), (0,))
    cycle = ExactMatrix.from_rows([[0, 1], [1, 0]])
    comps = strong_components(cycle)
    assert len(comps) == 1 and sorted(comps[0]) == [0, 1]
    diagonal = ExactMatrix.from_rows([[1, 0], [0, 1]])
    assert sorted(sorted(c) for c in strong_components(diagonal)) == [[0], [1]]
