"""Edge-circle module: generators, inner products, and block matrices.

Claims covered here:

- the standard family has one flagged generator per sheet symbol and is
  orthonormal under the transfer inner product
- module actions route through range maps (left) and source maps (right),
  with hand-checked images on the two-loop graph
- the closed form for a monomial acting on a generator matches the action
- the left action is adjointable and the inner product is right-linear
- flag mismatches raise instead of losing normalization factors
- inner, act_left, act_right and vector + equal the composition of public
  LaurentPoly operations (adjoint, *, transfer, substitute_power,
  with_vertex, scale, +) on random flagged, unflagged and mixed vectors
  over one- and two-vertex graphs, multi-edge included; inner has a
  polynomial at every vertex, every result is canonical, and mixed flags
  raise exactly where the composition raises
- verify_basis passes on every fixture graph, detects a dropped generator
  and sends only same-edge pairs through the per-edge kernel; a
  max_exponent that is not a non-negative int raises instead of passing
  with no reconstruction checks
- verify_basis returns the same report, failure strings included, as the
  pair-by-pair loop of inner, act_right and vector + written from the
  compositions above, on intact and broken generator families (a repeated
  sheet, a doubled coefficient); an unflagged sheet raises on both sides
- verify_basis, normalize and render_sum construct no Fraction: their
  coefficient arithmetic and sign tests run on the integer-backed scalar
- admissible symbol words count via symbol-adjacency powers
- Laurent matrices enforce localization, form a *-algebra, and the
  one-level embedding is an injective unital *-homomorphism on blocks
- the left-action matrix of the vertex coordinate matches frozen goldens
  and is unitary over a single vertex
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import FIXTURES, fixture_graphs, heavy_loop_graph, two_cycle_graph
from tge import CircleGraph
from tge.bimodule_engine import (
    BasisReport,
    BimoduleVector,
    LaurentMatrix,
    act_left,
    act_left_monomial,
    act_right,
    admissible_tuples,
    basis_vector,
    inner,
    left_action_block,
    left_action_matrix,
    monomial_vector,
    psi_embed,
    std_basis,
    tuple_source,
    verify_basis,
)
from tge.errors import NormalizationError
from tge.graph_core import Symbol
from tge.laurent_algebra import GaussianRational, LaurentPoly
from tge.monomial_rewriter import normalize, parse_expression, render_sum


def _rand_poly(rng, vertex):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-3, 3)] = GaussianRational.of(
            Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))
        )
    return LaurentPoly.from_dict(vertex, terms)


def _rand_vector(rng, g):
    parts = {}
    for e in g.edges:
        if rng.random() < 0.8:
            parts[e.name] = (True, _rand_poly(rng, e.name))
    return BimoduleVector.build(g, parts)


def test_standard_family_one_generator_per_symbol(two_loops):
    basis = std_basis(two_loops)
    assert len(basis) == sum(e.p for e in two_loops.edges) == 3
    with pytest.raises(ValueError, match="sheet index"):
        basis_vector(two_loops, Symbol("e1", 3))
    with pytest.raises(ValueError, match="sheet index"):
        basis_vector(two_loops, Symbol("e2", 0))


def test_orthonormality(two_loops):
    syms = two_loops.symbols()
    basis = std_basis(two_loops)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            fam = inner(x, y)
            expected = LaurentPoly.one("v") if i == j else LaurentPoly.zero("v")
            assert fam["v"] == expected
    assert [s for s in syms] == [Symbol("e1", 1), Symbol("e1", 2), Symbol("e2", 1)]


def test_left_action_known_images(two_loops):
    u = LaurentPoly.generator("v")
    x11 = basis_vector(two_loops, Symbol("e1", 1))
    x12 = basis_vector(two_loops, Symbol("e1", 2))
    x21 = basis_vector(two_loops, Symbol("e2", 1))
    # u . xi_{e1,1} = xi_{e1,2}
    assert act_left(u, x11) == x12
    # u . xi_{e1,2} wraps: xi_{e1,1} . u
    assert act_left(u, x12) == act_right(x11, u)
    # u . xi_{e2,1} = xi_{e2,1} . u^3
    assert act_left(u, x21) == act_right(x21, u * u * u)


def test_action_routes_through_endpoints():
    tc = two_cycle_graph()
    # edge f runs v -> w, so functions on w act on the left, on v on the right
    xf = basis_vector(tc, Symbol("f", 1))
    assert act_left(LaurentPoly.generator("v"), xf).is_zero()
    assert not act_left(LaurentPoly.generator("w"), xf).is_zero()
    assert act_right(xf, LaurentPoly.generator("w")).is_zero()
    assert not act_right(xf, LaurentPoly.generator("v")).is_zero()


def test_monomial_action_closed_form(two_loops):
    rng = random.Random(14)
    for _ in range(60):
        sym = rng.choice(two_loops.symbols())
        n = rng.randint(-4, 4)
        moved = act_left(LaurentPoly.monomial("v", n), basis_vector(two_loops, sym))
        new_sym, shift = act_left_monomial(two_loops, "v", n, sym)
        expected = act_right(
            basis_vector(two_loops, new_sym), LaurentPoly.monomial("v", shift)
        )
        assert moved == expected
    # action through a non-range vertex is zero
    tc = two_cycle_graph()
    assert act_left_monomial(tc, "v", 1, Symbol("f", 1)) is None


def test_left_action_adjointable_and_inner_right_linear():
    rng = random.Random(99)
    for g in (fixture_graphs()["two_loops"], two_cycle_graph()):
        for _ in range(25):
            x, y = _rand_vector(rng, g), _rand_vector(rng, g)
            v = rng.choice(g.vertices)
            f = _rand_poly(rng, v)
            assert inner(act_left(f, x), y) == inner(x, act_left(f.adjoint(), y))
            lin = inner(x, act_right(y, f))
            base = inner(x, y)
            for w in g.vertices:
                want = base[w] * f if w == v else LaurentPoly.zero(w)
                assert lin[w] == want


def test_flag_mismatch_raises(two_loops):
    flagged = monomial_vector(two_loops, "e1", 0, normalized=True)
    plain = monomial_vector(two_loops, "e1", 0, normalized=False)
    with pytest.raises(NormalizationError):
        flagged + plain
    with pytest.raises(NormalizationError):
        inner(flagged, plain)
    # distinct edges never conflict
    other = monomial_vector(two_loops, "e2", 0, normalized=False)
    assert not (flagged + other).is_zero()


def _inner_by_composition(x, y):
    """inner as transfer(adjoint(x_e) * y_e, p) summed per source vertex."""
    g = x.graph
    out = {v: LaurentPoly.zero(v) for v in g.vertices}
    ys = {e: (f, p) for e, f, p in y.components}
    for name, xflag, xpoly in x.components:
        if name not in ys:
            continue
        yflag, ypoly = ys[name]
        e = g.edge_named(name)
        term = (xpoly.adjoint() * ypoly).transfer(e.p).with_vertex(e.source)
        if xflag and yflag:
            term = term.scale(GaussianRational.ratio(1, e.p))
        elif xflag or yflag:
            raise NormalizationError(name)
        out[e.source] = out[e.source] + term
    return out


def _act_by_composition(x, f, left):
    """x_e * f(z^power) on the edge circle, power q(e) via r(e) or p(e) via s(e)."""
    parts = {}
    for name, flag, poly in x.components:
        e = x.graph.edge_named(name)
        vertex, power = (e.range, e.q) if left else (e.source, e.p)
        if vertex == f.vertex:
            parts[name] = (flag, poly * f.substitute_power(power).with_vertex(name))
    return BimoduleVector.build(x.graph, parts)


def _add_by_composition(x, y):
    parts = {e: (f, p) for e, f, p in x.components}
    for e, f, p in y.components:
        if e in parts:
            if parts[e][0] != f:
                raise NormalizationError(e)
            parts[e] = (f, parts[e][1] + p)
        else:
            parts[e] = (f, p)
    return BimoduleVector.build(x.graph, parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NormalizationError:
        return NormalizationError


def _canonical_poly(poly, vertex):
    exps = [n for n, _ in poly.terms]
    return (poly.vertex == vertex and all(c for _, c in poly.terms)
            and all(a < b for a, b in zip(exps, exps[1:])))


def _canonical_vector(x):
    names = [e for e, _, _ in x.components]
    return (names == sorted(set(names))
            and all(p.terms and _canonical_poly(p, e) for e, _, p in x.components))


def _flagged_vector(rng, g, mode):
    parts = {}
    for e in g.edges:
        if rng.random() < 0.75:
            flag = rng.random() < 0.5 if mode == "mixed" else mode == "flagged"
            parts[e.name] = (flag, _rand_poly(rng, e.name))
    return BimoduleVector.build(g, parts)


MULTI_EDGE = CircleGraph.build(["v", "w"], [
    ("a", "v", "w", 2, 1), ("b", "v", "w", 3, -2), ("c", "w", "v", 1, 1),
    ("d", "v", "v", 2, 3), ("e", "w", "w", 4, -1),
])


@pytest.mark.parametrize("g", [fixture_graphs()["two_loops"], two_cycle_graph(), MULTI_EDGE],
                         ids=["two_loops", "two_cycle", "multi_edge"])
def test_fused_kernels_equal_the_composition(g):
    rng = random.Random(23)
    raised = 0
    for _ in range(150):
        x = _flagged_vector(rng, g, rng.choice(["flagged", "unflagged", "mixed"]))
        y = _flagged_vector(rng, g, rng.choice(["flagged", "unflagged", "mixed"]))
        want = _outcome(_inner_by_composition, x, y)
        got = _outcome(inner, x, y)
        assert got == want
        if got is NormalizationError:
            raised += 1
        else:
            assert list(got) == list(g.vertices)
            assert all(_canonical_poly(p, v) for v, p in got.items())
        f = _rand_poly(rng, rng.choice(g.vertices))
        if rng.random() < 0.2:
            f = LaurentPoly.zero(f.vertex)
        for left in (True, False):
            moved = x.act_left(f) if left else x.act_right(f)
            assert moved == _act_by_composition(x, f, left)
            assert _canonical_vector(moved)
        total = _outcome(lambda a, b: a + b, x, y)
        assert total == _outcome(_add_by_composition, x, y)
        assert total is NormalizationError or _canonical_vector(total)
    assert 0 < raised < 150


def test_inner_additive(two_loops):
    x = basis_vector(two_loops, Symbol("e1", 1))
    doubled = x + x
    assert inner(doubled, x)["v"] == LaurentPoly.from_dict(
        "v", {0: GaussianRational.of(2)}
    )


def test_verify_basis_on_all_fixtures():
    for name, g in fixture_graphs().items():
        rep = verify_basis(g)
        assert rep.passed, (name, rep.failures)
        assert rep.orthogonality_checks == sum(e.p for e in g.edges) ** 2
        assert rep.reconstruction_checks == len(g.edges) * (4 * max(e.p for e in g.edges) + 1)
        assert not rep.failures


def test_verify_basis_pairs_only_same_edge_sheets(two_loops, monkeypatch):
    # every pair that reaches the per-edge kernel shares an edge: the
    # sum of p(e)^2 same-edge Gram entries, then each of the 2M+1 test
    # vectors z^m on an edge with that edge's own sheets, (2M+1) * S
    import tge.bimodule_engine as be

    calls = []
    real_pair = be._edge_pair

    def counting_pair(coeffs, name, *rest):
        calls.append(name)
        return real_pair(coeffs, name, *rest)

    monkeypatch.setattr(be, "_edge_pair", counting_pair)
    assert verify_basis(two_loops).passed
    ps = [e.p for e in two_loops.edges]
    m = 2 * max(ps)
    assert len(calls) == sum(p * p for p in ps) + (2 * m + 1) * sum(ps) == 5 + 27


def _verify_basis_by_composition(g, max_exponent=None):
    """verify_basis as one inner per Gram entry and, per (sheet, eta) pair,
    act_right of the coefficient added to a running vector, each written
    as its composition of LaurentPoly operations (see above)."""
    import tge.bimodule_engine as be

    g.require_valid()
    if max_exponent is None:
        max_exponent = 2 * max(e.p for e in g.edges)
    syms = g.symbols()
    basis = {s: be.basis_vector(g, s) for s in syms}
    failures = []
    for si in syms:
        for sj in syms:
            for v, poly in _inner_by_composition(basis[si], basis[sj]).items():
                on = si == sj and v == g.edge_named(si.edge).source
                want = LaurentPoly.one(v) if on else LaurentPoly.zero(v)
                if poly != want:
                    failures.append(
                        f"inner({si}, {sj}) at vertex {v!r}: got {poly}, want {want}"
                    )
    for e in g.edges:
        for m in range(-max_exponent, max_exponent + 1):
            eta = monomial_vector(g, e.name, m, normalized=True)
            total = BimoduleVector.zero(g)
            for k in range(1, e.p + 1):
                xi = basis[Symbol(e.name, k)]
                coeff = _inner_by_composition(xi, eta)[e.source]
                total = _add_by_composition(total, _act_by_composition(xi, coeff, False))
            if total != eta:
                failures.append(f"reconstruction failed for z^{m} on edge {e.name!r}")
    ortho = len(syms) ** 2
    recon = len(g.edges) * (2 * max_exponent + 1)
    return BasisReport(not failures, ortho, recon, tuple(failures))


def _repeated_sheet(real):
    return lambda g, s: real(g, Symbol(s.edge, 1) if s.k == 2 else s)


def _doubled_sheet(real):
    return lambda g, s: real(g, s).scale(2) if s.k == 1 else real(g, s)


def _unflagged_sheet(real):
    def family(g, s):
        if s == g.symbols()[0]:
            return monomial_vector(g, s.edge, s.k - 1, normalized=False)
        return real(g, s)
    return family


ORACLE_GRAPHS = {**fixture_graphs(), "two_cycle": two_cycle_graph(),
                 "heavy_loop_16": heavy_loop_graph(16), "multi_edge": MULTI_EDGE}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("broken", [None, _repeated_sheet, _doubled_sheet, _unflagged_sheet],
                         ids=["intact", "repeated", "doubled", "unflagged"])
def test_verify_basis_equals_the_composition(name, broken, monkeypatch):
    import tge.bimodule_engine as be

    g = ORACLE_GRAPHS[name]
    if broken is not None:
        monkeypatch.setattr(be, "basis_vector", broken(be.basis_vector))
    for bound in (None, 0, 3):
        want = _outcome(_verify_basis_by_composition, g, bound)
        assert _outcome(verify_basis, g, bound) == want
        if broken is _unflagged_sheet:
            assert want is NormalizationError
        elif broken is None:
            assert want.passed
        elif broken is _doubled_sheet or any(e.p > 1 for e in g.edges):
            assert want.failures


def test_verify_basis_rejects_a_bound_that_checks_nothing(two_loops):
    for bad in (-3, -1, 1.5, "2", True):
        with pytest.raises(ValueError, match="max_exponent"):
            verify_basis(two_loops, max_exponent=bad)
    rep = verify_basis(two_loops, max_exponent=0)
    assert rep.passed and rep.reconstruction_checks == len(two_loops.edges)


def fraction_count(fn, *args):
    """fn(*args) and the number of Fractions constructed while it ran."""
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *a, **kw):
        made.append(a)
        return real_new(cls, *a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting_new)
        result = fn(*args)
    return result, len(made)


def test_verify_basis_constructs_no_fraction():
    g = heavy_loop_graph(16)
    rep, made = fraction_count(verify_basis, g)
    assert rep.passed and rep.orthogonality_checks == 18 ** 2
    assert made == 0


def test_normalize_constructs_no_fraction(two_loops):
    x = parse_expression(
        "(S(e1,1) + S(e2,1) + u(v))*(S*(e1,2) + 1/2 + u(v)^-1)"
        "*(S(e1,2) + S*(e2,1) + 3)*(u(v)^2 + S*(e1,1) + -5/6)", two_loops)
    nf, made = fraction_count(normalize, x, two_loops)
    assert made == 0
    text, made = fraction_count(render_sum, nf)
    assert made == 0
    assert text.startswith("(-5/2*u(v)^0 - 25/12*u(v) + 3*u(v)^2")
    assert fraction_count(Fraction, 1, 3)[1] == 1  # the counter does count


def test_dropped_generator_breaks_reconstruction(two_loops):
    # rebuild z^1 on e1 from the family without xi_{e1,2}: the sum misses it
    eta = monomial_vector(two_loops, "e1", 1)
    kept = [Symbol("e1", 1), Symbol("e2", 1)]
    total = BimoduleVector.zero(two_loops)
    for sym in kept:
        xi = basis_vector(two_loops, sym)
        coeff = inner(xi, eta)[two_loops.edge_named(sym.edge).source]
        total = total + act_right(xi, coeff)
    assert total != eta
    assert total.is_zero()


def test_admissible_tuples_counts(two_loops):
    assert admissible_tuples(two_loops, 0) == ((),)
    assert len(admissible_tuples(two_loops, 1)) == 3
    assert len(admissible_tuples(two_loops, 2)) == 9
    tc = two_cycle_graph()
    assert len(admissible_tuples(tc, 2)) == 2
    assert tuple_source(tc, (Symbol("f", 1),)) == "v"
    assert tuple_source(tc, (Symbol("f", 1), Symbol("h", 1))) == "w"
    assert tuple_source(tc, ()) is None


def test_admissible_counts_match_adjacency_powers(two_loops):
    from tge.path_counting import symbol_matrix

    for g in (two_loops, two_cycle_graph()):
        m = symbol_matrix(g)
        for length in (1, 2, 3):
            total = sum(
                m.power(length - 1)[i, j]
                for i in range(m.n)
                for j in range(m.n)
            )
            assert len(admissible_tuples(g, length)) == total


def test_matrix_localization_enforced(two_loops):
    tc = two_cycle_graph()
    idx = admissible_tuples(tc, 1)
    f_row = (Symbol("f", 1),)
    h_row = (Symbol("h", 1),)
    # sources differ (v vs w): any nonzero entry must be rejected
    with pytest.raises(ValueError, match="localized"):
        LaurentMatrix.from_dict(
            tc, 1, {(f_row, h_row): LaurentPoly.one("v")}
        )
    # right source but wrong localization vertex
    with pytest.raises(ValueError, match="localized"):
        LaurentMatrix.from_dict(
            tc, 1, {(f_row, f_row): LaurentPoly.one("w")}
        )
    with pytest.raises(ValueError):
        LaurentMatrix.identity(tc, 0)


def test_left_action_matrix_matches_goldens(two_loops, single_23):
    for g, fname in (
        (two_loops, "golden_left_action_two_loops.json"),
        (single_23, "golden_left_action_single_23.json"),
    ):
        gold = json.loads((FIXTURES / fname).read_text())
        m = left_action_matrix(g, gold["vertex"])
        assert [[f"{s.edge}:{s.k}" for s in t] for t in m.index] == gold["index"]
        assert m.render() == gold["rows"]


def test_left_action_matrix_unitary_over_one_vertex(two_loops, single_23):
    for g in (two_loops, single_23):
        m = left_action_matrix(g, "v")
        ident = LaurentMatrix.identity(g, 1)
        assert (m @ m.adjoint()).entries == ident.entries
        assert (m.adjoint() @ m).entries == ident.entries


def test_left_action_matrix_partial_isometry_multi_vertex():
    tc = two_cycle_graph()
    m = left_action_matrix(tc, "v")
    prod = m @ m.adjoint()
    # projection onto the symbols whose edge ranges at v (only h: w -> v)
    h_row = (Symbol("h", 1),)
    assert prod.entry(h_row, h_row) == LaurentPoly.one("w")
    assert len(prod.entries) == 1


def _rand_matrix(rng, g, level):
    idx = admissible_tuples(g, level)
    ents = {}
    for _ in range(4):
        r = rng.choice(idx)
        c = rng.choice(idx)
        if tuple_source(g, r) != tuple_source(g, c):
            continue
        ents[(r, c)] = _rand_poly(rng, tuple_source(g, r))
    return LaurentMatrix.from_dict(g, level, ents)


def test_block_embedding_is_a_star_homomorphism(two_loops):
    rng = random.Random(7)
    ident = LaurentMatrix.identity(two_loops, 1)
    assert psi_embed(ident).entries == LaurentMatrix.identity(two_loops, 2).entries
    for _ in range(15):
        a = _rand_matrix(rng, two_loops, 1)
        b = _rand_matrix(rng, two_loops, 1)
        assert psi_embed(a @ b).entries == (psi_embed(a) @ psi_embed(b)).entries
        assert psi_embed(a + b).entries == (psi_embed(a) + psi_embed(b)).entries
        assert psi_embed(a.adjoint()).entries == psi_embed(a).adjoint().entries


def test_block_embedding_expands_scalars(two_loops):
    u = LaurentPoly.generator("v")
    assert (
        psi_embed(LaurentMatrix.scalar(two_loops, u)).entries
        == left_action_block(two_loops, u).entries
        == left_action_matrix(two_loops, "v").entries
    )
