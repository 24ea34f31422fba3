"""Edge-circle module: generators, inner products, and block matrices.

Claims covered here:

- the standard family has one flagged generator per sheet symbol and is
  orthonormal under the transfer inner product
- module actions route through range maps (left) and source maps (right),
  with hand-checked images on the two-loop graph
- the closed form for a monomial acting on a generator matches the action
- the left action is adjointable and the inner product is right-linear
- flag mismatches raise instead of losing normalization factors
- verify_basis passes on every fixture graph, detects a dropped generator
  and pairs each test vector only with its own edge's generators
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

from conftest import FIXTURES, fixture_graphs, two_cycle_graph
from tge.bimodule_engine import (
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
    # S^2 orthogonality pairs, then each of the 2M+1 test vectors z^m on
    # an edge pairs only with that edge's own sheets: (2M+1) * S in all
    import tge.bimodule_engine as be

    calls = []
    real_inner = be.inner

    def counting_inner(x, y):
        calls.append(1)
        return real_inner(x, y)

    monkeypatch.setattr(be, "inner", counting_inner)
    assert verify_basis(two_loops).passed
    s = len(two_loops.symbols())
    m = 2 * max(e.p for e in two_loops.edges)
    assert len(calls) == s * s + (2 * m + 1) * s == 36


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
