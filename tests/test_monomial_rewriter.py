"""Normal forms for shift-generator words and the induced maps.

Claims covered here:

- parsing reports syntax and binding errors with character offsets
- hand-checked rewrites: generator relations collapse, vertex functions
  slide through generators picking up the wrap shift, differences of
  equal normal forms vanish
- normalization is idempotent and compatible with the adjoint
- the one-step forward map is a unital *-endomorphism with hand-checked
  images, and it refines cylinder projections into one-step-longer ones
- the balanced second shift matches its frozen image on the vertex
  coordinate, is unital, multiplicative, *-compatible, rejects unbalanced
  input, and agrees with the block embedding on every one-step element
- word-pair compression is multiplicative and sized by the word count
- the matrix-unit check passes on the fixture graphs with the expected
  unit counts and rejects out-of-range lengths
- rendering produces parseable round-trip output
"""

import random

import pytest

from conftest import random_sum as _random_sum, two_cycle_graph
from tge.bimodule_engine import LaurentMatrix, psi_embed
from tge.errors import ExpressionSyntaxError
from tge.graph_core import CircleGraph, Symbol
from tge.laurent_algebra import LaurentPoly
from tge.monomial_rewriter import (
    MonomialSum,
    chi_m,
    matrix_to_sum,
    matrix_unit_check,
    normal_equal,
    normalize,
    parse_expression,
    phi,
    psi_core,
    render_sum,
)


def _norm_str(g, text):
    return render_sum(normalize(parse_expression(text, g), g))


@pytest.mark.parametrize(
    "text,fragment,offset",
    [
        ("S(e,9)", "sheet index 9 out of range", 5),
        ("S(x,1)", "unknown edge", 3),
        ("u(z)", "unknown vertex", 3),
        ("1/0", "zero denominator", 3),
        ("S(e,1) extra", "trailing input", 7),
        ("", "expected a factor", 0),
        ("S(e,1) + ", "expected a factor", 9),
    ],
)
def test_parse_errors_carry_offsets(single_23, text, fragment, offset):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(text, single_23)
    assert fragment in str(exc.value)
    assert exc.value.position == offset


def test_rewrite_known_images(two_loops):
    assert _norm_str(two_loops, "S*(e1,1)*S(e1,1)") == "u(v)^0"
    assert _norm_str(two_loops, "u(v)*S(e1,1)") == "S(e1,2)"
    assert _norm_str(two_loops, "u(v)*S(e1,2)") == "S(e1,1)*u(v)"
    # the mirrored rule S*(x) f = (f* S(x))*
    assert _norm_str(two_loops, "S*(e1,1)*u(v)") == "u(v)*S*(e1,2)"
    assert _norm_str(two_loops, "S*(e1,2)*u(v)") == "S*(e1,1)"
    assert _norm_str(two_loops, "S*(e2,1)*u(v)") == "u(v)^3*S*(e2,1)"
    assert _norm_str(two_loops, "S*(e1,1)*u*(v)") == "S*(e1,2)"
    assert _norm_str(two_loops, "S*(e2,1)*u(v)^-1") == "u(v)^-3*S*(e2,1)"
    assert _norm_str(two_loops, "1/2 + 1/2") == "u(v)^0"
    diff = "S(e1,1)*S*(e1,2)*S(e1,2)*S*(e1,1) - S(e1,1)*S*(e1,1)"
    assert _norm_str(two_loops, diff) == "0"


def test_full_cylinder_family_collapses(single_23):
    # both sheets of the single edge assemble back into the unit
    total = "S(e,1)*S*(e,1) + S(e,2)*S*(e,2)"
    assert _norm_str(single_23, total) == "u(v)^0"


def test_normal_equal(two_loops):
    x = parse_expression("S(e1,1)*S*(e1,2)*S(e1,2)*S*(e1,1)", two_loops)
    y = parse_expression("S(e1,1)*S*(e1,1)", two_loops)
    assert normal_equal(x, y, two_loops)
    z = parse_expression("S(e1,2)*S*(e1,2)", two_loops)
    assert not normal_equal(x, z, two_loops)


def test_normal_equal_across_depths(single_23):
    """Equality holds across word depths, not just between identical shapes.

    Pushing a function through the full sheet family writes it one level
    deeper with twisted sheets and shifted middles; the equality test must
    identify that rewriting with the original function, and must still
    separate genuinely different elements (such as the refinement sum with
    the middle left in place, which is the one-step shift of the function).
    """
    tw = parse_expression(
        "S(e,2)*u(v)^-2*S*(e,1) + S(e,1)*u(v)^-1*S*(e,2)", single_23
    )
    um1 = parse_expression("u(v)^-1", single_23)
    assert normal_equal(tw, um1, single_23)
    assert not normal_equal(tw, parse_expression("u(v)", single_23), single_23)

    u = parse_expression("u(v)", single_23)
    assert not normal_equal(phi(u, single_23), u, single_23)

    one_deep = parse_expression("S(e,1)*S*(e,1) + S(e,2)*S*(e,2)", single_23)
    rng = random.Random(4242)
    for _ in range(25):
        x = _random_sum(rng, single_23, 4)
        assert normal_equal(x, x * one_deep, single_23)
        assert normal_equal(x, one_deep * x, single_23)
        bump = _random_sum(rng, single_23, 1)
        if not normalize(bump, single_23).is_zero_form():
            assert not normal_equal(x, x + bump, single_23)


def test_normalize_idempotent_and_star_compatible(two_loops):
    rng = random.Random(2718)
    for g in (two_loops, two_cycle_graph()):
        for _ in range(40):
            x = _random_sum(rng, g, rng.randint(1, 6))
            nx = normalize(x, g)
            assert normalize(nx, g) == nx
            assert normalize(x.adjoint(), g) == normalize(nx.adjoint(), g)


def test_forward_map_unital_and_star(two_loops, single_23):
    for g in (two_loops, single_23, two_cycle_graph()):
        assert normal_equal(phi(MonomialSum.unit(g), g), MonomialSum.unit(g), g)
    u = parse_expression("u(v)", single_23)
    want = parse_expression("S(e,1)*u(v)*S*(e,1) + S(e,2)*u(v)*S*(e,2)", single_23)
    assert normal_equal(phi(u, single_23), want, single_23)
    rng = random.Random(3)
    for _ in range(10):
        x = _random_sum(rng, two_loops, 3)
        assert normal_equal(phi(x.adjoint(), two_loops), phi(x, two_loops).adjoint(), two_loops)
        y = _random_sum(rng, two_loops, 3)
        assert normal_equal(
            phi(normalize(x + y, two_loops), two_loops),
            normalize(phi(x, two_loops) + phi(y, two_loops), two_loops),
            two_loops,
        )


def test_forward_map_refines_cylinders(two_loops):
    # the image of a one-word cylinder is the sum of its one-step refinements
    alpha = Symbol("e1", 1)
    x = MonomialSum.generator(alpha) * MonomialSum.generator_adjoint(alpha)
    pieces = MonomialSum.zero()
    for i in two_loops.symbols():
        front = MonomialSum.generator(i)
        piece = front * x * front.adjoint()
        pieces = pieces + piece
    assert normal_equal(phi(x, two_loops), pieces, two_loops)


def test_balanced_shift_known_image(two_loops):
    u = parse_expression("u(v)", two_loops)
    want = parse_expression(
        "S(e1,2)*S*(e1,1) + S(e1,1)*u(v)*S*(e1,2) + S(e2,1)*u(v)^3*S*(e2,1)",
        two_loops,
    )
    assert normal_equal(psi_core(u, two_loops), want, two_loops)
    assert normal_equal(
        psi_core(MonomialSum.unit(two_loops), two_loops),
        MonomialSum.unit(two_loops),
        two_loops,
    )


def test_balanced_shift_multiplicative_and_star(two_loops):
    a = parse_expression("S(e1,1)*S*(e1,1)", two_loops)
    b = parse_expression("S(e1,1)*S*(e2,1)", two_loops)
    ab = normalize(a * b, two_loops)
    assert normal_equal(
        psi_core(ab, two_loops),
        normalize(psi_core(a, two_loops) * psi_core(b, two_loops), two_loops),
        two_loops,
    )
    assert normal_equal(
        psi_core(a.adjoint(), two_loops), psi_core(a, two_loops).adjoint(), two_loops
    )


def test_balanced_shift_rejects_unbalanced(two_loops):
    with pytest.raises(ValueError, match="balanced"):
        psi_core(parse_expression("S(e1,1)", two_loops), two_loops)


def test_balanced_shift_agrees_with_block_embedding(two_loops, single_23):
    checked = 0
    for g in (two_loops, single_23):
        syms = g.symbols()
        for a in syms:
            for b in syms:
                src = g.edge_named(a.edge).source
                if src != g.edge_named(b.edge).source:
                    continue
                for f in (
                    LaurentPoly.one(src),
                    LaurentPoly.generator(src),
                    LaurentPoly.monomial(src, -1),
                ):
                    m = LaurentMatrix.from_dict(g, 1, {((a,), (b,)): f})
                    x = matrix_to_sum(m)
                    assert normal_equal(
                        psi_core(x, g), matrix_to_sum(psi_embed(m)), g
                    )
                    checked += 1
    assert checked == 39


def test_word_pair_compression(single_23):
    x = parse_expression("S(e,1)*S*(e,2)", single_23)
    y = parse_expression("S(e,2)*S*(e,1)", single_23)
    c1 = chi_m(x, 1, single_23)
    assert c1.pair_space_size == 4
    prod = c1 * chi_m(y, 1, single_23)
    combined = chi_m(normalize(x * y, single_23), 1, single_23)
    assert prod.pairs == combined.pairs
    unit_pairs = chi_m(MonomialSum.unit(single_23), 1, single_23).pairs
    assert len(unit_pairs) == 2
    for (mu, nu), val in unit_pairs:
        assert mu == nu
        assert normal_equal(val, MonomialSum.unit(single_23), single_23)
    deeper = chi_m(MonomialSum.unit(single_23), 2, single_23)
    assert deeper.pair_space_size == 16
    assert len(deeper.pairs) == 4


def test_word_pair_compression_multiplicative_random(single_23):
    """Compression is multiplicative entrywise on random elements.

    The product of two compressions convolves over the middle word, which
    regroups sums across word depths, so the entry comparison exercises the
    depth-refining equality test rather than shape-for-shape matching.
    """
    rng = random.Random(88)
    zero = MonomialSum.zero()
    for _ in range(12):
        for m in (1, 2):
            x = _random_sum(rng, single_23, 3)
            y = _random_sum(rng, single_23, 3)
            prod = chi_m(x, m, single_23) * chi_m(y, m, single_23)
            combined = chi_m(normalize(x * y, single_23), m, single_23)
            left, right = prod.pair_dict(), combined.pair_dict()
            for key in set(left) | set(right):
                assert normal_equal(
                    left.get(key, zero), right.get(key, zero), single_23
                )


def test_matrix_unit_check_counts(two_loops, single_23):
    r = matrix_unit_check(single_23, 1)
    assert r.passed
    assert r.unit_pairs == 4
    assert r.refined_units == 8
    assert r.products_checked == 64
    assert r.failures == ()
    r2 = matrix_unit_check(two_loops, 1)
    assert r2.passed
    assert r2.unit_pairs == 9
    r3 = matrix_unit_check(single_23, 2)
    assert r3.passed
    assert r3.unit_pairs == 16
    for bad in (0, 4):
        with pytest.raises(ValueError, match="between 1 and 3"):
            matrix_unit_check(single_23, bad)


def test_render_round_trip(two_loops, single_23):
    fixed = "S(e,1)*u(v)^2*S*(e,2)"
    assert _norm_str(single_23, fixed) == fixed
    assert _norm_str(single_23, "S(e,1) - S(e,1)") == "0"
    # the expression grammar has rational literals only, so round-trips
    # are checked over real rational coefficients
    rng = random.Random(1123)
    for _ in range(25):
        x = normalize(_random_sum(rng, two_loops, 4, real_scalars=True), two_loops)
        reparsed = parse_expression(render_sum(x), two_loops)
        assert normal_equal(x, reparsed, two_loops)
