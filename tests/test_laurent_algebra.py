"""Circle-function algebra: Gaussian-rational Laurent polynomials per vertex.

Claims covered here:

- Gaussian-rational arithmetic, conjugation, and printing are exact
- the integer-backed scalar agrees with a pair-of-Fractions oracle on
  +, -, *, negation, conjugate, scale (by int, Fraction or Gaussian),
  bool, re, im, str, repr and to_complex; its form is canonical (equal
  values compare and hash equal however they were built); floats are
  refused and attributes cannot be set
- scaling a polynomial by a Gaussian scalar scales every coefficient
- sums and products of circle functions match hand-expanded results
- the adjoint is an involutive antiautomorphism (conjugate, flip powers)
- functions on different circles never combine
- power substitution composes and rejects exponent zero
- the fiber-sum transfer operator kills off-multiple powers, scales
  constants by the covering degree, satisfies the conditional-expectation
  identity, is positive, and agrees with numerical fiber sums on the circle
- rendering uses the chosen variable name and exact coefficient forms
- exponents are ints: from_dict, monomial, substitute_power and transfer
  refuse floats, Fractions, strings and bools with TypeError instead of
  truncating them into a non-canonical polynomial
- +, *, adjoint, substitute_power (either sign), transfer and scale return
  canonical terms (strictly increasing exponents, no zero coefficient),
  equal to the same result built by from_dict from a dict of coefficients
"""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tge.laurent_algebra import GR_ONE, GR_ZERO, GaussianRational, LaurentPoly


def _poly(d, vertex="v"):
    return LaurentPoly.from_dict(
        vertex, {e: GaussianRational.of(re, im) for e, (re, im) in d.items()}
    )


def _random_poly(rng, vertex="v", span=4):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(-span, span)
        terms[e] = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
    return _poly(terms, vertex)


def test_gaussian_rational_arithmetic():
    a = GaussianRational.of(1, 1)
    b = GaussianRational.of(1, -1)
    assert a * b == GaussianRational.of(2)
    assert a + b == GaussianRational.of(2)
    assert a.conjugate() == b
    assert str(GaussianRational.of(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4i)"
    assert str(GR_ZERO) == "0"
    assert str(GR_ONE) == "1"
    assert not GR_ZERO
    assert GR_ONE


# ---------------------------------------------------------------------------
# the scalar against a pair-of-Fractions oracle


def _pair(x: GaussianRational) -> tuple[Fraction, Fraction]:
    return x.re, x.im


def _oracle_str(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    return f"({re}{'+' if im > 0 else '-'}{imag})"


frac_st = st.fractions(min_value=-40, max_value=40, max_denominator=36)
pair_st = st.tuples(frac_st, frac_st)
scalar_st = pair_st.map(lambda t: GaussianRational.of(*t))


@settings(max_examples=120, deadline=None)
@given(pair_st, pair_st, st.integers(min_value=-12, max_value=12), frac_st)
def test_scalar_matches_fraction_pair_oracle(xp, yp, n, r):
    (a, b), (c, d) = xp, yp
    x, y = GaussianRational.of(a, b), GaussianRational.of(c, d)
    assert _pair(x) == (a, b)
    assert _pair(x + y) == (a + c, b + d)
    assert _pair(x - y) == (a - c, b - d)
    assert _pair(x * y) == (a * c - b * d, a * d + b * c)
    assert _pair(-x) == (-a, -b)
    assert _pair(x.conjugate()) == (a, -b)
    assert _pair(x.scale(n)) == (a * n, b * n)
    assert _pair(x.scale(r)) == (a * r, b * r)
    assert x.scale(y) == x * y
    assert bool(x) == bool(a or b)
    assert str(x) == _oracle_str(a, b)
    assert repr(x) == f"GaussianRational(re={a!r}, im={b!r})"
    assert x.to_complex() == complex(a) + 1j * complex(b)
    assert GaussianRational(a, b) == x


@settings(max_examples=60, deadline=None)
@given(scalar_st, scalar_st, scalar_st)
def test_scalar_form_is_canonical(x, y, z):
    rebuilt = GaussianRational.of(x.re, x.im)
    for same in ((x + y) - y, (x * y + x * z) - x * (y + z) + x, -(-x), x.conjugate().conjugate(),
                 rebuilt):
        assert same == x and hash(same) == hash(x)
    if y:
        # dividing back out of a product: (x * y) * conj(y) / |y|^2
        norm = (y * y.conjugate()).re
        back = (x * y * y.conjugate()).scale(1 / norm)
        assert back == x and hash(back) == hash(x)


def test_scalar_canonical_from_unreduced_inputs():
    a = GaussianRational.of(Fraction(2, 4), Fraction(3, 6))
    b = GaussianRational.of(Fraction(1, 2), Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert GaussianRational.of(Fraction(3, 6)) * GaussianRational.of(2) == GR_ONE
    assert hash(GaussianRational.of(Fraction(1, 3)).scale(3)) == hash(GR_ONE)
    assert GaussianRational.ratio(2, -4) == GaussianRational.of(Fraction(-1, 2))
    assert {GaussianRational.of(1, 1).scale(Fraction(1, 2)), b} == {b}
    assert GR_ZERO == GaussianRational.of(Fraction(0, 5), 0) == GR_ONE - GR_ONE
    assert repr(GR_ZERO) == "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert GR_ONE != 1 and GR_ONE != Fraction(1)


def test_scalar_refuses_floats_and_is_immutable():
    x = GaussianRational.of(1, 2)
    for bad in (lambda: GaussianRational.of(0.5), lambda: GaussianRational.of(1, 0.5),
                lambda: GaussianRational(1.0), lambda: x.scale(0.5)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ZeroDivisionError):
        GaussianRational.ratio(1, 0)
    for name in ("re", "im", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(3))
    assert x == GaussianRational.of(1, 2)


def test_poly_scale_by_gaussian_scales_each_coefficient():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_poly(rng)
        c = GaussianRational.of(Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-3, 3))
        assert f.scale(c) == LaurentPoly.from_dict("v", {n: c * coeff for n, coeff in f.terms})


def test_sum_and_product_match_hand_expansion():
    g = LaurentPoly.generator("v")
    f = g + g.adjoint()  # u + u^-1
    assert f * f == _poly({-2: (1, 0), 0: (2, 0), 2: (1, 0)})
    assert g.adjoint() * g == LaurentPoly.one("v")
    assert (f - f).is_zero()


def test_adjoint_is_involutive_antiautomorphism():
    p = _poly({3: (2, 1), -1: (-1, 0)})
    assert p.adjoint() == _poly({-3: (2, -1), 1: (-1, 0)})
    assert p.adjoint().adjoint() == p
    rng = random.Random(5)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert (f * g).adjoint() == g.adjoint() * f.adjoint()


def test_functions_on_different_circles_never_combine():
    f = LaurentPoly.generator("v")
    g = LaurentPoly.generator("w")
    with pytest.raises(ValueError, match="vertex"):
        f * g
    with pytest.raises(ValueError, match="vertex"):
        f + g
    assert f.with_vertex("w") * g == LaurentPoly.monomial("w", 2)


def test_substitute_power():
    g = LaurentPoly.generator("v")
    assert g.substitute_power(3) == LaurentPoly.monomial("v", 3)
    q = _poly({1: (1, 0), 2: (1, 0)})
    assert q.substitute_power(-1) == _poly({-1: (1, 0), -2: (1, 0)})
    one = LaurentPoly.one("v")
    assert one.substitute_power(5) == one
    with pytest.raises(ValueError):
        g.substitute_power(0)
    rng = random.Random(6)
    for _ in range(20):
        f = _random_poly(rng)
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        assert f.substitute_power(a).substitute_power(b) == f.substitute_power(a * b)


def test_transfer_known_values():
    v4 = LaurentPoly.monomial("v", 4)
    assert v4.transfer(2) == _poly({2: (2, 0)})
    assert LaurentPoly.monomial("v", 3).transfer(2).is_zero()
    assert LaurentPoly.one("v").transfer(3) == _poly({0: (3, 0)})
    p = _poly({3: (2, 1), -1: (-1, 0)})
    assert p.transfer(1) == p


def test_transfer_conditional_expectation_identity():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.randint(1, 4)
        f = _random_poly(rng, span=3)
        g = _random_poly(rng, span=6)
        lhs = (f.substitute_power(p) * g).transfer(p)
        rhs = f * g.transfer(p)
        assert lhs == rhs


def test_transfer_positivity():
    rng = random.Random(8)
    for _ in range(40):
        p = rng.randint(1, 4)
        f = _random_poly(rng)
        c = (f.adjoint() * f).transfer(p).coefficient(0)
        assert c.im == 0
        assert c.re >= 0


def test_transfer_matches_numerical_fiber_sums():
    rng = random.Random(9)
    for _ in range(6):
        p = rng.randint(1, 4)
        f = _random_poly(rng, span=5)
        t = f.transfer(p)
        for j in range(64):
            theta = 2 * cmath.pi * j / 64
            z = cmath.exp(1j * theta)
            fiber = sum(
                f.evaluate(cmath.exp(1j * (theta + 2 * cmath.pi * r) / p))
                for r in range(p)
            )
            assert abs(t.evaluate(z) - fiber) <= 1e-10


def test_evaluate_on_circle_points():
    g = LaurentPoly.generator("v")
    f = g + g.adjoint()
    assert abs(f.evaluate(1j)) <= 1e-12
    assert abs(f.evaluate(1.0) - 2.0) <= 1e-12


def test_render_formats():
    p = _poly({3: (2, 1), -1: (-1, 0)})
    assert p.render() == "-u^-1 + (2+i)*u^3"
    assert p.render(var="t") == "-t^-1 + (2+i)*t^3"
    assert LaurentPoly.zero("v").render() == "0"
    assert LaurentPoly.one("v").render() == "1"
    assert str(LaurentPoly.generator("v")) == "u"


coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
poly_st = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.tuples(coeff_st, coeff_st),
    max_size=4,
).map(_poly)


@settings(max_examples=50, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_identities(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f + g).adjoint() == f.adjoint() + g.adjoint()


class _Exp(int):
    """An int subclass: accepted as an exponent and stored as a plain int."""


def test_exponents_must_be_ints():
    for bad in (0.5, 0.7, 1.0, Fraction(1, 2), Fraction(2), "1", None, True, False):
        with pytest.raises(TypeError, match="exponent"):
            LaurentPoly.from_dict("v", {bad: 1})
        with pytest.raises(TypeError, match="exponent"):
            LaurentPoly.monomial("v", bad)
        with pytest.raises(TypeError, match="exponent"):
            LaurentPoly.generator("v").substitute_power(bad)
        with pytest.raises(TypeError, match="exponent"):
            LaurentPoly.one("v").transfer(bad)
    # both keys used to truncate to 0, leaving two z^0 terms unequal to 2 z^0
    with pytest.raises(TypeError):
        LaurentPoly.from_dict("v", {0.5: 1, 0.7: 1})
    f = LaurentPoly.from_dict("v", {_Exp(2): 1, -1: 3})
    assert f == _poly({2: (1, 0), -1: (3, 0)})
    assert all(type(n) is int for n, _ in f.terms)
    assert LaurentPoly.monomial("v", _Exp(3)).terms[0][0].__class__ is int


def _is_canonical(f: LaurentPoly) -> bool:
    exps = [n for n, _ in f.terms]
    return (all(type(n) is int for n in exps)
            and all(a < b for a, b in zip(exps, exps[1:]))
            and all(c for _, c in f.terms))


def _sums(pairs) -> dict:
    out: dict = {}
    for n, c in pairs:
        out[n] = out.get(n, GR_ZERO) + c
    return out


gauss_st = st.tuples(coeff_st, coeff_st).map(lambda t: GaussianRational.of(*t))


@settings(max_examples=80, deadline=None)
@given(poly_st, poly_st, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4), gauss_st)
def test_operations_return_canonical_terms(f, g, m, p, c):
    def from_pairs(pairs):
        return LaurentPoly.from_dict("v", _sums(pairs))

    expected = {
        "+": (f + g, from_pairs(f.terms + g.terms)),
        "+ cancelling": (f + (g - f), g),
        "*": (f * g, from_pairs((n + k, a * b) for n, a in f.terms for k, b in g.terms)),
        "adjoint": (f.adjoint(), from_pairs((-n, a.conjugate()) for n, a in f.terms)),
        "substitute +": (f.substitute_power(m), from_pairs((m * n, a) for n, a in f.terms)),
        "substitute -": (f.substitute_power(-m), from_pairs((-m * n, a) for n, a in f.terms)),
        "transfer": (f.transfer(p), from_pairs(
            (n // p, a * GaussianRational.of(p)) for n, a in f.terms if n % p == 0)),
        "scale": (f.scale(c), from_pairs((n, a * c) for n, a in f.terms)),
        "scale 0": (f.scale(0), LaurentPoly.zero("v")),
    }
    for name, (got, want) in expected.items():
        assert _is_canonical(got), (name, got.terms)
        assert got == want, name
