"""Vertex-localized Laurent polynomials over exact Gaussian rationals.

Each polynomial lives on a single named vertex circle and is a finite sum
c_n z^n with Gaussian-rational coefficients.  A coefficient (a + b*i)/d is
held as three ints in canonical form (d > 0, gcd(a, b, d) = 1), so all
scalar arithmetic is integer arithmetic with one gcd per result.  The
three structural maps are:

  adjoint            z^n -> conj(c) z^{-n}
  substitute_power   z^n -> z^{m n}          (precompose with z -> z^m)
  transfer           z^n -> p z^{n/p} or 0   (sum over the p preimages
                                              of z -> z^p)

transfer(substitute_power(f, p) * g, p) == f * transfer(g, p) holds
exactly, which is the conditional-expectation identity the bimodule layer
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, denominator > 0."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """Exact complex rational re + im*i, stored as (a + b*i)/d.

    The triple is canonical (d > 0, gcd(a, b, d) = 1), so equal values
    have equal fields and == and hash compare the fields.  Instances are
    immutable; re and im are read-only Fraction views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        a, d = _parts(re)
        b, e = _parts(im)
        if d != e:
            a, b, d = a * e, b * d, d * e
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(re, im)

    @classmethod
    def ratio(cls, num: int, den: int) -> "GaussianRational":
        """The real number num/den from two ints."""
        if not den:
            raise ZeroDivisionError(f"ratio {num}/0")
        if den < 0:
            num, den = -num, -den
        return _reduced(num, 0, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self._d, other._d
        if d == f:
            a, b = self._a + other._a, self._b + other._b
            if d == 1:
                return _triple(a, b, 1)
        else:
            a = self._a * f + other._a * d
            b = self._b * f + other._b * d
            d *= f
        return _reduced(a, b, d)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + -other

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
            if d == 1:
                return _triple(a, 0, 1)
        return _reduced(a, b, d)

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def scale(self, c) -> "GaussianRational":
        """self * c for an int, Fraction or GaussianRational c."""
        if c.__class__ is int:
            g = gcd(c, self._d)
            c //= g
            return _triple(self._a * c, self._b * c, self._d // g)
        return self * _coerce_coeff(c)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if not self._b:
            return str(self._a) if self._d == 1 else f"{self._a}/{self._d}"
        re, im = self.re, self.im
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"({re}{sign}{imag})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d from a triple already in canonical form."""
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d for any d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)
_GR_MINUS_ONE = -GR_ONE


def _is_negative_real(c: GaussianRational) -> bool:
    """c is real and below zero, read off the triple."""
    return not c._b and c._a < 0


def _coerce_coeff(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


_first = itemgetter(0)
_second = itemgetter(1)


def _exponent(n) -> int:
    """n as a plain int; anything else (bool included) is a TypeError."""
    if n.__class__ is int:
        return n
    if isinstance(n, int) and not isinstance(n, bool):
        return int(n)
    raise TypeError(f"exponents are ints, got {n!r} ({type(n).__name__})")


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial attached to one vertex circle.

    terms are (exponent, coefficient) pairs, strictly increasing in
    exponent, with no zero coefficients.  Every operation keeps that
    form by construction and builds its result through _poly; only
    from_dict sorts and filters its input.  Exponents (and the powers of
    substitute_power and transfer) must be ints; a bool is refused.  Mixing
    vertices in add/mul is an error: functions on different circles have
    no common domain.
    """

    vertex: str
    terms: tuple[tuple[int, GaussianRational], ...] = ()

    @classmethod
    def from_dict(cls, vertex: str, coeffs: dict) -> "LaurentPoly":
        """{exponent: coefficient}; exponents must be ints (not bools)."""
        items = []
        for n, c in coeffs.items():
            n = _exponent(n)
            c = _coerce_coeff(c)
            if c:
                items.append((n, c))
        items.sort(key=_first)
        return cls(vertex, tuple(items))

    @classmethod
    def zero(cls, vertex: str) -> "LaurentPoly":
        return _poly(vertex, ())

    @classmethod
    def one(cls, vertex: str) -> "LaurentPoly":
        return _poly(vertex, ((0, GR_ONE),))

    @classmethod
    def generator(cls, vertex: str) -> "LaurentPoly":
        """The coordinate function z on the given vertex circle."""
        return _poly(vertex, ((1, GR_ONE),))

    @classmethod
    def monomial(cls, vertex: str, exponent: int, coeff=GR_ONE) -> "LaurentPoly":
        exponent = _exponent(exponent)
        c = _coerce_coeff(coeff)
        if not c:
            return _poly(vertex, ())
        return _poly(vertex, ((exponent, c),))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: int) -> GaussianRational:
        for n, c in self.terms:
            if n == exponent:
                return c
        return GR_ZERO

    def _check_vertex(self, other: "LaurentPoly") -> None:
        if self.vertex != other.vertex:
            raise ValueError(f"vertex mismatch: {self.vertex!r} vs {other.vertex!r}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Merge of the two sorted term tuples."""
        self._check_vertex(other)
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            n, c = a[i]
            m, d = b[j]
            if n < m:
                out.append(a[i])
                i += 1
            elif m < n:
                out.append(b[j])
                j += 1
            else:
                s = c + d
                if s:
                    out.append((n, s))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _poly(self.vertex, tuple(out))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_vertex(other)
        coeffs: dict[int, GaussianRational] = {}
        for n, c in self.terms:
            for m, d in other.terms:
                k, t = n + m, c * d
                coeffs[k] = coeffs[k] + t if k in coeffs else t
        return _collect(self.vertex, coeffs)

    def scale(self, c) -> "LaurentPoly":
        c = _coerce_coeff(c)
        if not c:
            return _poly(self.vertex, ())
        return _poly(self.vertex, tuple((n, cc * c) for n, cc in self.terms))

    def adjoint(self) -> "LaurentPoly":
        """Pointwise complex conjugate: z^n -> conj(c) z^{-n}."""
        return _poly(self.vertex, tuple((-n, c.conjugate()) for n, c in reversed(self.terms)))

    def substitute_power(self, m: int) -> "LaurentPoly":
        """Precompose with z -> z^m (m != 0): z^n -> z^{m n}."""
        m = _exponent(m)
        if m == 0:
            raise ValueError("substitution power must be nonzero")
        terms = self.terms if m > 0 else reversed(self.terms)
        return _poly(self.vertex, tuple((m * n, c) for n, c in terms))

    def transfer(self, p: int) -> "LaurentPoly":
        """Sum over the p preimages of z -> z^p: z^n -> p z^{n/p} if p | n, else 0."""
        p = _exponent(p)
        if p < 1:
            raise ValueError(f"transfer degree must be >= 1, got {p}")
        return _poly(self.vertex, tuple((n // p, c.scale(p)) for n, c in self.terms if not n % p))

    def with_vertex(self, vertex: str) -> "LaurentPoly":
        """Reinterpret the same coefficient data on another circle."""
        return _poly(vertex, self.terms)

    def evaluate(self, z: complex) -> complex:
        return sum((c.to_complex() * z**n for n, c in self.terms), 0j)

    def __str__(self) -> str:
        return self.render("u")

    def render(self, var: str = "u") -> str:
        """Terms as c*u^n joined by ' + ', ascending exponent; '0' when empty."""
        if not self.terms:
            return "0"
        parts = []
        for n, c in self.terms:
            if n == 0:
                parts.append(str(c))
                continue
            head = var if n == 1 else f"{var}^{n}"
            if c == GR_ONE:
                parts.append(head)
            elif c == _GR_MINUS_ONE:
                parts.append(f"-{head}")
            else:
                parts.append(f"{c}*{head}")
        return " + ".join(parts)


_set = object.__setattr__


def _poly(vertex: str, terms: tuple) -> LaurentPoly:
    """The polynomial with these terms, already canonical (sorted, no zeros)."""
    x = _new(LaurentPoly)
    _set(x, "vertex", vertex)
    _set(x, "terms", terms)
    return x


def _collect(vertex: str, coeffs: dict) -> LaurentPoly:
    """The polynomial sum c z^n over {n: c} with int n; zeros are dropped."""
    if not coeffs:
        return _poly(vertex, ())
    return _poly(vertex, tuple(sorted(filter(_second, coeffs.items()))))
