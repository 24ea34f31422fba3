"""Normal forms for words in the shift generators over a circle graph.

Elements are finite sums of formal words whose letters are three kinds of
atom: a generator S attached to a sheet symbol (e, k), its adjoint S*, and
a vertex-localized Laurent polynomial.  Every element rewrites to a sum of
terms shaped

    S_alpha . f . S_beta*

with one explicit middle function f localized at the common source vertex
of the words alpha and beta (pure scalars expand into one term per
vertex).  The rules, applied to the leftmost reducible adjacent pair:

  * S*(x) S(y)   ->  unit at the source circle when x = y, zero otherwise;
  * f S(x)       ->  per monomial c z^n of f: S(x') . c z^l, where the
                     sheet arithmetic (k-1) + n q(e) = (k'-1) + l p(e)
                     fixes x' = (e, k') and the shift l (zero when f lives
                     on the wrong circle);
  * S*(x) f      ->  mirror image of the previous rule, via adjoints;
  * f g          ->  pointwise product (zero across distinct circles);
  * neighbor checks: adjacent generator letters must concatenate into
    admissible words and functions must sit on the circle where their
    neighbors source; failures kill the term.

Termination: order terms by the tuple (number of S*-before-S pairs,
number of f-before-S pairs, number of S*-before-f pairs, atom count).
The first rule lowers the first coordinate; the second lowers the second
and preserves the first; the third lowers the third and preserves the
first two; merging functions lowers the length without raising the rest.
Every step either drops the term or strictly lowers this well-founded
measure, so rewriting stops.

After shaping, a completion pass collapses full families: whenever, for a
fixed prefix pair (mu, nu) and vertex v, the sum contains the term
S_{mu j} . c . S_{nu j}* for every symbol j whose edge ranges at v, with
one common constant c, the family is replaced by S_mu . c 1_v . S_nu*.
This is the summation identity that makes the unit decompose over any
complete family of generators; each collapse shortens total word length,
so the pass reaches a fixed point.  The criterion is symmetric under
adjoints, which keeps normalization *-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bimodule_engine import (
    LaurentMatrix,
    act_left_monomial,
    admissible_tuples,
    tuple_source,
)
from .errors import ExpressionSyntaxError
from .graph_core import CircleGraph, Symbol
from .laurent_algebra import (
    GR_ONE, GaussianRational, LaurentPoly, _coerce_coeff, _is_negative_real,
)

Atom = tuple  # ("S", Symbol) | ("S*", Symbol) | ("fn", LaurentPoly)


@dataclass(frozen=True)
class MonomialTerm:
    """One formal word with a scalar coefficient."""

    coeff: GaussianRational
    atoms: tuple[Atom, ...]

    def adjoint(self) -> "MonomialTerm":
        rev = []
        for kind, payload in reversed(self.atoms):
            if kind == "S":
                rev.append(("S*", payload))
            elif kind == "S*":
                rev.append(("S", payload))
            else:
                rev.append(("fn", payload.adjoint()))
        return MonomialTerm(self.coeff.conjugate(), tuple(rev))

    def normal_parts(self) -> tuple[tuple[Symbol, ...], LaurentPoly, tuple[Symbol, ...]]:
        """Split a shaped term into (alpha, middle, beta) with beta in word order.

        Only meaningful on terms produced by normalize, which always carry
        exactly one middle function and coefficient one.
        """
        parts = _split_shaped(self.atoms)
        if parts is None or parts[1] is None or self.coeff != GR_ONE:
            raise ValueError("term is not in normal shape")
        return parts


@dataclass(frozen=True)
class MonomialSum:
    """Formal sum of words; operations stay symbolic until normalize."""

    terms: tuple[MonomialTerm, ...]

    @classmethod
    def zero(cls) -> "MonomialSum":
        return cls(())

    @classmethod
    def generator(cls, sym: Symbol) -> "MonomialSum":
        return cls((MonomialTerm(GR_ONE, (("S", Symbol(*sym)),)),))

    @classmethod
    def generator_adjoint(cls, sym: Symbol) -> "MonomialSum":
        return cls((MonomialTerm(GR_ONE, (("S*", Symbol(*sym)),)),))

    @classmethod
    def vertex_function(cls, poly: LaurentPoly) -> "MonomialSum":
        return cls((MonomialTerm(GR_ONE, (("fn", poly),)),))

    @classmethod
    def scalar(cls, c) -> "MonomialSum":
        return cls((MonomialTerm(_coerce_coeff(c), ()),))

    @classmethod
    def unit(cls, g: CircleGraph) -> "MonomialSum":
        return cls(
            tuple(
                MonomialTerm(GR_ONE, (("fn", LaurentPoly.one(v)),)) for v in g.vertices
            )
        )

    def __add__(self, other: "MonomialSum") -> "MonomialSum":
        return MonomialSum(self.terms + other.terms)

    def __sub__(self, other: "MonomialSum") -> "MonomialSum":
        return self + other.scale(-1)

    def __mul__(self, other: "MonomialSum") -> "MonomialSum":
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(MonomialTerm(a.coeff * b.coeff, a.atoms + b.atoms))
        return MonomialSum(tuple(out))

    def scale(self, c) -> "MonomialSum":
        c = _coerce_coeff(c)
        return MonomialSum(tuple(MonomialTerm(t.coeff * c, t.atoms) for t in self.terms))

    def adjoint(self) -> "MonomialSum":
        return MonomialSum(tuple(t.adjoint() for t in self.terms))

    def is_zero_form(self) -> bool:
        return not self.terms


def _reduce_term(g: CircleGraph, coeff: GaussianRational, atoms: list,
                 pending: list) -> tuple[GaussianRational, list] | None:
    """Drive one term to shaped form.

    Branching rewrites (multi-monomial middles) push extra work items onto
    pending.  Returns the shaped (coeff, atoms) or None when the term died.
    """
    i = 0
    while i + 1 < len(atoms):
        (ka, pa), (kb, pb) = atoms[i], atoms[i + 1]
        if ka == "S*" and kb == "S":
            if pa != pb:
                return None
            e = g.edge_named(pa.edge)
            atoms[i:i + 2] = [("fn", LaurentPoly.one(e.source))]
            i = max(i - 1, 0)
            continue
        if (ka, kb) in (("fn", "S"), ("S*", "fn")):
            # S*(x) f is (f* S(x))*: push the monomials of f through S(x)
            # with exponents mirrored by sign, generator kept on its side
            sign, f, (kind, sym) = (1, pa, atoms[i + 1]) if kb == "S" else (-1, pb, atoms[i])
            e = g.edge_named(sym.edge)
            if f.is_zero() or f.vertex != e.range:
                return None
            branches = []
            for n, c in f.terms:
                sym2, shift = act_left_monomial(g, f.vertex, sign * n, sym)
                moved = ("fn", LaurentPoly.monomial(e.source, sign * shift, c))
                pushed = [(kind, sym2), moved] if sign > 0 else [moved, (kind, sym2)]
                branches.append(atoms[:i] + pushed + atoms[i + 2:])
            atoms = branches[0]
            for extra in branches[1:]:
                pending.append((coeff, extra))
            i = max(i - 1, 0)
            continue
        if ka == "fn" and kb == "fn":
            if pa.vertex != pb.vertex:
                return None
            prod = pa * pb
            if prod.is_zero():
                return None
            atoms[i:i + 2] = [("fn", prod)]
            i = max(i - 1, 0)
            continue
        if ka == "S" and kb == "S":
            if g.edge_named(pa.edge).source != g.edge_named(pb.edge).range:
                return None
            i += 1
            continue
        if ka == "S*" and kb == "S*":
            if g.edge_named(pb.edge).source != g.edge_named(pa.edge).range:
                return None
            i += 1
            continue
        if ka == "S" and kb == "fn":
            if pb.is_zero() or pb.vertex != g.edge_named(pa.edge).source:
                return None
            i += 1
            continue
        if ka == "fn" and kb == "S*":
            if pa.is_zero() or pa.vertex != g.edge_named(pb.edge).source:
                return None
            i += 1
            continue
        # ("S", "S*"): shaped junction, nothing to do here
        i += 1
    return coeff, atoms


def _split_shaped(atoms) -> tuple[tuple[Symbol, ...], LaurentPoly | None,
                                  tuple[Symbol, ...]] | None:
    """Read atoms as S_alpha . [f] . S_beta* with beta in word order.

    The middle function is optional; None when the atoms have another shape.
    """
    i = 0
    while i < len(atoms) and atoms[i][0] == "S":
        i += 1
    alpha = tuple(s for _kind, s in atoms[:i])
    mid = None
    if i < len(atoms) and atoms[i][0] == "fn":
        mid = atoms[i][1]
        i += 1
    if any(kind != "S*" for kind, _s in atoms[i:]):
        return None
    return alpha, mid, tuple(s for _kind, s in reversed(atoms[i:]))


def _shape_cells(g: CircleGraph, coeff: GaussianRational, atoms: list,
                 cells: dict) -> None:
    """File one shaped term into the (alpha, beta, vertex) -> poly map."""
    if not coeff:
        return
    parts = _split_shaped(atoms)
    if parts is None:
        raise AssertionError(f"unshaped atoms survived reduction: {atoms!r}")
    alpha, mid, beta = parts
    if mid is None:
        if alpha and beta:
            va = g.edge_named(alpha[-1].edge).source
            vb = g.edge_named(beta[-1].edge).source
            if va != vb:
                return
            mid = LaurentPoly.one(va)
        elif alpha:
            mid = LaurentPoly.one(g.edge_named(alpha[-1].edge).source)
        elif beta:
            mid = LaurentPoly.one(g.edge_named(beta[-1].edge).source)
        else:
            # pure scalar: one unit per vertex circle
            for v in g.vertices:
                _accumulate(cells, (alpha, beta, v), LaurentPoly.one(v).scale(coeff))
            return
    _accumulate(cells, (alpha, beta, mid.vertex), mid.scale(coeff))


def _accumulate(cells: dict, key: tuple, poly: LaurentPoly) -> None:
    if key in cells:
        poly = cells[key] + poly
    if poly.is_zero():
        cells.pop(key, None)
    else:
        cells[key] = poly


def _constant_of(poly: LaurentPoly) -> GaussianRational | None:
    if len(poly.terms) == 1 and poly.terms[0][0] == 0:
        return poly.terms[0][1]
    return None


def _complete(g: CircleGraph, cells: dict) -> None:
    """Collapse full generator families S_{mu j} c S_{nu j}* -> S_mu c 1_v S_nu*."""
    changed = True
    while changed:
        changed = False
        groups: dict[tuple, dict[Symbol, GaussianRational]] = {}
        for (alpha, beta, v), poly in cells.items():
            if not alpha or not beta or alpha[-1] != beta[-1]:
                continue
            c = _constant_of(poly)
            if c is None:
                continue
            j = alpha[-1]
            tail_vertex = g.edge_named(j.edge).range
            groups.setdefault((alpha[:-1], beta[:-1], tail_vertex), {})[j] = c
        for (mu, nu, v), members in groups.items():
            family = g.symbols_into(v)
            if not family or any(s not in members for s in family):
                continue
            consts = {members[s] for s in family}
            if len(consts) != 1:
                continue
            c = consts.pop()
            for s in family:
                src = g.edge_named(s.edge).source
                del cells[(mu + (s,), nu + (s,), src)]
            _accumulate(cells, (mu, nu, v), LaurentPoly.one(v).scale(c))
            changed = True
            break  # groups snapshot is stale now; rebuild
    return


def normalize(x: MonomialSum, g: CircleGraph) -> MonomialSum:
    """Rewrite a formal sum to its canonical shaped form."""
    g.require_valid()
    cells: dict[tuple, LaurentPoly] = {}
    pending = [(t.coeff, list(t.atoms)) for t in x.terms]
    while pending:
        coeff, atoms = pending.pop()
        if not coeff:
            continue
        shaped = _reduce_term(g, coeff, atoms, pending)
        if shaped is None:
            continue
        _shape_cells(g, shaped[0], shaped[1], cells)
    _complete(g, cells)
    ordered = sorted(
        cells.items(), key=lambda kv: (len(kv[0][0]), len(kv[0][1]), kv[0])
    )
    return MonomialSum(
        tuple(_normal_term(alpha, poly, beta) for (alpha, beta, _v), poly in ordered))


def _normal_term(alpha: tuple, poly: LaurentPoly, beta: tuple) -> MonomialTerm:
    """The shaped term S_alpha . poly . S_beta*, beta in word order."""
    return MonomialTerm(
        GR_ONE,
        tuple(("S", s) for s in alpha)
        + (("fn", poly),)
        + tuple(("S*", s) for s in reversed(beta)),
    )


def _refine_cell(g: CircleGraph, alpha: tuple, beta: tuple,
                 poly: LaurentPoly) -> list[tuple]:
    """Expand S_alpha f S_beta* one level via the cylinder partition of unity.

    Valid graphs cover every vertex circle, so the sheet projections over the
    middle vertex sum to that circle's unit; pushing f through each inserted
    generator lengthens both words by one symbol ending on the same edge.
    """
    out = []
    w = poly.vertex
    for s in g.symbols_into(w):
        e = g.edge_named(s.edge)
        for n, c in poly.terms:
            sym2, shift = act_left_monomial(g, w, n, s)
            out.append((alpha + (sym2,), beta + (s,),
                        LaurentPoly.monomial(e.source, shift, c)))
    return out


def _uniform_depth_cells(g: CircleGraph, cells: list[tuple], depth: int) -> dict:
    """Refine every (alpha, beta, poly) cell until len(alpha) == depth."""
    out: dict[tuple, LaurentPoly] = {}
    work = list(cells)
    while work:
        alpha, beta, poly = work.pop()
        if len(alpha) >= depth:
            _accumulate(out, (alpha, beta, poly.vertex), poly)
            continue
        work.extend(_refine_cell(g, alpha, beta, poly))
    return out


def normal_equal(x: MonomialSum, y: MonomialSum, g: CircleGraph) -> bool:
    """Decide equality of two elements.

    Equal normal forms settle it immediately.  Otherwise the difference is
    re-examined degree by degree (degree = primitive-word length minus
    adjoint-word length, which every rewrite preserves): all cells of one
    degree are refined to the largest word length present, where distinct
    word pairs are linearly independent, so the element is zero exactly when
    every refined cell cancels.
    """
    nx, ny = normalize(x, g), normalize(y, g)
    if nx == ny:
        return True
    by_degree: dict[int, list[tuple]] = {}
    for sign, form in ((1, nx), (-1, ny)):
        for t in form.terms:
            alpha, mid, beta = t.normal_parts()
            if sign < 0:
                mid = mid.scale(-1)
            by_degree.setdefault(len(alpha) - len(beta), []).append(
                (alpha, beta, mid))
    for cells in by_degree.values():
        depth = max(len(alpha) for alpha, _beta, _poly in cells)
        if _uniform_depth_cells(g, cells, depth):
            return False
    return True


def phi(x: MonomialSum, g: CircleGraph) -> MonomialSum:
    """The first shift: sum over symbols of S_i . x . S_i*."""
    terms = []
    for s in g.symbols():
        for t in x.terms:
            terms.append(
                MonomialTerm(t.coeff, (("S", s),) + t.atoms + (("S*", s),))
            )
    return normalize(MonomialSum(tuple(terms)), g)


def psi_core(x: MonomialSum, g: CircleGraph) -> MonomialSum:
    """The second shift on balanced terms: push the middle one level down.

    Each normalized term S_alpha a S_beta* with |alpha| = |beta| maps to
    the sum over symbol pairs of S_{alpha i} <xi_i, a xi_j> S_{beta j}*.
    Terms with unbalanced words are outside this map's domain.
    """
    nf = normalize(x, g)
    out = []
    for t in nf.terms:
        alpha, mid, beta = t.normal_parts()
        if len(alpha) != len(beta):
            raise ValueError(
                "second shift needs balanced word lengths on every term; "
                f"got |alpha|={len(alpha)}, |beta|={len(beta)}"
            )
        out.extend(_normal_term(a, poly, b) for a, b, poly in _refine_cell(g, alpha, beta, mid))
    return normalize(MonomialSum(tuple(out)), g)


def matrix_to_sum(m: LaurentMatrix) -> MonomialSum:
    """Reread a Laurent matrix as the sum of S_row . entry . S_col* terms."""
    return MonomialSum(
        tuple(_normal_term(m.index[i], poly, m.index[j]) for i, j, poly in m.entries))


@dataclass(frozen=True)
class ChiResult:
    """Compression of an element against all word pairs of one length.

    pairs maps (mu, nu) to the normalized form of S_mu* . x . S_nu; zero
    entries are dropped.  Multiplication convolves over the shared word,
    mirroring matrix multiplication with the words as indices.
    """

    graph: CircleGraph
    m: int
    words: tuple[tuple[Symbol, ...], ...]
    pairs: tuple[tuple[tuple, MonomialSum], ...]

    @property
    def pair_space_size(self) -> int:
        return len(self.words) ** 2

    def pair_dict(self) -> dict:
        return dict(self.pairs)

    def entry(self, mu: tuple, nu: tuple) -> MonomialSum:
        return self.pair_dict().get((tuple(mu), tuple(nu)), MonomialSum.zero())

    def __mul__(self, other: "ChiResult") -> "ChiResult":
        if (self.graph, self.m) != (other.graph, other.m):
            raise ValueError("compression level/graph mismatch")
        acc: dict[tuple, MonomialSum] = {}
        mine = self.pair_dict()
        theirs = other.pair_dict()
        for (mu, nu), a in mine.items():
            for (nu2, rho), b in theirs.items():
                if nu != nu2:
                    continue
                key = (mu, rho)
                prod = a * b
                acc[key] = acc[key] + prod if key in acc else prod
        pairs = []
        for key in sorted(acc):
            nf = normalize(acc[key], self.graph)
            if not nf.is_zero_form():
                pairs.append((key, nf))
        return ChiResult(self.graph, self.m, self.words, tuple(pairs))


def chi_m(x: MonomialSum, m: int, g: CircleGraph) -> ChiResult:
    """Compress x to the family S_mu* x S_nu over length-m word pairs."""
    if m < 0:
        raise ValueError("word length must be nonnegative")
    g.require_valid()
    words = admissible_tuples(g, m)
    pairs = []
    for mu in words:
        star = tuple(("S*", s) for s in reversed(mu))
        for nu in words:
            atoms_nu = tuple(("S", s) for s in nu)
            total = MonomialSum(
                tuple(
                    MonomialTerm(t.coeff, star + t.atoms + atoms_nu) for t in x.terms
                )
            )
            nf = normalize(total, g)
            if not nf.is_zero_form():
                pairs.append(((mu, nu), nf))
    pairs.sort(key=lambda kv: kv[0])
    return ChiResult(g, m, words, tuple(pairs))


@dataclass(frozen=True)
class MatrixUnitReport:
    passed: bool
    unit_pairs: int
    refined_units: int
    products_checked: int
    failures: tuple[str, ...]


def matrix_unit_check(g: CircleGraph, k: int, max_failures: int = 10) -> MatrixUnitReport:
    """Verify the matrix-unit relations among words of one length.

    The refined units are S_mu (S_i S_i*) S_nu* over word pairs with a
    common source vertex and symbols i ranging into that vertex; the check
    multiplies every ordered pair of refined units and compares against
    the delta-pattern answer.  Word length is capped at 3: the family
    size grows with the fourth power of the word count.
    """
    if not 1 <= k <= 3:
        raise ValueError("word length must be between 1 and 3")
    g.require_valid()
    words = admissible_tuples(g, k)
    by_source: dict[str, list] = {}
    for w in words:
        by_source.setdefault(tuple_source(g, w), []).append(w)
    unit_pairs = 0
    triples = []
    for v, group in by_source.items():
        unit_pairs += len(group) ** 2
        for mu in group:
            for nu in group:
                for i in g.symbols_into(v):
                    triples.append((mu, i, nu))

    def unit_sum(mu, i, nu):
        atoms = (
            tuple(("S", s) for s in mu)
            + (("S", i), ("S*", i))
            + tuple(("S*", s) for s in reversed(nu))
        )
        return MonomialSum((MonomialTerm(GR_ONE, atoms),))

    normal_units = {t: normalize(unit_sum(*t), g) for t in triples}
    failures: list[str] = []
    products = 0
    for (mu, i, nu) in triples:
        left = normal_units[(mu, i, nu)]
        for (nu2, j, rho) in triples:
            products += 1
            got = normalize(left * normal_units[(nu2, j, rho)], g)
            if nu == nu2 and i == j:
                want = normal_units[(mu, i, rho)]
            else:
                want = MonomialSum.zero()
            if got != want:
                if len(failures) < max_failures:
                    failures.append(
                        f"unit({_word_str(mu)},{i},{_word_str(nu)}) * "
                        f"unit({_word_str(nu2)},{j},{_word_str(rho)}) broke the delta rule"
                    )
    return MatrixUnitReport(
        passed=not failures,
        unit_pairs=unit_pairs,
        refined_units=len(triples),
        products_checked=products,
        failures=tuple(failures),
    )


def _word_str(word: tuple[Symbol, ...]) -> str:
    return ".".join(f"{s.edge}:{s.k}" for s in word) or "()"


# ---------------------------------------------------------------------------
# expression parsing and rendering


class _Parser:
    """Recursive-descent reader for generator expressions.

    Grammar:
        expr   := ['-'] term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := 'S(' name ',' int ')' | 'S*(' name ',' int ')'
                | 'u(' name ')' ['^' int] | 'u*(' name ')' ['^' int]
                | rational | '(' expr ')'
        rational := int ['/' int]
    """

    def __init__(self, text: str, g: CircleGraph):
        self.text = text
        self.g = g
        self.i = 0

    def fail(self, msg: str) -> None:
        raise ExpressionSyntaxError(msg, self.i)

    def ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def eat(self, token: str) -> bool:
        self.ws()
        if self.text.startswith(token, self.i):
            self.i += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.eat(token):
            self.fail(f"expected {token!r}")

    def name(self) -> str:
        self.ws()
        start = self.i
        while self.i < len(self.text) and (
            self.text[self.i].isalnum() or self.text[self.i] in "_-"
        ):
            self.i += 1
        if self.i == start:
            self.fail("expected a name")
        return self.text[start:self.i]

    def integer(self) -> int:
        self.ws()
        start = self.i
        if self.i < len(self.text) and self.text[self.i] in "+-":
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == digits:
            self.fail("expected an integer")
        return int(self.text[start:self.i])

    def rational(self):
        num = self.integer()
        if self.eat("/"):
            den = self.integer()
            if den == 0:
                self.fail("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def expr(self) -> MonomialSum:
        self.ws()
        negate = self.eat("-")
        total = self.term()
        if negate:
            total = total.scale(-1)
        while True:
            if self.eat("+"):
                total = total + self.term()
            elif self.eat("-"):
                total = total + self.term().scale(-1)
            else:
                return total

    def term(self) -> MonomialSum:
        total = self.factor()
        while self.eat("*"):
            total = total * self.factor()
        return total

    def factor(self) -> MonomialSum:
        self.ws()
        if self.i >= len(self.text):
            self.fail("expected a factor")
        if self.eat("S*("):
            return self.s_factor(adjoint=True)
        if self.eat("S("):
            return self.s_factor(adjoint=False)
        if self.eat("u*("):
            return self.u_factor(adjoint=True)
        if self.eat("u("):
            return self.u_factor(adjoint=False)
        if self.eat("("):
            inner = self.expr()
            self.expect(")")
            return inner
        ch = self.text[self.i]
        if ch.isdigit() or ch in "+-":
            return MonomialSum.scalar(self.rational())
        self.fail(f"expected a factor, found {ch!r}")

    def s_factor(self, adjoint: bool) -> MonomialSum:
        edge = self.name()
        try:
            e = self.g.edge_named(edge)
        except KeyError:
            self.fail(f"unknown edge {edge!r}")
        self.expect(",")
        k = self.integer()
        if not 1 <= k <= e.p:
            self.fail(f"sheet index {k} out of range 1..{e.p} for edge {edge!r}")
        self.expect(")")
        sym = Symbol(edge, k)
        if adjoint:
            return MonomialSum.generator_adjoint(sym)
        return MonomialSum.generator(sym)

    def u_factor(self, adjoint: bool) -> MonomialSum:
        vertex = self.name()
        if vertex not in self.g.vertices:
            self.fail(f"unknown vertex {vertex!r}")
        self.expect(")")
        exponent = 1
        if self.eat("^"):
            exponent = self.integer()
        if adjoint:
            exponent = -exponent
        return MonomialSum.vertex_function(LaurentPoly.monomial(vertex, exponent))


def parse_expression(text: str, g: CircleGraph) -> MonomialSum:
    """Parse a generator expression; raises ExpressionSyntaxError with offset."""
    p = _Parser(text, g)
    result = p.expr()
    p.ws()
    if p.i != len(p.text):
        p.fail("unexpected trailing input")
    return result


def _render_monomial(vertex: str, n: int, c: GaussianRational) -> tuple[bool, str]:
    """One c*u(v)^n factor; returns (negative, body) with |c| in the body."""
    negative = _is_negative_real(c)
    if negative:
        c = -c
    if n == 0:
        head = f"u({vertex})^0"
    elif n == 1:
        head = f"u({vertex})"
    else:
        head = f"u({vertex})^{n}"
    if c == GR_ONE:
        return negative, head
    return negative, f"{c}*{head}"


def _render_poly(poly: LaurentPoly) -> str:
    parts = []
    for n, c in poly.terms:
        neg, body = _render_monomial(poly.vertex, n, c)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def render_term(t: MonomialTerm) -> str:
    alpha, mid, beta = t.normal_parts()
    pieces = [f"S({s.edge},{s.k})" for s in alpha]
    unit_mid = _constant_of(mid) == GR_ONE
    if not unit_mid or not (alpha or beta):
        body = _render_poly(mid)
        if len(mid.terms) > 1 or body.startswith("-"):
            pieces.append(f"({body})")
        else:
            pieces.append(body)
    pieces.extend(f"S*({s.edge},{s.k})" for s in reversed(beta))
    return "*".join(pieces)


def render_sum(x: MonomialSum) -> str:
    """Grammar-compatible rendering of a normalized sum."""
    if not x.terms:
        return "0"
    return " + ".join(render_term(t) for t in x.terms)
