"""Finitely generated module of edge-circle functions with exact inner products.

A vector assigns to each edge a Laurent polynomial in that edge's own fiber
coordinate, plus a per-edge normalization flag: flagged components carry an
implicit factor 1/sqrt(p(e)).  Square roots never need to be evaluated:
they only ever meet in pairs inside inner products, where the product is
the exact rational 1/p(e).  Mixing a flagged and an unflagged component on
the same edge would leave a dangling square root, so it is an error.

The standard generating family has one vector per sheet symbol (e, k): the
flagged monomial z^{k-1} on edge e.  Its defining properties, checked by
verify_basis, are orthonormality under the transfer inner product and
reconstruction of every monomial vector from its coordinates.

One per-edge kernel, _edge_pair, pairs two components on a shared edge:
it resolves the flags and sums transfer(adjoint(x_e) * y_e, p(e)) term by
term through _transfer_sum, the formula the module actions use too.
inner is a loop of it over shared edges.  verify_basis and psi_embed call
it directly on each generator's terms, read once: every Gram entry and
every (sheet, test vector) pair is still evaluated, but no vector is
built for a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .errors import NormalizationError
from .graph_core import CircleEdge, CircleGraph, Symbol, walk_words
from .laurent_algebra import GR_ONE, LaurentPoly, _collect, _poly


@dataclass(frozen=True)
class BimoduleVector:
    """Per-edge Laurent components, each tagged by a normalization flag.

    components are (edge, flag, polynomial) triples sorted by edge name,
    with no zero polynomial, each polynomial on its own edge's circle.
    build establishes that form; +, the actions and scale keep it.
    """

    graph: CircleGraph
    components: tuple[tuple[str, bool, LaurentPoly], ...]

    @classmethod
    def zero(cls, g: CircleGraph) -> "BimoduleVector":
        return cls(g, ())

    @classmethod
    def build(cls, g: CircleGraph, parts: dict) -> "BimoduleVector":
        comps = []
        for edge, (flag, poly) in sorted(parts.items()):
            g.edge_named(edge)
            if not poly.is_zero():
                comps.append((edge, bool(flag), poly.with_vertex(edge)))
        return cls(g, tuple(comps))

    def component(self, edge: str) -> tuple[bool, LaurentPoly] | None:
        for name, flag, poly in self.components:
            if name == edge:
                return flag, poly
        return None

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "BimoduleVector") -> "BimoduleVector":
        g = self.graph
        if other.graph is not g and other.graph != g:
            raise ValueError("vectors over different graphs")
        if not self.components:
            return other
        parts: dict[str, tuple[bool, LaurentPoly]] = {e: (f, p) for e, f, p in self.components}
        for e, f, p in other.components:
            got = parts.get(e)
            if got is None:
                parts[e] = (f, p)
            elif got[0] != f:
                raise NormalizationError(
                    f"edge {e!r}: cannot add a normalized and an unnormalized component"
                )
            else:
                parts[e] = (f, got[1] + p)
        return BimoduleVector(
            g, tuple((e, f, p) for e, (f, p) in sorted(parts.items()) if p.terms)
        )

    def scale(self, c) -> "BimoduleVector":
        return BimoduleVector.build(
            self.graph, {e: (f, p.scale(c)) for e, f, p in self.components}
        )

    def act_left(self, f: LaurentPoly) -> "BimoduleVector":
        """Multiply by a vertex function through the range map.

        The component on edge e survives only when r(e) is f's vertex and
        picks up f with z replaced by z^{q(e)}.
        """
        return self._act(f, attrgetter("range", "q"))

    def act_right(self, f: LaurentPoly) -> "BimoduleVector":
        """Multiply by a vertex function through the source map (z -> z^{p(e)})."""
        return self._act(f, attrgetter("source", "p"))

    def _act(self, f: LaurentPoly, endpoint) -> "BimoduleVector":
        """Act through endpoint(e) = (vertex, power) of each component's edge.

        The component x_e becomes x_e(z) f(z^power) = sum c d z^(n + power m)
        over the terms c z^n of x_e and d z^m of f.
        """
        g = self.graph
        comps = []
        for name, flag, poly in self.components:
            vertex, power = endpoint(g.edge_named(name))
            if vertex != f.vertex:
                continue
            coeffs: dict = {}
            _transfer_sum(coeffs, poly.terms, f.terms, power, 1)
            moved = _collect(name, coeffs)
            if moved.terms:
                comps.append((name, flag, moved))
        return BimoduleVector(g, tuple(comps))


def basis_vector(g: CircleGraph, sym: Symbol) -> BimoduleVector:
    """The flagged monomial z^{k-1} on edge e for symbol (e, k)."""
    e = g.edge_named(sym.edge)
    if not 1 <= sym.k <= e.p:
        raise ValueError(f"sheet index {sym.k} out of range for edge {e.name!r} with p={e.p}")
    return BimoduleVector.build(g, {e.name: (True, LaurentPoly.monomial(e.name, sym.k - 1))})


def std_basis(g: CircleGraph) -> tuple[BimoduleVector, ...]:
    """One generator per sheet symbol, in symbol order."""
    g.require_valid()
    return tuple(basis_vector(g, s) for s in g.symbols())


def monomial_vector(g: CircleGraph, edge: str, exponent: int,
                    normalized: bool = True) -> BimoduleVector:
    return BimoduleVector.build(
        g, {edge: (normalized, LaurentPoly.monomial(edge, exponent))}
    )


def _transfer_sum(coeffs: dict, xs, ys, power: int, p: int) -> None:
    """Add sum c d z^((n + power m)/p), over pairs with p | n + power m, to coeffs.

    xs and ys are (exponent, coefficient) terms c z^n and d z^m.  This is
    the one kernel behind inner (power 1, p = p(e)) and the module actions
    (p = 1); it never builds an intermediate polynomial.
    """
    for n, c in xs:
        for m, d in ys:
            k = n + power * m
            if p != 1:
                if k % p:
                    continue
                k //= p
            t = c * d
            coeffs[k] = coeffs[k] + t if k in coeffs else t


def _adjoint_terms(poly: LaurentPoly) -> list:
    """The terms conj(c) z^(-n) of poly's adjoint, the left slot of _edge_pair."""
    return [(-n, c.conjugate()) for n, c in poly.terms]


def _pairing_data(x: BimoduleVector) -> dict[str, tuple[bool, list, tuple]]:
    """{edge: (flag, adjoint terms, terms)} of x's components, read once."""
    return {name: (flag, _adjoint_terms(poly), poly.terms) for name, flag, poly in x.components}


def _edge_pair(coeffs: dict, name: str, p: int, xflag: bool, xs, yflag: bool, ys) -> None:
    """Add one edge's share of an inner product to the source vertex's coeffs.

    xs are the adjoint terms of x_e and ys the terms of y_e on an edge of
    degree p: the share is transfer(adjoint(x_e) * y_e, p), times 1/p when
    both components are flagged.  That factor cancels transfer's p, so
    only unflagged pairs are scaled; a single unmatched flag cannot be
    resolved exactly and raises.
    """
    if xflag != yflag:
        raise NormalizationError(
            f"edge {name!r}: inner product leaves an unresolved 1/sqrt({p}) factor"
        )
    if not xflag:
        xs = [(n, c.scale(p)) for n, c in xs]
    _transfer_sum(coeffs, xs, ys, 1, p)


def inner(x: BimoduleVector, y: BimoduleVector) -> dict[str, LaurentPoly]:
    """Transfer-valued inner product, conjugate-linear in the first slot.

    Returns one Laurent polynomial per vertex v: the sum over edges with
    source v of transfer(adjoint(x_e) * y_e, p(e)), which is
    sum conj(c) d p z^((m - n)/p) over terms c z^n of x_e and d z^m of y_e
    with p | m - n.  Each shared edge goes through _edge_pair, which
    resolves the normalization flags.
    """
    g = x.graph
    if y.graph is not g and y.graph != g:
        raise ValueError("vectors over different graphs")
    sums: dict[str, dict] = {v: {} for v in g.vertices}
    ybyedge = {e: (f, p.terms) for e, f, p in y.components}
    for name, xflag, xpoly in x.components:
        got = ybyedge.get(name)
        if got is None:
            continue
        e = g.edge_named(name)
        _edge_pair(sums[e.source], name, e.p, xflag, _adjoint_terms(xpoly), *got)
    return {v: _collect(v, c) for v, c in sums.items()}


def act_left_monomial(g: CircleGraph, vertex: str, exponent: int,
                      sym: Symbol) -> tuple[Symbol, int] | None:
    """Closed form of z^n (at a vertex) acting on a basis generator.

    z^n . xi_{e,k} is again a single basis generator times a vertex
    monomial on the source circle: writing (k-1) + n q(e) = (k'-1) + l p(e)
    with 1 <= k' <= p(e) gives xi_{e,k'} . z^l.  Returns None when the
    vertex is not r(e), i.e. the action is zero.
    """
    e = g.edge_named(sym.edge)
    if e.range != vertex:
        return None
    t = (sym.k - 1) + exponent * e.q
    k_new = t % e.p + 1
    shift = (t - (k_new - 1)) // e.p
    return Symbol(e.name, k_new), shift


def _edge_sheets(e: CircleEdge) -> tuple[Symbol, ...]:
    """The generators on edge e, in symbol order.

    Inner products across edges vanish, so these are the only generators
    that pair nonzero with a vector supported on e.
    """
    return tuple(Symbol(e.name, k) for k in range(1, e.p + 1))


@dataclass(frozen=True)
class BasisReport:
    passed: bool
    orthogonality_checks: int
    reconstruction_checks: int
    failures: tuple[str, ...]


def verify_basis(g: CircleGraph, max_exponent: int | None = None) -> BasisReport:
    """Check orthonormality and reconstruction for the standard generators.

    Orthonormality: inner(xi_i, xi_j) is the unit at s(e_i) when i = j and
    zero otherwise.  Reconstruction: sum_i xi_i . inner(xi_i, eta) = eta
    for flagged monomial vectors eta = z^m on each edge, |m| bounded by
    2 max p(e) unless overridden by a non-negative int max_exponent
    (anything else raises ValueError: a negative bound would check
    nothing).  (Flagged test vectors are equivalent to plain ones:
    reconstruction is linear and each edge scale factor is a nonzero
    constant, but flagged vectors keep every coefficient rational.)

    Each generator's pairing data is read once from basis_vector.  A Gram
    entry sends each shared edge through _edge_pair; an entry with none is
    zero, as in inner.  A frame sum is _frame_sum.  The report equals the
    one built from inner, act_right and vector + pair by pair.
    """
    g.require_valid()
    if max_exponent is None:
        max_exponent = 2 * max(e.p for e in g.edges)
    elif type(max_exponent) is not int or max_exponent < 0:
        raise ValueError(f"max_exponent must be a non-negative int, got {max_exponent!r}")
    syms = g.symbols()
    gens = {s: _pairing_data(basis_vector(g, s)) for s in syms}
    failures: list[str] = []
    one = ((0, GR_ONE),)
    for si in syms:
        xi = gens[si]
        home = g.edge_named(si.edge).source
        for sj in syms:
            # inner(xi_i, xi_j): only shared edges reach the kernel
            sums: dict[str, dict] = {}
            for name, (yflag, _, ys) in gens[sj].items():
                got = xi.get(name)
                if got is not None:
                    e = g.edge_named(name)
                    _edge_pair(sums.setdefault(e.source, {}), name, e.p, got[0], got[1], yflag, ys)
            if si != sj and not any(sums.values()):
                continue
            for v in g.vertices:
                want = one if (si == sj and v == home) else ()
                poly = _collect(v, sums.get(v, {}))
                if poly.terms != want:
                    failures.append(f"inner({si}, {sj}) at vertex {v!r}: got {poly}, "
                                    f"want {_poly(v, want)}")
    for e in g.edges:
        sheets = [gens[s] for s in _edge_sheets(e)]
        for m in range(-max_exponent, max_exponent + 1):
            eta = ((m, GR_ONE),)
            if _frame_sum(g, e, sheets, eta) != [(e.name, True, eta)]:
                failures.append(f"reconstruction failed for z^{m} on edge {e.name!r}")
    ortho = len(syms) ** 2
    recon = len(g.edges) * (2 * max_exponent + 1)
    return BasisReport(not failures, ortho, recon, tuple(failures))


def _frame_sum(g: CircleGraph, e: CircleEdge, sheets, eta) -> list:
    """Nonzero (edge, flag, terms) of sum_xi xi . inner(xi, eta), in edge order.

    eta is the terms of a flagged vector on e and sheets the pairing data
    of e's generators.  Each coefficient inner(xi, eta) at s(e) goes
    through _edge_pair, and xi times it through _transfer_sum with
    act_right's power p; like vector +, the running sum raises on mixing
    flags on an edge where it is nonzero.
    """
    total: dict[str, tuple[bool, dict]] = {}
    for xi in sheets:
        got = xi.get(e.name)
        if got is None:
            continue
        coeff: dict = {}
        _edge_pair(coeff, e.name, e.p, got[0], got[1], True, eta)
        if not coeff:
            continue
        for name, (flag, _, xs) in xi.items():
            f = g.edge_named(name)
            if f.source != e.source:
                continue
            acc = total.get(name)
            if acc is None or (acc[0] != flag and not any(acc[1].values())):
                acc = total[name] = (flag, {})
            elif acc[0] != flag:
                raise NormalizationError(
                    f"edge {name!r}: cannot add a normalized and an unnormalized component"
                )
            _transfer_sum(acc[1], xs, coeff.items(), f.p, 1)
    out = []
    for name, (flag, coeffs) in sorted(total.items()):
        terms = _collect(name, coeffs).terms
        if terms:
            out.append((name, flag, terms))
    return out


def admissible_tuples(g: CircleGraph, length: int) -> tuple[tuple[Symbol, ...], ...]:
    """All symbol words of the given length, empty tuple for length 0."""
    g.require_valid()
    return tuple(walk_words(
        g.symbols(), lambda s: g.symbols_into(g.edge_named(s.edge).source), length))


def tuple_source(g: CircleGraph, word: tuple[Symbol, ...]) -> str | None:
    """Source vertex of a symbol word (vertex of its last edge's source)."""
    if not word:
        return None
    return g.edge_named(word[-1].edge).source


@dataclass(frozen=True)
class LaurentMatrix:
    """Matrix over symbol words with vertex-localized Laurent entries.

    A nonzero entry at (row, col) must be localized at the common source
    vertex of the two index words; level-0 matrices (empty index word) may
    hold an entry at any vertex.
    """

    graph: CircleGraph
    level: int
    index: tuple[tuple[Symbol, ...], ...]
    entries: tuple[tuple[int, int, LaurentPoly], ...]

    @classmethod
    def from_dict(cls, g: CircleGraph, level: int, entries: dict) -> "LaurentMatrix":
        idx = admissible_tuples(g, level)
        pos = {t: i for i, t in enumerate(idx)}
        cells = []
        for (row, col), poly in entries.items():
            if poly.is_zero():
                continue
            i, j = pos[tuple(row)], pos[tuple(col)]
            if level > 0:
                src = tuple_source(g, idx[i])
                if src != tuple_source(g, idx[j]) or poly.vertex != src:
                    raise ValueError(
                        f"entry ({row}, {col}) localized at {poly.vertex!r}, "
                        f"index sources demand {src!r}"
                    )
            cells.append((i, j, poly))
        cells.sort(key=lambda c: (c[0], c[1]))
        return cls(g, level, idx, tuple(cells))

    @classmethod
    def scalar(cls, g: CircleGraph, poly: LaurentPoly) -> "LaurentMatrix":
        """Level-0 1x1 matrix holding one vertex-localized function."""
        return cls.from_dict(g, 0, {((), ()): poly})

    @classmethod
    def identity(cls, g: CircleGraph, level: int) -> "LaurentMatrix":
        if level < 1:
            raise ValueError("identity needs level >= 1")
        ents = {}
        for t in admissible_tuples(g, level):
            ents[(t, t)] = LaurentPoly.one(tuple_source(g, t))
        return cls.from_dict(g, level, ents)

    def entry(self, row: tuple[Symbol, ...], col: tuple[Symbol, ...]) -> LaurentPoly | None:
        pos = {t: i for i, t in enumerate(self.index)}
        i, j = pos[tuple(row)], pos[tuple(col)]
        for ci, cj, poly in self.entries:
            if ci == i and cj == j:
                return poly
        return None

    def _cells(self) -> dict:
        return {(i, j): poly for i, j, poly in self.entries}

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.graph, self.level) != (other.graph, other.level):
            raise ValueError("matrix level/graph mismatch")
        cells = self._cells()
        for (i, j), poly in other._cells().items():
            cells[(i, j)] = cells[(i, j)] + poly if (i, j) in cells else poly
        ents = {(self.index[i], self.index[j]): poly for (i, j), poly in cells.items()}
        return LaurentMatrix.from_dict(self.graph, self.level, ents)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.graph, self.level) != (other.graph, other.level):
            raise ValueError("matrix level/graph mismatch")
        by_row: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for i, j, poly in other.entries:
            by_row.setdefault(i, []).append((j, poly))
        cells: dict[tuple[int, int], LaurentPoly] = {}
        for i, k, poly in self.entries:
            for j, q in by_row.get(k, ()):
                prod = poly * q
                if prod.is_zero():
                    continue
                key = (i, j)
                cells[key] = cells[key] + prod if key in cells else prod
        ents = {(self.index[i], self.index[j]): poly for (i, j), poly in cells.items()}
        return LaurentMatrix.from_dict(self.graph, self.level, ents)

    def adjoint(self) -> "LaurentMatrix":
        ents = {
            (self.index[j], self.index[i]): poly.adjoint()
            for i, j, poly in self.entries
        }
        return LaurentMatrix.from_dict(self.graph, self.level, ents)

    def psi_embed(self) -> "LaurentMatrix":
        """One-level embedding: expand each entry into its left-action block.

        Entry a at vertex v becomes the block of inner products
        <xi_i, a . xi_j> over symbols j with r(e_j) = v (others vanish),
        with i, j appended to the row and column words.
        """
        g = self.graph
        basis = {s: basis_vector(g, s) for s in g.symbols()}
        gens = {s: _pairing_data(x) for s, x in basis.items()}
        ents: dict[tuple, LaurentPoly] = {}
        for i, j, poly in self.entries:
            row, col = self.index[i], self.index[j]
            for sj in g.symbols_into(poly.vertex):
                e = g.edge_named(sj.edge)
                # <xi_i, a . xi_j> at s(e): xi_j and its image live on e only
                moved = basis[sj].act_left(poly).component(e.name)
                if moved is None:
                    continue
                for si in _edge_sheets(e):
                    xflag, xs, _ = gens[si][e.name]
                    coeffs: dict = {}
                    _edge_pair(coeffs, e.name, e.p, xflag, xs, moved[0], moved[1].terms)
                    val = _collect(e.source, coeffs)
                    if val.is_zero():
                        continue
                    key = (row + (si,), col + (sj,))
                    ents[key] = ents[key] + val if key in ents else val
        return LaurentMatrix.from_dict(g, self.level + 1, ents)

    def render(self) -> list[list[str]]:
        """Dense rows of entry strings; 'u' is the vertex coordinate."""
        single = len(self.graph.vertices) == 1
        cells = self._cells()
        rows = []
        for i in range(len(self.index)):
            row = []
            for j in range(len(self.index)):
                poly = cells.get((i, j))
                if poly is None:
                    row.append("0")
                else:
                    row.append(poly.render("u" if single else f"u({poly.vertex})"))
            rows.append(row)
        return rows


def act_left(f: LaurentPoly, x: BimoduleVector) -> BimoduleVector:
    """Vertex function times vector, through the range maps."""
    return x.act_left(f)


def act_right(x: BimoduleVector, f: LaurentPoly) -> BimoduleVector:
    """Vector times vertex function, through the source maps."""
    return x.act_right(f)


def psi_embed(m: LaurentMatrix) -> LaurentMatrix:
    """One-level block expansion of a Laurent matrix; see LaurentMatrix.psi_embed."""
    return m.psi_embed()


def left_action_block(g: CircleGraph, f: LaurentPoly) -> LaurentMatrix:
    """Level-1 matrix of a vertex function acting on the standard generators."""
    g.require_valid()
    return LaurentMatrix.scalar(g, f).psi_embed()


def left_action_matrix(g: CircleGraph, vertex: str) -> LaurentMatrix:
    """Matrix of the coordinate function of one vertex circle."""
    if vertex not in g.vertices:
        raise KeyError(f"no vertex named {vertex!r}")
    return left_action_block(g, LaurentPoly.generator(vertex))
