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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import NormalizationError
from .graph_core import CircleEdge, CircleGraph, Symbol, walk_words
from .laurent_algebra import LaurentPoly


@dataclass(frozen=True)
class BimoduleVector:
    """Per-edge Laurent components, each tagged by a normalization flag."""

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
        if self.graph != other.graph:
            raise ValueError("vectors over different graphs")
        parts: dict[str, tuple[bool, LaurentPoly]] = {e: (f, p) for e, f, p in self.components}
        for e, f, p in other.components:
            if e in parts:
                f0, p0 = parts[e]
                if f0 != f:
                    raise NormalizationError(
                        f"edge {e!r}: cannot add a normalized and an unnormalized component"
                    )
                parts[e] = (f0, p0 + p)
            else:
                parts[e] = (f, p)
        return BimoduleVector.build(self.graph, parts)

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
        """Act through endpoint(e) = (vertex, power) of each component's edge."""
        parts = {}
        for name, flag, poly in self.components:
            vertex, power = endpoint(self.graph.edge_named(name))
            if vertex != f.vertex:
                continue
            parts[name] = (flag, poly * f.substitute_power(power).with_vertex(name))
        return BimoduleVector.build(self.graph, parts)


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


def inner(x: BimoduleVector, y: BimoduleVector) -> dict[str, LaurentPoly]:
    """Transfer-valued inner product, conjugate-linear in the first slot.

    Returns one Laurent polynomial per vertex v: the sum over edges with
    source v of transfer(adjoint(x_e) * y_e, p(e)).  Normalization flags
    resolve within each shared edge: two flags give the exact factor
    1/p(e); a single unmatched flag cannot be resolved exactly and raises.
    """
    if x.graph != y.graph:
        raise ValueError("vectors over different graphs")
    g = x.graph
    out = {v: LaurentPoly.zero(v) for v in g.vertices}
    ybyedge = {e: (f, p) for e, f, p in y.components}
    for name, xflag, xpoly in x.components:
        got = ybyedge.get(name)
        if got is None:
            continue
        yflag, ypoly = got
        e = g.edge_named(name)
        term = (xpoly.adjoint() * ypoly).transfer(e.p).with_vertex(e.source)
        if xflag and yflag:
            term = term.scale(Fraction(1, e.p))
        elif xflag or yflag:
            raise NormalizationError(
                f"edge {name!r}: inner product leaves an unresolved 1/sqrt({e.p}) factor"
            )
        out[e.source] = out[e.source] + term
    return out


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
    2 max p(e) unless overridden.  (Flagged test vectors are equivalent to
    plain ones: reconstruction is linear and each edge scale factor is a
    nonzero constant, but flagged vectors keep every coefficient rational.)
    """
    g.require_valid()
    if max_exponent is None:
        max_exponent = 2 * max(e.p for e in g.edges)
    syms = g.symbols()
    basis = {s: basis_vector(g, s) for s in syms}
    failures: list[str] = []
    ortho = 0
    for si in syms:
        ei = g.edge_named(si.edge)
        for sj in syms:
            ortho += 1
            fam = inner(basis[si], basis[sj])
            for v, poly in fam.items():
                want = LaurentPoly.one(v) if (si == sj and v == ei.source) else LaurentPoly.zero(v)
                if poly != want:
                    failures.append(
                        f"inner({si}, {sj}) at vertex {v!r}: got {poly}, want {want}"
                    )
    recon = 0
    for e in g.edges:
        for m in range(-max_exponent, max_exponent + 1):
            recon += 1
            eta = monomial_vector(g, e.name, m, normalized=True)
            total = BimoduleVector.zero(g)
            for s in _edge_sheets(e):
                total = total + basis[s].act_right(inner(basis[s], eta)[e.source])
            if total != eta:
                failures.append(f"reconstruction failed for z^{m} on edge {e.name!r}")
    return BasisReport(not failures, ortho, recon, tuple(failures))


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
        ents: dict[tuple, LaurentPoly] = {}
        for i, j, poly in self.entries:
            row, col = self.index[i], self.index[j]
            for sj in g.symbols_into(poly.vertex):
                e = g.edge_named(sj.edge)
                moved = basis[sj].act_left(poly)
                for si in _edge_sheets(e):
                    val = inner(basis[si], moved)[e.source]
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
