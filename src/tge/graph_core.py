"""Finite base graphs of circles glued along power maps.

A graph is a finite set of vertex circles and edge circles.  Edge e sits
over its source vertex via z -> z^p(e) (a covering, so p(e) >= 1) and maps
to its range vertex via z -> z^q(e) (any nonzero winding).  Words of edges
compose right to left: in e_1 e_2 ... e_k consecutive edges must satisfy
s(e_i) = r(e_{i+1}); the word's source is s(e_k) and its range is r(e_1).

Validation is separate from construction so malformed data can be loaded,
inspected and reported on rather than rejected at parse time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterator, NamedTuple

from .errors import CapExceededError, GraphFormatError, GraphValidationError

DEFAULT_WORD_CAP = 10**7


class Symbol(NamedTuple):
    """One sheet (e, k) of edge e's source covering, 1 <= k <= p(e)."""

    edge: str
    k: int


@dataclass(frozen=True)
class CircleEdge:
    name: str
    source: str
    range: str
    p: int
    q: int


class _GraphIndex(NamedTuple):
    """Lookups of one graph, all in input order."""

    edge: dict[str, CircleEdge]
    into: dict[str, tuple[CircleEdge, ...]]
    symbols: tuple[Symbol, ...]
    symbols_into: dict[str, tuple[Symbol, ...]]


@dataclass(frozen=True)
class CircleGraph:
    """Immutable graph spec; run validate() before trusting the data.

    Lookups by edge name and by range vertex go through one index, built on
    first use and kept on the graph object; fields alone decide == and hash.
    """

    vertices: tuple[str, ...]
    edges: tuple[CircleEdge, ...]

    @classmethod
    def build(cls, vertices, edges) -> "CircleGraph":
        return cls(tuple(vertices), tuple(CircleEdge(*e) if not isinstance(e, CircleEdge) else e for e in edges))

    @classmethod
    def single_loop(cls, p: int, q: int, vertex: str = "v", edge: str = "e") -> "CircleGraph":
        """One vertex, one loop edge with covering degree p and winding q."""
        return cls((vertex,), (CircleEdge(edge, vertex, vertex, p, q),))

    @cached_property
    def _index(self) -> _GraphIndex:
        edge: dict[str, CircleEdge] = {}
        into: dict[str, tuple[CircleEdge, ...]] = {}
        symbols: list[Symbol] = []
        symbols_into: dict[str, tuple[Symbol, ...]] = {}
        for e in self.edges:
            sheets = tuple(Symbol(e.name, k) for k in range(1, e.p + 1))
            edge.setdefault(e.name, e)
            into[e.range] = into.get(e.range, ()) + (e,)
            symbols.extend(sheets)
            symbols_into[e.range] = symbols_into.get(e.range, ()) + sheets
        return _GraphIndex(edge, into, tuple(symbols), symbols_into)

    def edge_named(self, name: str) -> CircleEdge:
        """The first edge with this name."""
        try:
            return self._index.edge[name]
        except KeyError:
            raise KeyError(f"no edge named {name!r}") from None

    def edges_into(self, vertex: str) -> tuple[CircleEdge, ...]:
        """Edges whose range is vertex, in edge order."""
        return self._index.into.get(vertex, ())

    def validate(self) -> list[str]:
        """Return every violated graph invariant, naming the offender.

        Checks: distinct vertex and edge names, endpoints exist, p(e) >= 1,
        q(e) != 0, and both endpoint maps are surjective (every vertex is
        the source of some edge and the range of some edge).
        """
        violations = []
        seen_v = set()
        for v in self.vertices:
            if v in seen_v:
                violations.append(f"duplicate vertex name {v!r}")
            seen_v.add(v)
        seen_e = set()
        for e in self.edges:
            if e.name in seen_e:
                violations.append(f"duplicate edge name {e.name!r}")
            seen_e.add(e.name)
            if e.source not in seen_v:
                violations.append(f"edge {e.name!r} has unknown source vertex {e.source!r}")
            if e.range not in seen_v:
                violations.append(f"edge {e.name!r} has unknown range vertex {e.range!r}")
            if e.p < 1:
                violations.append(f"edge {e.name!r} has covering degree p={e.p}, need p >= 1")
            if e.q == 0:
                violations.append(f"edge {e.name!r} has winding q=0, need q != 0")
        sources = {e.source for e in self.edges}
        ranges = {e.range for e in self.edges}
        for v in self.vertices:
            if v not in sources:
                violations.append(f"vertex {v!r} is not the source of any edge")
            if v not in ranges:
                violations.append(f"vertex {v!r} is not the range of any edge")
        return violations

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(self.validate())

    def require_valid(self) -> None:
        """Raise GraphValidationError naming every violation; checked once per graph."""
        if self._violations:
            raise GraphValidationError(self._violations)

    def transpose(self) -> "CircleGraph":
        """Swap the roles of the two endpoint maps on every edge.

        The new covering degree is |q(e)| and the new winding is p(e),
        signed by the old q so that transposing twice is the identity.
        """
        self.require_valid()
        flipped = tuple(
            CircleEdge(e.name, e.range, e.source, abs(e.q), e.p if e.q > 0 else -e.p)
            for e in self.edges
        )
        return CircleGraph(self.vertices, flipped)

    def symbols(self) -> tuple[Symbol, ...]:
        """Sheet symbols (e, 1), ..., (e, p(e)) in edge order."""
        return self._index.symbols

    def symbols_into(self, vertex: str) -> tuple[Symbol, ...]:
        """Sheet symbols of the edges whose range is vertex, in symbol order."""
        return self._index.symbols_into.get(vertex, ())


@dataclass(frozen=True)
class DiscreteWord:
    """A finite word of edge names, leftmost edge outermost."""

    edges: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def check_valid(self, g: CircleGraph) -> None:
        if not self.edges:
            raise ValueError("empty word")
        es = [g.edge_named(n) for n in self.edges]
        for a, b in zip(es, es[1:]):
            if a.source != b.range:
                raise ValueError(
                    f"word breaks at {a.name!r}{b.name!r}: s({a.name})={a.source!r} != r({b.name})={b.range!r}"
                )

    def is_closed(self, g: CircleGraph) -> bool:
        self.check_valid(g)
        first = g.edge_named(self.edges[0])
        last = g.edge_named(self.edges[-1])
        return last.source == first.range

    def source(self, g: CircleGraph) -> str:
        return g.edge_named(self.edges[-1]).source

    def range(self, g: CircleGraph) -> str:
        return g.edge_named(self.edges[0]).range


def walk_words(first, successors, k: int) -> Iterator[tuple]:
    """Every k-letter word a_1 ... a_k with a_1 in first and each a_{i+1} in
    successors(a_i), lexicographic in the orders those iterables give.

    Length 0 has just the empty word; negative lengths have none.
    """
    if k < 1:
        if k == 0:
            yield ()
        return
    prefix: list = []
    stack = [iter(first)]
    while stack:
        for letter in stack[-1]:
            if len(stack) == k:
                yield (*prefix, letter)
            else:
                prefix.append(letter)
                stack.append(iter(successors(letter)))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def enumerate_words(g: CircleGraph, k: int, closed: bool = False,
                    cap: int = DEFAULT_WORD_CAP) -> list[DiscreteWord]:
    """All length-k words, lexicographic in the input edge order.

    With closed=True only words whose source equals their range are kept.
    Raises CapExceededError once more than cap words have been produced.
    """
    return [DiscreteWord(w) for w, _, _ in iter_word_products(g, k, closed, cap)]


def iter_word_products(g: CircleGraph, k: int, closed: bool = True,
                       cap: int = DEFAULT_WORD_CAP) -> Iterator[tuple[tuple[str, ...], int, int]]:
    """Yield (word, product of p, signed product of q) without storing all words."""
    g.require_valid()
    if k < 1:
        raise ValueError(f"word length must be >= 1, got {k}")
    count = 0
    for word in walk_words(g.edges, lambda e: g.edges_into(e.source), k):
        if closed and word[-1].source != word[0].range:
            continue
        count += 1
        if count > cap:
            raise CapExceededError(f"more than {cap} words of length {k}")
        yield tuple(e.name for e in word), prod(e.p for e in word), prod(e.q for e in word)


def parse_graph_spec(obj) -> CircleGraph:
    """Build a CircleGraph from a decoded JSON object, rejecting unknown keys.

    Expected shape:
      {"vertices": ["v", ...],
       "edges": [{"name": "e", "source": "v", "range": "w", "p": 2, "q": -1}, ...]}
    p and q must be JSON integers (not floats, not strings).
    """
    if not isinstance(obj, dict):
        raise GraphFormatError(f"graph spec must be a JSON object, got {type(obj).__name__}")
    extra = set(obj) - {"vertices", "edges"}
    if extra:
        raise GraphFormatError(f"unknown top-level keys: {sorted(extra)}")
    if "vertices" not in obj or "edges" not in obj:
        raise GraphFormatError("graph spec needs both 'vertices' and 'edges'")
    vs = obj["vertices"]
    if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
        raise GraphFormatError("'vertices' must be a list of strings")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise GraphFormatError(f"edge #{i} must be an object")
        extra = set(item) - {"name", "source", "range", "p", "q"}
        if extra:
            raise GraphFormatError(f"edge #{i} has unknown keys: {sorted(extra)}")
        missing = {"name", "source", "range", "p", "q"} - set(item)
        if missing:
            raise GraphFormatError(f"edge #{i} is missing keys: {sorted(missing)}")
        for key in ("name", "source", "range"):
            if not isinstance(item[key], str):
                raise GraphFormatError(f"edge #{i} field {key!r} must be a string")
        for key in ("p", "q"):
            # bool is an int subclass; reject it explicitly
            if not isinstance(item[key], int) or isinstance(item[key], bool):
                raise GraphFormatError(f"edge #{i} field {key!r} must be a JSON integer")
        edges.append(CircleEdge(item["name"], item["source"], item["range"], item["p"], item["q"]))
    return CircleGraph(tuple(vs), tuple(edges))


def load_graph(path) -> CircleGraph:
    """Read and parse a graph spec file; validation is the caller's call."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON in {path}: {exc}") from exc
    return parse_graph_spec(obj)
