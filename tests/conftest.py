"""Shared graphs and helpers for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from tge import CircleGraph

FIXTURES = Path(__file__).parent / "fixtures"


def two_loop_graph() -> CircleGraph:
    """One vertex, a degree-2 loop winding once and a degree-1 loop winding 3 times."""
    return CircleGraph.build(
        ["v"], [("e1", "v", "v", 2, 1), ("e2", "v", "v", 1, 3)]
    )


def two_cycle_graph() -> CircleGraph:
    """Two vertices joined by a directed 2-cycle, both coverings of degree 1."""
    return CircleGraph.build(
        ["v", "w"], [("f", "v", "w", 1, 2), ("h", "w", "v", 1, -1)]
    )


def three_cycle_graph() -> CircleGraph:
    """Three vertices on a directed cycle with mixed degrees and windings."""
    return CircleGraph.build(
        ["v1", "v2", "v3"],
        [
            ("x", "v1", "v2", 2, 1),
            ("y", "v2", "v3", 1, -2),
            ("z", "v3", "v1", 3, 2),
        ],
    )


def disconnected_graph() -> CircleGraph:
    """Two loops on two vertices with no edges between them."""
    return CircleGraph.build(
        ["v", "w"], [("a", "v", "v", 2, 3), ("b", "w", "w", 3, 2)]
    )


def equal_radius_graph() -> CircleGraph:
    """Single vertex where total covering degree equals total |winding| (both 5).

    No closed word is degenerate: degree products are powers of 3 while
    winding products are powers of 2.
    """
    return CircleGraph.build(
        ["v"],
        [("a", "v", "v", 3, 1), ("b", "v", "v", 1, 2), ("c", "v", "v", 1, 2)],
    )


def doubled_cycle_graph(n: int) -> CircleGraph:
    """Directed n-cycle whose first edge covers with degree 2, the rest with 1.

    The covering matrix has Perron root 2**(1/n), and every eigenvalue
    (2**(1/n) times an n-th root of unity) shares its modulus.
    """
    vertices = [f"v{i}" for i in range(n)]
    return CircleGraph.build(vertices, [
        (f"e{i}", vertices[i], vertices[(i + 1) % n], 2 if i == 0 else 1, 1)
        for i in range(n)
    ])


def heavy_loop_graph(p: int) -> CircleGraph:
    """A loop of covering degree p at v, and one edge each way between v
    and w: P = [[p, 1], [1, 0]].  For large p the Perron vector's weights
    are uneven (about p to 1), so the upper Collatz-Wielandt bound reaches
    the root long before the lower one does."""
    return CircleGraph.build(["v", "w"], [
        ("loop", "v", "v", p, 1), ("out", "v", "w", 1, 2), ("back", "w", "v", 1, 1),
    ])


def write_spec(g: CircleGraph, path: Path) -> str:
    """Write g as a graph spec file and return its path as a string."""
    edges = [{"name": e.name, "source": e.source, "range": e.range, "p": e.p, "q": e.q}
             for e in g.edges]
    path.write_text(json.dumps({"vertices": list(g.vertices), "edges": edges}))
    return str(path)


# Named corpus used by basis verification and other sweeps; every graph is
# valid and has total covering degree at most 12.
def fixture_graphs() -> dict[str, CircleGraph]:
    return {
        "two_loops": two_loop_graph(),
        "single_23": CircleGraph.single_loop(2, 3),
        "single_15": CircleGraph.single_loop(1, 5),
        "single_3_neg2": CircleGraph.single_loop(3, -2),
        "single_11": CircleGraph.single_loop(1, 1),
        "two_cycle": two_cycle_graph(),
        "three_cycle": three_cycle_graph(),
        "disconnected": disconnected_graph(),
        "equal_radius": equal_radius_graph(),
    }


def random_valid_graph(rng: random.Random, max_vertices: int = 3,
                       max_edges: int = 4, max_p: int = 4,
                       max_q: int = 4) -> CircleGraph:
    """A random valid graph: a spanning directed cycle plus extra edges."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(nv):
        edges.append((
            f"c{i}",
            vertices[i],
            vertices[(i + 1) % nv],
            rng.randint(1, max_p),
            rng.choice([-1, 1]) * rng.randint(1, max_q),
        ))
    for j in range(rng.randint(0, max_edges - nv)):
        edges.append((
            f"x{j}",
            rng.choice(vertices),
            rng.choice(vertices),
            rng.randint(1, max_p),
            rng.choice([-1, 1]) * rng.randint(1, max_q),
        ))
    g = CircleGraph.build(vertices, edges)
    g.require_valid()
    return g


def random_sum(rng: random.Random, g: CircleGraph, size: int,
               real_scalars: bool = False):
    """A random element: generators, adjoints, coordinate powers, the unit,
    combined by products and scaled additions.  real_scalars keeps the
    coefficients rational so the result stays inside the parser grammar."""
    from tge import GaussianRational, LaurentPoly, MonomialSum

    atoms = []
    for s in g.symbols():
        atoms.append(MonomialSum.generator(s))
        atoms.append(MonomialSum.generator_adjoint(s))
    for v in g.vertices:
        atoms.append(MonomialSum.vertex_function(LaurentPoly.generator(v)))
        atoms.append(MonomialSum.vertex_function(LaurentPoly.monomial(v, -1)))
    atoms.append(MonomialSum.unit(g))
    x = rng.choice(atoms)
    for _ in range(size):
        other = rng.choice(atoms)
        if rng.random() < 0.5:
            x = x * other
        else:
            im = 0 if real_scalars else rng.randint(-1, 1)
            x = x + other.scale(GaussianRational.of(rng.randint(-2, 2), im))
    return x


@pytest.fixture
def two_loops() -> CircleGraph:
    return two_loop_graph()


@pytest.fixture
def single_23() -> CircleGraph:
    return CircleGraph.single_loop(2, 3)


@pytest.fixture
def two_cycle() -> CircleGraph:
    return two_cycle_graph()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
