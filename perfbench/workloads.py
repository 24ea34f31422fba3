"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds one
request per slot of the workload, in a seeded order, so any prefix of the
sequence has nearly the same request mix.  A slot fixes the command and
the input size band; the seed picks the graph details inside the band.
The program only ever sees the generated graph files and expression
strings.

growth   CLI analyze (JSON, CSV), conjecture and loops on one-vertex graphs
         with 2-4 loops and on 2-3-vertex random graphs; one graph per
         round (1 in 14) has degenerate closed words.
spectra  CLI spectra and analyze --kmax <= 8 on weighted directed cycles
         (15-32 vertices) and on two-vertex graphs with one covering
         degree between 50 and 200.
algebra  CLI rewrite and verify-basis, plus library calls (normal_equal,
         chi_m, psi_core, matrix_unit_check) on shared graph objects.

In growth and spectra no (graph, command, arguments) triple repeats
within one process.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import reference

WORKLOADS = ("growth", "spectra", "algebra")
DRAWS = 200         # draws per slot before the generator gives up on a fresh input
DEFAULT_KMAX = 14  # the CLI default; requests that omit --kmax rely on it

# Seconds per loop table of the enumerating implementation, fitted once on an
# Intel Xeon with Python 3.11: A * (prefix-tree nodes) + B * (closed-word
# letters times edge count).  Only used to pick --kmax for a cost band; the
# inputs stay a function of the seed alone.
_NODE_S = 4.0e-7
_LETTER_S = 8.7e-8


class BenchError(Exception):
    """The benchmark cannot run (no tge sources, or a slot ran out of fresh inputs)."""


@dataclass(frozen=True)
class Request:
    slot: str                      # workload slot, e.g. "loops.rand3"
    command: str                   # CLI subcommand or library operation
    graph: str                     # corpus key of the graph
    argv: tuple = ()               # CLI arguments after the subcommand and graph path
    expect: dict = field(default_factory=dict)  # library arguments and check hints

    @property
    def is_cli(self) -> bool:
        return not self.command.startswith("lib.")


def _loop(name: str, vertex: str, p: int, q: int) -> dict:
    return {"name": name, "source": vertex, "range": vertex, "p": p, "q": q}


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def one_vertex_graph(rng: random.Random, loops: int) -> dict:
    edges = [_loop(f"e{i}", "v", rng.randint(1, 4), _signed(rng, 1, 12)) for i in range(loops)]
    return {"vertices": ["v"], "edges": edges}


def _power_of_two_ratio(p: int, q: int) -> bool:
    g = math.gcd(p, q)
    return all(n & (n - 1) == 0 for n in (p // g, q // g))


# Loop pairs (2m, s*m), (m, s*2m) and a third loop (p, q) whose ratio p/|q| is
# not a power of 2: 6912 graphs once the three loops are ordered.
DEGENERATE_FAMILY = tuple(
    (m, s, p, sign * q) for m in (1, 2, 3) for s in (1, -1) for p in range(1, 7)
    for q in range(1, 21) if not _power_of_two_ratio(p, q) for sign in (1, -1))


def degenerate_graph(rng: random.Random) -> dict:
    """One vertex with loops (2m, s*m), (m, s*2m) and a third loop (p, q).

    A word using a copies of the first loop, b of the second and c of the
    third has prod p / prod q = +-2^(a-b) (p/q)^c, which is 1 exactly when
    c = 0 and a = b because p/|q| is not a power of 2.  So length k (even)
    has C(k, k/2) degenerate words whatever the seed picks.
    """
    m, s, p, q = rng.choice(DEGENERATE_FAMILY)
    loops = [(2 * m, s * m), (m, s * 2 * m), (p, q)]
    rng.shuffle(loops)
    return {"vertices": ["v"],
            "edges": [_loop(f"e{i}", "v", p, q) for i, (p, q) in enumerate(loops)]}


def random_graph(rng: random.Random, n: int, max_edges: int) -> dict:
    """A spanning directed cycle plus extra edges, so every vertex is a source and a range."""
    vs = [f"v{i}" for i in range(n)]
    edges = [{"name": f"c{i}", "source": vs[i], "range": vs[(i + 1) % n],
              "p": rng.randint(1, 4), "q": _signed(rng, 1, 4)} for i in range(n)]
    for j in range(rng.randint(max(1, 3 - n), max_edges - n)):
        edges.append({"name": f"x{j}", "source": rng.choice(vs), "range": rng.choice(vs),
                      "p": rng.randint(1, 4), "q": _signed(rng, 1, 4)})
    return {"vertices": vs, "edges": edges}


def cycle_graph(rng: random.Random, n: int) -> dict:
    """Directed n-cycle: one edge covers with degree 2, the rest with 1; windings +-1."""
    doubled = rng.randrange(n)
    edges = [{"name": f"e{i}", "source": f"v{i}", "range": f"v{(i + 1) % n}",
              "p": 2 if i == doubled else 1, "q": rng.choice((-1, 1))} for i in range(n)]
    return {"vertices": [f"v{i}" for i in range(n)], "edges": edges}


def wide_graph(rng: random.Random, p: int) -> dict:
    """Two vertices; edge a covers with degree p, so the symbol matrix is (p+2)^2."""
    return {"vertices": ["v", "w"], "edges": [
        {"name": "a", "source": "v", "range": "w", "p": p, "q": _signed(rng, 1, 6)},
        {"name": "b", "source": "w", "range": "v", "p": 1, "q": _signed(rng, 2, 5)},
        {"name": "c", "source": "v", "range": "v", "p": 1, "q": _signed(rng, 2, 5)},
    ]}


def basis_graph(rng: random.Random, total_p: int, small: int | None = None) -> dict:
    """One vertex, two loops whose covering degrees add up to total_p."""
    small = small or rng.randint(1, 4)
    return {"vertices": ["v"], "edges": [
        _loop("a", "v", total_p - small, _signed(rng, 1, 3)),
        _loop("b", "v", small, _signed(rng, 1, 3)),
    ]}


def table_seconds(graph: dict, k_max: int) -> float:
    """Modelled cost of one loop table up to k_max (see _NODE_S)."""
    by_range = defaultdict(list)
    for e in graph["edges"]:
        by_range[e["range"]].append(e)
    ends: dict[tuple, int] = defaultdict(int)     # (first range, current source) -> words
    for e in graph["edges"]:
        ends[(e["range"], e["source"])] += 1
    words, closed = [], []
    for _ in range(k_max):
        words.append(sum(ends.values()))
        closed.append(sum(c for (a, b), c in ends.items() if a == b))
        nxt: dict[tuple, int] = defaultdict(int)
        for (a, b), c in ends.items():
            for e in by_range[b]:
                nxt[(a, e["source"])] += c
        ends = nxt
    nodes = sum(sum(words[:k]) for k in range(1, k_max + 1))
    letters = sum((k + 1) * closed[k - 1] for k in range(1, k_max + 1)) * len(graph["edges"])
    return _NODE_S * nodes + _LETTER_S * letters


def kmax_for(graph: dict, tables: int, target_s: float) -> int:
    """Largest k_max (2 to 24) whose modelled cost stays within target_s."""
    k = 2
    while k < 24 and tables * table_seconds(graph, k + 1) <= target_s:
        k += 1
    return k


# ---------------------------------------------------------------------------
# algebra inputs

ALGEBRA_GRAPHS = {
    "two_loops": {"vertices": ["v"], "edges": [
        _loop("e1", "v", 2, 1), _loop("e2", "v", 1, 3)]},
    "single_23": {"vertices": ["v"], "edges": [_loop("e", "v", 2, 3)]},
    "two_vertex": {"vertices": ["v", "w"], "edges": [
        {"name": "f", "source": "v", "range": "w", "p": 2, "q": 1},
        {"name": "h", "source": "w", "range": "v", "p": 1, "q": -1},
        {"name": "l", "source": "v", "range": "v", "p": 1, "q": 2},
    ]},
}

# Fixed rewrite inputs whose normal forms are frozen in data/normal_forms.json.
ANCHORS = (
    ("two_loops", "(S(e1,1) + S(e2,1) + u(v))*(S*(e1,2) + 1/2 + u(v)^-1)*(S(e1,2) + S*(e2,1) + 3)"),
    ("two_loops", "(S(e1,1) + S*(e1,1) + u(v)^2 + 2)*(S(e2,1) + S*(e1,2) + u(v)^-1 + 1/3)"
                  "*(S*(e2,1) + S(e1,2) + u(v) + -1)*(S(e1,1)*S*(e1,2) + u(v)^3 + 5/2 + S(e2,1))"),
    ("two_loops", "(S(e1,1)*S(e1,2) + S*(e2,1) + 1)*(u(v) + u(v)^-2 + S(e1,1))"
                  "*(S*(e1,1)*S*(e1,2) + 2 + S(e2,1))*(u(v)^-1 + S*(e1,2) + 1/4)"
                  "*(S(e2,1) + u(v)^2 + S*(e1,1))"),
    ("single_23", "(S(e,1) + S(e,2) + u(v))*(S*(e,1) + u(v)^-1 + 2)*(S(e,2) + S*(e,2) + 1/2)"
                  "*(u(v)^3 + S*(e,1) + S(e,1))"),
    ("two_vertex", "(S(f,1) + S(f,2) + u(v) + S(l,1))*(S*(h,1) + S*(f,1) + u(w)^-1 + 3)"
                   "*(S(h,1) + u(w) + S*(l,1) + 1/2)"),
    ("two_vertex", "(S(f,2)*S(h,1) + u(v)^2 + S*(l,1) + 1)*(S(l,1) + S*(f,1) + u(w) + 2/3)"
                   "*(S(h,1) + S*(h,1) + u(v)^-1 + S(f,1))*(u(w)^2 + S*(f,2) + S(l,1) + -2)"),
)


def _atoms(graph: dict) -> list[str]:
    out = []
    for e in graph["edges"]:
        for k in range(1, e["p"] + 1):
            out += [f"S({e['name']},{k})", f"S*({e['name']},{k})"]
    return out


def random_expression(rng: random.Random, graph: dict, factors: int, width: int) -> str:
    """A product of `factors` sums of `width` atoms: width**factors input terms."""
    gens = _atoms(graph)
    sums = []
    for _ in range(factors):
        atoms = []
        for _ in range(width):
            kind = rng.random()
            if kind < 0.6:
                atoms.append(rng.choice(gens))
            elif kind < 0.85:
                n = rng.choice((-2, -1, 1, 2, 3))
                atoms.append(f"u({rng.choice(graph['vertices'])})^{n}")
            else:
                atoms.append(f"{rng.randint(1, 5)}/{rng.randint(1, 4)}")
        sums.append("(" + " + ".join(atoms) + ")")
    return "*".join(sums)


# ---------------------------------------------------------------------------
# workload definitions


class Workload:
    """Endless, seeded request rounds plus the corpus files they refer to."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self.graphs: dict[str, dict] = {}
        self._seen: set[bytes] = set()   # digests of the (graph, command, argv) triples sent
        self._keys = 0
        self._round = 0
        self._build_round = getattr(self, f"_round_{name}")

    # corpus --------------------------------------------------------------

    def graph_path(self, key: str) -> Path:
        return self.workdir / "graphs" / f"{key}.json"

    def add_graph(self, graph: dict, key: str | None = None) -> str:
        if key is None:
            self._keys += 1
            key = f"g{self._keys:05d}"
        if key not in self.graphs:
            self.graphs[key] = graph
            path = self.graph_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(graph, indent=1) + "\n", encoding="utf-8")
        return key

    def release(self, reqs) -> list[str]:
        """Forget the graphs of finished requests, except the shared algebra graphs."""
        keys = sorted({r.graph for r in reqs} - set(ALGEBRA_GRAPHS))
        for key in keys:
            self.graphs.pop(key, None)
            self.graph_path(key).unlink(missing_ok=True)
        return keys

    def argv(self, req: Request) -> list[str]:
        return [req.command, str(self.graph_path(req.graph)), *req.argv]

    # rounds --------------------------------------------------------------

    def next_round(self) -> list[Request]:
        rng = random.Random(f"{self.name}/{self.seed}/{self._round}")
        self._round += 1
        reqs = self._build_round(rng, self._round - 1)
        rng.shuffle(reqs)
        return reqs

    def warmup(self) -> list[Request]:
        """One request per command, on inputs that the measured rounds never use."""
        rng = random.Random(f"{self.name}/{self.seed}/warmup")
        firsts = {}
        for req in self._build_round(rng, -1):
            firsts.setdefault(req.command, req)
        return list(firsts.values())

    def _unique(self, slot, command, make):
        """Draw (graph, argv) until the (graph, command, argv) triple is new in this process.

        make() returns None for a draw outside the slot's band (say, a graph
        with degenerate words); that draw counts as a miss too.
        """
        for _ in range(DRAWS):
            drawn = make()
            if drawn is None:
                continue
            graph, argv = drawn
            ident = hashlib.blake2b(json.dumps([graph, command, argv], sort_keys=True).encode(),
                                    digest_size=16).digest()
            if ident in self._seen:
                continue
            self._seen.add(ident)
            return Request(slot, command, self.add_graph(graph), tuple(argv))
        raise BenchError(f"slot {slot}: no fresh input after {DRAWS} draws")

    # Every slot has the same share of requests.  The slot lists are ordered
    # by cost on the seed: the median falls inside a group of near-equal
    # slots in the middle and p90 inside a pair of equal slots near the top,
    # so the percentiles do not jump between slots from one seed to the next.
    # growth has 15 slots (median in slots 6-9, p90 in the top pair), spectra
    # 17 (median in slots 7-11, p90 in slots 15-16) and algebra 18 (median in
    # slots 8-10, p90 in slots 16-17).

    def _round_growth(self, rng: random.Random, index: int) -> list[Request]:
        csv = ("--format", "csv")

        def v1(loops, k_max, *extra):
            """One-vertex graph: E**k words at length k, so a fixed cost per slot."""
            def make():
                g = one_vertex_graph(rng, loops)
                if not any(reference.multinomial_reference(g, k_max).degenerate):
                    return g, ("--kmax", str(k_max), *extra) if k_max != DEFAULT_KMAX else extra
            return make

        def rand(n, tables, target_s, *extra):
            """Random 2-3-vertex graph with --kmax picked for a cost band."""
            def make():
                g = random_graph(rng, n, 5)
                k_max = kmax_for(g, tables, target_s)
                if not any(reference.loop_reference(g, k_max).degenerate):
                    return g, ("--kmax", str(k_max), *extra)
            return make

        # one degenerate graph per round: loops lists its words, analyze exits 5
        listed = self._unique("loops.degenerate", "loops",
                              lambda: (degenerate_graph(rng), ("--kmax", "10")))
        deg = self.graphs[listed.graph]
        return [
            self._unique("loops.rand2", "loops", rand(2, 1, 0.015)),
            self._unique("loops.rand3", "loops", rand(3, 1, 0.03)),
            self._unique("conjecture.rand3", "conjecture", rand(3, 1, 0.05)),
            self._unique("analyze-csv.rand3", "analyze", rand(3, 3, 0.06, *csv)),
            self._unique("analyze.rand2", "analyze", rand(2, 2, 0.06)),
            self._unique("loops.v1e2", "loops", v1(2, 13)),
            self._unique("loops.v1e4", "loops", v1(4, 7)),
            self._unique("conjecture.v1e3", "conjecture", v1(3, 9)),
            self._unique("analyze.v1e3", "analyze", v1(3, 8)),
            self._unique("analyze-csv.v1e3", "analyze", v1(3, 9, *csv)),
            self._unique("analyze.v1e2.default-kmax", "analyze", v1(2, DEFAULT_KMAX)),
            # two equal tail slots: p90 falls inside their pooled samples
            self._unique("analyze.v1e4.a", "analyze", v1(4, 8)),
            self._unique("analyze.v1e4.b", "analyze", v1(4, 8)),
            listed,
            self._unique("analyze.degenerate", "analyze", lambda: (deg, ("--kmax", "10"))),
        ]

    def _round_spectra(self, rng: random.Random, index: int) -> list[Request]:
        def cycle(lo, hi, kmax=None):
            def make():
                g = cycle_graph(rng, rng.randint(lo, hi))
                return g, ("--kmax", str(rng.randint(*kmax))) if kmax else ()
            return make

        def wide(lo, hi, kmax=None):
            def make():
                g = wide_graph(rng, rng.randint(lo, hi))
                if not any(reference.loop_reference(g, 8).degenerate):
                    return g, ("--kmax", str(rng.randint(*kmax))) if kmax else ()
            return make

        return [
            self._unique("analyze.wide50", "analyze", wide(50, 100, (5, 8))),
            self._unique("spectra.wide50", "spectra", wide(50, 90)),
            self._unique("spectra.cycle15", "spectra", cycle(15, 15)),
            self._unique("spectra.cycle16", "spectra", cycle(16, 16)),
            self._unique("spectra.wide90", "spectra", wide(90, 140)),
            self._unique("spectra.cycle17", "spectra", cycle(17, 17)),
            self._unique("analyze.cycle15", "analyze", cycle(15, 15, (4, 8))),
            self._unique("spectra.cycle19.a", "spectra", cycle(19, 19)),
            self._unique("spectra.cycle19.b", "spectra", cycle(19, 19)),
            self._unique("spectra.cycle19.c", "spectra", cycle(19, 19)),
            self._unique("analyze.cycle16", "analyze", cycle(16, 16, (4, 8))),
            self._unique("spectra.cycle21", "spectra", cycle(21, 22)),
            self._unique("spectra.wide140", "spectra", wide(140, 200)),
            self._unique("spectra.cycle24", "spectra", cycle(24, 25)),
            self._unique("spectra.cycle28.a", "spectra", cycle(28, 28)),
            self._unique("spectra.cycle28.b", "spectra", cycle(28, 28)),
            self._unique("spectra.cycle30", "spectra", cycle(30, 32)),
        ]

    def _round_algebra(self, rng: random.Random, index: int) -> list[Request]:
        for key, graph in ALGEBRA_GRAPHS.items():
            self.add_graph(graph, key)

        def rewrite(slot, factors):
            key = rng.choice(("two_loops", "two_vertex"))
            expr = random_expression(rng, ALGEBRA_GRAPHS[key], factors, 4)
            return Request(slot, "rewrite", key, ("-e", expr))

        def basis(slot, lo, hi, small=None):
            key = self.add_graph(basis_graph(rng, rng.randint(lo, hi), small))
            return Request(slot, "verify-basis", key)

        def element(key, factors):
            return random_expression(rng, ALGEBRA_GRAPHS[key], factors, 3)

        # slots whose cost depends on the choice rotate through every choice
        anchor_key, anchor = ANCHORS[index % len(ANCHORS)]
        unit_key, unit_k = (("two_loops", 1), ("single_23", 2), ("two_vertex", 2))[index % 3]
        modes = ("phi", "unit", "perturbed")
        chi_key = rng.choice(("two_loops", "single_23"))
        psi_key = rng.choice(tuple(ALGEBRA_GRAPHS))

        def equal(slot, mode):
            key = rng.choice(("two_loops", "two_vertex"))
            return Request(f"{slot}.{mode}", "lib.normal_equal", key, (),
                           {"x": element(key, 2), "mode": mode, "symbol": rng.randrange(10)})

        def units(slot, key, k):
            return Request(slot, "lib.matrix_unit_check", key, (), {"k": k})

        return [
            equal("lib.normal_equal.a", modes[index % 3]),
            equal("lib.normal_equal.b", modes[(index + 1) % 3]),
            Request("lib.psi_core", "lib.psi_core", psi_key, (),
                    {"vertex": rng.choice(ALGEBRA_GRAPHS[psi_key]["vertices"]),
                     "power": rng.randint(1, 3)}),
            rewrite("rewrite.3x4", 3),
            rewrite("rewrite.4x4", 4),
            Request("rewrite.anchor", "rewrite", anchor_key, ("-e", anchor), {"anchor": True}),
            Request("lib.chi_m.1", "lib.chi_m", chi_key, (),
                    {"x": element(chi_key, 2), "y": element(chi_key, 2), "m": 1}),
            units("lib.matrix_unit_check.a", "two_vertex", 1),
            units("lib.matrix_unit_check.b", "two_vertex", 1),
            units("lib.matrix_unit_check.c", "two_vertex", 1),
            Request("lib.chi_m.2", "lib.chi_m", chi_key, (),
                    {"x": element(chi_key, 2), "y": element(chi_key, 1), "m": 2}),
            rewrite("rewrite.5x4", 5),
            basis("verify-basis.p16", 16, 16, small=2),
            units("lib.matrix_unit_check.rotating", unit_key, unit_k),
            rewrite("rewrite.6x4", 6),
            basis("verify-basis.p52.a", 52, 54),
            basis("verify-basis.p52.b", 52, 54),
            basis("verify-basis.p62", 60, 64),
        ]
