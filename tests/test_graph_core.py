"""Graph construction, validation, words, transposition and sheet symbols.

Covers: every validation rule fires and names its offender; the per-graph
lookup index and cached validation keep the scan semantics; spec parsing
rejects malformed shapes; word enumeration agrees with adjacency-matrix
counts and with filtered products; transposition is an involution that
swaps degree data; symbol matrices have the predicted shapes.
"""

import itertools
import json
import random

import pytest

from tge import (
    CapExceededError,
    CircleGraph,
    DiscreteWord,
    GraphFormatError,
    GraphValidationError,
    Symbol,
    admissible_tuples,
    enumerate_words,
    load_graph,
    parse_graph_spec,
    symbol_matrix,
)

from conftest import random_valid_graph, two_loop_graph, two_cycle_graph, three_cycle_graph


def test_validate_lists_every_violation():
    g = CircleGraph.build(
        ["v", "v", "w"],
        [
            ("e", "v", "v", 2, 1),
            ("e", "v", "nowhere", 0, 0),
        ],
    )
    msgs = g.validate()
    joined = "\n".join(msgs)
    assert "duplicate vertex name 'v'" in joined
    assert "duplicate edge name 'e'" in joined
    assert "unknown range vertex 'nowhere'" in joined
    assert "covering degree p=0" in joined
    assert "winding q=0" in joined
    # w is neither a source nor a range
    assert "'w' is not the source of any edge" in joined
    assert "'w' is not the range of any edge" in joined


def test_require_valid_raises_with_violations():
    g = CircleGraph.build(["v"], [("e", "v", "v", 1, 0)])
    with pytest.raises(GraphValidationError) as exc:
        g.require_valid()
    assert exc.value.violations
    assert "q=0" in str(exc.value)


def test_require_valid_repeats_the_same_violations():
    g = CircleGraph.build(["v", "w"], [("e", "v", "v", 0, 1), ("e", "v", "v", 1, 0)])
    raised = []
    for _ in range(3):
        with pytest.raises(GraphValidationError) as exc:
            g.require_valid()
        raised.append(exc.value.violations)
    assert raised == [g.validate()] * 3


def test_edge_named_returns_the_first_edge_of_a_name():
    g = CircleGraph.build(["v"], [("e", "v", "v", 2, 1), ("e", "v", "v", 3, 5)])
    assert (g.edge_named("e").p, g.edge_named("e").q) == (2, 1)
    with pytest.raises(KeyError, match="no edge named 'nope'"):
        g.edge_named("nope")


def test_index_does_not_change_equality_or_hash():
    a, b = two_cycle_graph(), two_cycle_graph()
    a.edge_named("f")
    a.symbols_into("v")
    a.require_valid()
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a.edges_into("v") == b.edges_into("v") == (b.edge_named("h"),)


def test_valid_fixture_graphs_pass():
    for name, g in {
        "two_loops": two_loop_graph(),
        "two_cycle": two_cycle_graph(),
        "three_cycle": three_cycle_graph(),
    }.items():
        assert g.validate() == [], name


def test_parse_graph_spec_round_trip():
    obj = {
        "vertices": ["v", "w"],
        "edges": [
            {"name": "e", "source": "v", "range": "w", "p": 2, "q": -3},
            {"name": "f", "source": "w", "range": "v", "p": 1, "q": 1},
        ],
    }
    g = parse_graph_spec(obj)
    assert g.vertices == ("v", "w")
    e = g.edge_named("e")
    assert (e.source, e.range, e.p, e.q) == ("v", "w", 2, -3)


@pytest.mark.parametrize(
    "obj, needle",
    [
        ([], "must be a JSON object"),
        ({"vertices": ["v"]}, "needs both"),
        ({"vertices": ["v"], "edges": [], "extra": 1}, "unknown top-level keys"),
        ({"vertices": [1], "edges": []}, "list of strings"),
        ({"vertices": ["v"], "edges": [[]]}, "must be an object"),
        ({"vertices": ["v"], "edges": [{"name": "e"}]}, "missing keys"),
        (
            {
                "vertices": ["v"],
                "edges": [
                    {"name": "e", "source": "v", "range": "v", "p": 2.0, "q": 1}
                ],
            },
            "must be a JSON integer",
        ),
        (
            {
                "vertices": ["v"],
                "edges": [
                    {"name": "e", "source": "v", "range": "v", "p": True, "q": 1}
                ],
            },
            "must be a JSON integer",
        ),
    ],
)
def test_parse_graph_spec_rejects(obj, needle):
    with pytest.raises(GraphFormatError, match=needle):
        parse_graph_spec(obj)


def test_load_graph_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphFormatError):
        load_graph(path)


def test_load_graph_reads_spec(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["v"],
                "edges": [{"name": "e", "source": "v", "range": "v", "p": 2, "q": 3}],
            }
        ),
        encoding="utf-8",
    )
    g = load_graph(path)
    assert g.edge_named("e").p == 2


def _edge_adjacency(g):
    """B(e, f) = 1 when f may follow e in a word (s(e) = r(f))."""
    edges = g.edges
    return [
        [1 if a.source == b.range else 0 for b in edges] for a in edges
    ]


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_word_counts_match_adjacency_powers():
    for g in (two_loop_graph(), two_cycle_graph(), three_cycle_graph()):
        b = _edge_adjacency(g)
        power = [[1 if i == j else 0 for j in range(len(b))] for i in range(len(b))]
        for k in range(1, 6):
            if k > 1:
                power = _mat_mul(power, b)
            total = sum(sum(row) for row in power)
            closed = sum(_mat_mul(power, b)[i][i] for i in range(len(b)))
            assert len(enumerate_words(g, k)) == total, (g, k)
            assert len(enumerate_words(g, k, closed=True)) == closed, (g, k)


def test_word_count_examples():
    # two independent loops at one vertex: every length-2 word is closed
    assert len(enumerate_words(two_loop_graph(), 2, closed=True)) == 4
    # a single loop has exactly one word per length
    assert len(enumerate_words(CircleGraph.single_loop(2, 3), 5, closed=True)) == 1
    # a 2-cycle has no closed words of odd length
    assert len(enumerate_words(two_cycle_graph(), 1, closed=True)) == 0
    assert len(enumerate_words(two_cycle_graph(), 3, closed=True)) == 0
    assert len(enumerate_words(two_cycle_graph(), 2, closed=True)) == 2


def test_enumerate_words_order_and_cap():
    g = two_loop_graph()
    words = enumerate_words(g, 1)
    assert words[0] == DiscreteWord(("e1",))
    with pytest.raises(CapExceededError):
        enumerate_words(g, 5, cap=3)
    with pytest.raises(ValueError):
        enumerate_words(g, 0)


def test_walks_match_filtered_products_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        g = random_valid_graph(rng)
        for k in range(1, 5):
            want = [
                DiscreteWord(tuple(e.name for e in w))
                for w in itertools.product(g.edges, repeat=k)
                if all(a.source == b.range for a, b in zip(w, w[1:]))
            ]
            assert enumerate_words(g, k) == want, (g, k)
            closed = [w for w in want if w.is_closed(g)]
            assert enumerate_words(g, k, closed=True) == closed, (g, k)
        for length in range(4):
            want = tuple(
                w for w in itertools.product(g.symbols(), repeat=length)
                if all(g.edge_named(a.edge).source == g.edge_named(b.edge).range
                       for a, b in zip(w, w[1:]))
            )
            assert admissible_tuples(g, length) == want, (g, length)


def test_discrete_word_validity():
    g = two_cycle_graph()
    DiscreteWord(("f", "h")).check_valid(g)
    assert DiscreteWord(("f", "h")).is_closed(g)
    assert DiscreteWord(("f", "h")).source(g) == "w"
    assert DiscreteWord(("f", "h")).range(g) == "w"
    with pytest.raises(ValueError, match="word breaks"):
        DiscreteWord(("f", "f")).check_valid(g)
    with pytest.raises(ValueError, match="empty word"):
        DiscreteWord(()).check_valid(g)
    with pytest.raises(KeyError):
        DiscreteWord(("nope",)).check_valid(g)


def test_transpose_swaps_degree_data():
    g = two_loop_graph()
    t = g.transpose()
    e1, e2 = t.edge_named("e1"), t.edge_named("e2")
    assert (e1.p, e1.q) == (1, 2)
    assert (e2.p, e2.q) == (3, 1)


def test_transpose_is_an_involution():
    for g in (two_loop_graph(), three_cycle_graph(), CircleGraph.single_loop(2, -3)):
        assert g.transpose().transpose() == g


def test_transpose_flips_endpoints():
    g = two_cycle_graph()
    t = g.transpose()
    f = t.edge_named("f")
    assert (f.source, f.range) == ("w", "v")


def test_symbols_count_and_order():
    g = two_loop_graph()
    assert g.symbols() == (Symbol("e1", 1), Symbol("e1", 2), Symbol("e2", 1))
    assert len(CircleGraph.single_loop(4, 3).symbols()) == 4


def test_symbol_graph_single_loop_is_complete():
    m = symbol_matrix(CircleGraph.single_loop(3, 2))
    assert m.labels == ("e:1", "e:2", "e:3")
    assert all(all(x == 1 for x in row) for row in m.entries)


def test_symbol_graph_two_cycle_is_permutation():
    m = symbol_matrix(two_cycle_graph())
    assert m.labels == ("f:1", "h:1")
    assert m.entries == ((0, 1), (1, 0))
    assert m.entries[m.label_index("f:1")][m.label_index("h:1")] == 1
    assert m.entries[m.label_index("f:1")][m.label_index("f:1")] == 0


def test_symbol_graph_respects_vertex_structure():
    m = symbol_matrix(three_cycle_graph())
    # symbol of edge x (source v1) may be followed only by symbols of the
    # edge ranging at v1, which is z
    row = m.entries[m.label_index("x:1")]
    follows = [m.labels[j] for j, bit in enumerate(row) if bit]
    assert follows == ["z:1", "z:2", "z:3"]
