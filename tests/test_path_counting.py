"""Path totals, loop weights, and torus point counts.

Claims covered here:

- covering/winding/absolute-winding/edge-count matrices are laid out
  source-row by range-column with vertex labels
- forward path counts are covering row sums, backward counts are
  absolute-winding column sums, with hand-checked values
- the cyclic exponent system of a closed word has the advertised shape
  and its determinant is the signed loop weight
- loop weights are invariant under cyclic rotation and match the
  brute-force torus solution count of the same system
- per-length loop counts match hand-checked values, raise on degenerate
  words, and coincide with the periodic-point alias
- loop tables record degenerate words instead of raising, flag negative
  windings and formula discrepancies, and always satisfy the trace sandwich
- vertex-level traces equal word-product sums (exact cross-check)
- the symbol matrix has one row per sheet, in edge order, and admits
  (e, k) before (f, l) exactly when s(e) = r(f)
- the transfer-matrix loop table equals a table built by enumerating
  every closed word: same counts, same degenerate words in the same
  order; its cap bounds degenerate words and fires at the first length
  whose enumerated degenerate count exceeds it; loop_count raises
  exactly what word-by-word enumeration raises
- deep tables agree with the binomial closed form of two-loop graphs,
  past the point where the closed words outnumber the cap
- the torus brute force rejects singular systems and enforces its cap
"""

import math
import random

import pytest

from conftest import (
    disconnected_graph,
    fixture_graphs,
    random_valid_graph,
    three_cycle_graph,
    two_cycle_graph,
    two_loop_graph,
)
from tge.errors import CapExceededError, DegenerateLoopError
from tge.exact_matrix import ExactMatrix, determinant, power_trace
from tge.graph_core import (
    CircleGraph,
    DiscreteWord,
    enumerate_words,
    iter_word_products,
)
from tge.path_counting import (
    LoopCountEntry,
    LoopCountTable,
    count_range_paths,
    count_source_paths,
    covering_matrix,
    cyclic_exponent_matrix,
    edge_count_matrix,
    loop_count,
    loop_table,
    loop_weight,
    mat_P,
    mat_Q,
    mat_Q_abs,
    periodic_point_count,
    symbol_matrix,
    torus_solutions_bruteforce,
    word_weight,
    word_weights,
)


def test_vertex_matrices_known_values(two_loops):
    assert covering_matrix(two_loops).entries == ((3,),)
    assert mat_Q(two_loops).entries == ((4,),)
    assert mat_Q_abs(two_loops).entries == ((4,),)
    assert edge_count_matrix(two_loops).entries == ((2,),)
    assert covering_matrix(two_loops).labels == ("v",)

    neg = CircleGraph.single_loop(1, -3)
    assert mat_Q(neg).entries == ((-3,),)
    assert mat_Q_abs(neg).entries == ((3,),)

    tc = two_cycle_graph()
    assert covering_matrix(tc).entries == ((0, 1), (1, 0))
    assert mat_Q(tc).entries == ((0, 2), (-1, 0))
    assert mat_P is covering_matrix


def test_symbol_matrix_shape(two_loops):
    m = symbol_matrix(two_loops)
    assert m.labels == ("e1:1", "e1:2", "e2:1")
    assert m.entries == ((1, 1, 1),) * 3
    # on every fixture: one row and column per sheet (e, k), in edge order,
    # and (e, k) may precede (f, l) exactly when s(e) = r(f)
    for g in fixture_graphs().values():
        lam = symbol_matrix(g)
        sheets = [e for e in g.edges for _ in range(e.p)]
        assert lam.labels == tuple(
            f"{e.name}:{k}" for e in g.edges for k in range(1, e.p + 1)
        )
        assert lam.entries == tuple(
            tuple(int(e.source == f.range) for f in sheets) for e in sheets
        ), g


def test_path_counts_known_values(two_loops, single_23):
    assert count_source_paths(single_23, 3, "v") == 8
    assert count_range_paths(single_23, 2, "v") == 9
    assert count_source_paths(two_loops, 3, "v") == 27
    assert count_range_paths(two_loops, 3, "v") == 64
    neg = CircleGraph.single_loop(1, -2)
    assert count_range_paths(neg, 1, "v") == 2
    # length one: total covering degree out of the vertex
    assert count_source_paths(two_loops, 1, "v") == 3
    with pytest.raises(ValueError):
        count_source_paths(two_loops, -1, "v")


def test_cyclic_exponent_matrix(two_loops):
    w = DiscreteWord(edges=("e1", "e2"))
    m = cyclic_exponent_matrix(two_loops, w)
    assert m.entries == ((2, -3), (-1, 1))
    assert determinant(m) == -1
    assert loop_weight(two_loops, w) == 1


def test_word_weight_fields(single_23):
    ww = word_weight(single_23, DiscreteWord(edges=("e", "e")))
    assert ww.word == ("e", "e")
    assert ww.p_product == 4
    assert ww.q_product == 9
    assert ww.loop_count == 5
    assert ww.formula_count == 5
    assert not ww.degenerate
    assert not ww.discrepancy


def test_degenerate_word_has_no_count():
    deg = CircleGraph.single_loop(1, 1)
    ww = word_weight(deg, DiscreteWord(edges=("e",)))
    assert ww.degenerate
    assert ww.loop_count is None
    assert loop_weight(deg, DiscreteWord(edges=("e",))) is None


def test_invalid_word_rejected():
    th = three_cycle_graph()
    with pytest.raises(ValueError, match="breaks"):
        word_weight(th, DiscreteWord(edges=("x", "y", "z")))


def test_loop_weight_cyclic_invariance():
    th = three_cycle_graph()
    base = DiscreteWord(edges=("x", "z", "y"))
    assert loop_weight(th, base) == 10
    for rot in (("z", "y", "x"), ("y", "x", "z")):
        assert loop_weight(th, DiscreteWord(edges=rot)) == 10


def test_loop_weight_matches_torus_count():
    graphs = list(fixture_graphs().values())
    checked = 0
    for g in graphs:
        for k in (1, 2, 3):
            for word in enumerate_words(g, k, closed=True):
                m = cyclic_exponent_matrix(g, word)
                d = determinant(m)
                if d == 0 or abs(d) > 40:
                    continue
                assert torus_solutions_bruteforce(m) == abs(d)
                assert loop_weight(g, word) == abs(d)
                checked += 1
    assert checked >= 20


def test_loop_count_known_values(two_loops, single_23):
    assert loop_count(single_23, 1) == 1
    assert loop_count(single_23, 2) == 5
    assert [loop_count(two_loops, k) for k in range(1, 5)] == [3, 13, 57, 245]
    assert loop_count(two_cycle_graph(), 2) == 6
    th = three_cycle_graph()
    assert loop_count(th, 3) == 30
    assert loop_count(th, 6) == 60
    assert loop_count(th, 1) == 0
    dis = disconnected_graph()
    assert loop_count(dis, 1) == 2
    assert loop_count(dis, 2) == 10
    assert periodic_point_count is loop_count


def test_loop_count_raises_on_degenerate():
    deg = CircleGraph.single_loop(1, 1)
    for k in (1, 2, 3):
        with pytest.raises(DegenerateLoopError):
            loop_count(deg, k)
    flip = CircleGraph.single_loop(1, -1)
    assert loop_count(flip, 1) == 2
    assert loop_count(flip, 3) == 2
    for k in (2, 4):
        with pytest.raises(DegenerateLoopError) as exc:
            loop_count(flip, k)
        assert exc.value.word == ("e",) * k


def test_trace_identity_against_word_products():
    for g in fixture_graphs().values():
        if len(g.edges) > 3:
            continue
        p = covering_matrix(g)
        qa = mat_Q_abs(g)
        for k in range(1, 7):
            ws = word_weights(g, k)
            assert sum(w.p_product for w in ws) == power_trace(p, k)
            assert sum(abs(w.q_product) for w in ws) == power_trace(qa, k)


def test_loop_table_structure(two_loops):
    t = loop_table(two_loops, 4)
    assert t.counts() == [3, 13, 57, 245]
    for e in t.entries:
        assert e.sandwich_lower == abs(e.trace_p - e.trace_q_abs)
        assert e.sandwich_upper == e.trace_p + e.trace_q_abs
        assert e.sandwich_ok
    assert t.entry(3).trace_p == 27
    assert t.entry(3).trace_q_abs == 64
    assert not t.has_negative_winding
    assert not t.any_degenerate
    assert not t.any_discrepancy


def test_loop_table_sandwich_on_all_fixtures():
    for g in fixture_graphs().values():
        t = loop_table(g, 6)
        for e in t.entries:
            if e.loop_count is None:
                continue
            assert e.sandwich_ok
            assert e.sandwich_lower <= e.loop_count <= e.sandwich_upper


def test_loop_table_records_degenerate_words():
    deg = CircleGraph.single_loop(1, 1)
    t = loop_table(deg, 3)
    assert t.any_degenerate
    for e in t.entries:
        assert e.loop_count is None
        assert e.degenerate_words == (("e",) * e.k,)
        assert e.sandwich_ok is None
    flip = CircleGraph.single_loop(1, -1)
    t2 = loop_table(flip, 4)
    assert t2.has_negative_winding
    assert t2.any_degenerate
    assert t2.any_discrepancy
    assert [e.loop_count for e in t2.entries] == [2, None, 2, None]
    # signed winding differs from what the unsigned formula would claim
    assert t2.entry(1).formula_count == 0


def test_mixed_sign_discrepancy_flag():
    mixed = CircleGraph.single_loop(2, -2)
    t = loop_table(mixed, 2)
    assert t.entry(1).loop_count == 4
    assert t.entry(1).formula_count == 0
    assert t.entry(2).loop_count is None
    assert t.any_discrepancy


def enumerated_table(g, k_max):
    """Loop table built word by word from the closed-word enumerator."""
    q_of = {e.name: e.q for e in g.edges}
    entries = []
    for k in range(1, k_max + 1):
        total, formula, bad = 0, 0, []
        for word, pp, qq in iter_word_products(g, k, closed=True):
            formula += abs(pp - math.prod(abs(q_of[n]) for n in word))
            if pp == qq:
                bad.append(word)
            total += abs(pp - qq)
        entries.append(LoopCountEntry(
            k=k,
            loop_count=None if bad else total,
            formula_count=formula,
            degenerate_words=tuple(bad),
            trace_p=power_trace(covering_matrix(g), k),
            trace_q_abs=power_trace(mat_Q_abs(g), k),
        ))
    return LoopCountTable(tuple(entries), any(e.q < 0 for e in g.edges))


def enumerated_loop_count(g, k):
    """loop_count by enumeration: stops at the first degenerate word."""
    total = 0
    for word, pp, qq in iter_word_products(g, k, closed=True):
        if pp == qq:
            raise DegenerateLoopError(word, f"{'.'.join(word)} ({pp})")
        total += abs(pp - qq)
    return total


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CapExceededError as exc:
        return ("cap", str(exc))
    except DegenerateLoopError as exc:
        return ("degenerate", exc.word)


def small_random_graphs(count, seed):
    """Random graphs; every other one has p, |q| <= 2 so that degenerate
    words are common."""
    rng = random.Random(seed)
    for i in range(count):
        limit = 2 if i % 2 else 4
        yield random_valid_graph(rng, max_p=limit, max_q=limit)


def test_loop_table_matches_enumeration_on_random_graphs():
    degenerate = 0
    for g in small_random_graphs(200, 2024):
        expected = enumerated_table(g, 6)
        assert loop_table(g, 6) == expected, g
        degenerate += expected.any_degenerate
    assert degenerate >= 40


def test_cap_overflow_matches_enumeration():
    raised = 0
    for g in small_random_graphs(200, 7):
        expected = enumerated_table(g, 6)
        assert loop_table(g, 6) == expected, g
        for k in (3, 5):
            assert outcome(loop_count, g, k) == outcome(enumerated_loop_count, g, k), (g, k)
        for cap in (5, 40):
            over = [e.k for e in expected.entries if len(e.degenerate_words) > cap]
            got = outcome(loop_table, g, 6, cap=cap)
            if over:
                assert got == ("cap", f"more than {cap} degenerate words of length {over[0]}"), g
                raised += 1
            else:
                assert got == expected, (g, cap)
    assert raised >= 60


def test_degenerate_family_words_in_enumeration_order():
    # loops (2m, +-m), (m, +-2m) and (p, q) with p/|q| not a power of 2:
    # a word is degenerate exactly when it uses the first two loops equally
    # often and never the third, so even lengths k have C(k, k/2) of them
    for m, s, third in ((1, 1, (3, 1)), (2, -1, (5, -7)), (3, 1, (1, -6))):
        loops = [(2 * m, s * m), (m, 2 * s * m), third]
        for order in ((0, 1, 2), (2, 1, 0)):
            g = CircleGraph.build(["v"], [
                (f"e{i}", "v", "v", *loops[j]) for i, j in enumerate(order)
            ])
            table = loop_table(g, 10)
            assert table == enumerated_table(g, 10)
            for e in table.entries:
                expected = math.comb(e.k, e.k // 2) if e.k % 2 == 0 else 0
                assert len(e.degenerate_words) == expected


def test_deep_two_loop_table_matches_binomial_closed_form():
    # 2^24 closed words at k = 24, more than the default cap, which
    # bounds only the degenerate words listed (none here)
    (p1, q1), (p2, q2) = (3, -2), (1, 5)
    g = CircleGraph.build(["v"], [("a", "v", "v", p1, q1), ("b", "v", "v", p2, q2)])
    table = loop_table(g, 24)
    for e in table.entries:
        k = e.k
        terms = [(math.comb(k, j), p1**j * p2 ** (k - j), q1**j * q2 ** (k - j))
                 for j in range(k + 1)]
        assert e.loop_count == sum(c * abs(pp - qq) for c, pp, qq in terms)
        assert e.formula_count == sum(c * abs(pp - abs(qq)) for c, pp, qq in terms)
    assert loop_count(g, 24) == table.entry(24).loop_count


def test_torus_bruteforce_known_values():
    assert torus_solutions_bruteforce(ExactMatrix.from_rows([[2, 0], [0, 3]])) == 6
    assert torus_solutions_bruteforce(ExactMatrix.from_rows([[2, -3], [-3, 2]])) == 5
    assert torus_solutions_bruteforce(ExactMatrix.from_rows([[1]])) == 1
    with pytest.raises(ValueError, match="singular"):
        torus_solutions_bruteforce(ExactMatrix.from_rows([[0]]))
    with pytest.raises(CapExceededError):
        torus_solutions_bruteforce(
            ExactMatrix.from_rows([[100, 0, 0], [0, 100, 0], [0, 0, 100]]), cap=1000
        )
