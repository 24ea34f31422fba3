"""Growth-rate report: block rates, loop rates, and the comparison verdict.

Claims covered here:

- block growth rates and the forward-shift rate match known logarithms
- the windowed loop-rate estimate lands within its trace sandwich for
  every window length and approaches the dominant block rate
- the second-shift lower bound is exactly the loop-rate estimate
- degenerate graphs raise instead of producing a number
- the verdict is "consistent" for strongly connected graphs with distinct
  radii, "inconclusive" when the radii coincide (sandwich degenerates),
  and records components, signed matrices, and explanatory notes
- growth rates are weakly monotone under adding an edge
- analyze builds one transfer-matrix count and one loop table and reuses
  the verdict's radii
- reports take rho(Lambda) and the transpose rate from rho(P), within
  1e-9 of the dense oracles, and iterate on vertex matrices only, once
  per distinct matrix
- loop tables, analyze and conjecture_check take their traces from the
  transfer-matrix states and multiply no matrices
- the JSON rendering uses the documented field names
"""

import json
import math
import random

import pytest

import tge.cli
import tge.entropy_report
import tge.exact_matrix
from conftest import (
    disconnected_graph,
    equal_radius_graph,
    fixture_graphs,
    random_valid_graph,
    two_loop_graph,
    write_spec,
)
from tge.entropy_report import (
    analyze,
    block_entropy,
    conjecture_check,
    ht_psi_lower,
    loop_entropy_estimate,
    vertex_radii,
)
from tge.errors import DegenerateLoopError
from tge.exact_matrix import ExactMatrix, spectral_radius
from tge.graph_core import CircleGraph
from tge.oracles import block_entropy_transpose, ht_phi
from tge.path_counting import (
    ClosedWordTables,
    covering_matrix,
    loop_table,
    symbol_matrix,
    winding_matrix,
    winding_matrix_abs,
)


def test_block_rates_known_values(two_loops):
    assert abs(block_entropy(two_loops) - math.log(4)) <= 1e-9
    assert abs(block_entropy_transpose(two_loops) - math.log(3)) <= 1e-9
    assert abs(ht_phi(two_loops) - math.log(3)) <= 1e-9
    e23 = CircleGraph.single_loop(2, 3)
    assert abs(block_entropy(e23) - math.log(3)) <= 1e-9
    assert abs(ht_phi(e23) - math.log(2)) <= 1e-9
    assert abs(ht_phi(CircleGraph.single_loop(5, 2)) - math.log(5)) <= 1e-9
    assert abs(ht_phi(CircleGraph.single_loop(3, 1)) - math.log(3)) <= 1e-9


def test_loop_rate_estimate(two_loops):
    est = loop_entropy_estimate(two_loops)
    assert est.k_max == 14
    assert est.window == (10, 14)
    assert abs(est.estimate - math.log(4)) <= 0.02
    assert est.sandwich_low <= est.estimate <= est.sandwich_high
    e31 = CircleGraph.single_loop(3, 1)
    assert abs(loop_entropy_estimate(e31).estimate - math.log(3)) <= 1e-6


def test_estimate_inside_sandwich_for_every_window(two_loops):
    for k_max in range(4, 15):
        est = loop_entropy_estimate(two_loops, k_max=k_max)
        assert est.sandwich_low <= est.estimate <= est.sandwich_high


def test_second_shift_lower_bound_is_loop_rate(two_loops):
    est = loop_entropy_estimate(two_loops)
    assert ht_psi_lower(two_loops) == est.estimate
    # the backward rate dominates the forward one on this graph
    assert ht_psi_lower(two_loops) > ht_phi(two_loops)


def test_degenerate_graph_raises():
    deg = CircleGraph.single_loop(1, 1)
    with pytest.raises(DegenerateLoopError):
        loop_entropy_estimate(deg)
    with pytest.raises(DegenerateLoopError):
        conjecture_check(deg)
    with pytest.raises(DegenerateLoopError):
        analyze(deg)


def test_verdict_consistent_on_two_loops(two_loops):
    v = conjecture_check(two_loops)
    assert v.verdict == "consistent"
    assert abs(v.target - math.log(4)) <= 1e-9
    assert v.difference <= v.tolerance
    assert v.rho_p == 3.0
    assert v.rho_q_abs == 4.0
    assert v.rho_q_signed == 4.0
    assert v.signed_matrix is None
    assert v.strongly_connected
    assert v.component_count == 1
    assert any("forcing the verdict" in n for n in v.notes)


def test_verdict_consistent_on_coprime_pair():
    v = conjecture_check(CircleGraph.single_loop(2, 3))
    assert v.verdict == "consistent"
    assert v.rho_p == 2.0
    assert v.rho_q_abs == 3.0


def test_verdict_equal_radius_inconclusive():
    # modest k_max: the radii comparison, not the tail, decides this verdict
    v = conjecture_check(equal_radius_graph(), k_max=8)
    assert v.verdict == "inconclusive"
    assert any("degenerates" in n for n in v.notes)
    assert abs(v.rho_p - v.rho_q_abs) <= 1e-9


def test_verdict_negative_winding_records_signed_matrix():
    v = conjecture_check(CircleGraph.single_loop(1, -2))
    assert v.verdict == "consistent"
    assert v.signed_matrix == ((-2,),)
    assert v.rho_q_signed is None
    assert any("negative windings" in n for n in v.notes)


def test_verdict_disconnected_graph():
    v = conjecture_check(disconnected_graph())
    assert not v.strongly_connected
    assert v.component_count == 2
    # the two components have swapped degrees, so the radii coincide
    assert v.verdict == "inconclusive"


def test_rates_weakly_monotone_under_edge_addition():
    rng = random.Random(1203)
    for _ in range(15):
        g = random_valid_graph(rng)
        v = rng.choice(g.vertices)
        extra = ("extra", v, v, rng.randint(1, 3), rng.choice([1, 2, -2]))
        bigger = CircleGraph.build(
            list(g.vertices),
            [(e.name, e.source, e.range, e.p, e.q) for e in g.edges] + [extra],
        )
        assert block_entropy(bigger) >= block_entropy(g) - 1e-9
        assert ht_phi(bigger) >= ht_phi(g) - 1e-9


def _cycle_and_wide() -> list[CircleGraph]:
    """A 15-cycle with one p=2 edge, and a 2-vertex graph whose symbol matrix is 62x62."""
    n = 15
    cycle = CircleGraph.build(
        [f"v{i}" for i in range(n)],
        [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", 2 if i == 6 else 1, -1 if i % 4 else 1)
         for i in range(n)],
    )
    wide = CircleGraph.build(
        ["v", "w"],
        [("a", "v", "w", 60, 5), ("b", "w", "v", 1, -3), ("c", "v", "v", 1, 2)],
    )
    return [cycle, wide]


def _identity_graphs() -> list[CircleGraph]:
    """The fixture graphs, 40 random graphs, the cycle and the wide graph."""
    rng = random.Random(4417)
    return [*fixture_graphs().values(), *(random_valid_graph(rng) for _ in range(40)),
            *_cycle_and_wide()]


def _cli_json(capsys, *argv) -> dict:
    assert tge.cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_symbol_rate_matches_covering_rate(tmp_path, capsys):
    analyzed = 0
    for i, g in enumerate(_identity_graphs()):
        rho_lam = spectral_radius(symbol_matrix(g)).radius
        h_t = block_entropy_transpose(g)
        radii = vertex_radii(g)
        assert radii.rho_P == spectral_radius(covering_matrix(g)).radius
        path = write_spec(g, tmp_path / f"g{i}.json")
        docs = [_cli_json(capsys, "spectra", path)]
        try:
            report = analyze(g, k_max=4)
        except DegenerateLoopError:
            pass
        else:
            analyzed += 1
            docs += [report.to_json_dict(), _cli_json(capsys, "analyze", path, "--kmax", "4")]
        for doc in docs:
            assert doc["rho_Lambda"] == doc["rho_P"]
            assert abs(doc["rho_Lambda"] - rho_lam) <= 1e-9 * rho_lam
            if "ht_phi" in doc:
                assert doc["ht_phi"] == doc["h_b_transpose"]
                assert abs(doc["h_b_transpose"] - h_t) <= 1e-9 * max(1.0, abs(h_t))
                assert abs(doc["ht_phi"] - math.log(rho_lam)) <= 1e-9 * max(1.0, abs(h_t))
    assert analyzed >= 30


def test_reports_iterate_on_vertex_matrices_only(tmp_path, capsys, monkeypatch):
    sizes = []
    real = tge.exact_matrix.spectral_radius

    def counted(m, *args, **kwargs):
        sizes.append(m.n)
        return real(m, *args, **kwargs)

    for module in (tge.exact_matrix, tge.entropy_report, tge.cli):
        monkeypatch.setattr(module, "spectral_radius", counted, raising=False)
    # a negative winding that Q still absorbs: Q = (1) >= 0, |Q| = (5)
    mixed = CircleGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 1, -2)])
    graphs = [two_loop_graph(), CircleGraph.single_loop(3, -2), mixed, *_cycle_and_wide()]
    for i, g in enumerate(graphs):
        # a third radius only for a nonnegative Q that is not |Q|
        q = winding_matrix(g)
        bound = 3 if q.is_nonnegative() and q != winding_matrix_abs(g) else 2
        path = write_spec(g, tmp_path / f"g{i}.json")
        for run in (lambda: analyze(g, k_max=4), lambda: _cli_json(capsys, "spectra", path)):
            sizes.clear()
            run()
            assert 1 <= len(sizes) <= bound
            assert max(sizes) <= len(g.vertices)


def test_reports_take_traces_from_the_dp_states(monkeypatch):
    products = []
    real = ExactMatrix.__matmul__

    def counted(self, other):
        products.append(self.n)
        return real(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    mixed = CircleGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 1, -2)])
    for g in (two_loop_graph(), mixed, disconnected_graph(), *_cycle_and_wide()):
        loop_table(g, 8)
        analyze(g, k_max=6)
        conjecture_check(g, k_max=6)
    assert products == []
    covering_matrix(mixed) @ covering_matrix(mixed)
    assert products == [1]


def test_report_json_field_names(two_loops):
    rep = analyze(two_loops)
    d = rep.to_json_dict()
    assert sorted(d.keys()) == [
        "conjecture_verdict",
        "h_b",
        "h_b_transpose",
        "h_ell_estimate",
        "h_ell_sequence",
        "ht_phi",
        "ht_psi_lower",
        "notes",
        "rho_Lambda",
        "rho_P",
        "rho_Q_abs",
    ]
    assert d["rho_P"] == 3.0
    assert d["rho_Q_abs"] == 4.0
    assert d["rho_Lambda"] == 3.0
    assert abs(d["h_b"] - math.log(4)) <= 1e-9
    assert d["ht_psi_lower"] == d["h_ell_estimate"]
    seq = d["h_ell_sequence"]
    assert [row["k"] for row in seq] == list(range(1, 15))
    assert all(isinstance(row["rate"], float) for row in seq)
    verdict = d["conjecture_verdict"]
    assert verdict["verdict"] == "consistent"
    assert verdict["sandwich_low"] <= verdict["estimate"] <= verdict["sandwich_high"]


def test_analyze_builds_one_loop_table(two_loops, monkeypatch):
    built, tabulated = [], []
    real_init, real_table = ClosedWordTables.__init__, ClosedWordTables.table

    def counted_init(self, g):
        built.append(g)
        real_init(self, g)

    def counted_table(self, k_max):
        tabulated.append(k_max)
        return real_table(self, k_max)

    monkeypatch.setattr(ClosedWordTables, "__init__", counted_init)
    monkeypatch.setattr(ClosedWordTables, "table", counted_table)
    report = analyze(two_loops, k_max=6)
    assert built == [two_loops]
    assert tabulated == [6]
    verdict = report.conjecture_verdict
    assert report.table is verdict.loop_estimate.table
    assert report.table.counts() == [3, 13, 57, 245, 973, 4051]
    assert (report.rho_P, report.rho_Q_abs) == (verdict.rho_p, verdict.rho_q_abs)
    assert "table" not in report.to_json_dict()
