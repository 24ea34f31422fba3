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
- analyze builds one loop table and reuses the verdict's radii
- the JSON rendering uses the documented field names
"""

import math
import random

import pytest

import tge.entropy_report
from conftest import (
    disconnected_graph,
    equal_radius_graph,
    fixture_graphs,
    random_valid_graph,
)
from tge.entropy_report import (
    analyze,
    block_entropy,
    block_entropy_transpose,
    conjecture_check,
    ht_phi,
    ht_psi_lower,
    loop_entropy_estimate,
)
from tge.errors import DegenerateLoopError
from tge.exact_matrix import spectral_radius
from tge.graph_core import CircleGraph
from tge.path_counting import covering_matrix, symbol_matrix


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


def test_symbol_rate_matches_covering_rate():
    for g in fixture_graphs().values():
        rho_p = spectral_radius(covering_matrix(g)).radius
        rho_lam = spectral_radius(symbol_matrix(g)).radius
        assert abs(rho_p - rho_lam) <= 1e-9


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
    calls = []
    real = tge.entropy_report.loop_table

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tge.entropy_report, "loop_table", counted)
    report = analyze(two_loops, k_max=6)
    assert len(calls) == 1
    verdict = report.conjecture_verdict
    assert report.table is verdict.loop_estimate.table
    assert report.table.counts() == [3, 13, 57, 245, 973, 4051]
    assert (report.rho_P, report.rho_Q_abs) == (verdict.rho_p, verdict.rho_q_abs)
    assert "table" not in report.to_json_dict()
