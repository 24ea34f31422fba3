"""Growth-rate summaries and the entropy-comparison verdict.

Three exponential growth rates are extracted from a circle graph:

* block entropy: log of the spectral radius of the absolute winding
  matrix (backward path lifts);
* its transpose-graph counterpart, log rho(P) (see vertex_radii);
* the loop rate: the best lower bound (1/k) log L_k extracted from the
  loop-count table, which bounds the second shift's entropy from below.

The first shift's entropy equals log rho(Lambda) of the symbol matrix,
and so log rho(P), whenever the underlying algebra is simple; nothing here
checks simplicity, so that value is reported with the hypothesis in the notes.

The comparison asks whether the loop rate is consistent with
log max(rho_covering, rho_winding_abs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateLoopError
from .graph_core import CircleGraph
from .exact_matrix import (
    DEFAULT_TOL,
    ExactMatrix,
    spectral_radius,
    strong_components,
)
from .path_counting import (
    ClosedWordTables,
    LoopCountTable,
    covering_matrix,
    winding_matrix,
    winding_matrix_abs,
)

DEFAULT_KMAX = 14
# absolute slack allowed between the loop rate and its target before the
# verdict stops calling them consistent (subsumed by the sandwich width
# when that is wider)
VERDICT_SLACK = 0.05


def _log(rho: float) -> float:
    return math.log(rho) if rho > 0 else float("-inf")


def block_entropy(g: CircleGraph, tol: float = DEFAULT_TOL) -> float:
    """log of the absolute winding matrix's spectral radius (-inf when 0)."""
    return _log(spectral_radius(winding_matrix_abs(g), tol=tol).radius)


@dataclass(frozen=True)
class VertexRadii:
    """The vertex matrices of one graph and their Perron roots; rho_P is rho(Lambda) too."""

    P: ExactMatrix
    Q: ExactMatrix
    Q_abs: ExactMatrix
    rho_P: float
    rho_Q_abs: float
    rho_Q_signed: float | None


def vertex_radii(g: CircleGraph, tol: float = DEFAULT_TOL) -> VertexRadii:
    """P, Q and |Q| of a validated graph, each radius computed once.

    rho(Lambda) = rho(P): with A[(e,k), v] = [s(e) = v] and
    B[v, (f,l)] = [r(f) = v], the symbol matrix is Lambda = A B, while
    (B A)[v, w] sums p(f) over the edges f from w to v, so B A = P^T.
    A B and B A share their nonzero eigenvalues (Horn & Johnson, Matrix
    Analysis, Thm 1.3.22).  The transposed graph reverses each edge and
    covers with degree |q(e)|, winding +-p(e) times, so its absolute
    winding matrix is P^T as well.  rho_Q_signed is None when Q has a
    negative entry: spectral_radius finds Perron roots of nonnegative
    matrices only.  When no winding is negative, Q is |Q| and shares its
    radius.
    """
    g.require_valid()
    p_mat = covering_matrix(g)
    q_mat = winding_matrix(g)
    qa_mat = winding_matrix_abs(g)
    rho_p = spectral_radius(p_mat, tol=tol).radius
    rho_qa = spectral_radius(qa_mat, tol=tol).radius
    if q_mat == qa_mat:
        rho_q = rho_qa
    else:
        rho_q = spectral_radius(q_mat, tol=tol).radius if q_mat.is_nonnegative() else None
    return VertexRadii(p_mat, q_mat, qa_mat, rho_p, rho_qa, rho_q)


@dataclass(frozen=True)
class LoopEntropyEstimate:
    """Loop rate extracted from a count table.

    sequence holds (k, (1/k) log L_k) with None at degenerate or zero
    lengths.  The estimate is the maximum over the top third of lengths
    (stabilized window); if every length there is missing, the maximum
    over all lengths stands in.  None when no length produced a positive
    finite count.
    """

    k_max: int
    sequence: tuple[tuple[int, float | None], ...]
    window: tuple[int, int]
    estimate: float | None
    sandwich_low: float | None
    sandwich_high: float | None
    table: LoopCountTable = field(repr=False)


def loop_entropy_estimate(g: CircleGraph, k_max: int = DEFAULT_KMAX) -> LoopEntropyEstimate:
    """Extract the loop rate; degenerate words poison it and raise.

    A degenerate closed word carries a continuum of loops, so every count
    at its length is infinite and a finite rate estimate would be
    fiction.  The transfer-matrix counts find the first degenerate length;
    the error names its first word and no other word is walked.  Use
    loop_table directly to inspect such graphs.
    """
    tables = ClosedWordTables(g)
    for k in range(1, k_max + 1):
        if tables.totals(k)[0]:
            word, _ = next(tables.degenerate_words(k))
            raise DegenerateLoopError(
                word,
                f"closed word {'.'.join(word)} has equal degree and winding "
                "products; loop counts at this length are infinite",
            )
    table = tables.table(k_max)
    seq = [(e.k, e.log_rate) for e in table.entries]
    lo_k = max(1, math.ceil(2 * k_max / 3))
    window_vals = [a for k, a in seq[lo_k - 1:] if a is not None]
    if window_vals:
        estimate = max(window_vals)
    else:
        all_vals = [a for _, a in seq if a is not None]
        estimate = max(all_vals) if all_vals else None
    lows = []
    highs = []
    for e in table.entries[lo_k - 1:]:
        if e.sandwich_lower > 0:
            lows.append(math.log(e.sandwich_lower) / e.k)
        if e.sandwich_upper > 0:
            highs.append(math.log(e.sandwich_upper) / e.k)
    return LoopEntropyEstimate(
        k_max=k_max,
        sequence=tuple(seq),
        window=(lo_k, k_max),
        estimate=estimate,
        sandwich_low=max(lows) if lows else None,
        sandwich_high=max(highs) if highs else None,
        table=table,
    )


def ht_psi_lower(g: CircleGraph, k_max: int = DEFAULT_KMAX) -> float | None:
    """Loop-rate lower bound for the second shift's entropy."""
    return loop_entropy_estimate(g, k_max).estimate


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of comparing the loop rate against the matrix target."""

    verdict: str  # "consistent" | "inconsistent" | "inconclusive"
    estimate: float | None
    target: float
    difference: float | None
    tolerance: float
    sandwich_low: float | None
    sandwich_high: float | None
    rho_p: float
    rho_q_abs: float
    rho_q_signed: float | None
    signed_matrix: tuple[tuple[int, ...], ...] | None
    strongly_connected: bool
    component_count: int
    notes: tuple[str, ...]
    loop_estimate: LoopEntropyEstimate = field(repr=False)


def conjecture_check(g: CircleGraph, k_max: int = DEFAULT_KMAX,
                     tol: float = DEFAULT_TOL) -> ConjectureVerdict:
    """Compare the loop rate with log max(rho_covering, rho_winding_abs).

    Consistent when the gap is within max(VERDICT_SLACK, sandwich width);
    inconsistent when the estimate escapes the sandwich interval outright;
    inconclusive otherwise (including when no finite estimate exists).
    Equal covering and winding radii are always inconclusive: there the
    trace sandwich degenerates, so finite-length closeness proves nothing
    and only the margins are worth reporting.  A signed winding matrix
    with negative entries has no radius (see vertex_radii) and is
    recorded verbatim for the reader instead.
    """
    radii = vertex_radii(g, tol=tol)
    rho_p, rho_qa = radii.rho_P, radii.rho_Q_abs
    notes: list[str] = []
    signed_matrix = None
    if radii.rho_Q_signed is None:
        signed_matrix = radii.Q.entries
        notes.append(
            "signed winding matrix has negative entries; its radius is not "
            "estimated here and the matrix is recorded instead"
        )
    est = loop_entropy_estimate(g, k_max)
    target = _log(max(rho_p, rho_qa))
    # every edge has p >= 1, so P has the support of the edge-count matrix
    comp = strong_components(radii.P)
    strongly_connected = len(comp) == 1
    if not strongly_connected:
        notes.append(
            f"graph splits into {len(comp)} strongly connected components; "
            "the comparison still applies componentwise"
        )
    radii_equal = abs(rho_p - rho_qa) <= 1e-9 * max(1.0, rho_p, rho_qa)
    if strongly_connected and not radii_equal:
        notes.append(
            "strongly connected with distinct covering and winding radii: "
            "the trace sandwich squeezes the loop rate onto the larger "
            "radius, forcing the verdict"
        )
    if est.table.has_negative_winding:
        notes.append(
            "negative windings present: signed loop counts and unsigned "
            "formula counts are reported separately"
        )
    width = None
    if est.sandwich_low is not None and est.sandwich_high is not None:
        width = est.sandwich_high - est.sandwich_low
    tolerance = max(VERDICT_SLACK, width) if width is not None else VERDICT_SLACK
    if est.estimate is None or math.isinf(target):
        verdict = "inconclusive"
        difference = None
        if est.estimate is None:
            notes.append("no positive loop count in range: nothing to compare")
    else:
        difference = abs(est.estimate - target)
        eps = 1e-9
        outside = (
            est.sandwich_high is not None and est.estimate > est.sandwich_high + eps
        ) or (
            est.sandwich_low is not None and est.estimate < est.sandwich_low - eps
        )
        if outside:
            verdict = "inconsistent"
        elif radii_equal:
            verdict = "inconclusive"
            notes.append(
                "covering and winding radii agree, so the trace sandwich "
                "degenerates and cannot pin the loop rate to the target; "
                "margins are reported without a verdict either way"
            )
        elif difference <= tolerance:
            verdict = "consistent"
        else:
            verdict = "inconclusive"
    return ConjectureVerdict(
        verdict=verdict,
        estimate=est.estimate,
        target=target,
        difference=difference,
        tolerance=tolerance,
        sandwich_low=est.sandwich_low,
        sandwich_high=est.sandwich_high,
        rho_p=rho_p,
        rho_q_abs=rho_qa,
        rho_q_signed=radii.rho_Q_signed,
        signed_matrix=signed_matrix,
        strongly_connected=strongly_connected,
        component_count=len(comp),
        notes=tuple(notes),
        loop_estimate=est,
    )


@dataclass(frozen=True)
class EntropyReport:
    """All growth rates of one graph, with the comparison verdict."""

    h_b: float
    h_b_transpose: float
    h_ell_sequence: tuple[tuple[int, float | None], ...]
    h_ell_estimate: float | None
    ht_phi: float
    ht_psi_lower: float | None
    rho_P: float
    rho_Q_abs: float
    rho_Lambda: float
    conjecture_verdict: ConjectureVerdict
    notes: tuple[str, ...]
    table: LoopCountTable = field(repr=False)

    def to_json_dict(self) -> dict:
        v = self.conjecture_verdict
        return {
            "h_b": _num(self.h_b),
            "h_b_transpose": _num(self.h_b_transpose),
            "h_ell_sequence": [
                {"k": k, "rate": _num(a)} for k, a in self.h_ell_sequence
            ],
            "h_ell_estimate": _num(self.h_ell_estimate),
            "ht_phi": _num(self.ht_phi),
            "ht_psi_lower": _num(self.ht_psi_lower),
            "rho_P": _num(self.rho_P),
            "rho_Q_abs": _num(self.rho_Q_abs),
            "rho_Lambda": _num(self.rho_Lambda),
            "conjecture_verdict": {
                "verdict": v.verdict,
                "estimate": _num(v.estimate),
                "target": _num(v.target),
                "difference": _num(v.difference),
                "tolerance": _num(v.tolerance),
                "sandwich_low": _num(v.sandwich_low),
                "sandwich_high": _num(v.sandwich_high),
                "rho_q_signed": _num(v.rho_q_signed),
                "signed_matrix": [list(r) for r in v.signed_matrix]
                if v.signed_matrix is not None
                else None,
                "strongly_connected": v.strongly_connected,
                "component_count": v.component_count,
                "notes": list(v.notes),
            },
            "notes": list(self.notes),
        }


def _num(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isinf(x)):
        return None
    return x


def analyze(g: CircleGraph, k_max: int = DEFAULT_KMAX, tol: float = DEFAULT_TOL) -> EntropyReport:
    """Full growth-rate report for one validated graph.

    The verdict computes the radii and then one loop table, kept on the
    report (not serialized) for tabular output.  rho(Lambda) = rho(P) and
    the transposed graph's absolute winding matrix is P^T (proofs in
    vertex_radii), so ht_phi = h_b_transpose = log rho(P).
    """
    verdict = conjecture_check(g, k_max=k_max, tol=tol)
    est = verdict.loop_estimate
    h_p = _log(verdict.rho_p)
    notes = [
        "ht_phi assumes the ambient algebra is simple; simplicity is not checked",
    ]
    notes.extend(verdict.notes)
    return EntropyReport(
        h_b=_log(verdict.rho_q_abs),
        h_b_transpose=h_p,
        h_ell_sequence=est.sequence,
        h_ell_estimate=est.estimate,
        ht_phi=h_p,
        ht_psi_lower=est.estimate,
        rho_P=verdict.rho_p,
        rho_Q_abs=verdict.rho_q_abs,
        rho_Lambda=verdict.rho_p,
        conjecture_verdict=verdict,
        notes=tuple(notes),
        table=est.table,
    )
