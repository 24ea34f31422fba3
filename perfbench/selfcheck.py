#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py    # run every check, exit 1 on a failure

Checks:
  * the same seed gives the same request list, and another seed a different one;
  * no CLI request repeats within a growth or spectra process;
  * every slot still finds fresh inputs after run.MAX_ROUNDS rounds, the
    most a run can send (the slowest check, over a minute);
  * the independent references agree with each other (transfer-matrix count
    vs multinomial closed form, closed-form radii vs the bracket iteration);
  * corrupted responses (a wrong loop count, a radius changed in its 8th
    digit, a wrong verify-basis count) are reported as failures, so they
    raise the error rate;
  * installing and removing the trace wrappers leaves tge unpatched.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def request_list(name: str, seed: int, rounds: int, tmp: Path) -> list[tuple]:
    wl = workloads.Workload(name, seed, tmp / f"{name}-{seed}")
    reqs = wl.warmup() + [r for _ in range(rounds) for r in wl.next_round()]
    return [(r.slot, r.command, json.dumps(wl.graphs[r.graph], sort_keys=True), r.argv,
                 json.dumps(r.expect, sort_keys=True)) for r in reqs]


def check_determinism(tmp: Path) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        first = request_list(name, 7, 3, tmp / "a")
        again = request_list(name, 7, 3, tmp / "b")
        other = request_list(name, 8, 3, tmp / "c")
        if first != again:
            problems.append(f"{name}: seed 7 gave two different request lists")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 gave the same request list")
        if name != "algebra":
            cli = [(g, c, a) for _, c, g, a, _ in first]
            if len(cli) != len(set(cli)):
                problems.append(f"{name}: a (graph, command, arguments) request repeats")
    return problems


def check_supply(tmp: Path) -> list[str]:
    """Generate as many rounds as a run can send; no slot may run out of fresh inputs."""
    problems = []
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, 1, tmp / f"supply-{name}")
        wl.warmup()
        try:
            for _ in range(run.MAX_ROUNDS):
                wl.release(wl.next_round())
        except workloads.BenchError as exc:
            problems.append(f"{name}, round {wl._round}: {exc}")
    return problems


def check_references() -> list[str]:
    problems = []
    rng = random.Random(11)
    for _ in range(40):
        g = workloads.one_vertex_graph(rng, rng.randint(1, 4))
        if reference.loop_reference(g, 7) != reference.multinomial_reference(g, 7):
            problems.append(f"transfer count != multinomial on {g}")
    for n in (3, 7):
        g = workloads.cycle_graph(rng, n)
        if abs(reference.perron_root(reference.covering(g)) - 2 ** (1 / n)) > 1e-12:
            problems.append(f"bracket iteration misses 2^(1/{n})")
    return problems


def check_corruption(tge, tmp: Path) -> list[str]:
    """Real responses pass; each corrupted copy must fail."""
    problems = []
    wl = workloads.Workload("growth", 3, tmp / "corrupt")
    wl.next_round()
    runner = run.Runner(tge, wl)
    checker = runner.checker

    def cli(req):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tge.cli.main(wl.argv(req))
        return code, out.getvalue()

    def expect_failure(label, req, code, text):
        if not checker.check_cli(req, code, text, tge):
            problems.append(f"corrupted response passed: {label}")

    def graph_request(slot, command, graph, argv):
        return workloads.Request(slot, command, wl.add_graph(graph), tuple(argv))

    loops_req = graph_request("loops", "loops", workloads.ALGEBRA_GRAPHS["two_loops"],
                              ("--kmax", "8"))
    code, text = cli(loops_req)
    if checker.check_cli(loops_req, code, text, tge):
        problems.append("a real loops response failed its check")
    doc = json.loads(text)
    bad = copy.deepcopy(doc)
    bad["rows"][5]["loop_count"] += 1
    expect_failure("loop count + 1", loops_req, code, json.dumps(bad))
    bad = copy.deepcopy(doc)
    bad["rows"][3]["degenerate_words"] = [["e1"] * 4]
    expect_failure("invented degenerate word", loops_req, code, json.dumps(bad))
    expect_failure("exit code 4", loops_req, 4, text)

    spectra_req = graph_request("spectra", "spectra", workloads.cycle_graph(random.Random(1), 15), ())
    code, text = cli(spectra_req)
    if checker.check_cli(spectra_req, code, text, tge):
        problems.append("a real spectra response failed its check")
    doc = json.loads(text)
    for name in ("rho_P", "rho_Lambda"):
        bad = copy.deepcopy(doc)
        bad[name] = float(f"{doc[name]:.8g}") + 1e-7 * doc[name]  # 8th digit changed
        expect_failure(f"{name} in its 8th digit", spectra_req, code, json.dumps(bad))

    analyze_req = graph_request("analyze", "analyze", workloads.ALGEBRA_GRAPHS["single_23"],
                                ("--kmax", "6", "--format", "csv"))
    code, text = cli(analyze_req)
    if checker.check_cli(analyze_req, code, text, tge):
        problems.append("a real analyze CSV response failed its check")
    lines = text.splitlines()
    k, count, rate = lines[4].split(",")
    lines[4] = f"{k},{int(count) - 1},{rate}"
    expect_failure("CSV loop count - 1", analyze_req, code, "\n".join(lines) + "\n")

    basis_req = graph_request("verify", "verify-basis", workloads.basis_graph(random.Random(2), 12), ())
    code, text = cli(basis_req)
    if checker.check_cli(basis_req, code, text, tge):
        problems.append("a real verify-basis response failed its check")
    bad = json.loads(text)
    bad["orthogonality_checks"] -= 1
    expect_failure("orthogonality count - 1", basis_req, code, json.dumps(bad))

    key, expr = workloads.ANCHORS[0]
    wl.add_graph(workloads.ALGEBRA_GRAPHS[key], key)
    rewrite_req = workloads.Request("rewrite", "rewrite", key, ("-e", expr), {"anchor": True})
    code, text = cli(rewrite_req)
    if checker.check_cli(rewrite_req, code, text, tge):
        problems.append("a real rewrite response failed its check")
    bad = json.loads(text)
    bad["normal_form"] = bad["normal_form"].replace("+", "-", 1)
    expect_failure("rewrite sign flip", rewrite_req, code, json.dumps(bad))

    # end to end: a failed check counts against the run
    before = runner.failed
    runner.checker.check_cli = lambda *a: ["corrupted"]
    runner.run(loops_req, 1)
    if runner.failed != before + 1:
        problems.append("a failed check did not count as a failed request")
    return problems


def check_unpatched(tge) -> list[str]:
    tracer = tracing.Tracer()

    def snapshot():
        state = {}
        for ns in [tge, *tracer.modules().values()]:
            for attr, val in vars(ns).items():
                state[(ns.__name__, attr)] = val
                if isinstance(val, dict):
                    for k, item in val.items():
                        state[(ns.__name__, attr, k)] = item
        for layer, cls_name, meth, _ in tracing.COUNTED_METHODS:
            cls = getattr(tracer.modules()[layer], cls_name)
            state[(cls_name, meth)] = cls.__dict__[meth]
        return state

    before = snapshot()
    with tracer:
        during = snapshot()
        g = tge.CircleGraph.single_loop(2, 3)
        tracer.active = True
        tge.analyze(g, k_max=5)
        tracer.active = False
    after = snapshot()
    problems = []
    if during == before:
        problems.append("install() patched nothing")
    changed = [k for k in before if before[k] is not after.get(k)]
    if changed or set(before) != set(after):
        problems.append(f"uninstall() left patches behind: {changed[:5]}")
    if tracer.calls["path_counting.loop_table"] != 2 or not tracer.counters["graph_core.edge_named.calls"]:
        problems.append("traced analyze did not reach the wrapped loop_table and edge_named")
    return problems


def main() -> int:
    tge = run.load_tge()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        results = {
            "determinism": check_determinism(tmp),
            "supply": check_supply(tmp),
            "references": check_references(),
            "corruption": check_corruption(tge, tmp),
            "unpatched": check_unpatched(tge),
        }
    failed = False
    for name, problems in results.items():
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
