#!/usr/bin/env python3
"""tge benchmark: seeded closed-loop workloads with correctness checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload growth --seed 1 --seconds 35 --trace 0

One client in one thread sends one request at a time and waits for it.  A
request is one in-process CLI call (tge.cli.main(argv), stdout captured)
or one call to a library entry point.  Every response is checked outside
the timed region.  The last line of stdout is a JSON object with keys
correct, attempted, failed and metrics; a human-readable summary goes to
stderr.

--trace 0  runs requests until their summed latency reaches --seconds (or
           MAX_ROUNDS rounds are done) and reports throughput, latency
           percentiles, success rate, set-up time and peak memory.
--trace 1  runs a fixed number of round pairs, one round untraced and the
           next traced, and reports per-layer metrics from the traced
           rounds (see tracing.py); span records go to
           .perfbench_out/trace-<workload>-<seed>.jsonl.

tge is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import BenchError  # noqa: E402

SETUP_ROUNDS = 6        # the set-up corpus: graphs of the first rounds
SETUP_REPEATS = 31      # fresh processes per run, spread over it; the median is reported
RSS_ROUNDS = 5          # peak memory is read once this many rounds are done
MAX_ROUNDS = 2000       # stop sending requests after this many rounds ...
WALL_LIMIT_S = 140      # ... or after this much wall time
TRACE_ROUND_PAIRS = 3


def load_tge():
    src = ROOT / "src"
    if not (src / "tge" / "__init__.py").is_file():
        raise BenchError(f"no tge sources under {src}")
    sys.path.insert(0, str(src))
    import tge
    import tge.cli
    if Path(tge.__file__).resolve().parent != (src / "tge").resolve():
        raise BenchError(f"imported tge from {tge.__file__}, not from {src}")
    return tge


def setup_corpus(workload) -> list[Path]:
    """Copy the graphs generated so far aside; finished rounds delete their own files."""
    corpus = workload.workdir / "setup-corpus"
    shutil.copytree(workload.workdir / "graphs", corpus)
    return sorted(corpus.iterdir())


def measure_setup(paths: list[Path]) -> float:
    """Seconds to import tge and load and validate every corpus graph, in a fresh process."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import tge\n"
        "for path in sys.argv[1:]:\n"
        "    tge.load_graph(path).require_valid()\n"
        "print(time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, *map(str, paths)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Runner:
    """Executes requests, times them and checks the responses."""

    def __init__(self, tge, workload: workloads.Workload, tracer: tracing.Tracer | None = None):
        self.tge = tge
        self.workload = workload
        self.checker = checks.Checker(workload)
        self.tracer = tracer
        self.shared = {}          # graph objects reused by library requests
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.analyze_ok = 0
        self.analyze_loop_tables = 0
        self.traced_requests = 0

    def graph_object(self, key: str):
        if key not in self.shared:
            self.shared[key] = self.tge.parse_graph_spec(self.workload.graphs[key])
        return self.shared[key]

    def prepare_lib(self, req):
        """Build inputs outside the timed region; return the timed call."""
        tge = self.tge
        g = self.graph_object(req.graph)
        ex = req.expect
        if req.command == "lib.matrix_unit_check":
            return lambda: tge.matrix_unit_check(g, ex["k"])
        if req.command == "lib.psi_core":
            def shift_vs_embed():
                lam = tge.left_action_matrix(g, ex["vertex"])
                mat = lam
                for _ in range(ex["power"] - 1):
                    mat = mat @ lam
                lhs = tge.normalize(tge.psi_core(tge.matrix_to_sum(mat), g), g)
                return lhs == tge.normalize(tge.matrix_to_sum(mat.psi_embed()), g)
            return shift_vs_embed
        x = tge.parse_expression(ex["x"], g)
        if req.command == "lib.chi_m":
            y = tge.parse_expression(ex["y"], g)
            zero = tge.MonomialSum.zero()

            def multiplicative():
                left = (tge.chi_m(x, ex["m"], g) * tge.chi_m(y, ex["m"], g)).pair_dict()
                right = tge.chi_m(tge.normalize(x * y, g), ex["m"], g).pair_dict()
                return all(tge.normal_equal(left.get(k, zero), right.get(k, zero), g)
                           for k in set(left) | set(right))
            return multiplicative
        # normal_equal: phi(x) against sum_i S_i x S_i*, x against x * sum_i S_i S_i*
        # (the unit), and x against x + S_j S_j* (a nonzero projection: unequal)
        syms = g.symbols()
        gen, adj = tge.MonomialSum.generator, tge.MonomialSum.generator_adjoint
        if ex["mode"] == "phi":
            raw = tge.MonomialSum.zero()
            for s in syms:
                raw = raw + gen(s) * x * adj(s)
            return lambda: tge.normal_equal(tge.phi(x, g), raw, g)
        if ex["mode"] == "unit":
            unit = tge.MonomialSum.zero()
            for s in syms:
                unit = unit + gen(s) * adj(s)
            y = x * unit
        else:
            s = syms[ex["symbol"] % len(syms)]
            y = x + gen(s) * adj(s)
        return lambda: tge.normal_equal(x, y, g)

    def release(self, reqs) -> None:
        """Drop the graphs and cached references of finished requests."""
        self.checker.forget(self.workload.release(reqs))

    def run(self, req, rid: int, traced: bool = False) -> float:
        """Execute one request; return its latency in seconds."""
        tracer = self.tracer
        if req.is_cli:
            argv = self.workload.argv(req)
            out, err = io.StringIO(), io.StringIO()

            def call():
                with redirect_stdout(out), redirect_stderr(err):
                    return self.tge.cli.main(argv)
        else:
            call = self.prepare_lib(req)
        if traced:
            tracer.request = rid
            tracer.loop_tables = 0
            tracer.active = True
        start = time.perf_counter()
        try:
            result = call()
            error = None
        except (Exception, SystemExit) as exc:  # a failed request, not a benchmark crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if traced:
            tracer.active = False
            self.traced_requests += 1
        self.attempted += 1
        if error is None:
            if req.is_cli:
                text = out.getvalue()
                problems = self.checker.check_cli(req, result, text, self.tge)
                if traced:
                    self.output_bytes += len(text.encode())
                    if req.command == "analyze" and result == 0:
                        self.analyze_ok += 1
                        self.analyze_loop_tables += tracer.loop_tables
            else:
                problems = self.checker.check_lib(req, result)
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{req.slot} {' '.join(req.argv)}: {'; '.join(problems[:3])}")
        return latency


def nearest_rank(sorted_values: list[float], rank: int) -> float:
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(tge, workload, seconds: float) -> tuple[Runner, dict, dict]:
    rounds = [workload.next_round() for _ in range(SETUP_ROUNDS)]
    corpus = setup_corpus(workload)
    measure_setup(corpus)  # this first process also compiles bytecode; users pay that once
    setup = []
    runner = Runner(tge, workload)
    warmup = workload.warmup()
    for req in warmup:
        runner.run(req, 0)
    runner.release(warmup)
    latencies = []
    busy = 0.0
    rss = None  # read after a fixed amount of work, so faster requests do not move it
    began = time.perf_counter()
    for done in range(1, MAX_ROUNDS + 1):
        if busy >= seconds or time.perf_counter() - began >= WALL_LIMIT_S:
            break
        reqs = rounds.pop(0) if rounds else workload.next_round()
        for req in reqs:
            latencies.append(runner.run(req, len(latencies) + 1))
            busy += latencies[-1]
            # set-up samples are spread over the run, between requests, so
            # that they see the machine as the timed requests see it
            while len(setup) < SETUP_REPEATS * min(busy / seconds, 1.0):
                setup.append(measure_setup(corpus))
            if busy >= seconds:
                break
        runner.release(reqs)
        if done == RSS_ROUNDS:
            rss = peak_rss_mb()
    while len(setup) < SETUP_REPEATS:  # the run stopped at MAX_ROUNDS or WALL_LIMIT_S
        setup.append(measure_setup(corpus))
    n = len(latencies)
    ordered = sorted(latencies)
    p90_rank = math.ceil(0.9 * n)
    if n - p90_rank < 10:  # keep ten samples beyond the reported percentile where there are 20
        p90_rank = max(n - 10, math.ceil(0.5 * n))
        print(f"perfbench: only {n} requests; latency_p90_ms is the rank {p90_rank} value",
              file=sys.stderr)
    metrics = {
        "throughput_rps": (n / busy, "1/s"),
        "latency_p50_ms": (1000 * nearest_rank(ordered, math.ceil(0.5 * n)), "ms"),
        "latency_p90_ms": (1000 * nearest_rank(ordered, p90_rank), "ms"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss or peak_rss_mb(), "MB"),
    }
    info = {"requests": n, "busy_s": busy, "setup_samples": len(setup)}
    return runner, metrics, info


def traced_run(tge, workload, span_file: Path) -> tuple[Runner, dict, dict]:
    tracer = tracing.Tracer()
    runner = Runner(tge, workload, tracer)
    warmup = workload.warmup()
    for req in warmup:
        runner.run(req, 0)
    runner.release(warmup)
    plain = traced = 0.0
    rid = 0
    with tracer:
        for _ in range(TRACE_ROUND_PAIRS):
            reqs = workload.next_round()
            for req in reqs:
                rid += 1
                plain += runner.run(req, rid)
            runner.release(reqs)
            reqs = workload.next_round()
            for req in reqs:
                rid += 1
                traced += runner.run(req, rid, traced=True)
            runner.release(reqs)
    tracer.write_spans(span_file)
    metrics = layer_metrics(tracer, runner)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    metrics["error_rate"] = (runner.failed / runner.attempted, "ratio")
    info = {"traced_requests": runner.traced_requests, "traced_s": traced,
            "untraced_s": plain, "span_file": str(span_file.relative_to(ROOT))}
    return runner, metrics, info


def layer_metrics(tracer: tracing.Tracer, runner: Runner) -> dict:
    """Per-layer metrics; names the program no longer has are left out."""
    present = tracer.present
    layers = set(tracer.modules())
    m = {}
    for layer in tracing.LAYERS:
        if layer in layers:
            m[f"{layer}.calls"] = (tracer.layer_calls[layer], "count")
            m[f"{layer}.self_s"] = (tracer.layer_self[layer], "s")

    def fn(name, calls=True, seconds=True):
        if name in present:
            if calls:
                m[f"{name}.calls"] = (tracer.calls[name], "count")
            if seconds:
                m[f"{name}.s"] = (tracer.inclusive[name], "s")

    fn("path_counting.loop_table")
    if "path_counting.loop_table" in present and "entropy_report.analyze" in present:
        per = runner.analyze_loop_tables / runner.analyze_ok if runner.analyze_ok else 0.0
        m["entropy_report.loop_table_calls_per_analyze"] = (per, "count")
    radius = "exact_matrix.spectral_radius"
    if radius in present:
        fn(radius)
        calls = tracer.calls[radius]
        m[f"{radius}.iterations"] = (int(tracer.values[f"{radius}.iterations"]), "count")
        m[f"{radius}.failures"] = (tracer.counters[f"{radius}.failures"], "count")
        m[f"{radius}.unique_ratio"] = (len(tracer.matrices) / calls if calls else 0.0, "ratio")
    for counter in (c[3] for c in tracing.COUNTED_METHODS):
        if counter in present:
            m[counter] = (tracer.counters[counter], "count")
    if "graph_core" in layers:
        m["graph_core.cap_exceeded"] = (tracer.counters["graph_core.cap_exceeded"], "count")
    norm = "monomial_rewriter.normalize"
    if norm in present:
        fn(norm)
        m[f"{norm}.terms_in"] = (int(tracer.values[f"{norm}.terms_in"]), "count")
        m[f"{norm}.terms_out"] = (int(tracer.values[f"{norm}.terms_out"]), "count")
    fn("monomial_rewriter.chi_m", calls=False)
    fn("monomial_rewriter.normal_equal", calls=False)
    fn("bimodule_engine.verify_basis", calls=False)
    fn("bimodule_engine.inner", seconds=False)
    if "cli" in layers:
        m["cli.output_bytes"] = (runner.output_bytes, "bytes")
    m["trace.spans"] = (tracer.span_count, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        tge = load_tge()
        shutil.rmtree(workdir, ignore_errors=True)
        workload = workloads.Workload(args.workload, args.seed, workdir)
        if args.trace:
            span_file = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            runner, metrics, info = traced_run(tge, workload, span_file)
        else:
            runner, metrics, info = untraced_run(tge, workload, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    summary = dict(info, attempted=runner.attempted, failed=runner.failed)
    print("perfbench: " + json.dumps(summary), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        extra = f" (n={info['requests']})" if name.startswith("latency_") else ""
        print(f"perfbench: {name:48s} {value:.6g} {unit}{extra}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
