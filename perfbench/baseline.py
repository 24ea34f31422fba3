#!/usr/bin/env python3
"""Record a baseline: many seeded runs per workload plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 35 --out perfbench/baseline.json

For every workload and seed it runs `perfbench/run.py --trace 0` in a fresh
process, then one `--trace 1` run (first seed).  It stores, per end-to-end
metric, the ten values, their median and quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, together with the request counts,
the per-layer table, the Python version, the CPU model and nproc.  Runs go
one after another so they never share the machine with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def requests_of(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("perfbench: {"):
            return json.loads(line[len("perfbench: "):]).get("requests", 0)
    return 0


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    doc = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        requests = []
        correct = True
        for seed in args.seeds:
            result, stderr = run_once(name, seed, args.seconds, 0)
            correct &= result["correct"]
            requests.append(requests_of(stderr))
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        entry = {"correct": correct, "requests_per_run": requests,
                 "end_to_end": {m: dict(summarize(v), unit=units[m]) for m, v in values.items()}}
        for m, s in entry["end_to_end"].items():
            print(f"  {name} {m}: median {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                  f"spread {s['spread']:.4f}", flush=True)
        traced, _ = run_once(name, args.seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
