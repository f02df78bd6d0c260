"""Print every benchmark metric by name and unit, one row per workload.

    python3 bench/report.py [--seed 0]

Runs bench/run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics) for each workload, one run after another, each in a fresh
interpreter measuring for run_seconds from BENCHMARK.json.  fail_frac is
failed operations over attempted ones, across both runs.  Exits 1 when any
output fails its correctness check or a run ends without a result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def format_row(workload: str, results) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    cells = [f"fail_frac={failed / attempted:.6g} ratio"]
    for r in results:
        cells += [f"{name}={m['value']:.6g} {m['unit']}" for name, m in r["metrics"].items()]
    return f"{workload}: " + "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        try:
            results = [run_workload(workload, args.seed, seconds, trace) for trace in (0, 1)]
        except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
            print(f"{workload}: no result: {exc}")
            ok = False
            continue
        print(format_row(workload, results), flush=True)
        ok = ok and all(r["correct"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
