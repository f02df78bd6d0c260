"""Run one benchmark workload in this fresh interpreter and report its metrics.

    python3 bench/run.py --workload index-sym --seed 0 --seconds 28 --trace 0

Run from a checkout of the repository: the package is imported from its
``src`` directory, never from an installed copy, and the run fails without
printing a result when that directory is missing.

Every operation is one in-process call of ``interfere.cli.main(argv)`` with
standard output captured, made from this one thread.  A pass runs the
workload's operations once, in order, each with cold catalog caches; passes
repeat until ``--seconds`` is spent.  The first pass's outputs go through the
independent checker; later passes must reproduce them (timing aside).

With ``--trace 0`` the result holds the end-to-end metrics, whose times are
rescaled to the speed of a fixed reference loop timed alongside them (see
REFERENCE_LOOP_S).  ``--trace 1`` is a separate run that alternates untraced
and traced passes and reports the per-layer metrics in raw seconds, and the
tracing overhead: traced minus untraced pass time, rescaled.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

import checker
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_SAMPLES = 21
# One set-up sample: a fresh interpreter imports the CLI, builds the
# workload's inputs from the seed and reads the monotonic clock, which all
# processes share; reading the end time in the child keeps the parent's
# polling for its exit out of the figure.  It then times the reference loop
# on its own processor.
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import interfere.cli, workloads; "
    "workloads.operations(sys.argv[3], int(sys.argv[4])); end = time.monotonic(); "
    "import run; print(end, run.reference_seconds())"
)

REFERENCE_INTERVAL = 0.1  # seconds of wall time between reference samples
REFERENCE_LOOP_S = 0.005  # nominal time of one reference_loop

# The end-to-end times are rescaled to a machine on which reference_loop
# takes REFERENCE_LOOP_S: each measured time is multiplied by REFERENCE_LOOP_S
# over the loop's time measured alongside it.  On a shared host the machine's
# speed drifts by 15-20% between runs, which moves raw times by as much; the
# ratio to work timed alongside cancels most of that drift.
END_TO_END = {
    "wall_s": "s",        # median over passes of the summed call time
    "op_max_s": "s",      # median over passes of the pass's slowest call
    "setup_s": "s",       # median over SETUP_SAMPLES fresh interpreters
    "peak_rss_mb": "MB",  # peak resident memory of this process
}

PER_LAYER = {
    "index_search.interference_index.self_s": "s",
    "index_search.nodes": "count",
    "index_search.nodes_refuting": "count",
    "index_search.nodes_per_s": "1/s",
    "catalog.certificate.calls": "count",
    "catalog.certificate.self_s": "s",
    "catalog.all_graphs.self_s": "s",
    "neighborhood.neighborhood_interference_of.self_s": "s",
    "neighborhood.complemented_interference_of.self_s": "s",
    "core.is_interference.calls": "count",
    "core.is_interference.us_per_call": "us",
    "core.is_pattern_interference.self_s": "s",
    "domination.minimal_dominating_sets.calls": "count",
    "domination.minimal_dominating_sets.self_s": "s",
    "linegraph.line_injectivity_report.self_s": "s",
    "graphs.line_graph.self_s": "s",
    "cli.main.self_s": "s",
    "sweep.checks": "count",
    **{f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_frac": "ratio",
}


class Pass(NamedTuple):
    wall: float           # summed call time, raw
    wall_scaled: float    # summed call time, rescaled
    op_max_scaled: float  # slowest call, rescaled
    counts: Counter       # work counts the reports state about themselves


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the package: about 4 ms."""
    acc = 0
    table = {}
    for i in range(20_000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= (x & -x) | (x >> 3)
        table[x & 255] = acc
    return acc


def reference_seconds() -> float:
    """Median of five timings of reference_loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ReferenceClock:
    """Times reference_loop every REFERENCE_INTERVAL seconds while running.

    Samples are taken from a SIGALRM handler, so they land inside the calls
    being timed; ``spent`` lets the caller take their time back out.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def running(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL, REFERENCE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class ProgramMissing(Exception):
    """The checkout holds no package to benchmark."""


def load_program():
    """Import the CLI from this checkout; returns it and the catalog caches."""
    init = SRC / "interfere" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no package at {init}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("interfere.cli")
    if Path(sys.modules["interfere"].__file__).resolve() != init.resolve():
        raise ProgramMissing("interfere was imported from outside this checkout")
    catalog = importlib.import_module("interfere.catalog")
    # The originals: tracing swaps the module attributes for wrappers.
    return cli, (catalog.all_graphs, catalog.connected_graphs)


def measure_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=60)
        end, ref = map(float, proc.stdout.split())
        samples.append((end - start) * REFERENCE_LOOP_S / ref)
    return statistics.median(samples)


class Runner:
    """Runs passes over the operations and checks every output."""

    def __init__(self, cli, caches, ops: Sequence[workloads.Argv]):
        self.cli = cli
        self.caches = caches
        self.ops = ops
        self.expected: List[object] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.clock = ReferenceClock()

    def call(self, i: int) -> Tuple[float, float, str, bool]:
        """Seconds the call took, its reference time, its output and whether it passed."""
        argv = self.ops[i]
        for cache in self.caches:
            cache.cache_clear()
        out = io.StringIO()
        error = None
        spent, first = self.clock.spent, len(self.clock.samples)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(argv))  # looked up per call: tracing may wrap it
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code, error = None, exc
        elapsed = time.perf_counter() - start - (self.clock.spent - spent)
        # calls too short to hold a reference sample take the latest one
        ref = statistics.fmean(self.clock.samples[first:] or self.clock.samples[-1:])
        text = out.getvalue()
        self.attempted += 1
        try:
            if error is not None:
                raise checker.CheckError(f"raised {error!r}")
            self._verify(i, code, text)
        except checker.CheckError as exc:
            self.failed += 1
            print(f"bench: FAILED {' '.join(argv)[:100]}: {exc}", file=sys.stderr)
            return elapsed, ref, text, False
        return elapsed, ref, text, True

    def _verify(self, i: int, code: int, text: str) -> None:
        argv = self.ops[i]
        if self.expected[i] is None:
            checker.check_output(argv, code, text)
            self.expected[i] = checker.comparable(argv, text)
        elif code != 0 or checker.comparable(argv, text) != self.expected[i]:
            raise checker.CheckError("output differs from the first pass")

    def run_pass(self) -> Pass:
        times, scaled = [], []
        counts: Counter = Counter()
        self.clock.samples = []
        with self.clock.running():
            for i, argv in enumerate(self.ops):
                elapsed, ref, text, ok = self.call(i)
                times.append(elapsed)
                scaled.append(elapsed * REFERENCE_LOOP_S / ref)
                if ok:
                    counts.update(checker.layer_counts(argv, text))
        return Pass(sum(times), sum(scaled), max(scaled), counts)


def run_untraced(runner: Runner, seconds: float) -> Dict[str, float]:
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(runner.run_pass())
        durations.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bench: {len(passes)} passes, raw pass times {[round(p.wall, 3) for p in passes]} s, "
          f"rescaled {[round(p.wall_scaled, 3) for p in passes]} s", file=sys.stderr)
    return {
        "wall_s": statistics.median(p.wall_scaled for p in passes),
        "op_max_s": statistics.median(p.op_max_scaled for p in passes),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(stats: Dict[str, tracer.Stat], wall: float, counts: Counter) -> Dict[str, float]:
    index = stats["index_search.interference_index"]
    is_interference = stats["core.is_interference"]
    nodes = counts["index_search.nodes"]
    out = {
        "index_search.interference_index.self_s": index.self,
        "index_search.nodes": nodes,
        "index_search.nodes_refuting": counts["index_search.nodes_refuting"],
        "index_search.nodes_per_s": nodes / index.total if index.total else 0.0,
        "core.is_interference.calls": is_interference.calls,
        "core.is_interference.us_per_call":
            1e6 * is_interference.total / is_interference.calls if is_interference.calls else 0.0,
        "sweep.checks": counts["sweep.checks"],
        "trace.wall_s": wall,
        "trace.self_frac": sum(s.self for s in stats.values()) / wall,
    }
    for name in PER_LAYER:
        func, _, field = name.rpartition(".")
        if name in out or func not in stats:
            continue
        out[name] = stats[func].calls if field == "calls" else stats[func].self
    for layer, funcs in tracer.LAYERS.items():
        out[f"layer.{layer}.self_s"] = sum(stats[f"{layer}.{f}"].self for f in funcs)
    return out


def run_traced(runner: Runner, seconds: float) -> Dict[str, float]:
    """Alternate untraced and traced passes; medians of each per-layer metric.

    Per-layer times are raw seconds: the tracer's clock skips the reference
    samples.  The overhead compares rescaled pass times, so that the machine's
    drift between the two kinds of pass does not swamp it.
    """
    tr = tracer.Tracer(clock=lambda: time.perf_counter() - runner.clock.spent)
    untraced, traced, snapshots = [], [], []
    durations: Dict[bool, List[float]] = {False: [], True: []}
    start = time.perf_counter()
    with_trace = False
    while True:
        begun = time.perf_counter()
        if with_trace:
            tr.reset()
            with tracer.traced(tr):
                result = runner.run_pass()
            traced.append(result)
            snapshots.append(layer_metrics(tr.stats, result.wall, result.counts))
        else:
            untraced.append(runner.run_pass())
        durations[with_trace].append(time.perf_counter() - begun)
        with_trace = not with_trace
        if snapshots and time.perf_counter() - start + statistics.median(
            durations[with_trace]
        ) > seconds:
            break
    metrics = {name: statistics.median(s[name] for s in snapshots) for name in snapshots[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_scaled for p in traced)
                                   - statistics.median(p.wall_scaled for p in untraced))
    print(f"bench: raw untraced passes {[round(p.wall, 3) for p in untraced]} s, "
          f"raw traced passes {[round(p.wall, 3) for p in traced]} s", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli, caches = load_program()
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    except (ProgramMissing, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cli, caches, workloads.operations(args.workload, args.seed))
    if args.trace:
        values, units = run_traced(runner, args.seconds), PER_LAYER
    else:
        values, units = {**run_untraced(runner, args.seconds), "setup_s": setup_s}, END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
