"""Outside-in layer tracing: wrap public functions where they are bound.

A module that does ``from .core import is_interference`` holds its own
reference, so wrapping the defining module alone would miss its calls.
`traced` therefore swaps every binding of each traced function, in every
loaded ``interfere`` module, for one wrapper, and puts the originals back on
exit.  Nothing in the package's source is touched.

Each wrapper records calls, total (inclusive) time and self time, where self
time is the call's duration minus the time spent in traced calls it made.
Self times of nested and recursive calls therefore add up to the time of the
outermost call; a recursive function's total counts the nested calls again.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Sequence

# Module -> public functions traced in it: the calls that cross from one
# layer into another on the four workloads.  Small helpers called millions of
# times (bitset, BFS, neighborhood masks) stay untraced, so their time counts
# toward the caller's self time.
LAYERS: Dict[str, Sequence[str]] = {
    "cli": ("main",),
    "catalog": ("all_graphs", "connected_graphs", "certificate"),
    "core": ("expand_pattern", "is_interference", "is_pattern_interference",
             "is_complete_interference"),
    "domination": ("minimal_dominating_sets", "all_dominating_sets"),
    "index_search": ("interference_index",),
    "neighborhood": ("neighborhood_labeling", "complemented_labeling",
                     "neighborhood_interference_of", "complemented_interference_of",
                     "neighborhood_complete", "complemented_complete"),
    "linegraph": ("line_injectivity_report",),
    "graphs": ("from_graph6", "to_graph6", "fingerprint", "line_graph"),
    "families": ("complete",),
}


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Per-function call counts, total time and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self._child_time: List[float] = []  # one accumulator per open call

    def reset(self) -> None:
        self.stats = {name: Stat() for name in self.stats}

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.stats.setdefault(name, Stat())
        clock, child_time = self.clock, self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                stat = self.stats[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - children
                if child_time:
                    child_time[-1] += elapsed

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding of the layer functions for the duration of the block."""
    homes = {layer: importlib.import_module(f"interfere.{layer}") for layer in LAYERS}
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "interfere" or name.startswith("interfere.")]
    patched = []
    try:
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                wrapper = tracer.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, original in reversed(patched):
            setattr(mod, name, original)
