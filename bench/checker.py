"""Correctness checks on the CLI's output, sharing no code with the package.

Graphs are decoded from graph6 here, and every claim the program makes is
re-derived by brute force or by a closed form from the paper:

* an index witness must interfere for every dominating set, each enumerated
  by testing all 2^n vertex subsets;
* K_n must have index ceil(log2 2n), and K_{r,s} with r <= 4 the smaller
  side must have index ceil(log2(r + s + r));
* an index and the lower bound the program reports are at least the
  injectivity bound ceil(log2(n + 1)); where no closed form applies, the
  index equals that bound, or the trace shows the search refuting
  index - 1.  A program may report a stronger bound than injectivity.
* sweeps must report no mismatch and the pinned number of checks;
* catalogs must have the pinned number of graphs, and the pinned number of
  connected ones.
"""
from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# (suite, max_n) -> (graph_count, check_count).  The nbd-oracle check count
# does not depend on --seed: the seed picks which target sets are sampled,
# not how many.
SWEEP_COUNTS = {
    ("nbd-oracle", 7): (996, 968_510),
    ("lg-injectivity", 7): (995, 995),
}
# (order, connected only) -> number of graphs up to isomorphism.
CATALOG_COUNTS = {(7, False): 1044, (7, True): 853}


class CheckError(Exception):
    """The program's output is wrong."""


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def parse_graph6(word: str) -> Tuple[int, List[int]]:
    """Order and adjacency bitmasks of a short-form graph6 word."""
    if not word or not all(63 <= ord(c) <= 126 for c in word):
        raise CheckError(f"bad graph6 word {word!r}")
    n = ord(word[0]) - 63
    if not 1 <= n <= 62 or len(word) - 1 != (n * (n - 1) // 2 + 5) // 6:
        raise CheckError(f"bad graph6 word {word!r}")
    bits = [(ord(c) - 63) >> shift & 1 for c in word[1:] for shift in range(5, -1, -1)]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj


def is_connected(n: int, adj: Sequence[int]) -> bool:
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if adj[u] >> v & 1 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def dominating_sets(n: int, adj: Sequence[int]) -> Iterator[int]:
    full = (1 << n) - 1
    for D in range(1, full + 1):
        covered = D
        for v in range(n):
            if D >> v & 1:
                covered |= adj[v]
        if covered == full:
            yield D


def check_witness(n: int, adj: Sequence[int], witness: dict) -> int:
    """Validate an index witness; returns its ground-set size."""
    m = witness.get("ground_set_size")
    labels = witness.get("labels")
    if not isinstance(m, int) or m < 1 or not isinstance(labels, list) or len(labels) != n:
        raise CheckError("witness has the wrong shape")
    sets = []
    for lab in labels:
        if not isinstance(lab, list) or not lab or not all(
            isinstance(e, int) and not isinstance(e, bool) and 0 <= e < m for e in lab
        ):
            raise CheckError(f"witness label {lab!r} is empty or outside 0..{m - 1}")
        sets.append(frozenset(lab))
    if len(set(sets)) != n:
        raise CheckError("witness labels are not pairwise distinct")
    # meets[u]: neighbors of u whose label shares an element with u's label
    meets = [
        sum(1 << v for v in range(n) if adj[u] >> v & 1 and sets[u] & sets[v])
        for u in range(n)
    ]
    for D in dominating_sets(n, adj):
        for u in range(n):
            if not D >> u & 1 and not meets[u] & D:
                raise CheckError(f"witness fails dominating set {D:#x} at vertex {u}")
    return m


def complete_bipartite_sides(n: int, adj: Sequence[int]) -> Optional[Tuple[int, int]]:
    """Side sizes (smaller first) when the graph is complete bipartite."""
    side = adj[0]
    other = ((1 << n) - 1) & ~side
    if not side or not other:
        return None
    for v in range(n):
        if adj[v] != (side if other >> v & 1 else other):
            return None
    r, s = sorted((bin(other).count("1"), bin(side).count("1")))
    return r, s


def expected_index(n: int, adj: Sequence[int]) -> Optional[int]:
    """The paper's closed form, where one applies."""
    if all(adj[v] == ((1 << n) - 1) & ~(1 << v) for v in range(n)):
        return ceil_log2(2 * n)
    sides = complete_bipartite_sides(n, adj)
    if sides is not None and sides[0] <= 4:
        r, s = sides
        return ceil_log2(r + s + r)
    return None


def check_index(argv: Sequence[str], report: dict) -> None:
    word = argv[argv.index("--graph") + 1]
    n, adj = parse_graph6(word[len("g6:"):])
    if report.get("command") != "index" or report.get("defined") is not True:
        raise CheckError("index report is not a defined index")
    index = report["index"]
    if check_witness(n, adj, report["witness"]) != index:
        raise CheckError("witness ground set differs from the index")
    lower = ceil_log2(n + 1)
    if report["lower_bound_used"] < lower or index < lower:
        raise CheckError(f"lower bound and index must be at least {lower}")
    trace = report["trace"]
    if sum(p["nodes"] for p in trace) != report["nodes_explored"]:
        raise CheckError("nodes_explored is not the sum of the phase nodes")
    if not any(p["m"] == index and p["found"] for p in trace):
        raise CheckError("trace has no successful phase at the index")
    expected = expected_index(n, adj)
    if expected is not None:
        if index != expected:
            raise CheckError(f"index {index}, closed form gives {expected}")
        return
    refuted = any(p["m"] == index - 1 and p["found"] is False for p in trace)
    if index != lower and not refuted:
        raise CheckError(f"index {index} above the lower bound without refuting {index - 1}")


def check_sweep(argv: Sequence[str], report: dict) -> None:
    key = (argv[argv.index("--suite") + 1], int(argv[argv.index("--max-n") + 1]))
    graphs, checks = SWEEP_COUNTS[key]
    if report.get("ok") is not True or report.get("mismatch_count") != 0:
        raise CheckError(f"sweep {key} reports mismatches")
    if (report.get("graph_count"), report.get("check_count")) != (graphs, checks):
        raise CheckError(
            f"sweep {key}: {report.get('graph_count')} graphs and "
            f"{report.get('check_count')} checks, expected {graphs} and {checks}"
        )


def check_catalog(argv: Sequence[str], text: str) -> None:
    order = int(argv[argv.index("--catalog") + 1])
    connected_only = "--connected" in argv
    words = text.split()
    if len(set(words)) != len(words):
        raise CheckError("catalog repeats a graph")
    graphs = [parse_graph6(w) for w in words]
    if any(n != order for n, _ in graphs):
        raise CheckError(f"catalog holds a graph whose order is not {order}")
    want = CATALOG_COUNTS[(order, connected_only)]
    if len(words) != want:
        raise CheckError(f"catalog has {len(words)} graphs, expected {want}")
    connected = sum(is_connected(n, adj) for n, adj in graphs)
    if connected != CATALOG_COUNTS[(order, True)]:
        raise CheckError(f"catalog has {connected} connected graphs")


def parse_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        raise CheckError("output is not one JSON document") from None
    if not isinstance(report, dict):
        raise CheckError("output is not a JSON object")
    return report


def check_output(argv: Sequence[str], code: int, text: str) -> None:
    """Raise CheckError unless the call exited 0 with a correct answer."""
    if code != 0:
        raise CheckError(f"exit code {code}: {text.strip()[:200]}")
    try:
        if argv[0] == "gen":
            check_catalog(argv, text)
        elif argv[0] == "index":
            check_index(argv, parse_report(text))
        elif argv[0] == "sweep":
            check_sweep(argv, parse_report(text))
        else:
            raise CheckError(f"no check for command {argv[0]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed report: {exc!r}") from None


def comparable(argv: Sequence[str], text: str) -> object:
    """The output with its timing field dropped, for comparing two passes."""
    if argv[0] == "gen":
        return text
    report = parse_report(text)
    report.pop("timing", None)
    return report


def layer_counts(argv: Sequence[str], text: str) -> Dict[str, int]:
    """Machine-independent work counts a report states about itself."""
    if argv[0] == "index":
        report = parse_report(text)
        return {
            "index_search.nodes": report["nodes_explored"],
            "index_search.nodes_refuting": sum(
                p["nodes"] for p in report["trace"] if not p["found"]
            ),
        }
    if argv[0] == "sweep":
        return {"sweep.checks": parse_report(text)["check_count"]}
    return {}
