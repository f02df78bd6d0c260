"""Command-line front end with machine-readable JSON reports.

This module owns the JSON format: it builds every report from the
library's plain result types, and it parses both JSON input files, the
labeling file of `check --labeling` and the explicit-pattern file.

Every subcommand prints one JSON document to standard output, except `gen`
(raw graph6 or edge-list text) and `domsets` (a bare JSON array).  Exit
codes: 0 when a verdict was computed (even a negative one), 1 when stdout
closed before the output was written (no report could be written), 2 on
usage errors, 3 when a search budget or enumeration cap was exceeded or an
input was too large to hold in memory, 4 on malformed input.  Reports carry
"command", "schema": "3" and a "timing" field in seconds, all written by _run;
apart from the timing, output is byte-identical for identical arguments and
seed.

Graph specs accepted by --graph: a family spec such as "wheel:5" or
"husimi:3,4,5" (see families.py), "file:PATH" for the edge-list text
format, or "g6:STRING" for one graph6 line.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

from .bitset import bit_list, check_vertex, iter_bits, mask_of
from .catalog import all_graphs, connected_graphs, connected_graphs_upto
from .core import (
    Pattern,
    SetLabeling,
    build_complete_interference,
    expand_pattern,
    is_complete_interference,
    is_valid_labeling,
    overlap_graph,
    pattern_violations,
)
from .domination import (
    all_dominating_sets,
    check_cap,
    dominating_family,
    is_dominating,
    minimal_dominating_sets,
)
from .dpd import distance_pattern, dpd_interference_check, is_dpd_set, path_dpd_set
from .errors import (
    CapExceededError,
    GraphFormatError,
    HypothesisViolation,
    NoDominatingSetError,
    SearchBudgetExceeded,
)
from .families import complete, parse_family_spec
from .graphs import (
    Graph,
    bfs_layers,
    check_has_edge,
    components,
    fingerprint,
    from_edge_list,
    from_graph6,
    is_point_determining,
    line_graph,
    to_edge_list_text,
    to_graph6,
)
from .index_search import (
    DEFAULT_BUDGET,
    bipartite_index,
    bipartite_index_upper_bound,
    index_lower_bound,
    interference_index,
    max_cross_intersecting,
)
from .linegraph import (
    edge_mask,
    line_complemented_independence_rule,
    line_complemented_regular_rule,
    line_complemented_size_rule,
    line_complete_report,
    line_injectivity_report,
)
from .neighborhood import (
    closed_labeling,
    complemented_complete,
    complemented_escape_family,
    complemented_interference_of,
    complemented_labeling,
    complemented_sufficient_rule,
    neighborhood_complete,
    neighborhood_interference_of,
    neighborhood_labeling,
    two_path_complete,
    two_path_graph,
)

SCHEMA = "3"

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FORMAT = 4

_EXHAUSTIVE_SWEEP_N = 5  # up to this order, sweeps try every nonempty D


# ---------------------------------------------------------------------------
# input plumbing

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None


def resolve_graph(spec: str) -> Graph:
    if spec.startswith("file:"):
        return from_edge_list(_read_text(spec[len("file:"):]))
    if spec.startswith("g6:"):
        return from_graph6(spec[len("g6:"):])
    return parse_family_spec(spec)


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path} is not valid JSON: {exc}") from None


def parse_vertex_set(text: str, n: int) -> int:
    try:
        verts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"vertex set {text!r} must be a comma list of ints") from None
    if not verts:
        raise ValueError("vertex set must be nonempty")
    for v in verts:
        check_vertex(v, n)
    return mask_of(verts)


def parse_edge_set(tokens: List[str], G: Graph) -> int:
    pairs = []
    for tok in tokens:
        a, sep, b = tok.partition("-")
        if not sep:
            raise ValueError(f"edge token {tok!r} must look like 'u-v'")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"edge token {tok!r} has non-integer endpoints") from None
    mask = edge_mask(G, pairs)
    if mask == 0:
        raise ValueError("edge set must be nonempty")
    return mask


def bipartition(G: Graph) -> Tuple[int, int]:
    """Two-color the graph; raises ValueError when an odd cycle blocks it."""
    U = 0
    for comp in components(G):
        U |= sum(bfs_layers(G, (comp & -comp).bit_length() - 1)[::2])
    if any((U >> u & 1) == (U >> v & 1) for u, v in G.edges):
        raise ValueError("cross-pairs needs a bipartite graph")
    return U, G.full_mask & ~U


def resolve_pattern(name: str, G: Graph) -> Pattern:
    if name == "singletons":
        return Pattern.singletons(G.n)
    if name in ("min-dominating", "all-dominating"):  # one pattern: f serves every dominating set
        return Pattern.all_dominating()
    if name == "cross-pairs":
        U, W = bipartition(G)
        return Pattern.cross_pairs(U, W)
    if name.startswith("explicit:"):
        data = _load_json(name[len("explicit:"):])
        if not isinstance(data, list) or not all(
            isinstance(row, list) and all(type(v) is int and v >= 0 for v in row) for row in data
        ):
            raise GraphFormatError(
                "explicit pattern file must hold an array of arrays of vertices >= 0"
            )
        if any(v >= G.n for row in data for v in row):  # before any mask is built
            raise ValueError("explicit pattern has vertices outside the graph")
        return Pattern.explicit([mask_of(row) for row in data])
    raise ValueError(f"unknown pattern {name!r}")


def _load_labeling(spec: str, G: Graph) -> SetLabeling:
    if spec == "complete":
        return build_complete_interference(G.n)
    obj = _load_json(spec)
    try:
        m, raw = obj["ground_set_size"], obj["labels"]
    except (KeyError, TypeError):
        raise GraphFormatError("labeling JSON needs ground_set_size and labels") from None
    # type() rather than isinstance(): JSON true must not pass as 1
    if type(m) is not int or m < 1:
        raise GraphFormatError("ground_set_size must be a positive int")
    if not isinstance(raw, list):
        raise GraphFormatError("labels must be an array of element arrays")
    labels = []
    for lab in raw:
        if not isinstance(lab, list) or not all(type(e) is int and 0 <= e < m for e in lab):
            raise GraphFormatError(f"label {lab!r} is not an array of elements in 0..{m - 1}")
        labels.append(mask_of(lab))
    if len(labels) != G.n:
        raise ValueError(f"labeling covers {len(labels)} vertices but the graph has {G.n}")
    return SetLabeling(m, labels)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns a report dict, or None if it printed raw

def _sets(masks) -> List[List[int]]:
    """Each bitmask as its ascending element list, the form every report uses."""
    return [bit_list(mask) for mask in masks]


def cmd_gen(args) -> Optional[dict]:
    if args.catalog is not None:
        if args.format != "graph6":
            raise ValueError("--catalog output is graph6 only")
        graphs = connected_graphs(args.catalog) if args.connected else all_graphs(args.catalog)
        for G in graphs:
            print(to_graph6(G))
        return None
    if args.connected:
        raise ValueError("--connected applies only with --catalog")
    G = resolve_graph(args.graph)
    if args.format == "graph6":
        print(to_graph6(G))
    else:
        sys.stdout.write(to_edge_list_text(G))
    return None


def cmd_domsets(args) -> Optional[dict]:
    G = resolve_graph(args.graph)
    sets = minimal_dominating_sets(G) if args.kind == "minimal" else all_dominating_sets(G)
    print(json.dumps(_sets(sets)))
    return None


def cmd_check(args) -> dict:
    G = resolve_graph(args.graph)
    f = _load_labeling(args.labeling, G)
    report = {"graph": fingerprint(G), "labeling_valid": is_valid_labeling(f)}
    if args.set:
        P = Pattern.explicit([parse_vertex_set(text, G.n) for text in args.set])
    else:
        P = resolve_pattern(args.pattern, G)
    # the dominating pattern is decided per vertex, with no family to count
    report["sets_checked"] = None if P.kind == Pattern.ALL_DOMINATING else len(expand_pattern(G, P))
    valid, violations = report["labeling_valid"], []
    if valid:
        violations = [{"set": bit_list(D), "vertex": v.vertex,
                       "candidates": bit_list(v.candidates_mask)}
                      for D, v in pattern_violations(G, P, f)]
    report.update({"verdict": valid and not violations, "violations": violations})
    return report


def cmd_index(args) -> dict:
    G = resolve_graph(args.graph)
    P = resolve_pattern(args.pattern, G)
    if args.budget < 0:
        raise ValueError(f"node budget must be >= 0, got {args.budget}")
    report = {"graph": fingerprint(G), "pattern": args.pattern, "budget": args.budget}
    try:
        res = interference_index(G, P, budget=args.budget)
    except NoDominatingSetError as exc:
        report.update({"defined": False, "reason": str(exc)})
        return report
    report.update(res._asdict(), defined=True, trace=[p._asdict() for p in res.trace],
                  witness={"ground_set_size": res.witness.ground_size,
                           "labels": _sets(res.witness.labels)})
    return report


def cmd_brm(args) -> dict:
    if args.krs:
        if args.r is not None or args.m is not None:
            raise ValueError("--krs excludes --r/--m")
        try:
            r, s = (int(tok) for tok in args.krs.split(","))
        except ValueError:
            raise ValueError("--krs takes 'r,s'") from None
        return {
            "r": r,
            "s": s,
            "index": bipartite_index(r, s),
            "upper_bound": bipartite_index_upper_bound(r, s),
            "side_index": index_lower_bound(r + s),
        }
    if args.r is None or args.m is None:
        raise ValueError("brm needs --r and --m (or --krs r,s)")
    res = max_cross_intersecting(args.r, args.m)
    return {**res._asdict(), "family": _sets(res.family), "partners": _sets(res.partners)}


def cmd_nbd(args) -> dict:
    G = resolve_graph(args.graph)
    report = {"graph": fingerprint(G), "labeling": args.labeling}
    if args.set is not None:
        mode, target = "set", parse_vertex_set(args.set, G.n)
    elif args.singleton is not None:
        check_vertex(args.singleton, G.n)
        mode, target = "singleton", 1 << args.singleton
    elif args.allbut is not None:
        check_vertex(args.allbut, G.n)
        mode, target = "allbut", G.full_mask & ~(1 << args.allbut)
        if target == 0:
            raise ValueError("the all-but-one set is empty on an order-1 graph")
    else:
        mode, target = "complete", None
    report["mode"] = mode
    report["target"] = None if target is None else bit_list(target)

    if args.labeling == "open":
        rep = neighborhood_labeling(G)
    elif args.labeling == "complemented":
        rep = complemented_labeling(G)
    else:
        rep = closed_labeling(G)
    trace = {"injective": rep.injective, "has_empty_label": rep.has_empty_label}
    if args.labeling == "open":
        if mode == "complete":
            verdict = neighborhood_complete(G)
            trace["two_path_complete"] = two_path_complete(G)
            rule = "open_complete"
        else:
            verdict = neighborhood_interference_of(G, target)
            rule = f"open_{mode}"
    elif args.labeling == "complemented":
        if mode == "complete":
            verdict = complemented_complete(G)
            trace["sufficient_rule"] = complemented_sufficient_rule(G)
            rule = "complemented_complete"
        else:
            verdict = complemented_interference_of(G, target)
            rule = "complemented_set"
    elif mode == "complete":  # closed: valid is enough, see closed_labeling
        verdict = rep.valid
        trace["reason"] = None if rep.valid else "NOT_INJECTIVE"
        rule = "closed_universal_selfcheck"
    else:  # closed: valid and D dominates G, see closed_labeling
        verdict = rep.valid and is_dominating(G, target)
        rule = "closed_set"
    report.update({"verdict": verdict, "rule": rule, "trace": trace})
    return report


def cmd_linegraph(args) -> dict:
    G = resolve_graph(args.graph)
    check_has_edge(G)
    report = {"graph": fingerprint(G), "check": args.check}
    D = parse_edge_set(args.edge_set, G) if args.edge_set else None
    if D is not None:
        report["edge_set"] = [list(G.edges[i]) for i in iter_bits(D)]

    if args.check == "injective":
        rep = line_injectivity_report(G)
        report.update(
            {
                "verdict": rep.injective,
                "obstructions": [[kind, list(verts)] for kind, verts in rep.obstructions],
            }
        )
    elif args.check == "interference":
        if D is None:
            raise ValueError("--check interference needs --edge-set")
        report["verdict"] = neighborhood_interference_of(line_graph(G), D)
    elif args.check == "complete":
        rep = line_complete_report(G)
        report.update({"verdict": rep.verdict, "clauses": rep.clauses})
    elif args.check == "cnbd":
        if D is None:
            raise ValueError("--check cnbd needs --edge-set")
        report["verdict"] = complemented_interference_of(line_graph(G), D)
    else:  # rules
        independence = line_complemented_independence_rule(G)
        regular = line_complemented_regular_rule(G)
        size = line_complemented_size_rule(G, D) if D is not None else None
        rule = "independence" if independence else "regular" if regular else None
        report.update(
            {
                "verdict": independence or regular,
                "rule": rule,
                "rules": {"independence": independence, "regular": regular, "size": size},
            }
        )
    return report


def cmd_dpd(args) -> dict:
    G = resolve_graph(args.graph)
    M = path_dpd_set(G.n) if args.path_construction else parse_vertex_set(args.set, G.n)
    pat = distance_pattern(G, M)
    return {
        "graph": fingerprint(G),
        "markers": bit_list(M),
        "ground_set_size": pat.ground_size,
        "patterns": _sets(pat.labels),
        "dpd": is_dpd_set(G, M),
        "interference": dpd_interference_check(G, M),
    }


# ---------------------------------------------------------------------------
# sweeps

def _sweep_corpus(args) -> List[Graph]:
    if args.graphs_file:
        text = _read_text(args.graphs_file)
        return [from_graph6(line) for line in text.splitlines() if line.strip()]
    return connected_graphs_upto(args.max_n)


def _target_sets(G: Graph, seed: int, samples: int) -> List[int]:
    if G.n <= _EXHAUSTIVE_SWEEP_N:
        return list(range(1, 1 << G.n))
    rng = random.Random(f"{seed}:{fingerprint(G)['edge_hash']}")
    return [rng.randrange(1, 1 << G.n) for _ in range(samples)]


def _family(H: Optional[Graph]) -> int:
    """dominating_family(H), and no set when H is not there."""
    return 0 if H is None else dominating_family(H)


def _sweep_nbd(args) -> Tuple[int, int, List[dict]]:
    graphs = _sweep_corpus(args)
    checks = 0
    mismatches = []
    Kn = None
    for G in graphs:
        check_cap("nbd-oracle sweep", G.n)  # 2^n-bit families, whatever G is
        if Kn is None or Kn.n != G.n:
            Kn = complete(G.n)
        nrep = neighborhood_labeling(G)
        crep = complemented_labeling(G)
        # the definitional route: each labeling's overlap graph, built once
        h_open = overlap_graph(Kn, nrep.labeling) if nrep.valid else None
        h_comp = overlap_graph(Kn, crep.labeling) if crep.valid else None
        found = [(kind, None) for kind, thm, orc in (
            ("open_complete", neighborhood_complete(G),
             nrep.valid and is_complete_interference(nrep.labeling)),
            ("complemented_complete", complemented_complete(G),
             crep.valid and is_complete_interference(crep.labeling)),
        ) if thm != orc]
        # the two complete kinds, then open_set and complemented_set once per
        # target set, repeats included
        checks += 2 + 2 * ((1 << G.n) - 1 if G.n <= _EXHAUSTIVE_SWEEP_N else args.samples)
        # bit D of each mask is set when the structural criterion and the
        # oracle disagree on D, so every D is decided once; the draws are
        # made only to list the disagreements, once per draw
        open_bad = _family(two_path_graph(G)) ^ _family(h_open)
        comp_valid = is_point_determining(G)
        comp_bad = (complemented_escape_family(G) if comp_valid else 0) ^ _family(h_comp)
        if open_bad | comp_bad:
            for D in _target_sets(G, args.seed, args.samples):
                found.extend((kind, bit_list(D)) for kind, bad in (
                    ("open_set", open_bad), ("complemented_set", comp_bad)) if bad >> D & 1)
        if found:
            g6 = to_graph6(G)
            mismatches.extend({"graph6": g6, "kind": kind, "set": members}
                              for kind, members in found)
    return len(graphs), checks, mismatches


def _sweep_lg(args) -> Tuple[int, int, List[dict]]:
    graphs = [G for G in _sweep_corpus(args) if G.edges]
    checks = 0
    mismatches = []
    for G in graphs:
        L = line_graph(G)
        thm = line_injectivity_report(G).injective
        orc = neighborhood_labeling(L).injective
        checks += 1
        if thm != orc:
            mismatches.append({"graph6": to_graph6(G), "kind": "line_injective", "set": None})
    return len(graphs), checks, mismatches


_SUITES = {"nbd-oracle": _sweep_nbd, "lg-injectivity": _sweep_lg}


def cmd_sweep(args) -> dict:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    graph_count, check_count, mismatches = _SUITES[args.suite](args)
    if check_count == 0:  # "ok" after no check would be vacuous
        source = args.graphs_file or f"the catalog to order {args.max_n}"
        raise ValueError(f"--suite {args.suite} made no check on {source}")
    mismatches.sort(key=lambda m: (m["graph6"], m["kind"], str(m["set"])))
    return {
        "suite": args.suite,
        "max_n": None if args.graphs_file else args.max_n,  # a file ignores --max-n
        "seed": args.seed,
        "samples": args.samples,
        "graph_count": graph_count,
        "check_count": check_count,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:50],
        "ok": not mismatches,
    }


# ---------------------------------------------------------------------------
# parser and dispatch

class _Parser(argparse.ArgumentParser):
    """Argparse that emits the JSON error object usage failures owe stdout."""

    def error(self, message):
        raise SystemExit(_fail("usage", message, EXIT_USAGE))

    def print_help(self, file=None):
        # argparse drops a failed write; let a closed stdout reach main
        (file or sys.stdout).write(self.format_help())


@lru_cache(maxsize=None)  # built by the first main call, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="interfere", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph or a whole catalog level")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="any graph spec (family, file:PATH, g6:STRING)")
    grp.add_argument("--catalog", type=int, help="all graphs on exactly this many vertices")
    p.add_argument("--connected", action="store_true", help="restrict --catalog to connected graphs")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("domsets", help="print dominating sets as a JSON array")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=("minimal", "all"), default="minimal")
    p.set_defaults(func=cmd_domsets)

    p = sub.add_parser("check", help="test a labeling against target sets or a pattern")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True,
                   help="labeling JSON file, or 'complete' for the built-in construction")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", action="append", help="comma list of vertices (repeatable)")
    grp.add_argument("--pattern",
                     help="singletons | min-dominating | all-dominating | cross-pairs | explicit:FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("index", help="smallest ground set admitting a pattern interference")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", default="all-dominating",
                   help="singletons | min-dominating | all-dominating | cross-pairs | explicit:FILE")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("brm", help="extremal cross-intersecting size, or bipartite index")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--krs", default=None, help="'r,s': index of the complete bipartite graph")
    p.set_defaults(func=cmd_brm)

    p = sub.add_parser("nbd", help="neighborhood-labeling interference criteria")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", choices=("open", "complemented", "closed"), default="open")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma list of vertices")
    grp.add_argument("--complete", action="store_true")
    grp.add_argument("--singleton", type=int, metavar="V")
    grp.add_argument("--allbut", type=int, metavar="V")
    p.set_defaults(func=cmd_nbd)

    p = sub.add_parser("linegraph", help="edge-labeling interference criteria")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge-set", nargs="+", metavar="U-V",
                   help="edges as endpoint pairs, e.g. 0-1 1-2")
    p.add_argument("--check", choices=("injective", "interference", "complete", "cnbd", "rules"),
                   required=True)
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("dpd", help="distance-pattern labelings")
    p.add_argument("--graph", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma list of marker vertices")
    grp.add_argument("--path-construction", action="store_true",
                     help="use the built-in marker set for paths of this order")
    p.set_defaults(func=cmd_dpd)

    p = sub.add_parser("sweep", help="oracle-equivalence batches over small-graph catalogs")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500,
                   help="random target sets per graph beyond the exhaustive size")
    p.add_argument("--graphs-file", default=None, help="graph6 lines replacing the catalog")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError:
        # no report can be written; pointing stdout at devnull keeps the
        # flush at exit silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    start = time.perf_counter()
    try:
        report = args.func(args)
    except GraphFormatError as exc:
        return _fail("format", str(exc), EXIT_FORMAT)
    except (SearchBudgetExceeded, CapExceededError) as exc:
        return _fail("budget", str(exc), EXIT_BUDGET)
    except (MemoryError, OverflowError):  # sizes no input check bounds
        return _fail("budget", "input too large to hold in memory", EXIT_BUDGET)
    except HypothesisViolation as exc:
        return _fail("hypothesis", str(exc), EXIT_USAGE)
    except ValueError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    if report is not None:
        report.update(command=args.command, schema=SCHEMA,
                      timing=round(time.perf_counter() - start, 6))
        print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": {"kind": kind, "message": message}, "schema": SCHEMA},
                     sort_keys=True))
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
