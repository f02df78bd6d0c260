"""Fuzzing the command line: every argv and input file ends in a report or a
JSON error object with a documented exit code, never in a traceback.

Values are kept small (family parameters <= 8, brm --r/--m <= 5, --max-n <= 4,
--catalog <= 5, --budget <= 5,000) so that each call takes milliseconds.  Fixed
examples add inputs that the drawn space leaves out on purpose: an index search
1,001 levels deep on star:1000, which once ended in a RecursionError, and numbers
too large to hold (an order of 10^20 or 2^62, a pattern vertex, a label element
or a ground set of 10^20), which once ended in an OverflowError or a
MemoryError; each fails in CPython's size checks before anything is allocated.
`gen --family`, retired since `--graph` takes every family spec, stays among the
draws and must end as a usage error.  Hypothesis raises the recursion limit
while it runs a test, so the test that pins the search depth against the limit
is in test_cli.py.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interfere.cli import _SUITES, SCHEMA

from conftest import run_cli

EXIT_CODES = {0, 2, 3, 4}
RAW_ON_SUCCESS = {"gen", "domsets"}  # graph6/edge-list text and a bare JSON array

ARITY = {"path": 1, "cycle": 1, "complete": 1, "kpq": 2, "star": 1, "matching": 1,
         "wheel": 1, "helm": 1, "crown": 1, "star_polygon": 1, "windmill": 2, "husimi": 3}
PATTERNS = ("singletons", "min-dominating", "all-dominating", "cross-pairs", "bogus")

FUZZ = settings(max_examples=400, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two input paths: one rewritten per example, one that never exists."""
    root = tmp_path_factory.mktemp("fuzz")
    return root / "input", root / "missing"


def small_ints(lo=-1, hi=8):
    return st.integers(lo, hi).map(str)


well_formed_spec = st.sampled_from(sorted(ARITY)).flatmap(lambda name: st.lists(
    small_ints(1, 8), min_size=ARITY[name], max_size=ARITY[name],
).map(lambda params: f"{name}:{','.join(params)}"))
any_spec = st.builds(lambda name, params: f"{name}:{','.join(params)}",
                     st.sampled_from((*ARITY, "moebius")), st.lists(small_ints(), max_size=3))
family_spec = st.one_of(well_formed_spec, well_formed_spec, well_formed_spec, any_spec)
g6_word = st.sampled_from(("@", "A_", "Bw", "Bg", "Ch", "C~", "Ehfw")) | st.text(
    alphabet="?@ABCDEw~!", max_size=4)
vertex_list = st.lists(small_ints(-1, 9), min_size=0, max_size=3).map(",".join)
edge_tokens = st.lists(
    st.builds(lambda u, v: f"{u}-{v}", small_ints(-1, 9), small_ints(-1, 9)) | st.text(max_size=3),
    min_size=1, max_size=3,
)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("ground_set_size", "labels", "x")), inner, max_size=3),
    max_leaves=12,
)
file_bytes = st.one_of(
    st.binary(max_size=40),
    json_value.map(lambda v: json.dumps(v).encode()),
    st.lists(st.lists(st.integers(0, 5), max_size=3), max_size=4).map(
        lambda sets: json.dumps(sets).encode()),
    st.builds(
        lambda m, labels: json.dumps({"ground_set_size": m, "labels": labels}).encode(),
        st.integers(1, 3), st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=5)),
    st.builds(
        lambda n, edges: (f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)).encode(),
        st.integers(0, 6), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6)),
    st.lists(g6_word, max_size=4).map(lambda words: "\n".join(words).encode()),
)


@st.composite
def cli_calls(draw, input_file, missing):
    """An argv, and the bytes of the one input file it may name."""
    path = str(missing if draw(st.booleans()) and draw(st.booleans()) else input_file)
    graph = draw(st.one_of(  # family specs twice as often as the other two forms
        family_spec,
        family_spec,
        st.just(f"file:{path}"),
        g6_word.map(lambda w: f"g6:{w}"),
    ))
    pattern = draw(st.sampled_from(PATTERNS) | st.just(f"explicit:{path}"))
    cmd = draw(st.sampled_from(
        ("gen", "domsets", "check", "index", "brm", "nbd", "linegraph", "dpd", "sweep")))
    argv = [cmd]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    if cmd == "gen":
        # --family is retired: it must be a usage error
        which = draw(st.sampled_from(("--family", "--graph", "--catalog")))
        values = {"--family": family_spec, "--catalog": small_ints(-1, 5)}
        argv += [which, draw(values[which]) if which in values else graph]
        if draw(st.booleans()):
            argv.append("--connected")
        maybe("--format", st.sampled_from(("graph6", "edges", "dot")))
    elif cmd == "domsets":
        argv += ["--graph", graph]
        maybe("--kind", st.sampled_from(("minimal", "all")))
    elif cmd == "check":
        argv += ["--graph", graph, "--labeling", draw(st.sampled_from(("complete", path)))]
        if draw(st.booleans()):
            argv += ["--set", draw(vertex_list)]
        else:
            argv += ["--pattern", pattern]
    elif cmd == "index":
        argv += ["--graph", graph, "--pattern", pattern, "--budget", draw(small_ints(-1, 5000))]
    elif cmd == "brm":
        if draw(st.booleans()):
            argv += ["--krs", draw(st.builds(lambda r, s: f"{r},{s}", small_ints(), small_ints()))]
        maybe("--r", small_ints(-1, 5))
        maybe("--m", small_ints(-1, 5))
    elif cmd == "nbd":
        argv += ["--graph", graph]
        maybe("--labeling", st.sampled_from(("open", "complemented", "closed")))
        mode = draw(st.sampled_from(("--set", "--complete", "--singleton", "--allbut")))
        argv.append(mode)
        if mode != "--complete":
            argv.append(draw(vertex_list if mode == "--set" else small_ints(-1, 9)))
    elif cmd == "linegraph":
        argv += ["--graph", graph, "--check",
                 draw(st.sampled_from(("injective", "interference", "complete", "cnbd", "rules")))]
        if draw(st.booleans()):
            argv += ["--edge-set", *draw(edge_tokens)]
    elif cmd == "dpd":
        argv += ["--graph", graph]
        argv += draw(st.sampled_from((["--path-construction"], ["--set", draw(vertex_list)])))
    else:
        # the retired index-kn suite stays among the draws: it must be a usage error
        argv += ["--suite", draw(st.sampled_from((*sorted(_SUITES), "index-kn")))]
        maybe("--max-n", small_ints(-1, 4))
        maybe("--seed", small_ints())
        maybe("--samples", small_ints(0, 8))
        if draw(st.booleans()):
            argv += ["--graphs-file", path]
    if draw(st.sampled_from(range(10))) == 9:  # now and then a stray token, never a help flag
        stray = st.text(max_size=4).filter(lambda t: "h" not in t)
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv, draw(file_bytes)


def test_main_never_escapes(files):
    input_file, missing = files

    @FUZZ
    @given(cli_calls(input_file, missing))
    @example((["index", "--graph", "star:1000", "--pattern", f"explicit:{input_file}",
               "--budget", "5000"], b"[[0]]"))
    @example((["gen", "--graph", f"file:{input_file}"], b"100000000000000000000\n"))
    @example((["gen", "--graph", f"file:{input_file}"], b"%d\n" % 2 ** 62))
    @example((["index", "--graph", "path:3", "--pattern", f"explicit:{input_file}"],
              b"[[100000000000000000000]]"))
    @example((["check", "--graph", "path:3", "--labeling", str(input_file), "--set", "0"],
              b'{"ground_set_size": 100000000000000000000, "labels": [[0], [1], [2]]}'))
    @example((["check", "--graph", "path:3", "--labeling", str(input_file), "--set", "0"],
              b'{"ground_set_size": 1000000000000000000000,'
              b' "labels": [[0], [1], [100000000000000000000]]}'))
    def run(call):
        argv, content = call
        input_file.write_bytes(content)
        code, out = run_cli(argv)
        assert code in EXIT_CODES, (argv, code)
        if code == 0 and argv[0] in RAW_ON_SUCCESS:
            return
        assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
        report = json.loads(out)
        assert isinstance(report, dict), (argv, out)
        assert report["schema"] == SCHEMA
        assert ("error" in report) == (code != 0), (argv, out)

    run()


def _not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


def test_input_that_is_not_utf8_is_a_format_error(files):
    input_file, _ = files
    routes = (
        ["gen", "--graph", f"file:{input_file}"],
        ["check", "--graph", "complete:3", "--labeling", str(input_file), "--set", "0"],
        ["index", "--graph", "path:3", "--pattern", f"explicit:{input_file}"],
        ["sweep", "--suite", "nbd-oracle", "--graphs-file", str(input_file)],
    )

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(routes), st.binary(min_size=1, max_size=20).filter(_not_utf8))
    def run(argv, content):
        input_file.write_bytes(content)
        code, out = run_cli(argv)
        assert code == 4, (argv, content)
        assert json.loads(out)["error"]["kind"] == "format"

    run()
