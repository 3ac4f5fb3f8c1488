"""The streamed trace: iter_trace, rendering from a stream, and node labels.

`fap run --trace` renders the preorder stream of engine.iter_trace and stops
reading it at the node budget, and it formats node labels from each goal's
heads and environment instead of from the substituted formula.  These tests
hold both to the materialized tree: the same text and DOT, and every label
equal to the formula and valuation the tree's node reports.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import tracemalloc
from pathlib import Path

import pytest

import fap.engine
from fap.cli import main
from fap.engine import (
    EngineConfig,
    ImplicationMode,
    NegationMode,
    Snapshot,
    Success,
    TraceNode,
    iter_trace,
    solve,
    trace,
)
from fap.formulas import format_formula
from fap.normalize import load, load_query, normalize_program
from fap.oracle import GeneratorConfig, generate
from fap.render import RenderOptions, iter_render, render
from fap.squares import squares_program
from fap.values import EMPTY_VALUATION, Valuation, format_valuation
from test_golden import PROCEDURES

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.fap"))

# a procedure body's binder that a call argument would capture when printed
CAPTURE = "def p(x) := EXISTS y . y = x + 1; query y = 2 AND p(y);"
# one body under several environments, and an engine-fresh y$N (printed y)
# free inside a binder of y
CALLS = """\
def lt(a, b) := a < b;
def p(x) := EXISTS y . y = x;
query n = 3 AND lt(1, n) AND lt(n, 5) AND SOME y := 1 TO 2 DO p(y) AND lt(y, n) END;
"""


def programs():
    """(name, program, config) for every corpus file, the golden procedures
    program under the four implication modes, and the cases above."""
    cases = []
    for path in CORPUS:
        config = EngineConfig(negation=NegationMode.LIBERAL, max_steps=3000)
        cases.append((path.stem, load(path.read_text(encoding="utf-8")), config))
    for impl in ImplicationMode:
        config = EngineConfig(negation=NegationMode.LIBERAL, implication=impl)
        cases.append((f"procedures_{impl.value}", load(PROCEDURES), config))
    cases.append(("capture", load(CAPTURE), EngineConfig()))
    cases.append(("calls", load(CALLS), EngineConfig()))
    return cases


CASES = programs()


@pytest.mark.parametrize("name,program,config", CASES, ids=[c[0] for c in CASES])
def test_every_label_is_the_nodes_formula_and_valuation(name, program, config):
    tree = trace(program, config=config)
    lines = render(tree, RenderOptions(max_nodes=10_000)).splitlines()
    nodes = list(tree.preorder())[:10_000]
    assert len(lines) >= len(nodes)
    for (depth, node), line in zip(nodes, lines):
        if node.leaf is None:
            want = (f"[{node.tag}] {format_formula(node.formula)} | "
                    f"{format_valuation(node.valuation)}")
            assert line == "  " * depth + want


def test_labels_of_a_live_stream_past_the_cache_bounds():
    # the live stream frees goals as the search moves on, so their ids are
    # reused; each expected label is taken as its node goes by
    queens8 = load((ROOT / "corpus" / "queens8.fap").read_text(encoding="utf-8"))
    want: list[str] = []

    def expecting(stream):
        for depth, node in stream:
            if node.leaf is None:
                want.append(f"{'  ' * depth}[{node.tag}] {format_formula(node.formula)}")
            else:
                want.append(None)
            yield depth, node

    opts = RenderOptions(max_nodes=20_000, show_valuations=False)
    lines = render(expecting(iter_trace(queens8)), opts).splitlines()
    # the renderer reads one node past its budget and prints the marker
    assert len(want) == len(lines) == 20_001 and lines[-1].endswith("... (truncated)")
    for line, label in zip(lines[:-1], want):
        if label is not None:
            assert line == label


def test_printer_memory_is_bounded():
    queens8 = load((ROOT / "corpus" / "queens8.fap").read_text(encoding="utf-8"))

    def peak(max_nodes: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            for _ in iter_render(iter_trace(queens8), RenderOptions(max_nodes=max_nodes)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # caches bounded by the nodes printed made it 9.1 MB against 3.2 MB
    assert peak(40_000) <= 1.5 * peak(10_000)


def test_labels_of_generated_programs():
    for seed in range(40):
        program = normalize_program(generate(GeneratorConfig(seed=seed)))
        tree = trace(program, config=EngineConfig(negation=NegationMode.LIBERAL))
        lines = render(tree, RenderOptions(show_valuations=False)).splitlines()
        for (depth, node), line in zip(tree.preorder(), lines):
            if node.leaf is None:
                assert line == f"{'  ' * depth}[{node.tag}] {format_formula(node.formula)}"


def test_capture_renames_the_printed_binder():
    text = render(trace(load(CAPTURE)))
    assert "EXISTS y_2 . y_2 = y + 1" in text
    # the argument is an engine-fresh y$N, which prints as y: the binder is
    # renamed past its printed name too
    text = render(trace(load(CALLS)))
    assert "EXISTS y_2 . y_2 = y" in text
    assert "EXISTS y . y = y" not in text


def stream_and_tree(program, config, opts):
    return (render(iter_trace(program, config=config), opts),
            render(trace(program, config=config), opts))


@pytest.mark.parametrize("fmt", ["text", "dot"])
@pytest.mark.parametrize("max_nodes", [1, 3, 10_000])
def test_stream_renders_as_the_tree(fmt, max_nodes):
    opts = RenderOptions(format=fmt, max_nodes=max_nodes)
    queens = load((ROOT / "corpus" / "queens8.fap").read_text(encoding="utf-8"))
    for program, config in [
        (queens, EngineConfig(solution_limit=1)),  # 12,553 nodes
        (load(PROCEDURES), EngineConfig(negation=NegationMode.LIBERAL,
                                        implication=ImplicationMode.COMBINED)),
        (load_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y"),
         EngineConfig()),
    ]:
        streamed, tree = stream_and_tree(program, config, opts)
        assert streamed == tree
        if max_nodes < 10_000:
            assert "(truncated)" in streamed


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_stream_renders_budget_cuts_as_the_tree(fmt):
    opts = RenderOptions(format=fmt)
    # the root's negand sub-tree exhausts the budget: the root is the cut
    root_cut = load_query("NOT (1 = 2 OR 1 = 3 OR 1 = 4)")
    streamed, tree = stream_and_tree(root_cut, EngineConfig(max_steps=2), opts)
    assert streamed == tree
    assert list(iter_trace(root_cut, config=EngineConfig(max_steps=2)))[0][0] == 0
    assert trace(root_cut, config=EngineConfig(max_steps=2)).node_count() == 1
    # cut below the root
    formula1 = load_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    for steps in (2, 5, 9):
        streamed, tree = stream_and_tree(formula1, EngineConfig(max_steps=steps), opts)
        assert streamed == tree
        assert "step-budget" in streamed


def test_trace_leaves_match_solve_under_a_cut():
    program = load((ROOT / "corpus" / "queens8.fap").read_text(encoding="utf-8"))
    config = EngineConfig(max_steps=500)
    assert tuple(trace(program, config=config).leaves()) == solve(program, config=config).leaves


def test_cli_trace_stops_at_the_node_budget(monkeypatch):
    created = []

    class CountingNode(TraceNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(1)

    monkeypatch.setattr(fap.engine, "TraceNode", CountingNode)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["run", str(ROOT / "corpus" / "queens8.fap"), "--first", "10",
                   "--trace", "text"])
    assert rc == 0
    assert "... (truncated)" in out.getvalue()
    assert 0 < len(created) <= RenderOptions().max_nodes + 1


def test_cli_trace_snapshots_and_formats_per_store_state(monkeypatch):
    # queens8 --first 10 renders 10,001 nodes, but the traced search starts
    # them from only 3,445 distinct stores: siblings share one snapshot.  The
    # renderer formats one store whole, the root's, and prints every other
    # from the text of the store it extends plus its new bindings
    counts = {"snapshot": 0, "format_valuation": 0, "valuation_entries": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    # the module, not the function fap exports under the same name
    render_module = importlib.import_module("fap.render")
    monkeypatch.setattr(fap.engine._State, "snapshot",
                        counting("snapshot", fap.engine._State.snapshot))
    for name in ("format_valuation", "valuation_entries"):
        monkeypatch.setattr(render_module, name, counting(name, getattr(render_module, name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["run", str(ROOT / "corpus" / "queens8.fap"), "--first", "10",
                   "--trace", "text"])
    assert rc == 0
    nodes = RenderOptions().max_nodes + 1
    assert 0 < counts["snapshot"] < nodes / 2
    # one store formatted whole, the root's; format_valuation prints the
    # valuations of the 10 success labels, which are not stores
    assert counts["valuation_entries"] <= 1
    assert counts["format_valuation"] <= 10
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == expected["queens8_trace"]["stdout_sha256"]


def test_node_count_of_a_deep_trace():
    tree = trace(load_query(" AND ".join(["x = 1"] * 1500)))
    assert tree.node_count() == 1502  # 1,500 atoms, the empty goal, the success


# Printed valuations.  Every store of a trace but the root's is printed from
# the text of the store it extends plus the bindings made since; that text
# must be the store's, formatted whole.

MODE_FLAGS = [
    {},
    dict(negation=NegationMode.LIBERAL, implication=ImplicationMode.NEG_OR),
    dict(negation=NegationMode.LIBERAL, implication=ImplicationMode.GUARDED,
         report_internal_bindings=True),
    dict(implication=ImplicationMode.COMBINED, pedantic=True),
]
MODES = [EngineConfig(**flags) for flags in MODE_FLAGS]
BUDGETED_MODES = [EngineConfig(**flags, max_steps=3000) for flags in MODE_FLAGS]
CAPS = (1, 7, 300, 10_000)


def printed_valuations(text: str, fmt: str) -> list[str]:
    """The valuation each node line of a rendering prints, or its leaf label."""
    if fmt == "text":
        return [line.strip().rpartition(" | ")[2] for line in text.splitlines()]
    labels = [line.split('label="', 1)[1].split('"', 1)[0]
              for line in text.splitlines() if "[label=" in line]
    return [label.rpartition("\\n")[2] for label in labels]


def assert_prints_whole_valuations(text: str, nodes: list, fmt: str) -> None:
    printed = printed_valuations(text, fmt)
    assert len(printed) >= len(nodes)
    for node, shown in zip(nodes, printed):
        if node.leaf is None:
            assert shown == format_valuation(node.valuation)
        elif isinstance(node.leaf, Success):
            want = format_valuation(node.leaf.valuation)
            assert shown == (f"success {want}" if fmt == "text" else want)


def recorded(stream, nodes: list):
    for depth, node in stream:
        nodes.append(node)
        yield depth, node


def check_printed_valuations(program, initial=EMPTY_VALUATION, modes=MODES):
    for config in modes:
        tree = trace(program, initial, config)
        in_tree = [node for _, node in tree.preorder()]
        for cap, fmt in itertools.product(CAPS, ("text", "dot")):
            opts = RenderOptions(format=fmt, max_nodes=cap)
            streamed: list = []
            text = render(recorded(iter_trace(program, initial, config), streamed), opts)
            assert_prints_whole_valuations(text, streamed[:cap], fmt)
            assert_prints_whole_valuations(render(tree, opts), in_tree[:cap], fmt)


@pytest.mark.parametrize("path", CORPUS, ids=[path.stem for path in CORPUS])
def test_printed_valuations_of_the_corpus(path):
    program = load(path.read_text(encoding="utf-8"))
    check_printed_valuations(program, modes=BUDGETED_MODES)


def test_printed_valuations_with_array_cells():
    squares = load(squares_program(5, 4, 3))  # 2-D cells
    sizes = Valuation(cells={("Sizes", (1,)): 4, ("Sizes", (2,)): 1, ("Sizes", (3,)): 1})
    check_printed_valuations(squares, sizes, BUDGETED_MODES)


def test_printed_valuations_of_generated_programs():
    # arrays with bool cells, EXISTS and FORALL
    for seed in range(300):
        cfg = GeneratorConfig(seed=seed, arrays_and_quantifiers=True)
        check_printed_valuations(normalize_program(generate(cfg)))


def test_printed_valuations_of_a_hand_built_tree():
    # plain valuations, and a Snapshot whose parent the tree never shows:
    # each is formatted whole
    x1 = Valuation({"x": 1})
    x1y2 = Valuation({"x": 1, "y": 2}, {("a", (2, 1)): True})
    stray = Snapshot({"x": 1, "z": 5}, {}, Valuation({"z": 5}), (("x", 1),))
    tree = TraceNode("disjunction", valuation=x1, children=[
        TraceNode("atom", valuation=x1y2, children=[
            TraceNode("success", valuation=x1y2, leaf=Success(x1y2))]),
        TraceNode("atom", valuation=x1, children=[
            TraceNode("atom", valuation=stray, children=[
                TraceNode("atom", valuation=x1y2)])]),
        TraceNode("atom", valuation=stray),
    ])
    nodes = [node for _, node in tree.preorder()]
    for cap, fmt in itertools.product(CAPS, ("text", "dot")):
        opts = RenderOptions(format=fmt, max_nodes=cap)
        assert_prints_whole_valuations(render(tree, opts), nodes[:cap], fmt)


class Recorder(io.TextIOBase):
    """A stdout that keeps each write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_cli_writes_the_trace_in_chunks(fmt):
    queens8 = ROOT / "corpus" / "queens8.fap"
    stdout = Recorder()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["run", str(queens8), "--first", "10", "--trace", fmt])
    assert rc == 0
    out = "".join(stdout.writes)
    config = EngineConfig(max_steps=100_000_000, solution_limit=10)
    want = render(iter_trace(load(queens8.read_text(encoding="utf-8")), config=config),
                  RenderOptions(format=fmt))
    if fmt == "text":
        assert out.startswith(want) and out[len(want):].startswith("\nq[1]=1 ")
        expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == expected["queens8_trace"]["stdout_sha256"]
    else:
        assert out == want  # the report goes to stderr
    assert max(len(w) for w in stdout.writes) <= 1 << 20
    assert len(stdout.writes) <= 100
