import re

import pytest

from fap.engine import solve, trace
from fap.formulas import EMPTY, ProgramUnit
from fap.normalize import load_query, normalize_program
from fap.oracle import GeneratorConfig, generate
from fap.render import RenderOptions, render

FORMULA1 = "(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y"


def formula1_trace():
    return trace(load_query(FORMULA1))


def test_text_rendering_lists_leaves_in_order():
    text = render(formula1_trace(), RenderOptions())
    labels = [
        line.strip()
        for line in text.splitlines()
        if line.strip().startswith(("success", "fail", "error"))
    ]
    assert labels == ["fail", "fail", "fail", "success {x/3, y/2}"]


def test_dot_rendering_shapes_and_success_label():
    dot = render(formula1_trace(), RenderOptions(format="dot"))
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == 1
    assert dot.count("shape=diamond") == 3
    assert '[label="{x/3, y/2}", shape=box]' in dot


def test_dot_is_plain_digraph():
    dot = render(formula1_trace(), RenderOptions(format="dot"))
    for line in dot.splitlines():
        assert not line.startswith(("subgraph", "rankdir", "graph ["))


def test_dot_node_ids_are_preorder_and_referenced_once_defined():
    dot = render(formula1_trace(), RenderOptions(format="dot"))
    defined = re.findall(r"^\s*n(\d+) \[", dot, re.M)
    assert defined == [str(i) for i in range(len(defined))]
    for a, b in re.findall(r"n(\d+) -> n(\d+)", dot):
        assert int(a) < int(b)


def test_empty_query_renders_two_nodes():
    t = trace(ProgramUnit(query=EMPTY, normalized=True))
    text = render(t, RenderOptions())
    assert len(text.strip().splitlines()) == 2
    dot = render(t, RenderOptions(format="dot"))
    assert dot.count("label=") == 2


def test_max_nodes_truncates_with_marker():
    text = render(formula1_trace(), RenderOptions(max_nodes=3))
    assert "(truncated)" in text
    dot = render(formula1_trace(), RenderOptions(format="dot", max_nodes=3))
    assert '"(truncated)"' in dot


def test_max_nodes_must_be_positive():
    with pytest.raises(ValueError):
        RenderOptions(max_nodes=0)


def test_format_must_be_known():
    with pytest.raises(ValueError, match="xml"):
        RenderOptions(format="xml")


def test_rendering_is_deterministic():
    for fmt in ("text", "dot"):
        a = render(formula1_trace(), RenderOptions(format=fmt))
        b = render(formula1_trace(), RenderOptions(format=fmt))
        assert a == b


def test_dot_leaf_sequence_matches_solve():
    shapes = {"box": "Success", "diamond": "Fail", "octagon": "Error"}
    for seed in range(60):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        dot = render(trace(pu), RenderOptions(format="dot"))
        got = [
            shapes[m]
            for m in re.findall(r"shape=(box|diamond|octagon)", dot)
        ]
        assert got == [type(l).__name__ for l in solve(pu).leaves]


def test_rendered_leaf_sequence_matches_solve():
    for seed in range(150):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        node = trace(pu)
        text = render(node, RenderOptions())
        rendered = [
            line.strip().split()[0]
            for line in text.splitlines()
            if line.strip().startswith(("success", "fail", "error"))
        ]
        want = [
            {"Success": "success", "Fail": "fail", "Error": "error"}[
                type(l).__name__
            ]
            for l in solve(pu).leaves
        ]
        assert [r.split("(")[0] for r in rendered] == want


def test_distinct_trees_render_distinctly():
    seen = {}
    for seed in range(200):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        text = render(trace(pu), RenderOptions())
        if text in seen:
            # identical rendering must mean structurally identical input
            assert seen[text] == pu.query
        else:
            seen[text] = pu.query


def test_show_valuations_toggle():
    on = render(formula1_trace(), RenderOptions(show_valuations=True))
    off = render(formula1_trace(), RenderOptions(show_valuations=False))
    assert " | {" in on and " | {" not in off
