"""Render computation trees as indented text or as a DOT digraph.

Both renderings are deterministic (byte-identical for identical trees), list
leaves in the tree's left-to-right order, and cap output at a node budget
with an explicit truncation marker.  The DOT output is a plain `digraph` with
default attributes only, so any standard layout tool can consume it; leaf
shapes distinguish the three leaf kinds (success=box, fail=diamond,
error=octagon).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Error, Fail, Success, TraceNode, goal_formula
from .formulas import format_formula
from .values import format_valuation


class RenderFormat:
    TEXT = "text"
    DOT = "dot"


@dataclass(frozen=True)
class RenderOptions:
    format: str = RenderFormat.TEXT
    max_nodes: int = 10_000
    show_valuations: bool = True

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


def render(t: TraceNode, opts: RenderOptions = RenderOptions()) -> str:
    if opts.format == RenderFormat.DOT:
        return render_dot(t, opts)
    return render_text(t, opts)


def _leaf_label(node: TraceNode) -> str:
    leaf = node.leaf
    if isinstance(leaf, Success):
        return f"success {format_valuation(leaf.valuation)}"
    if isinstance(leaf, Fail):
        return "fail"
    assert isinstance(leaf, Error)
    return f"error({leaf.cause})"


class _Memo:
    """What consecutive nodes share, formatted once per rendering: their
    continuations (see goal_formula) and the text of their heads."""

    def __init__(self) -> None:
        self.formulas: dict = {}
        self.heads: dict = {}

    def formula(self, node: TraceNode) -> str:
        return format_formula(goal_formula(node.goal, self.formulas), self.heads)


def _node_label(node: TraceNode, opts: RenderOptions, memo: _Memo) -> str:
    if node.leaf is not None:
        return _leaf_label(node)
    text = f"[{node.tag}] {memo.formula(node)}"
    if opts.show_valuations:
        text += f" | {format_valuation(node.valuation)}"
    return text


def render_text(t: TraceNode, opts: RenderOptions = RenderOptions()) -> str:
    lines: list[str] = []
    budget = opts.max_nodes
    memo = _Memo()
    # explicit stack keeps deep trees away from the recursion limit
    stack: list[tuple[TraceNode, int]] = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if budget == 0:
            lines.append("  " * depth + "... (truncated)")
            break
        budget -= 1
        lines.append("  " * depth + _node_label(node, opts, memo))
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines) + "\n"


_SHAPES = {Success: "box", Fail: "diamond", Error: "octagon"}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(t: TraceNode, opts: RenderOptions = RenderOptions()) -> str:
    lines = ["digraph computation {"]
    budget = opts.max_nodes
    counter = 0
    stack: list[tuple[TraceNode, int | None]] = [(t, None)]
    while stack:
        node, parent = stack.pop()
        if budget == 0:
            lines.append(f'  n{counter} [label="(truncated)", shape=plaintext];')
            if parent is not None:
                lines.append(f"  n{parent} -> n{counter};")
            break
        budget -= 1
        nid = counter
        counter += 1
        if node.leaf is not None:
            shape = _SHAPES[type(node.leaf)]
            if isinstance(node.leaf, Success):
                label = _dot_escape(format_valuation(node.leaf.valuation))
            elif isinstance(node.leaf, Fail):
                label = "fail"
            else:
                label = f"error({node.leaf.cause})"
            lines.append(f'  n{nid} [label="{label}", shape={shape}];')
        else:
            label = _dot_escape(node.tag)
            if opts.show_valuations:
                label += "\\n" + _dot_escape(format_valuation(node.valuation))
            lines.append(f'  n{nid} [label="{label}"];')
        if parent is not None:
            lines.append(f"  n{parent} -> n{nid};")
        stack.extend((c, nid) for c in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"
