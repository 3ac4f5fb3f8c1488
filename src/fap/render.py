"""Render computation trees as indented text or as a DOT digraph.

A tree is a TraceNode or the preorder stream of (depth, node) that
engine.iter_trace yields; rendering reads one node past the node budget and
stops, so a streamed search goes no further than the output.  Text labels
are built from each goal's heads and environment (_Labels), not from the
substituted formula.

Both renderings are deterministic (byte-identical for identical trees), list
leaves in the tree's left-to-right order, and cap output at a node budget
with an explicit truncation marker.  The DOT output is a plain `digraph` with
default attributes only, so any standard layout tool can consume it; leaf
shapes distinguish the three leaf kinds (success=box, fail=diamond,
error=octagon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import Error, Fail, Goal, Success, TraceNode
from .formulas import (
    FRESH_MARK,
    ExistsBounded,
    ForallBounded,
    Head,
    Term,
    Var,
    format_bounded,
    format_head,
    format_scope,
    subst_formula,
    subst_head,
    subst_term,
    term_vars,
)
from .values import Env, format_valuation


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


# A tree, or its preorder stream of (depth, node).
Trace = TraceNode | Iterable[tuple[int, TraceNode]]


def render(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    if opts.format == RenderFormat.DOT:
        return render_dot(t, opts)
    return render_text(t, opts)


def _preorder(t: Trace) -> Iterator[tuple[int, TraceNode]]:
    return t.preorder() if isinstance(t, TraceNode) else iter(t)


def _leaf_label(node: TraceNode) -> str:
    leaf = node.leaf
    if isinstance(leaf, Success):
        return f"success {format_valuation(leaf.valuation)}"
    if isinstance(leaf, Fail):
        return "fail"
    assert isinstance(leaf, Error)
    return f"error({leaf.cause})"


def _printed(t: Term) -> Term:
    """t with every engine-fresh variable (i$17) renamed to its base (i$)."""
    fresh = {v.name: Var(v.name[: v.name.index(FRESH_MARK) + 1], v.sort)
             for v in term_vars(t) if FRESH_MARK in v.name}
    return subst_term(t, fresh) if fresh else t


class _Labels:
    """Node formula text, put together from each goal part's (head, env) and
    kept by (id(head), env, in_conj, last); it equals goal_formula's, printed.
    Environments are keyed as printed: an engine-fresh i$17 prints as i and
    never collides with a printed binder name, so mapping it to i$ changes no
    text and lets the instances of one quantifier share entries.  The memos
    keep alive the objects whose ids key them."""

    def __init__(self) -> None:
        self.envs: dict = {}  # id(env) -> (env, printed env, its key)
        self.heads: dict = {}  # (id(head), env key, in_conj, last) -> (head, text)
        self.scopes: dict = {}  # (id(body), var, env key) -> (body, (name, text))

    def formula(self, g: Goal | None) -> str:
        parts = []
        while g is not None:
            env = self.envs.get(id(g.env))
            if env is None:
                printed = {name: _printed(t) for name, t in g.env.items()}
                env = self.envs[id(g.env)] = (g.env, printed, frozenset(printed.items()))
            parts.extend((head, env[1], env[2]) for head in g.formula)
            g = g.next
        last = len(parts) - 1
        return " AND ".join(
            self._head(*part, last > 0, i == last) for i, part in enumerate(parts)
        ) or "TRUE"

    def _head(self, h: Head, env: Env, key: frozenset, in_conj: bool, last: bool) -> str:
        hit = self.heads.get((id(h), key, in_conj, last))
        if hit is not None:
            return hit[1]
        if isinstance(h, (ExistsBounded, ForallBounded)):
            # the engine builds a new head for each step through a range,
            # around the same body: keep the body's text by its identity
            scope = self.scopes.get((id(h.body), h.var, key))
            if scope is None:
                inner = {n: t for n, t in env.items() if n != h.var}
                scope = self.scopes[(id(h.body), h.var, key)] = (
                    h.body, format_scope(h.var, subst_formula(h.body, inner)))
            lo, hi = subst_term(h.lo, env), subst_term(h.hi, env)
            text = format_bounded(type(h)(h.var, lo, hi, h.body), *scope[1])
        else:
            text = format_head(subst_head(h, env), in_conj, last)
        self.heads[(id(h), key, in_conj, last)] = (h, text)
        return text


def _node_label(node: TraceNode, opts: RenderOptions, labels: _Labels) -> str:
    if node.leaf is not None:
        return _leaf_label(node)
    text = f"[{node.tag}] {labels.formula(node.goal)}"
    if opts.show_valuations:
        text += f" | {format_valuation(node.valuation)}"
    return text


def render_text(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    lines: list[str] = []
    labels = _Labels()
    for i, (depth, node) in enumerate(_preorder(t)):
        if i == opts.max_nodes:
            lines.append("  " * depth + "... (truncated)")
            break
        lines.append("  " * depth + _node_label(node, opts, labels))
    return "\n".join(lines) + "\n"


_SHAPES = {Success: "box", Fail: "diamond", Error: "octagon"}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    lines = ["digraph computation {"]
    path: list[int] = []  # ids of the nodes from the root to the last one
    for nid, (depth, node) in enumerate(_preorder(t)):
        del path[depth:]
        if nid == opts.max_nodes:
            lines.append(f'  n{nid} [label="(truncated)", shape=plaintext];')
            if path:
                lines.append(f"  n{path[-1]} -> n{nid};")
            break
        if node.leaf is not None:
            # a success box shows the valuation alone
            label = _dot_escape(_leaf_label(node).removeprefix("success "))
            lines.append(f'  n{nid} [label="{label}", shape={_SHAPES[type(node.leaf)]}];')
        else:
            label = _dot_escape(node.tag)
            if opts.show_valuations:
                label += "\\n" + _dot_escape(format_valuation(node.valuation))
            lines.append(f'  n{nid} [label="{label}"];')
        if path:
            lines.append(f"  n{path[-1]} -> n{nid};")
        path.append(nid)
    lines.append("}")
    return "\n".join(lines) + "\n"
