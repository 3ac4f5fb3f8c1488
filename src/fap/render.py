"""Render computation trees as indented text or as a DOT digraph.

A tree is a TraceNode or the preorder stream of (depth, node) that
engine.iter_trace yields; rendering reads one node past the node budget and
stops, so a streamed search goes no further than the output.  Text labels
are built from each goal's heads and environment (_Labels), not from the
substituted formula.  The engine shares one valuation snapshot among the
nodes that start from the same store, so a valuation seen moments ago is
printed from its text, not formatted again (_Valuations).

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
    Cons,
    ExistsBounded,
    ForallBounded,
    Head,
    Or,
    format_head,
    format_term,
    subst_head,
)
from .values import Env, Valuation, format_valuation


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
        if self.format not in (RenderFormat.TEXT, RenderFormat.DOT):
            raise ValueError(f"unknown format {self.format!r}")


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


_BOUNDED = (ExistsBounded, ForallBounded)


def _head_key(h: Head) -> object:
    """What a head's text depends on, besides its environment: its identity,
    except for the heads the engine builds anew for each step through a
    range.  Those are a bounded head around a body of the program text, and
    the SOME rule's Or(body, rest of the range), and they are keyed by their
    structure with the body by identity."""
    if type(h) in _BOUNDED:
        return (type(h), id(h.body), h.var, h.lo, h.hi)
    if type(h) is Or:
        right = h.right
        if type(right) is Cons and type(right.tail) is not Cons and type(right.head) in _BOUNDED:
            return (Or, id(h.left), _head_key(right.head))
    return id(h)


class _Labels:
    """Node formula text, put together from each goal part's (head, env) and
    kept by (_head_key(head), env, in_conj, last); it equals goal_formula's,
    printed.  Environments are keyed by the text of their terms: an
    engine-fresh i$17 prints as i and never collides with a printed binder
    name, so the instances of one quantifier share entries, and no key
    hashes a term, which a run can nest deeper than the interpreter's stack.
    The memos keep alive the objects whose ids key them."""

    def __init__(self) -> None:
        self.envs: dict = {}  # id(env) -> (env, its key)
        self.heads: dict = {}  # (head key, env key, in_conj, last) -> (head, text)

    def formula(self, g: Goal | None) -> str:
        parts = []
        while g is not None:
            env = self.envs.get(id(g.env))
            if env is None:
                texts = frozenset((name, format_term(t)) for name, t in g.env.items())
                env = self.envs[id(g.env)] = (g.env, texts)
            parts.extend((head, g.env, env[1]) for head in g.formula)
            g = g.next
        last = len(parts) - 1
        return " AND ".join(
            self._head(*part, last > 0, i == last) for i, part in enumerate(parts)
        ) or "TRUE"

    def _head(self, h: Head, env: Env, key: frozenset, in_conj: bool, last: bool) -> str:
        memo_key = (_head_key(h), key, in_conj, last)
        hit = self.heads.get(memo_key)
        if hit is not None:
            return hit[1]
        text = format_head(subst_head(h, env), in_conj, last)
        self.heads[memo_key] = (h, text)
        return text


class _Valuations:
    """format_valuation, remembering the texts of the last two distinct
    valuations it was given, by identity.  Nodes that start from the same
    store share one snapshot: siblings, and the children of a node that
    bound nothing.  In preorder a sibling comes after its elder's subtree,
    so a valuation mostly recurs after at most one other; two slots catch
    that and keep memory bounded, unlike a memo over the whole render."""

    def __init__(self) -> None:
        self.last = self.prev = (None, "")  # (valuation, its text)

    def text(self, v: Valuation) -> str:
        if self.last[0] is not v:
            if self.prev[0] is v:
                self.last, self.prev = self.prev, self.last
            else:
                self.last, self.prev = (v, format_valuation(v)), self.last
        return self.last[1]


def _node_label(
    node: TraceNode, opts: RenderOptions, labels: _Labels, valuations: _Valuations
) -> str:
    if node.leaf is not None:
        return _leaf_label(node)
    text = f"[{node.tag}] {labels.formula(node.goal)}"
    if opts.show_valuations:
        text += f" | {valuations.text(node.valuation)}"
    return text


def render_text(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    lines: list[str] = []
    labels = _Labels()
    valuations = _Valuations()
    for i, (depth, node) in enumerate(_preorder(t)):
        if i == opts.max_nodes:
            lines.append("  " * depth + "... (truncated)")
            break
        lines.append("  " * depth + _node_label(node, opts, labels, valuations))
    return "\n".join(lines) + "\n"


_SHAPES = {Success: "box", Fail: "diamond", Error: "octagon"}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    lines = ["digraph computation {"]
    valuations = _Valuations()
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
                label += "\\n" + _dot_escape(valuations.text(node.valuation))
            lines.append(f'  n{nid} [label="{label}"];')
        if path:
            lines.append(f"  n{path[-1]} -> n{nid};")
        path.append(nid)
    lines.append("}")
    return "\n".join(lines) + "\n"
