"""Render computation trees as indented text or as a DOT digraph.

A tree is a TraceNode or the preorder stream of (depth, node) that
engine.iter_trace yields.  iter_render turns it into a stream of text and
reads one node past the node budget and stops, so a streamed search goes no
further than the output; render joins the same stream.  A text label is
the text of the node's own goal part, made from its heads and environment,
followed by the kept text of the goal after it (_Labels), and a store's
valuation is printed from the text of the store it extends plus the
bindings made since (_Valuations, engine.Snapshot).  The printer keeps what
a few hundred labels need, or what the path to the last node needs, never
more as more nodes are printed.

Both renderings are deterministic (byte-identical for identical trees), list
leaves in the tree's left-to-right order, and cap output at a node budget
with an explicit truncation marker.  The DOT output is a plain `digraph` with
default attributes only, so any standard layout tool can consume it; leaf
shapes distinguish the three leaf kinds (success=box, fail=diamond,
error=octagon).
"""

from __future__ import annotations

from bisect import bisect
from typing import Iterable, Iterator

from .engine import Error, Fail, Goal, Range, Snapshot, Success, TraceNode
from .formulas import format_head, format_term, record, subst_head
from .values import Valuation, entry_key, format_binding, format_valuation, valuation_entries


@record
class RenderOptions:
    format: str = "text"  # or "dot"
    max_nodes: int = 10_000
    show_valuations: bool = True

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.format not in ("text", "dot"):
            raise ValueError(f"unknown format {self.format!r}")


# A tree, or its preorder stream of (depth, node).
Trace = TraceNode | Iterable[tuple[int, TraceNode]]


# Chunks but the last hold at least this many characters: each write costs.
CHUNK_CHARS = 256 * 1024


def iter_render(t: Trace, opts: RenderOptions = RenderOptions()) -> Iterator[str]:
    """The rendering of t in chunks of whole lines; t is read only as far as
    the output goes."""
    chunk, size = [], 0
    for line in _dot_lines(t, opts) if opts.format == "dot" else _text_lines(t, opts):
        chunk.append(line)
        size += len(line)
        if size >= CHUNK_CHARS:
            yield "".join(chunk)
            chunk, size = [], 0
    yield "".join(chunk)


def render(t: Trace, opts: RenderOptions = RenderOptions()) -> str:
    return "".join(iter_render(t, opts))


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


# The most entries each label cache keeps; a full cache starts afresh, as a
# label needs what the labels just before it used.
ENV_CACHE, PART_CACHE, TAIL_CACHE = 64, 1024, 256


class _Labels:
    """Node formula text; it equals TraceNode.formula, printed.  A label is
    its goal part's text, then that of its continuation g.next, which
    siblings share, as do the children of a step that binds nothing with
    their parent (`tails`, by goal).  A part's text is kept by its formula
    (a cursor's by what its head is built from, so the head is built only
    on a miss) and the text of its environment's terms: an engine-fresh
    i$17 prints as i and never collides with a printed binder name, so the
    instances of one quantifier share entries, and no key hashes a term,
    which a run can nest deeper than the interpreter's stack.  The caches
    hold the objects whose ids key them."""

    def __init__(self) -> None:
        self.envs: dict = {}  # id(env) -> (env, its key)
        self.parts: dict = {}  # (formula key, env key, in_conj, last) -> (formula, text)
        self.tails: dict = {}  # id(goal) -> (goal, its text after another conjunct)

    def formula(self, g: Goal | None) -> str:
        if g is None:
            return "TRUE"
        return self._part(g, False) if g.next is None else self._tail(g)

    def _tail(self, g: Goal) -> str:
        """The text of g and the goals after it, after another conjunct."""
        tails, todo = self.tails, []
        while g is not None and id(g) not in tails:
            todo.append(g)
            g = g.next
        text = None if g is None else tails[id(g)][1]
        for g in reversed(todo):
            part = self._part(g, True)
            text = part if text is None else part + " AND " + text
            if len(tails) == TAIL_CACHE:
                tails.clear()
            tails[id(g)] = (g, text)
        return text

    def _part(self, g: Goal, in_conj: bool) -> str:
        """The text of g's heads, among other conjuncts if in_conj or several."""
        env, f, last = g.env, g.formula, g.next is None
        hit = self.envs.get(id(env))
        if hit is None:
            if len(self.envs) == ENV_CACHE:
                self.envs.clear()
            texts = frozenset((name, format_term(t)) for name, t in env.items())
            hit = self.envs[id(env)] = (env, texts)
        cursor = type(g) is Range
        key = ((id(f), g.lo, g.hi, g.choice) if cursor else id(f), hit[1], in_conj, last)
        hit = self.parts.get(key)
        if hit is None:
            heads = [g.head()] if cursor else list(f)
            in_conj, end = in_conj or len(heads) > 1, len(heads) - 1 if last else -1
            text = " AND ".join(format_head(subst_head(h, env), in_conj, i == end)
                                for i, h in enumerate(heads))
            if len(self.parts) == PART_CACHE:
                self.parts.clear()
            hit = self.parts[key] = (f, text)
        return hit[1]


class _Valuations:
    """Valuation text.  In preorder a node's store is on the path to the last
    node or extends one on it by a few bindings (an engine.Snapshot).  Stores
    on the path keep their sorted keys, entry texts and text, and a Snapshot
    is printed from its parent's with its bindings put in place; any other
    valuation (the root's, a hand-built tree's) is formatted whole."""

    def __init__(self) -> None:
        self.path: list[tuple[Valuation, list, list[str], str]] = []

    def text(self, v: Valuation) -> str:
        path = self.path
        parent = v.parent if type(v) is Snapshot else None
        for i in range(len(path) - 1, -1, -1):
            w, keys, texts, text = path[i]
            if w is v or w is parent:
                del path[i + 1:]
                if w is v:
                    return text
                keys, texts = keys.copy(), texts.copy()
                for key, value in v.bindings:
                    k = entry_key(key)
                    j = bisect(keys, k)
                    keys.insert(j, k)
                    texts.insert(j, format_binding(key, value))
                break
        else:
            path.clear()
            keys, texts = valuation_entries(v)
        text = "{" + ", ".join(texts) + "}"
        path.append((v, keys, texts, text))
        return text


def _text_lines(t: Trace, opts: RenderOptions) -> Iterator[str]:
    labels, valuations = _Labels(), _Valuations()
    i = -1
    for i, (depth, node) in enumerate(_preorder(t)):
        indent = "  " * depth
        if i == opts.max_nodes:
            yield indent + "... (truncated)\n"
            return
        if node.leaf is not None:
            yield indent + _leaf_label(node) + "\n"
            continue
        line = f"{indent}[{node.tag}] {labels.formula(node.goal)}"
        if opts.show_valuations:
            line += f" | {valuations.text(node.valuation)}"
        yield line + "\n"
    if i < 0:  # an empty stream renders as one empty line
        yield "\n"


_SHAPES = {Success: "box", Fail: "diamond", Error: "octagon"}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_lines(t: Trace, opts: RenderOptions) -> Iterator[str]:
    yield "digraph computation {\n"
    valuations = _Valuations()
    path: list[int] = []  # ids of the nodes from the root to the last one
    for nid, (depth, node) in enumerate(_preorder(t)):
        del path[depth:]
        edge = f"  n{path[-1]} -> n{nid};\n" if path else ""
        if nid == opts.max_nodes:
            yield f'  n{nid} [label="(truncated)", shape=plaintext];\n' + edge
            break
        if node.leaf is not None:
            # a success box shows the valuation alone
            label = _dot_escape(_leaf_label(node).removeprefix("success "))
            yield f'  n{nid} [label="{label}", shape={_SHAPES[type(node.leaf)]}];\n' + edge
        else:
            label = _dot_escape(node.tag)
            if opts.show_valuations:
                label += "\\n" + _dot_escape(valuations.text(node.valuation))
            yield f'  n{nid} [label="{label}"];\n' + edge
        path.append(nid)
    yield "}\n"
