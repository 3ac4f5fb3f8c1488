"""Layer spans for the traced benchmark run.

The benchmark records spans from its own files: it replaces the names each
fap module imports from another layer (for example `fap.cli.solve`, or
`fap.engine.classify_atom`) with a wrapper that opens a span, calls the
original and closes the span.  A span is a name, a start, an end, the span
open around it when it began, and the run id of the operation it belongs to
(one CLI pass, or one generated program).  Spans stay in compact arrays in
memory and are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

_clock = time.perf_counter


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, module, attr: str, span: str, keep: list | None = None) -> None:
        """Record a span around every call of `module.attr`.  With `keep`,
        also append (args, kwargs, result) of each call to it.  A name the
        module no longer has is reported and skipped, so its counts read 0."""
        if not hasattr(module, attr):
            print(f"note: {module.__name__}.{attr} not found; {span} reads 0",
                  file=sys.stderr)
            return
        orig = getattr(module, attr)
        nid = self._name_id(span)
        # bound to locals: the wrapper runs hundreds of thousands of times a pass
        name, start, end, parent, run, stack = (
            self.name, self.start, self.end, self.parent, self.run, self._open
        )

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(_clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[i] = _clock()
                stack.pop()
            if keep is not None:
                keep.append((args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, inclusive time and self time per span name."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {s: LayerTotals() for s in self.names}
        for i in range(n):
            t = out[self.names[name[i]]]
            dur = end[i] - start[i]
            t.calls += 1
            t.total_s += dur
            t.self_s += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """One line per span: index, run id, name, parent index, start and
        end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\trun\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.run[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.parent[i]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\n"
                )
