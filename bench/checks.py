"""Output checks that do not trust the program under test.

The queens and tiling checkers are written here from the problem statements,
not taken from fap.  The leaf digest is the determinism guard: a speed-up
must leave every workload's leaf sequence and step count unchanged.
"""

from __future__ import annotations

import hashlib
import io
import re

TAIL_CHARS = 1 << 16


class OutputSink(io.TextIOBase):
    """Stands in for stdout during a CLI pass: hashes and counts everything
    written and keeps only the last TAIL_CHARS characters, so a large trace
    costs no more memory than it does on a terminal."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.chars = 0
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.chars += len(s)
        self.tail = (self.tail + s)[-TAIL_CHARS:]
        return len(s)

    def text(self) -> str:
        """The kept tail, without the partial line it may start with."""
        if self.chars > len(self.tail):
            return self.tail.partition("\n")[2]
        return self.tail


def leaf_digest(leaves) -> tuple[tuple[int, int, int], str]:
    """(success, fail, error) counts and a SHA-256 of the leaf sequence."""
    sha = hashlib.sha256()
    counts = [0, 0, 0]
    for leaf in leaves:
        kind = type(leaf).__name__
        if kind == "Success":
            counts[0] += 1
            sha.update(b"S" + repr(leaf.valuation.canonical()).encode() + b"\n")
        elif kind == "Fail":
            counts[1] += 1
            sha.update(b"F\n")
        else:
            counts[2] += 1
            sha.update(b"E" + leaf.cause.encode() + b"\n")
    return (counts[0], counts[1], counts[2]), sha.hexdigest()


def report_lines(text: str) -> dict[str, str]:
    """The `status:`, `leaves:` and `steps:` lines of a CLI report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("status", "leaves", "steps"):
            out[key] = value
    return out


_QUEEN = re.compile(r"^q\[(\d+)\]=(\d+)$")


def queens_problems(text: str, n: int = 8) -> tuple[int, list[str]]:
    """Read the solution lines `q[1]=r1 ... q[n]=rn` from CLI output and
    check each places n queens, one per file, none attacking another.
    Returns the number of distinct solutions and the problems found."""
    problems = []
    seen = set()
    for line in text.splitlines():
        if not line.startswith("q["):
            continue
        rows = {}
        for token in line.split():
            m = _QUEEN.match(token)
            if m is None:
                problems.append(f"unreadable token {token!r}")
                continue
            rows[int(m.group(1))] = int(m.group(2))
        if sorted(rows) != list(range(1, n + 1)):
            problems.append(f"files {sorted(rows)} in {line!r}")
            continue
        for i in range(1, n + 1):
            if not 1 <= rows[i] <= n:
                problems.append(f"row {rows[i]} off the board in {line!r}")
            for j in range(1, i):
                if rows[i] == rows[j] or abs(rows[i] - rows[j]) == i - j:
                    problems.append(f"queens {j} and {i} attack in {line!r}")
        key = tuple(rows[i] for i in range(1, n + 1))
        if key in seen:
            problems.append(f"repeated solution {line!r}")
        seen.add(key)
    return len(seen), problems


_PLACED = re.compile(r"(\d+):\((\d+),(\d+)\)")


def tiling_problems(text: str, nx: int, ny: int, sizes: list[int]) -> list[str]:
    """Read the `placement:` line and check that the squares lie inside the
    nx x ny rectangle, do not overlap, and cover every cell."""
    lines = [l for l in text.splitlines() if l.startswith("placement: ")]
    if len(lines) != 1:
        return [f"expected one placement line, found {len(lines)}"]
    placed = {int(k): (int(x), int(y)) for k, x, y in _PLACED.findall(lines[0])}
    if sorted(placed) != list(range(1, len(sizes) + 1)):
        return [f"placed squares {sorted(placed)}, want 1..{len(sizes)}"]
    owner: dict[tuple[int, int], int] = {}
    for k, (x, y) in placed.items():
        s = sizes[k - 1]
        if x < 1 or y < 1 or x + s - 1 > nx or y + s - 1 > ny:
            return [f"square {k} of size {s} at ({x},{y}) leaves the rectangle"]
        for i in range(x, x + s):
            for j in range(y, y + s):
                if (i, j) in owner:
                    return [f"squares {owner[(i, j)]} and {k} overlap at ({i},{j})"]
                owner[(i, j)] = k
    if len(owner) != nx * ny:
        return [f"{nx * ny - len(owner)} cells uncovered"]
    return []
