"""Golden traces: the CLI's trace output, byte for byte.

The files under tests/golden/ were recorded with the substitution-based
engine, which rebuilt every quantifier and procedure body before running it.
The engine now resolves binders through environments and builds trace
formulas only when they are rendered; these tests hold it to the old output.
Small outputs are kept in full so that a failure shows the diff; the squares
traces (0.4 and 6 MB) are kept as SHA-256 digests.  The range cases step
through bounded quantifiers at their edges (empty, one-element and negative
ranges, a faulting and an open bound, bounds that read an outer binder);
each is kept in full, its text and DOT traces in one file, and as a digest.

Re-record (only after a deliberate change of output):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fap.cli import main
from fap.engine import EngineConfig, ImplicationMode, NegationMode, solve
from fap.normalize import load

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = ROOT / "corpus"

SQUARES_SIZES = ["--set", "Sizes[1]=4", "--set", "Sizes[2]=1", "--set", "Sizes[3]=1",
                 "--set", "Sizes[4]=1", "--set", "Sizes[5]=1"]

# Procedures with parameters bound to expressions, EXISTS inside a procedure
# body, a procedure call under SOME, NOT over array cells and implications
# whose antecedents bind.
PROCEDURES = """\
array a[1..3] : int;
def step(x, y) := EXISTS z . z = x + 1 AND (z < 4 -> y = z) AND NOT y = 3;
def mark(i, v, lim) := a[i] = v OR (a[i] = v + 1 AND NOT a[i] < lim);
query
  w0 = 5 AND
  SOME k := 1 TO 3 DO
    step(k, m) AND mark(k, m * 2, w0) AND
    (m > 1 -> EXISTS w . w = m + k AND w <= a[k])
  END AND
  FOR j := 1 TO 2 DO NOT m = j + 7 END AND (NOT n = 1 -> m < 9);
"""


def run_cli(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process `fap` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"exit: {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def procedures_case(impl: str, tmp: Path) -> str:
    """The traced run of PROCEDURES under one implication mode, then every
    leaf of the same search with internal bindings reported."""
    path = tmp / "procedures.fap"
    path.write_text(PROCEDURES, encoding="utf-8")
    text = run_cli(["run", str(path), "--all", "--neg", "liberal", "--impl", impl,
                    "--trace", "text"])
    config = EngineConfig(negation=NegationMode.LIBERAL,
                          implication=ImplicationMode(impl),
                          report_internal_bindings=True)
    result = solve(load(PROCEDURES), config=config)
    leaves = "".join(f"{leaf!r}\n" for leaf in result.leaves)
    return f"{text}--- leaves with internal bindings\n{leaves}"


FULL_CASES = {
    "formula1_text": lambda tmp: run_cli(
        ["run", str(CORPUS / "formula1.fap"), "--all", "--trace", "text"]),
    "formula1_dot": lambda tmp: run_cli(
        ["run", str(CORPUS / "formula1.fap"), "--all", "--trace", "dot"]),
    **{
        f"procedures_{impl}": (lambda tmp, impl=impl: procedures_case(impl, tmp))
        for impl in ("strict", "negor", "guarded", "combined")
    },
}

DIGEST_CASES = {
    "squares_5x4_text": lambda tmp: run_cli(
        ["run", str(CORPUS / "squares_5x4.fap"), "--neg", "liberal", *SQUARES_SIZES,
         "--trace", "text"]),
    "squares_5x4_all_dot": lambda tmp: run_cli(
        ["run", str(CORPUS / "squares_5x4.fap"), "--neg", "liberal", *SQUARES_SIZES,
         "--all", "--trace", "dot"]),
}


# Bounded ranges at their edges, each run with --all and traced in text and DOT.
RANGES = {
    "empty": "query (SOME i := 2 TO 1 DO x = i END OR FOR j := 5 TO 4 DO y = j END) AND z = 0;",
    "one": "query SOME i := 4 TO 4 DO x = i END AND FOR j := 7 TO 7 DO y = j + x END;",
    "negative": """\
array a[1..3] : int;
query SOME i := -3 TO -1 DO x = i * i END AND FOR j := -2 TO 0 DO a[j + 3] = j * x END;
""",
    "fault": "query SOME i := 1 TO 1 div 0 DO x = i END OR FOR j := 1 div 0 TO 2 DO y = j END "
             "OR x = 1;",
    "unbounded": "query SOME i := 1 TO n DO x = i END OR FOR j := m TO 2 DO y = j END "
                 "OR (n = 2 AND SOME i := 1 TO n DO x = i END);",
    "nested": """\
array a[1..3] : int;
query FOR i := 1 TO 3 DO
  SOME j := i - 1 TO i DO a[i] = j + i AND FOR k := j TO i DO k >= j END END
END;
""",
}


def range_case(name: str, tmp: Path) -> str:
    """The text and DOT traces of one range program; for the nested case,
    also every leaf with internal bindings reported."""
    path = tmp / f"{name}.fap"
    path.write_text(RANGES[name], encoding="utf-8")
    out = "".join(f"=== --trace {fmt}\n" + run_cli(["run", str(path), "--all", "--trace", fmt])
                  for fmt in ("text", "dot"))
    if name == "nested":
        config = EngineConfig(report_internal_bindings=True)
        result = solve(load(RANGES[name]), config=config)
        out += "--- leaves with internal bindings\n" + "".join(f"{l!r}\n" for l in result.leaves)
    return out


RANGE_CASES = {f"ranges_{name}": (lambda tmp, name=name: range_case(name, tmp))
               for name in RANGES}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(FULL_CASES))
def test_trace_matches_golden_text(name, tmp_path):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert FULL_CASES[name](tmp_path) == want


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_trace_matches_golden_digest(name, tmp_path):
    want = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))[name]
    assert digest(DIGEST_CASES[name](tmp_path)) == want


@pytest.mark.parametrize("name", sorted(RANGE_CASES))
def test_range_trace_matches_golden(name, tmp_path):
    got = RANGE_CASES[name](tmp_path)
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    want = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))[name]
    assert digest(got) == want


def record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in {**FULL_CASES, **RANGE_CASES}.items():
            (GOLDEN / f"{name}.txt").write_text(case(Path(tmp)), encoding="utf-8")
        digests = {name: digest(case(Path(tmp)))
                   for name, case in {**DIGEST_CASES, **RANGE_CASES}.items()}
    (GOLDEN / "digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
