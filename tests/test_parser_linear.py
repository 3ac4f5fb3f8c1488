"""The parser reads a parenthesis once.

`(` opens a term or a formula, and the parser tells which from the token
after its matching `)`, so no Diagnostic is raised and caught on a program
that parses, and nested parentheses cost linear work.  The nesting limit
falls where it fell when the parser tried a term first: the table below was
recorded from that parser.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from fap.formulas import format_program
from fap.oracle import GeneratorConfig, generate
from fap.parser import Diagnostic, _Parser, parse

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def diagnostics(monkeypatch):
    """A list that grows by one for each Diagnostic constructed."""
    made = []
    init = Diagnostic.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Diagnostic, "__init__", counting)
    return made


def test_programs_that_parse_construct_no_diagnostic(diagnostics):
    texts = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("corpus/*.fap"))]
    texts += [format_program(generate(GeneratorConfig(seed=s, max_depth=5))) for s in range(100)]
    texts += [
        format_program(generate(GeneratorConfig(seed=s, max_depth=5, arrays_and_quantifiers=True)))
        for s in range(100)
    ]
    texts.append("query ((x = 1) AND ((y) + 1 = 2 OR NOT (x < y))) -> ((TRUE));")
    for text in texts:
        parse(text)
    assert diagnostics == []


def test_nested_parentheses_take_linear_work(monkeypatch):
    calls = 0
    term = _Parser.term

    def counting(self):
        nonlocal calls
        calls += 1
        return term(self)

    monkeypatch.setattr(_Parser, "term", counting)

    def work(k: int) -> int:
        nonlocal calls
        calls = 0
        parse("query " + "(" * k + "x = 1" + ")" * k + ";")
        return calls

    # four times the depth: about 4x when linear, 16x when quadratic
    assert work(140) / work(35) <= 5


DECL = "def p(u) := u = 1;\n"
SHAPES = {
    "parens": lambda k: "(" * k + "x = 1" + ")" * k,
    "not_parens": lambda k: "NOT (" * k + "x = 1" + ")" * k,
    "parens_not": lambda k: "(" * k + "NOT x = 1" + ")" * k,
    "true_parens": lambda k: "(" * k + "TRUE" + ")" * k,
    "term_parens": lambda k: "x = " + "(" * k + "1" + ")" * k,
    "sum_of_parens": lambda k: "(x) + " * k + "1 = 2",
    "parens_then_sum": lambda k: "(" * k + "x" + ")" * k + " + 1 = 2",
    "call_arg": lambda k: "p(" + "(" * k + "1" + ")" * k + ")",
    "parens_call": lambda k: "(" * k + "p(((1)))" + ")" * k,
}
# for k = 145..155: None where the query parses, else the column of the
# "nesting too deep" syntax diagnostic on line 2
LIMITS = {
    "parens": [None, None, None, None, 156, 156, 156, 156, 156, 156, 156],
    "not_parens": [381, 381, 381, 381, 381, 381, 381, 381, 381, 381, 381],
    "parens_not": [None, None, None, 159, 156, 156, 156, 156, 156, 156, 156],
    "true_parens": [None, None, None, None, 156, 156, 156, 156, 156, 156, 156],
    "term_parens": [None, None, None, None, 160, 160, 160, 160, 160, 160, 160],
    "sum_of_parens": [None, None, None, None, None, 1, 1, 1, 1, 1, 1],
    "parens_then_sum": [None, None, None, None, 156, 156, 156, 156, 156, 156, 156],
    "call_arg": [None, None, None, 157, 157, 157, 157, 157, 157, 157, 157],
    "parens_call": [None, 157, 157, 157, 156, 156, 156, 156, 156, 156, 156],
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_nesting_limit_falls_where_it_fell(shape):
    for k, col in zip(range(145, 156), LIMITS[shape]):
        source = f"{DECL}query {SHAPES[shape](k)};"
        if col is None:
            parse(source)
            continue
        with pytest.raises(Diagnostic) as info:
            parse(source)
        d = info.value
        assert (d.kind, d.message, d.line, d.col) == ("syntax", "nesting too deep", 2, col), k
