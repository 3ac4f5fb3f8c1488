"""What a call pays for before its first step, and the paths that skip work.

A call checks and copies only what its initial valuation holds, counts its
leaves as it collects them, and builds each success valuation with one copy
of the store.  These tests pin that the shortcuts change no result: a bad
initial valuation is still refused by every entry point, success valuations
stay apart from the store and from each other, and the status a solve counts
is the status its leaves give.  The parser counts how deep a statement nests
as built while it reads it; the tables below were recorded from the parser
that walked each long statement again after reading it.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from fap.engine import (
    EngineConfig,
    ImplicationMode,
    NegationMode,
    Success,
    iter_leaves,
    iter_trace,
    solve,
    status_of,
)
from fap.formulas import IntConst, format_term
from fap.normalize import load, load_query
from fap.parser import Diagnostic, parse
from fap.values import EMPTY_VALUATION, Valuation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MODES = [
    EngineConfig(negation=neg, implication=impl, pedantic=pedantic)
    for neg, impl, pedantic in itertools.product(NegationMode, ImplicationMode, (False, True))
]


# -- the initial valuation ----------------------------------------------------

CELLS_PROGRAM = "array a[1..2] : int;\nquery x = 1 AND a[1] = x;"
BAD_INITIALS = [
    Valuation({"nope": 1}),  # not a free variable of the query
    Valuation({"x": True}),  # of the wrong sort
    Valuation(cells={("b", (1,)): 1}),  # no such array
    Valuation(cells={("a", (3,)): 1}),  # out of range
    Valuation(cells={("a", (1,)): False}),  # of the wrong element sort
]


@pytest.mark.parametrize("initial", BAD_INITIALS, ids=repr)
@pytest.mark.parametrize("entry", ["solve", "iter_leaves", "iter_trace"])
def test_a_bad_initial_valuation_raises_from_every_entry_point(entry, initial):
    program = load(CELLS_PROGRAM)
    with pytest.raises(ValueError):
        if entry == "solve":
            solve(program, initial)
        else:
            next((iter_leaves if entry == "iter_leaves" else iter_trace)(program, initial))


def test_the_empty_valuation_and_a_new_one_run_alike():
    program = load(CELLS_PROGRAM)
    shared, new = solve(program, EMPTY_VALUATION), solve(program, Valuation())
    assert shared == new and shared.steps == new.steps
    assert shared.solutions == (Valuation({"x": 1}, {("a", (1,)): 1}),)
    assert EMPTY_VALUATION == Valuation() and not EMPTY_VALUATION.cells


def test_a_good_initial_valuation_is_used_and_left_alone():
    program = load(CELLS_PROGRAM)
    initial = Valuation({"x": 1})
    before = (dict(initial.scalars), dict(initial.cells))
    r = solve(program, initial)
    assert r.solutions == (Valuation({"x": 1}, {("a", (1,)): 1}),)
    assert (initial.scalars, initial.cells) == before
    assert not solve(program, Valuation({"x": 2})).solutions


# -- success valuations ---------------------------------------------------------

BACKTRACKING = """array a[1..3] : int;
query SOME i := 1 TO 3 DO a[i] = i AND (y = i OR y = 10 * i) END AND NOT y = 20;"""


def test_success_valuations_taken_lazily_stay_as_they_were():
    program = load(BACKTRACKING)
    seen = []
    for leaf in iter_leaves(program):
        if isinstance(leaf, Success):
            v = leaf.valuation
            seen.append((v, dict(v.scalars), dict(v.cells)))
    assert len(seen) == 5
    for v, scalars, cells in seen:  # after the search has moved on and undone them
        assert v.scalars == scalars and v.cells == cells
    dicts = [d for v, _, _ in seen for d in (v.scalars, v.cells)]
    assert len({id(d) for d in dicts}) == len(dicts)
    assert [v for v, _, _ in seen] == list(solve(program).solutions)


def test_success_valuations_without_cells_share_the_empty_cells():
    r = solve(load_query("x = 1 OR x = 2"))
    assert [v.scalars for v in r.solutions] == [{"x": 1}, {"x": 2}]
    assert r.solutions[0].cells is r.solutions[1].cells is EMPTY_VALUATION.cells


# -- the status a solve counts ---------------------------------------------------


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fap")), ids=lambda p: p.stem)
def test_the_counted_status_is_the_status_of_the_leaves(path):
    program = load(path.read_text(encoding="utf-8"))
    for mode, budget in itertools.product(MODES, (7, 60, 400)):
        config = EngineConfig(mode.negation, mode.implication, mode.pedantic, max_steps=budget)
        r = solve(program, config=config)
        assert r.status is status_of(r.leaves), (mode, budget)
        assert r.status is status_of(list(iter_leaves(program, config=config))), (mode, budget)


# -- nesting counted while parsing ------------------------------------------------

DECL = "array a[1..3] : int;\n"
SHAPES = {
    "or_chain": lambda k: "x = 1 OR " * k + "TRUE",
    "implies_chain": lambda k: "x = 1 -> " * k + "TRUE",
    "forall_chain": lambda k: "FORALL y . " * k + "x = 1",
    "product": lambda k: "x * " * k + "1 = 2",
    "difference_in_bound": lambda k: "SOME i := 1 TO " + "x - " * k + "1 DO TRUE END",
    "index_sum": lambda k: "a[" + "x + " * k + "1] = 1",
}
# the least k at which the query nests too deep as built
FIRST_TOO_DEEP = {"or_chain": 150, "implies_chain": 150, "forall_chain": 50, "product": 150,
                  "difference_in_bound": 150, "index_sum": 149}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nesting_as_built_is_refused_at_the_statement(shape):
    first = FIRST_TOO_DEEP[shape]
    for k in range(first - 3, first + 3):
        source = f"{DECL}query {SHAPES[shape](k)};"
        if k < first:
            parse(source)
            continue
        with pytest.raises(Diagnostic) as info:
            parse(source)
        d = info.value
        assert (d.kind, d.message, d.line, d.col) == ("syntax", "nesting too deep", 2, 1), k


def test_a_body_nested_too_deep_is_refused_at_its_definition():
    with pytest.raises(Diagnostic) as info:
        parse("array a[1..3] : int;\n  def p(u) := " + "u = 1 OR " * 150 + "TRUE;\nquery p(1);")
    d = info.value
    assert (d.message, d.line, d.col) == ("nesting too deep", 2, 7)


# -- integers past the limit on integer text -----------------------------------------

needs_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                 reason="no limit on integer text")


@pytest.fixture
def default_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def _text(v: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


@needs_limit
def test_a_solution_past_the_limit_prints(default_limit):
    big = 10**5000
    r = solve(load_query("x = y * y AND z = 0 - x"), Valuation({"y": 10**2500}))
    (v,) = r.solutions
    assert v.scalars == {"x": big, "y": 10**2500, "z": -big}
    assert str(v) == f"{{x/{_text(big)}, y/{_text(10**2500)}, z/-{_text(big)}}}"


@needs_limit
def test_terms_past_the_limit_print(default_limit):
    assert format_term(IntConst(10**5000)) == "1" + "0" * 5000
    v = (1 << 61541) | 12345
    assert v.bit_length() == 61542
    assert format_term(IntConst(-v)) == "-" + _text(v)
    assert str(Valuation({"x": v})) == "{x/" + _text(v) + "}"
