import itertools

import pytest

from fap.formulas import (
    App,
    ArrayDecl,
    ArrayRef,
    BoolConst,
    Eq,
    IntConst,
    ProgramUnit,
    Rel,
    Scalar,
    Var,
)
from fap.values import (
    Assignment,
    ClosedFalse,
    ClosedTrue,
    Code,
    EMPTY_VALUATION,
    EvalFault,
    NotEvaluable,
    Valuation,
    classify_atom,
    closed_value,
    eval_term,
    is_closed,
)

ARRAYS = (ArrayDecl("a", ((0, 4),), Scalar.INT),
          ArrayDecl("m", ((1, 3), (1, 3)), Scalar.INT))
A = {d.name: d for d in ARRAYS}


def code() -> Code:
    """A throwaway program with ARRAYS, whose code compiles ad-hoc atoms."""
    return Code(ProgramUnit(arrays=ARRAYS))
X, Y = Var("x"), Var("y")


def plus(t, u):
    return App("+", (t, u))


# -- closedness ---------------------------------------------------------------

def test_closed_with_binding():
    assert is_closed(plus(X, IntConst(1)), Valuation({"x": 2}))


def test_open_without_binding():
    assert not is_closed(plus(X, IntConst(1)), EMPTY_VALUATION)


def test_array_ref_with_closed_index_but_unbound_cell_is_open():
    assert not is_closed(ArrayRef("a", (Var("i"),)), Valuation({"i": 0}), A)


def test_array_ref_closed_when_cell_bound():
    v = Valuation({"i": 0}, {("a", (0,)): 9})
    assert is_closed(ArrayRef("a", (Var("i"),)), v, A)


MONOTONE_TERMS = [plus(X, IntConst(1)), App("*", (X, Y)), ArrayRef("a", (X,))]
SMALL = Valuation({"x": 1}, {("a", (1,)): 5})
BIG = SMALL.bind("y", 3).bind_cell(("a", (2,)), 7)


def test_monotone_under_extension():
    for t in MONOTONE_TERMS:
        if is_closed(t, SMALL, A):
            assert is_closed(t, BIG, A)
            assert eval_term(t, SMALL, A) == eval_term(t, BIG, A)


def test_is_closed_is_the_engines_closedness():
    # closed is about what is bound, not whether evaluation succeeds
    quotient = App("div", (IntConst(1), IntConst(0)))
    assert is_closed(quotient, EMPTY_VALUATION)
    with pytest.raises(EvalFault):
        eval_term(quotient, EMPTY_VALUATION)
    for t, a in itertools.product(MONOTONE_TERMS, (EMPTY_VALUATION, SMALL, BIG)):
        assert is_closed(t, a, A) == closed_value(t, frozenset(), a.scalars, a.cells, A)


# -- evaluation ---------------------------------------------------------------

def test_eval_simple():
    assert eval_term(App("*", (IntConst(2), X)), Valuation({"x": 3})) == 6


def test_eval_constant():
    assert eval_term(IntConst(0), EMPTY_VALUATION) == 0


def test_eval_array_with_computed_index():
    v = Valuation({}, {("a", (2,)): 7})
    assert eval_term(ArrayRef("a", (plus(IntConst(1), IntConst(1)),)), v, A) == 7


def test_division_by_zero_faults():
    with pytest.raises(EvalFault):
        eval_term(App("div", (IntConst(1), IntConst(0))), EMPTY_VALUATION)
    with pytest.raises(EvalFault):
        eval_term(App("mod", (IntConst(1), IntConst(0))), EMPTY_VALUATION)


def test_out_of_range_index_faults():
    with pytest.raises(EvalFault):
        eval_term(ArrayRef("a", (IntConst(9),)), EMPTY_VALUATION, A)


def test_floor_division_semantics():
    assert eval_term(App("div", (IntConst(-7), IntConst(2))), EMPTY_VALUATION) == -4
    assert eval_term(App("mod", (IntConst(-7), IntConst(2))), EMPTY_VALUATION) == 1


def test_big_integers():
    big = 10 ** 30
    assert eval_term(App("*", (IntConst(big), IntConst(big))), EMPTY_VALUATION) == big * big


def test_rebinding_is_a_programming_error():
    v = Valuation({"x": 1})
    with pytest.raises(ValueError):
        v.bind("x", 2)
    w = Valuation({}, {("a", (1,)): 1})
    with pytest.raises(ValueError):
        w.bind_cell(("a", (1,)), 2)


def test_binding_does_not_mutate_the_original():
    v = Valuation({"x": 1})
    w = v.bind("y", 2)
    assert "y" not in v.scalars and w.extends(v)


# -- classification -----------------------------------------------------------

def test_assignment_from_closed_side():
    got = classify_atom(Eq(Y, plus(X, IntConst(1))), Valuation({"x": 2}), code())
    assert got == Assignment("y", 3)


def test_closed_false_equation():
    got = classify_atom(
        Eq(App("*", (IntConst(2), X)), App("*", (IntConst(3), Y))),
        Valuation({"x": 2, "y": 3}),
        code(),
    )
    assert got == ClosedFalse()


def test_relation_with_unbound_side_is_not_evaluable():
    assert classify_atom(Rel("<", X, IntConst(1)), EMPTY_VALUATION, code()) == NotEvaluable()


def test_array_cell_assignment():
    got = classify_atom(
        Eq(ArrayRef("m", (Var("i"), Var("j"))), IntConst(5)),
        Valuation({"i": 1, "j": 2}),
        code(),
    )
    assert got == Assignment(("m", (1, 2)), 5)


def test_bound_cell_equation_is_an_ordinary_test():
    v = Valuation({}, {("a", (0,)): 5})
    assert classify_atom(Eq(ArrayRef("a", (IntConst(0),)), IntConst(5)), v, code()) == ClosedTrue()
    assert classify_atom(Eq(ArrayRef("a", (IntConst(0),)), IntConst(6)), v, code()) == ClosedFalse()


def test_two_unbound_variables_do_not_unify():
    assert classify_atom(Eq(X, Y), EMPTY_VALUATION, code()) == NotEvaluable()


def test_compound_open_side_is_not_an_assignment():
    assert classify_atom(Eq(plus(X, IntConst(1)), IntConst(5)), EMPTY_VALUATION, code()) == NotEvaluable()


def test_bool_equations_assign():
    got = classify_atom(Eq(Var("b", Scalar.BOOL), BoolConst(True)), EMPTY_VALUATION, code())
    assert got == Assignment("b", True)


def test_fault_is_reported_in_band():
    got = classify_atom(Eq(X, App("div", (IntConst(1), IntConst(0)))), EMPTY_VALUATION, code())
    assert isinstance(got, NotEvaluable) and got.fault is not None


def test_out_of_range_assignment_faults():
    got = classify_atom(Eq(ArrayRef("a", (IntConst(9),)), IntConst(1)), EMPTY_VALUATION, code())
    assert isinstance(got, NotEvaluable) and got.fault is not None


def test_classification_symmetry():
    sides = [IntConst(3), X, Y, plus(X, IntConst(1)), ArrayRef("a", (IntConst(0),))]
    vals = [EMPTY_VALUATION, Valuation({"x": 1}), Valuation({"x": 1, "y": 2}),
            Valuation({"x": 0}, {("a", (0,)): 3})]
    for lhs, rhs in itertools.product(sides, repeat=2):
        for v in vals:
            left = classify_atom(Eq(lhs, rhs), v, code())
            right = classify_atom(Eq(rhs, lhs), v, code())
            assert type(left) is type(right)
            if isinstance(left, Assignment):
                assert left == right


def test_closed_atoms_agree_with_ground_truth():
    # exhaustive over small constants; the expectations are spelled out with
    # bare Python operators so this stays independent of the implementation
    ops = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "<>": lambda a, b: a != b,
    }
    consts = range(-2, 3)
    for a, b in itertools.product(consts, repeat=2):
        got = classify_atom(Eq(IntConst(a), IntConst(b)), EMPTY_VALUATION, code())
        assert got == (ClosedTrue() if a == b else ClosedFalse())
        for op, fn in ops.items():
            got = classify_atom(Rel(op, IntConst(a), IntConst(b)), EMPTY_VALUATION, code())
            assert got == (ClosedTrue() if fn(a, b) else ClosedFalse())
