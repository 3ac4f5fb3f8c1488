import itertools

import pytest

from naive_reference import RError, reference_leaves
from fap import values
from fap.engine import solve
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
    format_program,
)
from fap.normalize import load
from fap.oracle import GeneratorConfig, generate
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


def test_classification_leaves_the_valuation_as_it_was():
    v = Valuation({"i": 1, "j": 2})
    assert classify_atom(Eq(ArrayRef("m", (Var("i"), Var("j"))), X), v.bind("x", 5), code()) == (
        Assignment(("m", (1, 2)), 5))
    assert classify_atom(Eq(Y, IntConst(3)), v, code()) == Assignment("y", 3)
    assert v == Valuation({"i": 1, "j": 2}) and EMPTY_VALUATION == Valuation()


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


# -- generated code -------------------------------------------------------------

def nested(k: int, inner: str, shape: str) -> str:
    """A term k levels deep in one of three shapes around `inner`."""
    if shape == "sum":
        return "(x) + " * k + inner
    t = inner
    for _ in range(k):
        t = f"b[0, {t}]" if shape == "b" else f"a[{t}]"
    return t


NESTED_DECLS = "array a[0..1] : int;\narray b[0..1, 0..1] : int;\n"


@pytest.mark.parametrize("shape, depths", [("b", (140, 148)), ("a", (140, 148)),
                                           ("sum", (140, 149))])
@pytest.mark.parametrize("inner, cause", [("0", None), ("z", "atom-not-evaluable"),
                                          ("1 div 0", "evaluation-fault")])
def test_generated_code_survives_the_nesting_limit(shape, depths, inner, cause):
    # the parser takes each shape up to the depth given last; the generated
    # source stays flat, so the interpreter's own limits never come near
    for k in depths:
        program = load(NESTED_DECLS + "query a[0] = 0 AND b[0, 0] = 0 AND x = 1 AND "
                       f"y = {nested(k, inner, shape)};")
        r = solve(program)
        want = reference_leaves(program, EMPTY_VALUATION)
        assert len(r.leaves) == len(want) == 1
        if cause is None:
            assert (r.steps, r.solutions) == (5, (want[0].valuation,))
        else:
            assert (r.steps, r.error_causes) == (4, (cause,))
            assert isinstance(want[0], RError)


@pytest.mark.parametrize("atom, cause", [
    ("b[x, 1 div 0] = 1", "atom-not-evaluable"),  # no index after an open one is read
    ("(1 div 0) + x = 1", "evaluation-fault"),  # both arguments are read, and a fault wins
    ("x + (1 div 0) = 1", "evaluation-fault"),
    ("x < 1 div 0", "evaluation-fault"),  # as both sides of a relation are
    ("b[1 div 0, x] = 1", "evaluation-fault"),
])
def test_generated_code_keeps_the_reading_order(atom, cause):
    assert solve(load(NESTED_DECLS + f"query {atom};")).error_causes == (cause,)


def test_a_shape_is_compiled_once_a_process(monkeypatch):
    compiled = []

    def counting(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(values, "_shapes", {})
    monkeypatch.setattr(values, "compile", counting, raising=False)

    def load_and_solve():
        for seed in range(200):
            for arrays in (False, True):
                program = generate(GeneratorConfig(seed=seed, arrays_and_quantifiers=arrays))
                solve(load(format_program(program)))

    load_and_solve()
    first = len(compiled)
    load_and_solve()  # new programs, the same shapes
    assert first > 0 and len(compiled) == first
