import copy
import dataclasses
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fap
import fap.formulas
from fap.engine import (
    ERRORS,
    FAIL,
    EngineConfig,
    Error,
    Fail,
    ImplicationMode,
    NegationMode,
    SolveResult,
    Success,
    TraceNode,
    TreeStatus,
    iter_trace,
    solve,
)
from fap.formulas import (
    EMPTY,
    FALSE,
    TRUE,
    App,
    ArrayDecl,
    ArrayRef,
    BoolConst,
    Call,
    Cons,
    Empty,
    Eq,
    Exists,
    ExistsBounded,
    FalseAtom,
    Forall,
    ForallBounded,
    Implies,
    IntConst,
    Not,
    Or,
    ProcedureDef,
    ProgramUnit,
    Rel,
    Scalar,
    TrueAtom,
    Var,
    concat,
    conj,
    format_formula,
    format_program,
    free_vars,
    subst_formula,
)
from fap.normalize import load, load_query
from fap.oracle import FiniteDomain, GeneratorConfig
from fap.parser import _CallTerm, parse_query
from fap.render import RenderOptions, render
from fap.squares import SquaresReport
from fap.values import (
    CLOSED_FALSE,
    CLOSED_TRUE,
    Assignment,
    ClosedFalse,
    ClosedTrue,
    NotEvaluable,
    Valuation,
)
from helpers import fap_env


def test_free_vars_of_formula1():
    p = parse_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    assert free_vars(p.query) == ("x", "y")


def test_free_vars_of_empty():
    assert free_vars(EMPTY) == ()


def test_bound_variable_is_excluded():
    f = conj(Exists("z", Scalar.INT, conj(Eq(Var("z"), Var("x")))))
    assert free_vars(f) == ("x",)


def test_free_vars_include_quantifier_bounds():
    p = parse_query("SOME k := n TO m DO k = 1 END")
    assert free_vars(p.query) == ("n", "m")


def test_concat_preserves_order():
    a = conj(Eq(Var("x"), IntConst(1)))
    b = conj(Eq(Var("y"), IntConst(2)))
    assert list(concat(a, b)) == list(a) + list(b)
    assert concat(a, EMPTY) == a
    assert concat(EMPTY, b) == b


def test_substitution_respects_binders():
    inner = conj(Exists("x", Scalar.INT, conj(Eq(Var("x"), IntConst(0)))),
                 Eq(Var("x"), IntConst(1)))
    out = subst_formula(inner, {"x": IntConst(9)})
    heads = list(out)
    # the bound occurrence is untouched, the free one is replaced
    assert list(heads[0].body) == [Eq(Var("x"), IntConst(0))]
    assert heads[1] == Eq(IntConst(9), IntConst(1))


def test_format_empty_formula():
    assert format_formula(EMPTY) == "TRUE"


def test_binder_printing_avoids_capture():
    # a pathological AST: binder base name collides with a free variable
    f = conj(Exists("y$1", Scalar.INT, conj(Eq(Var("y$1"), Var("y")))))
    text = format_formula(f)
    reparsed = load_query(text)
    (h,) = list(reparsed.query)
    (eq,) = list(h.body)
    assert isinstance(eq, Eq)
    assert eq.lhs != eq.rhs  # the free y was not captured


def test_nested_binders_print_under_one_renaming():
    y1 = lambda body: conj(Exists("y$1", Scalar.INT, body))  # noqa: E731
    # y$1 prints as y, so y$2 must not: the y$1 free inside it prints as y
    f = y1(conj(Eq(Var("y$1"), Var("z")),
                Exists("y$2", Scalar.INT, conj(Eq(Var("y$2"), Var("y$1"))))))
    assert format_formula(f) == "EXISTS y . y = z AND EXISTS y_2 . y_2 = y"
    # a binder named y inside one printed as y is renamed too
    g = y1(conj(Exists("y", Scalar.INT, conj(Eq(Var("y"), Var("y$1"))))))
    assert format_formula(g) == "EXISTS y . EXISTS y_2 . y_2 = y"
    # a binder that shadows another takes its own name in its body only
    h = conj(Exists("x", Scalar.INT, conj(
        Exists("x", Scalar.INT, conj(Eq(Var("x"), IntConst(1)))), Eq(Var("x"), Var("x$7")))))
    assert format_formula(h) == "EXISTS x_2 . (EXISTS x . x = 1) AND x_2 = x"


def test_trace_labels_take_linear_work_in_binder_nesting(monkeypatch):
    # each label prints the goal's binders once; the printer must not walk
    # the body of each binder it prints again
    calls = 0

    def counting(real):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return wrapper

    def work(k: int) -> tuple[int, int]:
        nonlocal calls
        program = load_query("".join(f"EXISTS y{i} . " for i in range(k)) + "y0 = 1")
        calls = 0
        text = render(iter_trace(program))
        return calls, len(text)

    monkeypatch.setattr(fap.formulas._Printer, "head", counting(fap.formulas._Printer.head))
    monkeypatch.setattr(fap.formulas, "head_parts", counting(fap.formulas.head_parts))
    (work35, bytes35), (work140, bytes140) = work(35), work(140)
    # four times the nesting: about 15x the output, and 60x the work when
    # each binder walks its body
    assert work140 / work35 <= 1.2 * bytes140 / bytes35


def test_quantifier_parenthesized_when_not_last():
    p = parse_query("(EXISTS v . v = 1) AND x = 2")
    text = format_formula(p.query)
    assert load_query(text).query is not None
    assert text.startswith("(")


# one node of each class in fap.formulas
X = Var("x")
BODY = conj(Eq(X, IntConst(1)), TRUE)
NODES = {
    IntConst: IntConst(-3),
    BoolConst: BoolConst(True),
    Var: X,
    App: App("mod", (X, IntConst(2))),
    ArrayRef: ArrayRef("a", (X, IntConst(0))),
    Eq: Eq(X, IntConst(1)),
    Rel: Rel("<=", X, IntConst(1)),
    Call: Call("p", (X,)),
    TrueAtom: TRUE,
    FalseAtom: FALSE,
    Empty: EMPTY,
    Cons: BODY,
    Or: Or(BODY, conj(FALSE)),
    Implies: Implies(BODY, conj(FALSE)),
    Not: Not(BODY),
    Exists: Exists("x", Scalar.BOOL, BODY),
    Forall: Forall("x", Scalar.INT, BODY),
    ExistsBounded: ExistsBounded("x", IntConst(1), Var("n"), BODY),
    ForallBounded: ForallBounded("x", IntConst(1), Var("n"), BODY),
    ArrayDecl: ArrayDecl("a", ((0, 2), (-1, 1)), Scalar.INT),
    ProcedureDef: ProcedureDef("p", (("x", Scalar.INT),), BODY),
    ProgramUnit: ProgramUnit(query=BODY, free_vars=(("x", Scalar.INT),)),
}


def record_classes(module) -> set[type]:
    """The record classes a module defines, found by record's marker."""
    return {c for c in vars(module).values()
            if isinstance(c, type) and "_fields" in vars(c) and c.__module__ == module.__name__}


def test_every_node_class_has_a_sample():
    assert record_classes(fap.formulas) == set(NODES)


# one record of each class in the other modules of fap
RESULT = SolveResult((Success(Valuation({"x": 1})), FAIL, ERRORS["step-budget"]),
                     TreeStatus.UNDETERMINED, 7)
RECORDS = {
    **NODES,
    EngineConfig: EngineConfig(NegationMode.LIBERAL, ImplicationMode.GUARDED, True, 10, 2, True),
    Success: RESULT.leaves[0],
    Fail: FAIL,
    Error: RESULT.leaves[2],
    SolveResult: RESULT,
    TraceNode: TraceNode("atom", valuation=Valuation({"x": 1}),
                         children=[TraceNode("fail", leaf=FAIL)]),
    ClosedTrue: CLOSED_TRUE,
    ClosedFalse: CLOSED_FALSE,
    Assignment: Assignment(("a", (1, 2)), True),
    NotEvaluable: NotEvaluable("division or modulo by zero"),
    RenderOptions: RenderOptions("dot", 7, False),
    SquaresReport: SquaresReport(RESULT, {1: (0, 2)}),
    _CallTerm: _CallTerm("p", (X,), 3, 4),
    FiniteDomain: FiniteDomain(-1, 2, True),
    GeneratorConfig: GeneratorConfig(seed=5, domain=FiniteDomain(1, 3),
                                     arrays_and_quantifiers=True),
}


def test_every_record_class_has_a_sample():
    modules = [importlib.import_module(f"fap.{info.name}")
               for info in pkgutil.iter_modules(fap.__path__)]
    assert set().union(*map(record_classes, modules)) == set(RECORDS)


@pytest.mark.parametrize("record", RECORDS.values(), ids=[c.__name__ for c in RECORDS])
def test_nodes_are_frozen_values(record):
    """Every record, nodes and the rest: a value as a frozen dataclass was."""
    cls = type(record)
    fields = cls._fields
    values = tuple(getattr(record, name) for name in fields)
    again = cls(*values)
    assert again is not record and again == record and not again != record
    assert record != values and values != record  # a record equals records of its class only
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    assert cls is ProgramUnit or not hasattr(record, "__dict__")  # slots only
    if cls is TraceNode:  # the one record that is built up, and so unhashable
        assert cls.__hash__ is None
        return
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    try:
        want = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) == want


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("record", RECORDS.values(), ids=[c.__name__ for c in RECORDS])
def test_records_round_trip(record, copier):
    copied = copier(record)
    assert copied is not record and type(copied) is type(record)
    assert copied == record and repr(copied) == repr(record)


def test_record_defaults():
    assert EngineConfig() == EngineConfig(
        NegationMode.STRICT, ImplicationMode.STRICT, False, None, None, False)
    assert RenderOptions() == RenderOptions("text", 10_000, True)
    assert FiniteDomain() == FiniteDomain(0, 4, False)
    assert GeneratorConfig(seed=5) == GeneratorConfig(5, 4, FiniteDomain(0, 4), True, False)
    assert NotEvaluable() == NotEvaluable(None)
    assert _CallTerm("p", ()) == _CallTerm("p", (), 0, 0)
    assert ProgramUnit() == ProgramUnit((), (), EMPTY, (), False, 1)
    assert Var("x") == Var("x", Scalar.INT)
    first, second = TraceNode("fail"), TraceNode("fail")
    assert first == TraceNode("fail", None, None, [], None)
    assert first.children is not second.children  # a fresh list each


def test_records_are_built_by_keyword_and_matched_by_position():
    assert Var(name="x") == X
    assert TraceNode("fail", leaf=FAIL).leaf is FAIL
    assert SolveResult(steps=7, status=TreeStatus.UNDETERMINED, leaves=RESULT.leaves) == RESULT
    match NODES[ExistsBounded]:
        case ExistsBounded(var, IntConst(lo), hi, _):
            assert (var, lo, hi) == ("x", 1, Var("n"))
        case _:
            pytest.fail("ExistsBounded did not match by position")


def test_importing_the_cli_defines_records_without_dataclasses():
    # python -S: the interpreter alone, without what site imports
    code = "import sys, fap.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=fap_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_nodes_of_different_classes_differ():
    assert NODES[Or] != NODES[Implies]  # the same field values
    assert Exists("x", Scalar.INT, BODY) != NODES[Forall]
    assert NODES[ExistsBounded] != NODES[ForallBounded]
    assert Var("x", Scalar.BOOL) != X and Var(name="x") == Var("x", Scalar.INT)


def test_node_reprs_are_those_of_dataclasses():
    assert repr(NODES[App]) == (
        "App(op='mod', args=(Var(name='x', sort=<Scalar.INT: 'int'>), IntConst(value=2)))")
    assert repr(NODES[Cons].tail.tail) == "Empty()"


@pytest.mark.parametrize("build", [
    lambda: App("^", (X, X)),
    lambda: App("+", (X,)),
    lambda: Rel("==", X, X),
    lambda: GeneratorConfig(max_depth=0),
    lambda: EngineConfig(max_steps=0),
    lambda: EngineConfig(solution_limit=0),
    lambda: RenderOptions(max_nodes=0),
    lambda: RenderOptions(format="svg"),
    lambda: FiniteDomain(3, 1),
])
def test_post_init_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("copier", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_loaded_program_round_trips(copier):
    root = Path(__file__).resolve().parent.parent
    program = load((root / "corpus" / "squares_5x4.fap").read_text(encoding="utf-8"))
    result = solve(program)  # compiles the program's code, which a copy leaves out
    copied = copier(program)
    assert copied == program and copied is not program
    assert format_program(copied) == format_program(program)
    assert solve(copied) == result
