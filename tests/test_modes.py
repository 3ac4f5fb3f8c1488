"""The worked negation/implication relaxation cases, pinned one by one."""

import pytest

from helpers import leaf_kinds
from fap.engine import (
    ANTECEDENT_UNDETERMINED,
    EngineConfig,
    ImplicationMode,
    NEGAND_UNDETERMINED,
    NegationMode,
    Success,
    TreeStatus,
    iter_trace,
    solve,
)
from fap.normalize import load_query
from fap.values import EMPTY_VALUATION, Valuation

STRICT = EngineConfig()
LIBERAL = EngineConfig(negation=NegationMode.LIBERAL)


def cfg(impl: ImplicationMode, liberal: bool = True) -> EngineConfig:
    return EngineConfig(
        negation=NegationMode.LIBERAL if liberal else NegationMode.STRICT,
        implication=impl,
    )


def run(src: str, config: EngineConfig = STRICT):
    return solve(load_query(src), EMPTY_VALUATION, config)


# -- negation -----------------------------------------------------------------

def test_strict_negation_requires_closed_operand():
    r = run("NOT (x = 0)")
    assert leaf_kinds(r.leaves) == ["Error"]
    assert r.leaves[0].cause == NEGAND_UNDETERMINED


def test_strict_negation_on_closed_operand_dispatches_normally():
    assert run("NOT (1 = 0)").status is TreeStatus.SUCCESSFUL
    assert run("NOT (0 = 0)").status is TreeStatus.FAILED


def test_liberal_negation_accepts_failed_open_operand():
    r = run("NOT (0 = 1 AND x = y) AND x = 5", LIBERAL)
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0] == Valuation({"x": 5})


def test_liberal_negation_fails_on_clean_witness():
    r = run("NOT (0 = 0 OR x = y)", LIBERAL)
    assert leaf_kinds(r.leaves) == ["Fail"]
    assert r.status is TreeStatus.FAILED


def test_liberal_negation_still_errors_on_dirty_witness():
    # the only success of the operand pins x, which is free in it
    r = run("NOT (x = 0)", LIBERAL)
    assert leaf_kinds(r.leaves) == ["Error"]


def test_liberal_negation_errors_when_witness_binds_array_cell():
    from fap.normalize import load

    p = load("array a[1..2] : int;\nquery NOT (a[1] = 5);")
    r = solve(p, EMPTY_VALUATION, LIBERAL)
    assert r.status is TreeStatus.UNDETERMINED


def test_negand_indexed_by_an_unbound_cell_is_not_closed():
    from fap.normalize import load

    p = load("array a[1..2] : int;\narray b[1..2, 1..2] : int;\n"
             "query NOT b[a[1], 1] = 2;")
    strict = solve(p, EMPTY_VALUATION, STRICT)
    assert strict.leaves[0].cause == NEGAND_UNDETERMINED
    bound = solve(p, Valuation({}, {("a", (1,)): 2, ("b", (2, 1)): 3}), STRICT)
    assert leaf_kinds(bound.leaves) == ["Success"]


# Closedness looks inside the operand: its own binders count as closed, but
# an array reference whose index reads one of them is open, also when the
# reference sits in a procedure the operand calls with the binder.
BOTH_CELLS = "array a[1..2] : int;\n{defs}query a[1] = 1 AND a[2] = 2 AND NOT ({operand});"


def test_a_cell_indexed_by_the_operands_own_binder_is_not_closed():
    from fap.normalize import load

    p = load(BOTH_CELLS.format(defs="", operand="SOME i := 1 TO 2 DO a[i] = 1 END"))
    strict = solve(p, EMPTY_VALUATION, STRICT)
    assert leaf_kinds(strict.leaves) == ["Error"]
    assert strict.leaves[0].cause == NEGAND_UNDETERMINED
    liberal = solve(p, EMPTY_VALUATION, LIBERAL)  # runs it: a[1] = 1 refutes
    assert leaf_kinds(liberal.leaves) == ["Fail"]


def test_a_call_that_indexes_a_cell_by_the_binder_is_not_closed():
    from fap.normalize import load

    p = load(BOTH_CELLS.format(defs="def p(u) := a[u] = 1;\n",
                               operand="SOME i := 1 TO 2 DO p(i) END"))
    strict = solve(p, EMPTY_VALUATION, STRICT)
    assert strict.leaves[0].cause == NEGAND_UNDETERMINED
    assert leaf_kinds(solve(p, EMPTY_VALUATION, LIBERAL).leaves) == ["Fail"]


def test_a_call_that_only_reads_the_binder_is_closed():
    from fap.normalize import load

    p = load(BOTH_CELLS.format(defs="def q(u) := u = u;\n",
                               operand="SOME i := 1 TO 2 DO q(i) END"))
    for config in (STRICT, LIBERAL):
        r = solve(p, EMPTY_VALUATION, config)
        assert leaf_kinds(r.leaves) == ["Fail"] and r.status is TreeStatus.FAILED


# A parameter named like a free variable of the query: the callee's x is the
# caller's argument, read once, never the query's x.  Each case gives, under
# strict, pedantic and liberal negation, (status, leaf counts, solutions, tag
# of the NOT or -> node in a trace).
PEDANTIC = EngineConfig(pedantic=True)
X2 = Valuation({"x": 2})
X1_A5 = Valuation({"x": 1}, {("a", (2,)): 5})
Y1 = Valuation({"y": 1})
OK, STUCK = TreeStatus.SUCCESSFUL, TreeStatus.UNDETERMINED
CLOSEDNESS_TAGS = ("negation", "liberal-negation", "implication")
CLASHES = [
    ("def p(x) := x = 1;\nquery x = 2 AND NOT p(x + 1);",
     [(OK, (1, 0, 0), (X2,), "negation")] * 3),
    ("def p(x) := x = 1;\nquery NOT p(x + 1) AND x = 2;",
     [(STUCK, (0, 0, 1), (), "negation")] * 2 + [(STUCK, (0, 0, 1), (), "liberal-negation")]),
    ("array a[1..3] : int;\ndef p(x) := a[x] = 1;\nquery x = 1 AND a[2] = 5 AND NOT p(x + 1);",
     [(OK, (1, 0, 0), (X1_A5,), "negation")] * 3),
    ("array a[1..3] : int;\ndef p(x) := a[x] = 1;\nquery x = 1 AND NOT p(x + 1);",
     [(STUCK, (0, 0, 1), (), "negation")] * 2 + [(STUCK, (0, 0, 1), (), "liberal-negation")]),
    ("def p(x, y) := x = y;\nquery y = 1 AND (p(y, 2) -> x = 3);",
     [(OK, (1, 0, 0), (Y1,), "implication")] * 3),
]


def test_closedness_where_a_parameter_is_named_like_a_free_variable():
    from fap.normalize import load

    for src, expected in CLASHES:
        for config, (status, counts, solutions, tag) in zip((STRICT, PEDANTIC, LIBERAL), expected):
            r = solve(load(src), EMPTY_VALUATION, config)
            assert (r.status, r.leaf_counts, r.solutions) == (status, counts, solutions), src
            assert r.error_causes == (() if status is OK else (NEGAND_UNDETERMINED,))
            tags = [node.tag for _, node in iter_trace(load(src), config=config)]
            assert next(t for t in tags if t in CLOSEDNESS_TAGS) == tag, src


def test_an_unknown_procedure_raises_under_every_mode():
    # the parser rejects a call of an undefined procedure; a hand-built
    # program reaches the engine, which says so whether or not the call runs
    from fap.formulas import Call, Implies, Not, ProgramUnit, TrueAtom, conj
    from fap.normalize import normalize_program

    call = conj(Call("q", ()))
    negation = normalize_program(ProgramUnit(query=conj(Not(call))))
    implication = normalize_program(ProgramUnit(query=conj(Implies(call, conj(TrueAtom())))))
    for program, config in ((negation, STRICT), (negation, LIBERAL), (implication, PEDANTIC)):
        with pytest.raises(ValueError, match="unknown procedure 'q'"):
            solve(program, EMPTY_VALUATION, config)


def test_a_call_with_the_wrong_number_of_arguments_raises_under_every_mode():
    # the parser rejects `def p(a) := a = 1; query p();`, a hand-built
    # program reaches the engine, which must not run a = 1 with a free
    from fap.formulas import (Call, Eq, Implies, IntConst, Not, ProcedureDef, ProgramUnit,
                              Scalar, TrueAtom, Var, conj)
    from fap.normalize import normalize_program

    p = ProcedureDef("p", (("a", Scalar.INT),), conj(Eq(Var("a"), IntConst(1))))
    call = conj(Call("p", ()))
    for query, configs in ((call, (STRICT, LIBERAL, PEDANTIC)),
                           (conj(Not(call)), (STRICT, LIBERAL)),
                           (conj(Implies(call, conj(TrueAtom()))), (PEDANTIC,))):
        program = normalize_program(ProgramUnit(procedures=(p,), query=query))
        for config in configs:
            with pytest.raises(ValueError, match=r"'p' expects 1 argument\(s\), got 0"):
                solve(program, EMPTY_VALUATION, config)


def test_internal_existential_witness_is_clean():
    # the operand succeeds but only pins its own bound variable
    r = run("NOT (SOME k := 1 TO 3 DO k = 2 END)", LIBERAL)
    assert leaf_kinds(r.leaves) == ["Fail"]


def traced(src: str, config: EngineConfig = LIBERAL) -> list:
    """(tag, leaf) of each node of the traced tree of src."""
    return [(node.tag, node.leaf) for _, node in iter_trace(load_query(src), config=config)]


def test_liberal_negation_tags_say_whether_the_operand_is_closed():
    # a trace tags each negation by closedness, though a liberal negation
    # needs it only for a success whose witness is dirty
    holds = [("atom", None), ("empty", None), ("success", Success(Valuation({"x": 5})))]
    assert traced("NOT (0 = 1) AND x = 5") == [("negation", None)] + holds
    assert traced("NOT (0 = 1 AND x = y) AND x = 5") == [("liberal-negation", None)] + holds
    # the witness pins x, free in the operand
    [(tag, _), (_, leaf)] = traced("NOT (x = 0)")
    assert tag == "liberal-negation" and leaf.cause == NEGAND_UNDETERMINED
    # the witness pins only the operand's own v
    assert [tag for tag, _ in traced("NOT ((EXISTS v . v = 1) OR x = y)")] == [
        "liberal-negation", "fail"]
    # the same leaves untraced
    for src in ("NOT (0 = 1 AND x = y) AND x = 5", "NOT (x = 0)",
                "NOT ((EXISTS v . v = 1) OR x = y)"):
        assert [leaf for _, leaf in traced(src) if leaf is not None] == list(
            run(src, LIBERAL).leaves)


def test_de_morgan_does_not_hold_operationally():
    lhs = "NOT (x = 0 AND x = 1)"
    rhs = "NOT (x = 0) OR NOT (x = 1)"
    assert leaf_kinds(run(lhs).leaves) == ["Error"]
    assert leaf_kinds(run(rhs).leaves) == ["Error", "Error"]
    assert run(lhs, LIBERAL).status is TreeStatus.SUCCESSFUL
    assert run(lhs, LIBERAL).solutions[0] == EMPTY_VALUATION
    assert run(rhs, LIBERAL).status is TreeStatus.UNDETERMINED


# -- implication ----------------------------------------------------------------

def test_strict_implication_is_undetermined_on_open_antecedent_success():
    r = run("x = 0 -> x < 1")
    assert leaf_kinds(r.leaves) == ["Error"]
    assert r.leaves[0].cause == ANTECEDENT_UNDETERMINED


def test_guarded_implication_transfers_the_antecedent_bindings():
    r = run("x = 0 -> x < 1", cfg(ImplicationMode.GUARDED))
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions == (Valuation({"x": 0}),)


def test_negor_implication_misses_that_success():
    r = run("x = 0 -> x < 1", cfg(ImplicationMode.NEG_OR))
    assert r.status is TreeStatus.UNDETERMINED
    assert not r.solutions


def test_combined_implication_collects_both_success_routes():
    guarded_only = "x = 0 -> x < 1"
    r = run(guarded_only, cfg(ImplicationMode.COMBINED))
    assert r.status is TreeStatus.SUCCESSFUL
    # the guard swallows this solution: the continuation x < 1 errors on the
    # bare-negation branch, and the guarded branch dies inside the guard
    negor_only = "((x = 0 AND x = 1) -> x = 0) AND x < 1"
    negor = run(negor_only, cfg(ImplicationMode.NEG_OR))
    assert negor.status is TreeStatus.SUCCESSFUL
    assert negor.solutions == (Valuation({"x": 0}),)
    assert run(negor_only, cfg(ImplicationMode.GUARDED)).status is TreeStatus.UNDETERMINED
    combined = run(negor_only, cfg(ImplicationMode.COMBINED))
    assert combined.status is TreeStatus.SUCCESSFUL
    assert combined.solutions == (Valuation({"x": 0}),)


def test_guard_prevents_recomputing_the_continuation():
    src = "(x = 0 AND x = 1) -> 0 = 0"
    negor = run(src, cfg(ImplicationMode.NEG_OR))
    guarded = run(src, cfg(ImplicationMode.GUARDED))
    assert sum(isinstance(l, Success) for l in negor.leaves) == 2
    assert sum(isinstance(l, Success) for l in guarded.leaves) == 1
    assert negor.status is guarded.status is TreeStatus.SUCCESSFUL


def test_delicate_example_only_negor_proves_failure():
    src = "(0 = 0 OR x < 1) -> 0 = 1"
    assert run(src, cfg(ImplicationMode.NEG_OR)).status is TreeStatus.FAILED
    assert run(src, cfg(ImplicationMode.GUARDED)).status is TreeStatus.UNDETERMINED
    assert run(src, cfg(ImplicationMode.COMBINED)).status is TreeStatus.UNDETERMINED


def test_strict_implication_inherits_the_failed_relaxation():
    # antecedent fails without being closed; relaxed strict continues
    r = run("(0 = 1 AND x = y) -> 0 = 0")
    assert r.status is TreeStatus.SUCCESSFUL


def test_pedantic_implication_requires_closedness():
    r = run("(0 = 1 AND x = y) -> 0 = 0", EngineConfig(pedantic=True))
    assert leaf_kinds(r.leaves) == ["Error"]
    assert r.leaves[0].cause == ANTECEDENT_UNDETERMINED


def test_pedantic_closed_implication_behaves_normally():
    ped = EngineConfig(pedantic=True)
    assert run("0 = 1 -> 0 = 1", ped).status is TreeStatus.SUCCESSFUL
    assert run("0 = 0 -> 0 = 1", ped).status is TreeStatus.FAILED
    assert run("0 = 0 -> 0 = 0", ped).status is TreeStatus.SUCCESSFUL


def test_strict_implication_success_requires_clean_witness():
    # antecedent succeeds by pinning x, so even relaxed strict refuses
    r = run("x = 0 -> 0 = 0")
    assert leaf_kinds(r.leaves) == ["Error"]


def test_rewrites_follow_the_configured_negation_mode():
    # with strict negation the NOT branch of the rewrite errors instead of failing
    r = run("(0 = 0 OR x < 1) -> 0 = 1", cfg(ImplicationMode.NEG_OR, liberal=False))
    assert r.status is TreeStatus.UNDETERMINED
