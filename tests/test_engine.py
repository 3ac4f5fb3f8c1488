import copy
import hashlib
import itertools
import pickle
from collections import Counter
from pathlib import Path

import pytest

from helpers import leaf_kinds, static_step_bound, success_sets
from fap.engine import (
    ATOM_NOT_EVALUABLE,
    EngineConfig,
    Error,
    ImplicationMode,
    NegationMode,
    STEP_BUDGET,
    Success,
    TreeStatus,
    UNBOUNDED_RANGE,
    eval_subtree_status,
    iter_leaves,
    iter_trace,
    solve,
    trace,
)
from fap.formulas import EMPTY, ProgramUnit
from fap.normalize import load, load_query, normalize_program
from fap.oracle import GeneratorConfig, generate
from fap.squares import squares_program
from fap.values import EMPTY_VALUATION, Valuation

LIBERAL = EngineConfig(negation=NegationMode.LIBERAL)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def statuses(src, config=EngineConfig(), initial=EMPTY_VALUATION):
    return solve(load_query(src), initial, config)


def test_formula1_leaf_sequence():
    r = statuses("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    assert leaf_kinds(r.leaves) == ["Fail", "Fail", "Fail", "Success"]
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0] == Valuation({"x": 3, "y": 2})


def test_conjunction_order_sensitivity():
    ok = statuses("x = 0 AND x < 1")
    assert leaf_kinds(ok.leaves) == ["Success"]
    assert ok.solutions[0] == Valuation({"x": 0})
    bad = statuses("x < 1 AND x = 0")
    assert leaf_kinds(bad.leaves) == ["Error"]
    assert bad.leaves[0].cause == ATOM_NOT_EVALUABLE
    assert bad.status is TreeStatus.UNDETERMINED


def test_empty_query_succeeds_with_initial_valuation():
    program = ProgramUnit(query=EMPTY, normalized=True)
    r = solve(program)
    assert r.leaves == (Success(EMPTY_VALUATION),)


def test_initial_valuation_is_reported_back():
    p = load_query("x = 3")
    r = solve(p, Valuation({"x": 3}))
    assert r.solutions[0] == Valuation({"x": 3})


def test_exploration_backtracks_past_error_leaves():
    r = statuses("(x < 1 OR x = 2) AND x < 3")
    assert leaf_kinds(r.leaves) == ["Error", "Success"]
    assert r.status is TreeStatus.SUCCESSFUL


def test_formula1_with_full_witness():
    p = load_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    r = solve(p, Valuation({"x": 3, "y": 2}))
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0] == Valuation({"x": 3, "y": 2})


def test_formula1_with_wrong_partial_binding_fails():
    p = load_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    r = solve(p, Valuation({"x": 2}))
    assert r.status is TreeStatus.FAILED
    assert leaf_kinds(r.leaves) == ["Fail", "Fail", "Fail"]


def test_initial_binding_must_name_a_free_variable():
    p = load_query("x = 1")
    with pytest.raises(ValueError):
        solve(p, Valuation({"q": 1}))


def test_unnormalized_program_is_rejected():
    from fap.parser import parse_query

    with pytest.raises(ValueError):
        solve(parse_query("x = 1"))


# -- eval_subtree_status ------------------------------------------------------

def test_subtree_failed():
    p = load_query("0 = 1 AND x = y")
    status, witness = eval_subtree_status(p, p.query)
    assert status is TreeStatus.FAILED and witness is None


def test_subtree_successful_short_circuits_before_error_branch():
    p = load_query("0 = 0 OR x = y")
    status, witness = eval_subtree_status(p, p.query)
    assert status is TreeStatus.SUCCESSFUL
    assert witness == EMPTY_VALUATION


def test_subtree_undetermined():
    p = load_query("x = y")
    status, witness = eval_subtree_status(p, p.query)
    assert status is TreeStatus.UNDETERMINED and witness is None


def test_subtree_budget_exhaustion_is_undetermined():
    p = load_query("SOME k := 1 TO 1000 DO k = 0 END")
    status, witness = eval_subtree_status(p, p.query, config=EngineConfig(max_steps=20))
    assert status is TreeStatus.UNDETERMINED and witness is None


def test_subtree_witness_is_the_full_valuation_with_cells_bound_by_the_subtree():
    p = load("array a[1..3] : int;\n"
             "query a[2] = 5 AND SOME k := 1 TO 3 DO a[k] = 7 END AND x = a[1] + a[2];")
    initial = Valuation({}, {("a", (3,)): 1})
    status, witness = eval_subtree_status(p, p.query, initial)
    assert status is TreeStatus.SUCCESSFUL
    assert witness.cells == {("a", (3,)): 1, ("a", (2,)): 5, ("a", (1,)): 7}
    # the witness keeps the sub-tree's internal bindings too: x and the SOME
    # variable of the iteration that succeeded
    assert witness.scalars["x"] == 12
    assert [v for n, v in witness.scalars.items() if n.startswith("k$")] == [1]
    assert witness.extends(initial)


def test_subtree_witness_of_a_closed_test_adds_nothing():
    p = load("array a[1..2] : int;\nquery a[1] < a[2];")
    initial = Valuation({}, {("a", (1,)): 1, ("a", (2,)): 2})
    status, witness = eval_subtree_status(p, p.query, initial)
    assert status is TreeStatus.SUCCESSFUL and witness == initial


def test_searches_that_bind_cells_leave_the_shared_empty_cells_empty():
    p = load("array a[1..2] : int;\n"
             "query x = 1 AND (a[1] = x OR a[2] = x + 1) AND SOME k := 1 TO 2 DO a[k] = 1 END;")
    cellless = Valuation({"x": 1})
    assert cellless.cells is EMPTY_VALUATION.cells  # one shared empty dict
    earlier = solve(p)
    before = [v.canonical() for v in earlier.solutions]
    assert before and all(cells for _, cells in before)
    for initial in (EMPTY_VALUATION, cellless):
        assert solve(p, initial).solutions
        assert list(trace(p, initial).leaves())
        status, witness = eval_subtree_status(p, p.query, initial)
        assert status is TreeStatus.SUCCESSFUL and witness.cells
        assert initial.bind_cell(("a", (1,)), 3).cells == {("a", (1,)): 3}
    assert EMPTY_VALUATION.cells == {} and cellless.cells == {}
    assert [v.canonical() for v in earlier.solutions] == before


def test_bool_quantifier():
    r = statuses("EXISTS b : bool . b = TRUE AND x = 1")
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0] == Valuation({"x": 1})


def test_bool_procedure_param():
    from fap.normalize import load

    p = load("def pick(b : bool, n) := (b = TRUE AND n = 1) OR (b = FALSE AND n = 0);\n"
             "query pick(TRUE, m);")
    r = solve(p)
    assert r.solutions[0] == Valuation({"m": 1})


# -- procedures ---------------------------------------------------------------

def test_procedure_unfold_binds_through_actuals():
    r = solve(load("def p(x) := x = 3;\nquery p(y);"))
    assert r.solutions[0] == Valuation({"y": 3})


def test_procedure_call_with_closed_actual_tests():
    assert solve(load("def p(x) := x = 3;\nquery p(3);")).status is TreeStatus.SUCCESSFUL
    assert solve(load("def p(x) := x = 3;\nquery p(4);")).status is TreeStatus.FAILED


def test_procedure_with_non_evaluable_body():
    r = solve(load("def p(x) := x < 1;\nquery p(y);"))
    assert r.status is TreeStatus.UNDETERMINED
    assert r.error_causes == (ATOM_NOT_EVALUABLE,)


def test_procedure_local_quantifier_is_fresh_per_unfold():
    src = (
        "def p(x) := EXISTS t . t = x AND t < 10;\n"
        "query p(1) AND p(2) AND y = 5;"
    )
    r = solve(load(src))
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0] == Valuation({"y": 5})


def test_nested_procedure_calls():
    src = (
        "def inc(a, b) := b = a + 1;\n"
        "def twice(a, b) := EXISTS t . inc(a, t) AND inc(t, b);\n"
        "query twice(3, r);"
    )
    r = solve(load(src))
    assert r.solutions[0] == Valuation({"r": 5})


def test_negation_over_a_deep_call_chain():
    # closedness of NOT p999(y) walks the chain p999 -> p998 -> ... -> p0
    src = "def p0(x) := x = 1;\n"
    src += "".join(f"def p{i}(x) := p{i - 1}(x);\n" for i in range(1, 1000))
    assert solve(load(src + "query y = 1 AND NOT p999(y);")).status is TreeStatus.FAILED
    assert solve(load(src + "query y = 2 AND NOT p999(y);")).solutions == (
        Valuation({"y": 2}),)



def deep_sum_chain(p0: str, query: str) -> str:
    """p999(a) calls p0 with a + 1 + ... + 1: a 999-deep sum built at run
    time, deeper than any term the parser accepts."""
    src = p0 + "\n" + "".join(f"def p{i}(a, z) := p{i - 1}(a + 1, z);\n" for i in range(1, 1000))
    return src + f"query {query};"


def test_terms_built_deep_at_run_time():
    r = solve(load(deep_sum_chain("def p0(a, z) := a = a;", "y = 0 AND p999(y, y)")))
    assert (r.status, r.steps, r.solutions) == (TreeStatus.SUCCESSFUL, 1003, (Valuation({"y": 0}),))
    # the deep sum is assigned, compared, checked for closedness and read by
    # the liberal witness check
    r = solve(load(deep_sum_chain("def p0(a, z) := z = a;", "y = 0 AND p999(y, z)")))
    assert r.solutions == (Valuation({"y": 0, "z": 999}),)
    r = solve(load(deep_sum_chain("def p0(a, z) := a > z;", "y = 0 AND NOT p999(y, 998)")))
    assert r.status is TreeStatus.FAILED
    src = deep_sum_chain("def p0(a, z) := EXISTS w . w = a AND w > z;", "y = 0 AND NOT p999(y, z)")
    assert solve(load(src), config=LIBERAL).error_causes == ("negand-undetermined",)



def test_a_solved_program_copies_and_pickles_without_its_code():
    program = load("array a[1..2] : int;\ndef p(u) := a[u] = u;\nquery p(1) AND NOT p(2) -> x = 1;")
    first = solve(program, config=LIBERAL)
    for twin in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program)):
        assert twin == program and "code" not in vars(twin)
        assert solve(twin, config=LIBERAL) == first
    assert solve(program, config=LIBERAL) == first  # the kept code, reused


# -- budget and limits ---------------------------------------------------------

def test_step_budget_yields_error_leaf_and_undetermined():
    src = "SOME k := 1 TO 1000 DO k = 0 END"
    r = statuses(src, EngineConfig(max_steps=50))
    assert isinstance(r.leaves[-1], Error)
    assert r.leaves[-1].cause == STEP_BUDGET
    assert r.status is TreeStatus.UNDETERMINED


def test_budget_after_success_is_still_successful():
    src = "(x = 1 OR x = 2) AND SOME k := 1 TO 1000 DO k = x END"
    r = statuses(src, EngineConfig(max_steps=40, solution_limit=None))
    assert any(isinstance(l, Success) for l in r.leaves)
    assert r.status is TreeStatus.SUCCESSFUL


def test_solution_limit_stops_enumeration():
    src = "x = 1 OR x = 2 OR x = 3"
    r = statuses(src, EngineConfig(solution_limit=2))
    assert leaf_kinds(r.leaves) == ["Success", "Success"]
    r = statuses(src)  # engine default explores everything
    assert leaf_kinds(r.leaves) == ["Success", "Success", "Success"]


def test_lazy_leaf_iteration():
    p = load_query("x = 1 OR x = 2")
    it = iter_leaves(p)
    first = next(it)
    assert first == Success(Valuation({"x": 1}))


# -- internal bindings ----------------------------------------------------------

def test_existential_bindings_are_stripped_by_default():
    r = statuses("SOME x := 1 TO 3 DO x = 2 END")
    assert leaf_kinds(r.leaves) == ["Fail", "Success", "Fail", "Fail"]
    assert r.solutions[0] == EMPTY_VALUATION


def test_existential_bindings_reported_on_request():
    r = statuses(
        "SOME x := 1 TO 3 DO x = 2 END",
        EngineConfig(report_internal_bindings=True),
    )
    sol = r.solutions[0]
    assert sorted(sol.scalars.values()) == [1, 2]  # both iterations bound
    assert all("$" in name for name in sol.scalars)


def test_unbounded_exists_grounded_by_body():
    r = statuses("EXISTS v . v = 41 AND x = v + 1")
    assert r.solutions[0] == Valuation({"x": 42})


def test_unbounded_exists_without_grounding_errors():
    r = statuses("EXISTS v . v < 1")
    assert r.status is TreeStatus.UNDETERMINED


# -- arrays through the engine ---------------------------------------------------

def test_array_assignment_and_test():
    src = "array a[1..3] : int;\nquery a[1] = 5 AND a[1] = 5 AND a[2] = a[1] + 1;"
    r = solve(load(src))
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions[0].cells == {("a", (1,)): 5, ("a", (2,)): 6}


def test_array_out_of_range_is_an_error_leaf():
    src = "array a[1..3] : int;\nquery a[4] = 1;"
    r = solve(load(src))
    assert r.status is TreeStatus.UNDETERMINED
    assert r.error_causes == ("evaluation-fault",)


ARRAY_DECLS = ("array m[1..2, 1..2] : int;\narray c[1..2, 1..2, 1..2] : int;\n"
               "array a[1..3] : int;\ndef p(u) := u = 1;\n")


@pytest.mark.parametrize("query, status, counts, causes, solutions", [
    # each index of a 2-D and a 3-D reference open or out of range
    ("m[i, 1] = 3", TreeStatus.UNDETERMINED, (0, 0, 1), ("atom-not-evaluable",), ()),
    ("m[1, j] = 3", TreeStatus.UNDETERMINED, (0, 0, 1), ("atom-not-evaluable",), ()),
    ("m[1, 3] = 3", TreeStatus.UNDETERMINED, (0, 0, 1), ("evaluation-fault",), ()),
    ("c[1, k, 1] = 3", TreeStatus.UNDETERMINED, (0, 0, 1), ("atom-not-evaluable",), ()),
    ("c[1, 2, 5] = 3", TreeStatus.UNDETERMINED, (0, 0, 1), ("evaluation-fault",), ()),
    ("c[1, 2, 1] = 3 AND c[1, 2, 1] = x", TreeStatus.SUCCESSFUL, (1, 0, 0), (),
     (Valuation({"x": 3}, {("c", (1, 2, 1)): 3}),)),
    # a reference passed to a procedure, read by it as a run-time term
    ("p(a[7])", TreeStatus.UNDETERMINED, (0, 0, 1), ("evaluation-fault",), ()),
    ("p(a[i])", TreeStatus.UNDETERMINED, (0, 0, 1), ("atom-not-evaluable",), ()),
    ("p(a[2])", TreeStatus.SUCCESSFUL, (1, 0, 0), (), (Valuation({}, {("a", (2,)): 1}),)),
])
def test_array_references_of_every_shape(query, status, counts, causes, solutions):
    r = solve(load(ARRAY_DECLS + f"query {query};"))
    assert (r.status, r.leaf_counts, r.error_causes, r.solutions) == (
        status, counts, causes, solutions)


def test_array_cells_in_initial_valuation():
    src = "array a[1..3] : int;\nquery a[2] = 7;"
    p = load(src)
    r = solve(p, Valuation({}, {("a", (2,)): 7}))
    assert r.status is TreeStatus.SUCCESSFUL
    r = solve(p, Valuation({}, {("a", (2,)): 8}))
    assert r.status is TreeStatus.FAILED


def test_initial_cell_out_of_range_rejected():
    p = load("array a[1..3] : int;\nquery a[2] = 7;")
    with pytest.raises(ValueError):
        solve(p, Valuation({}, {("a", (9,)): 7}))


def test_division_fault_becomes_error_leaf():
    r = statuses("x = 1 div 0")
    assert r.error_causes == ("evaluation-fault",)


def test_unbounded_range_cause():
    r = statuses("SOME k := y TO 3 DO k = k END")
    assert r.error_causes == (UNBOUNDED_RANGE,)


# -- quantified engine properties ------------------------------------------------

def _successes_with_internals(pu, config):
    cfg = EngineConfig(
        negation=config.negation,
        implication=config.implication,
        report_internal_bindings=True,
    )
    return [l for l in solve(pu, EMPTY_VALUATION, cfg).leaves if isinstance(l, Success)]


def test_success_valuations_extend_initial_and_name_only_free_or_bound_vars():
    for seed in range(300):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        free = set(pu.free_var_names())
        for leaf in _successes_with_internals(pu, EngineConfig()):
            for name in leaf.valuation.scalars:
                assert name in free or "$" in name


def test_success_valuations_extend_nonempty_initial():
    pu = load_query("(x = 2 OR y = 1) AND z = x")
    initial = Valuation({"x": 2})
    for leaf in solve(pu, initial).leaves:
        if isinstance(leaf, Success):
            assert leaf.valuation.extends(initial)


def test_step_counter_never_exceeds_static_bound():
    for seed in range(300):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        r = solve(pu)
        assert r.steps <= static_step_bound(pu), f"seed {seed}"


def test_disjunction_commutes_on_success_sets():
    from fap.formulas import Cons, EMPTY, Or

    for seed in range(400):
        a = generate(GeneratorConfig(seed=2 * seed, allow_procedures=False))
        b = generate(GeneratorConfig(seed=2 * seed + 1, allow_procedures=False))
        ab = normalize_program(ProgramUnit(query=Cons(Or(a.query, b.query), EMPTY)))
        ba = normalize_program(ProgramUnit(query=Cons(Or(b.query, a.query), EMPTY)))
        ra, rb = solve(ab), solve(ba)
        assert success_sets(ra.leaves) == success_sets(rb.leaves)
        assert (ra.status is TreeStatus.FAILED) == (rb.status is TreeStatus.FAILED)


def test_liberal_negation_only_adds_successes():
    for seed in range(400):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        strict = solve(pu)
        liberal = solve(pu, config=LIBERAL)
        assert success_sets(strict.leaves) <= success_sets(liberal.leaves)


def test_leaf_order_is_deterministic():
    for seed in range(60):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        assert solve(pu).leaves == solve(pu).leaves


def test_trace_leaves_match_solve_leaves():
    configs = [
        EngineConfig(),
        EngineConfig(max_steps=25),
        EngineConfig(solution_limit=1),
        EngineConfig(negation=NegationMode.LIBERAL, max_steps=40, solution_limit=2),
    ]
    for seed in range(120):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        for config in configs:
            t = trace(pu, config=config)
            assert list(t.leaves()) == list(solve(pu, config=config).leaves)
    # solve, iter_leaves, trace and eval_subtree_status all read the one
    # depth-first driver: same leaves and same status in every mode, with
    # budget cuts at the root's sub-trees, inside them and none, and with
    # the search stopped at a solution limit or not
    inputs = [(path.stem, load(path.read_text(encoding="utf-8")), EMPTY_VALUATION)
              for path in sorted(CORPUS.glob("*.fap"))]
    sizes = Valuation(cells={("Sizes", (1,)): 4, ("Sizes", (2,)): 1, ("Sizes", (3,)): 1})
    squares = load(squares_program(5, 4, 3))
    inputs += [("squares", squares, EMPTY_VALUATION), ("squares_sized", squares, sizes)]
    # no input above reaches a second success within these budgets
    inputs.append(("or3", load_query("x = 1 OR x = 2 OR x = 3"), EMPTY_VALUATION))
    for name, pu, initial in inputs:
        for neg, impl, pedantic, max_steps, solution_limit in itertools.product(
            NegationMode, ImplicationMode, (False, True), (7, 60, 400, None), (None, 2)
        ):
            if name == "queens8" and max_steps is None:
                continue  # its whole tree has 222,712 steps
            config = EngineConfig(negation=neg, implication=impl, pedantic=pedantic,
                                  max_steps=max_steps, solution_limit=solution_limit)
            result = solve(pu, initial, config)
            assert list(iter_leaves(pu, initial, config)) == list(result.leaves), name
            assert list(trace(pu, initial, config).leaves()) == list(result.leaves), name
            status, _ = eval_subtree_status(pu, pu.query, initial, config)
            assert status is result.status, name


def test_traced_tags_of_the_sized_squares_are_pinned():
    # how many nodes of each rule tag a trace shows, recorded from a run:
    # how the loop steps must not change what a trace reports
    sizes = Valuation(cells={("Sizes", (1,)): 4, ("Sizes", (2,)): 1, ("Sizes", (3,)): 1})
    squares = load(squares_program(5, 4, 3))
    pinned = {
        ImplicationMode.STRICT: {"bounded-forall": 91, "implication": 25, "bounded-exists": 40,
                                 "disjunction": 30, "atom": 129, "fail": 31},
        # the rewrite puts the guard's NOT in the main tree
        ImplicationMode.NEG_OR: {"bounded-forall": 171, "implication-rewrite": 29,
                                 "disjunction": 116, "liberal-negation": 14, "fail": 117,
                                 "bounded-exists": 116, "atom": 329, "negation": 15},
    }
    for impl, counts in pinned.items():
        config = EngineConfig(negation=NegationMode.LIBERAL, implication=impl)
        assert Counter(node.tag for _, node in iter_trace(squares, sizes, config)) == counts


def test_budget_cuts_at_every_step_of_the_sized_squares():
    # corpus/squares_5x4.fap as `fap run` runs it (first solution, liberal
    # negation), cut after every step count up to the whole run's, so cuts
    # fall inside every negation and antecedent sub-tree it searches
    program = load((CORPUS / "squares_5x4.fap").read_text(encoding="utf-8"))
    sizes = Valuation(cells={("Sizes", (k,)): s for k, s in enumerate((4, 1, 1, 1, 1), 1)})
    digest = hashlib.sha256()
    for impl in ImplicationMode:
        def config(budget=None):
            return EngineConfig(negation=NegationMode.LIBERAL, implication=impl,
                                max_steps=budget, solution_limit=1)

        for budget in range(1, solve(program, sizes, config()).steps + 1):
            r = solve(program, sizes, config(budget))
            leaves = [("success", l.valuation.canonical()) if isinstance(l, Success)
                      else ("error", l.cause) if isinstance(l, Error) else ("fail",)
                      for l in r.leaves]
            digest.update(repr((r.status.value, r.steps, leaves)).encode())
    assert digest.hexdigest() == (
        "b34bc1cb77dd3d9a50e55ddf660dd8235bd4ed769a7eded6afdf2f9d88a615dc")


def test_trace_shape_for_formula1():
    p = load_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y")
    t = trace(p)
    assert t.tag == "disjunction"
    assert len(t.children) == 2
    leaves = list(t.leaves())
    assert leaf_kinds(leaves) == ["Fail", "Fail", "Fail", "Success"]


def test_trace_node_formula_is_the_substituted_remainder():
    from fap.formulas import EMPTY, Eq, IntConst, Var, conj

    p = load("def one(n) := n = 1;\nquery EXISTS y . one(y) AND x = y;")
    root = trace(p)
    assert root.formula == p.query
    unfold = root.children[0]
    fresh = unfold.formula.head.args[0]
    assert fresh.name.startswith("y$") and fresh.name != p.query.head.var
    atom = unfold.children[0]
    assert atom.formula == conj(Eq(fresh, IntConst(1)), Eq(Var("x"), fresh))
    empty = atom.children[0].children[0]
    assert empty.tag == "empty" and empty.formula == EMPTY
    assert empty.children[0].formula is None  # the success leaf


def test_trace_of_empty_query_is_two_nodes():
    t = trace(ProgramUnit(query=EMPTY, normalized=True))
    assert t.node_count() == 2
    assert t.children[0].leaf == Success(EMPTY_VALUATION)


def test_trace_of_true_false_chain():
    t = trace(load_query("TRUE AND FALSE"))
    assert leaf_kinds(list(t.leaves())) == ["Fail"]
