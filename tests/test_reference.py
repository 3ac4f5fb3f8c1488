"""Leaf-for-leaf comparison of the engine against the naive recursive
reference interpreter over the generated corpus: verbatim strict mode, and
strict implication with its witness check under strict and liberal
negation."""

from naive_reference import RError, RFail, RSuccess, reference_leaves
from fap.engine import EngineConfig, Error, Fail, NegationMode, Success, TreeStatus, solve
from fap.normalize import load, load_query, normalize_program
from fap.oracle import FiniteDomain, GeneratorConfig, generate
from fap.values import EMPTY_VALUATION, Valuation

PEDANTIC = EngineConfig(pedantic=True)
# the configurations with a witness check: (engine config, liberal negation)
WITNESSED = ((EngineConfig(), False), (EngineConfig(negation=NegationMode.LIBERAL), True))


def observable(program, leaves):
    free = set(program.free_var_names())
    out = []
    for leaf in leaves:
        if isinstance(leaf, (Success, RSuccess)):
            kept = {k: v for k, v in leaf.valuation.scalars.items() if k in free}
            out.append(("success", Valuation(kept, leaf.valuation.cells).canonical()))
        elif isinstance(leaf, (Fail, RFail)):
            out.append(("fail",))
        else:
            assert isinstance(leaf, (Error, RError))
            out.append(("error",))
    return out


def compare(program, initial=EMPTY_VALUATION):
    got = observable(program, solve(program, initial, PEDANTIC).leaves)
    want = observable(program, reference_leaves(program, initial))
    assert got == want


def compare_witnessed(program, initial=EMPTY_VALUATION):
    for config, liberal in WITNESSED:
        got = observable(program, solve(program, initial, config).leaves)
        want = observable(program, reference_leaves(program, initial, liberal, pedantic=False))
        assert got == want, config


def test_engine_matches_reference_on_generated_corpus():
    for seed in range(2500):
        compare(normalize_program(generate(GeneratorConfig(seed=seed, max_depth=5))))


def test_engine_matches_reference_on_arrays_and_quantifiers():
    domain = FiniteDomain(0, 2, quantifiers=True)
    for seed in range(1500):
        compare(normalize_program(generate(GeneratorConfig(
            seed=seed, max_depth=5, domain=domain, arrays_and_quantifiers=True))))


def test_witness_checks_match_reference_on_generated_corpus():
    for seed in range(2500):
        compare_witnessed(normalize_program(generate(GeneratorConfig(seed=seed, max_depth=5))))


def test_witness_checks_match_reference_on_arrays_and_quantifiers():
    domain = FiniteDomain(0, 2, quantifiers=True)
    for seed in range(1500):
        compare_witnessed(normalize_program(generate(GeneratorConfig(
            seed=seed, max_depth=5, domain=domain, arrays_and_quantifiers=True))))


def test_engine_matches_reference_on_hand_cases():
    sources = [
        "(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y",
        "x = 0 AND x < 1",
        "x < 1 AND x = 0",
        "NOT (1 = 0) AND x = 5",
        "NOT (0 = 0)",
        "NOT (x = 0)",
        "0 = 1 -> x = y",
        "0 = 0 -> x = 1",
        "x = 1 -> x < 2",
        "SOME k := 1 TO 4 DO k = 3 END",
        "FOR k := 1 TO 4 DO k < 9 END AND y = 2",
        "SOME k := 2 TO 1 DO k = k END",
        "EXISTS v . v = 7 AND x = v",
        "SOME i := 1 TO 3 DO SOME j := 1 TO 3 DO i + j = 5 END END",
        "FOR i := 1 TO 3 DO SOME j := 1 TO 3 DO i + j = 4 END END",
        "NOT (SOME k := 1 TO 3 DO 0 = 1 END) AND x = 9",
    ]
    for src in sources:
        compare(load_query(src))
        compare_witnessed(load_query(src))


def test_engine_matches_reference_with_arrays_and_procedures():
    programs = [
        "array a[1..3] : int;\nquery a[1] = 5 AND a[2] = a[1] + 1 AND a[2] = 6;",
        "array a[1..2] : int;\nquery FOR i := 1 TO 2 DO a[i] = i END AND a[2] = 2;",
        "array a[1..2] : int;\nquery a[3] = 1 OR a[1] = 1;",
        "def p(u) := u = 3 OR u = 4;\nquery p(w) AND w = 4;",
        "def inc(u, v) := v = u + 1;\nquery inc(1, r) AND inc(r, s);",
        "def p(u) := NOT (u = 0);\nquery p(2) AND z = 1;",
        # a call's body is part of the operand whose closedness it decides
        "array a[1..2] : int;\ndef p(u) := FALSE AND EXISTS w . a[w] = u;\n"
        "query NOT p(1) AND z = 1;",
        "array a[1..2] : int;\ndef p(u) := FALSE AND EXISTS w . a[w] = u;\n"
        "query (p(1) -> z = 2) AND z = 1;",
        "array a[1..2] : int;\ndef p(u) := a[u] = 1;\ndef r(v) := p(v + 1);\n"
        "query a[2] = 1 AND NOT r(1) AND z = 1;",
    ]
    for src in programs:
        compare(load(src))
        compare_witnessed(load(src))


def test_engine_matches_reference_with_initial_bindings():
    program = load_query(
        "(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y"
    )
    for binding in ({}, {"x": 2}, {"x": 3}, {"x": 3, "y": 2}, {"y": 7}):
        compare(program, Valuation(binding))
        compare_witnessed(program, Valuation(binding))


# A declared array with three indices: its cells, its faults, a strict NOT
# over a bound cell, and references to it passed down a chain of calls (as
# run-time terms the callee reads through its environment).
THREE = "array b[1..2, 0..1, 1..3] : int;\n"


def test_engine_matches_reference_on_three_index_arrays():
    programs = [
        "query b[1, 0, 1] = 5 AND b[2, 1, 3] = b[1, 0, 1] + 1 AND b[2, 1, 3] = 6;",
        "query FOR i := 1 TO 2 DO FOR k := 1 TO 3 DO b[i, k mod 2, k] = i * k END END"
        " AND b[2, 1, 3] = z;",
        "query b[3, 0, 1] = 1 OR b[1, 2, 1] = 1 OR b[1, 0, 0] = 1 OR b[1, 0, 1] = 2;",
        "query b[1, 1, 2] = 4 AND NOT (b[1, 1, 2] = 3) AND z = 1;",
        "query b[1, 1, 2] = 4 AND NOT (b[1, 1, 3] = 3) AND z = 1;",
        "def p(u) := u = 7;\ndef r(v) := p(v);\n"
        "query b[1, 0, 1] = 7 AND r(b[1, 0, 1]) AND NOT r(b[2, 0, 1] + 0) AND z = 1;",
        "def p(u) := u = 7;\ndef r(v) := p(v);\n"
        "query b[1, 0, 1] = 7 AND b[2, 0, 1] = 8 AND NOT r(b[2, 0, 1]) AND z = 1;",
        "def p(u) := u = 7;\ndef r(v) := p(v);\n"
        "query SOME i := 1 TO 2 DO r(b[i, 0, 1]) END AND b[2, 0, 1] = z;",
        "def p(u) := u = 7;\ndef r(v) := p(v);\nquery r(b[x, 0, 1]) OR r(b[1, 0, 4]);",
        # the NOT inside s checks the reference it was passed: unbound, out
        # of range, bound
        "def p(u) := u = 7;\ndef s(v) := NOT p(v);\n"
        "query s(b[2, 0, 1]) OR s(b[2, 0, 4]) OR (b[2, 0, 1] = 8 AND s(b[2, 0, 1]));",
    ]
    for src in programs:
        compare(load(THREE + src))
        compare_witnessed(load(THREE + src))


def test_three_index_arrays_take_the_general_paths():
    r = solve(load(THREE + "query b[1, 0, 1] = 5 AND b[2, 1, 3] = b[1, 0, 1] + 1;"))
    assert r.solutions[0].cells == {("b", (1, 0, 1)): 5, ("b", (2, 1, 3)): 6}
    fault = solve(load(THREE + "query b[1, 2, 1] = 1;"))
    assert fault.error_causes == ("evaluation-fault",)
    # closed: the NOT runs and fails
    closed = "query b[1, 1, 2] = 4 AND NOT (b[1, 1, 2] = 4) AND z = 1;"
    assert solve(load(THREE + closed), config=PEDANTIC).status is TreeStatus.FAILED
    # a reference passed to p through r is read from p's environment
    calls = ("def p(u) := u = 7;\ndef r(v) := p(v);\n"
             "query b[1, 0, 1] = 7 AND b[2, 0, 1] = 8 AND NOT r(b[2, 0, 1]) AND z = 1;")
    assert solve(load(THREE + calls), config=PEDANTIC).solutions == (
        Valuation({"z": 1}, {("b", (1, 0, 1)): 7, ("b", (2, 0, 1)): 8}),)
    out_of_range = "def p(u) := u = 7;\nquery p(b[1, 0, 4]);"
    assert solve(load(THREE + out_of_range)).error_causes == ("evaluation-fault",)
