"""Leaf-for-leaf comparison of the engine (verbatim strict mode) against the
naive recursive reference interpreter over the generated corpus."""

from naive_reference import RError, RFail, RSuccess, reference_leaves
from fap.engine import EngineConfig, Error, Fail, Success, solve
from fap.normalize import load, load_query, normalize_program
from fap.oracle import FiniteDomain, GeneratorConfig, generate
from fap.values import EMPTY_VALUATION, Valuation

PEDANTIC = EngineConfig(pedantic=True)


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


def test_engine_matches_reference_on_generated_corpus():
    for seed in range(2500):
        compare(normalize_program(generate(GeneratorConfig(seed=seed, max_depth=5))))


def test_engine_matches_reference_on_arrays_and_quantifiers():
    domain = FiniteDomain(0, 2, quantifiers=True)
    for seed in range(1500):
        compare(normalize_program(generate(GeneratorConfig(
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


def test_engine_matches_reference_with_initial_bindings():
    program = load_query(
        "(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y"
    )
    for binding in ({}, {"x": 2}, {"x": 3}, {"x": 3, "y": 2}, {"y": 7}):
        compare(program, Valuation(binding))
