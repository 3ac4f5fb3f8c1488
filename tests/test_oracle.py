import operator

import pytest

from fap import values
from fap.formulas import IntConst, Rel, conj, format_program, free_vars
from fap.normalize import load, load_query, normalize_program
from fap.oracle import (
    FiniteDomain,
    GeneratorConfig,
    OracleRejection,
    generate,
    oracle_satisfiable,
    oracle_truth,
    oracle_valid,
)
from fap.parser import parse
from fap.values import EMPTY_VALUATION, Valuation

FORMULA1 = "(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND 2 * x = 3 * y"


def test_truth_of_the_known_witness():
    p = load_query(FORMULA1)
    assert oracle_truth(p.query, Valuation({"x": 3, "y": 2}), program=p)
    assert not oracle_truth(p.query, Valuation({"x": 2, "y": 3}), program=p)


def test_truth_of_the_empty_formula():
    from fap.formulas import EMPTY

    assert oracle_truth(EMPTY, EMPTY_VALUATION)
    assert oracle_truth(EMPTY, Valuation({"x": 1}))


def test_satisfiable_with_witness_enumeration():
    p = load_query(FORMULA1)
    sat, wits = oracle_satisfiable(p.query, EMPTY_VALUATION, FiniteDomain(0, 9), p)
    assert sat
    assert Valuation({"x": 3, "y": 2}) in wits


def test_unsatisfiable():
    p = load_query("0 = 1")
    sat, wits = oracle_satisfiable(p.query, EMPTY_VALUATION, FiniteDomain(0, 4), p)
    assert not sat and wits == ()


def test_reflexive_equation_witnesses():
    p = load_query("x = x")
    sat, wits = oracle_satisfiable(p.query, EMPTY_VALUATION, FiniteDomain(0, 2), p)
    assert sat
    assert [w.scalars["x"] for w in wits] == [0, 1, 2]


def test_self_consistency_between_satisfiable_and_witnesses():
    for seed in range(200):
        p = normalize_program(generate(GeneratorConfig(seed=seed)))
        sat, wits = oracle_satisfiable(p.query, EMPTY_VALUATION, FiniteDomain(0, 4), p)
        assert sat == bool(wits)


def test_engine_successes_are_contained_in_the_witness_set():
    import itertools

    from fap.engine import Success, solve

    d = FiniteDomain(0, 4)
    checked = 0
    for seed in range(200):
        p = normalize_program(generate(GeneratorConfig(seed=seed, domain=d)))
        successes = [
            l.valuation for l in solve(p).leaves if isinstance(l, Success)
        ]
        if not successes:
            continue
        witnesses = set(
            w.canonical() for w in oracle_satisfiable(p.query, EMPTY_VALUATION, d, p)[1]
        )
        free = p.free_var_names()
        for found in successes:
            open_names = [n for n in free if n not in found.scalars]
            for values in itertools.product(d.values(), repeat=len(open_names)):
                completion = dict(found.scalars)
                completion.update(zip(open_names, values))
                assert Valuation(completion).canonical() in witnesses
                checked += 1
    assert checked > 100


def test_valid_vs_satisfiable():
    p = load_query("x < 5")
    d = FiniteDomain(0, 4)
    assert oracle_valid(p.query, EMPTY_VALUATION, d, p)
    q = load_query("x < 4")
    assert not oracle_valid(q.query, EMPTY_VALUATION, d, q)
    assert oracle_satisfiable(q.query, EMPTY_VALUATION, d, q)[0]


def test_bounded_quantifiers_in_the_oracle():
    p = load_query("FOR i := 1 TO 3 DO SOME j := 1 TO 3 DO i + j = 4 END END")
    assert oracle_truth(p.query, EMPTY_VALUATION, program=p)
    q = load_query("SOME i := 1 TO 3 DO i = 0 END")
    assert not oracle_truth(q.query, EMPTY_VALUATION, program=q)


def test_procedures_are_unfolded_semantically():
    p = load("def p(a) := a < 3;\nquery p(x) AND x = 2;")
    assert oracle_truth(p.query, Valuation({"x": 2}), program=p)
    assert not oracle_truth(p.query, Valuation({"x": 3}), program=p)


def test_arrays_in_the_oracle():
    p = load("array a[1..2] : int;\nquery a[1] = 3 AND a[2] = a[1];")
    v = Valuation({}, {("a", (1,)): 3, ("a", (2,)): 3})
    assert oracle_truth(p.query, v, program=p)
    sat, wits = oracle_satisfiable(p.query, EMPTY_VALUATION, FiniteDomain(0, 4), p)
    assert sat and len(wits) == 1
    assert wits[0].cells == {("a", (1,)): 3, ("a", (2,)): 3}


def test_div_mod_rejected():
    p = load_query("x = 4 div 2")
    with pytest.raises(OracleRejection):
        oracle_truth(p.query, Valuation({"x": 2}), program=p)


def test_unbounded_quantifiers_rejected():
    p = load_query("EXISTS v . v = 1")
    with pytest.raises(OracleRejection):
        oracle_truth(p.query, EMPTY_VALUATION, program=p)


def test_ungrounded_variable_is_a_caller_bug():
    p = load_query("x = 1")
    with pytest.raises(ValueError):
        oracle_truth(p.query, EMPTY_VALUATION, program=p)


# -- generator ------------------------------------------------------------------

def test_generator_is_deterministic():
    for seed in (0, 7, 1234):
        a = generate(GeneratorConfig(seed=seed, max_depth=4))
        b = generate(GeneratorConfig(seed=seed, max_depth=4))
        assert a == b
    assert generate(GeneratorConfig(seed=1)) != generate(GeneratorConfig(seed=2))


def test_generator_output_parses_and_normalizes():
    for seed in range(150):
        pu = generate(GeneratorConfig(seed=seed))
        text = format_program(pu)
        reparsed = parse(text)
        normalize_program(reparsed)
        assert free_vars(reparsed.query) == free_vars(pu.query)


def test_generator_depth_one_is_a_single_atom():
    from fap.formulas import Atom

    for seed in range(20):
        pu = generate(GeneratorConfig(seed=seed, max_depth=1))
        heads = list(pu.query)
        assert len(heads) == 1 and isinstance(heads[0], Atom)


def test_generated_constants_stay_in_domain():
    from fap.formulas import IntConst

    def walk_terms(t, out):
        if isinstance(t, IntConst):
            out.append(t.value)
        for child in getattr(t, "args", ()) or ():
            walk_terms(child, out)

    d = FiniteDomain(0, 4)
    for seed in range(100):
        pu = generate(GeneratorConfig(seed=seed, domain=d))
        # bounded ranges and assignment sources must stay inside the domain;
        # arithmetic inside comparisons may wander
        from fap.formulas import Eq, ExistsBounded, ForallBounded, Var

        def check(f):
            for h in f:
                if isinstance(h, Eq):
                    sides = [h.lhs, h.rhs]
                    for s, other in (sides, reversed(sides)):
                        if isinstance(s, Var) and isinstance(other, IntConst):
                            assert other.value in d
                if isinstance(h, (ExistsBounded, ForallBounded)):
                    if isinstance(h.lo, IntConst):
                        assert h.lo.value >= d.lo
                    if isinstance(h.hi, IntConst):
                        assert h.hi.value <= d.hi
                    check(h.body)
                for attr in ("left", "right", "antecedent", "consequent", "body"):
                    sub = getattr(h, attr, None)
                    if sub is not None and not isinstance(sub, (str, tuple)):
                        check(sub)

        check(pu.query)


def test_quantifiers_over_the_domain_when_asked():
    p = load_query("EXISTS v . v = 1 AND FORALL w . w < 3")
    assert oracle_truth(p.query, EMPTY_VALUATION, FiniteDomain(0, 2, quantifiers=True), p)
    assert not oracle_truth(p.query, EMPTY_VALUATION, FiniteDomain(0, 4, quantifiers=True), p)
    b = load_query("EXISTS v : bool . v = TRUE")
    assert oracle_truth(b.query, EMPTY_VALUATION, FiniteDomain(0, 0, quantifiers=True), b)


def test_arrays_and_quantifiers_profile():
    from fap.formulas import ArrayRef, Exists, Forall, head_parts, subterms

    d = FiniteDomain(0, 2)
    seen = set()

    def visit(f, in_query):
        for h in f:
            terms, subs, _ = head_parts(h)
            for t in terms:
                for s in subterms(t):
                    if isinstance(s, ArrayRef):
                        # the oracle grounds the cells the query mentions
                        assert in_query and s.array == "a"
                        seen.add("cell")
            if isinstance(h, (Exists, Forall)):
                seen.add(type(h).__name__)
            for sub in subs:
                visit(sub, in_query)

    for seed in range(200):
        plain = generate(GeneratorConfig(seed=seed, domain=d))
        assert plain == generate(GeneratorConfig(seed=seed, domain=d, arrays_and_quantifiers=False))
        pu = generate(GeneratorConfig(seed=seed, domain=d, arrays_and_quantifiers=True))
        assert [(a.name, a.ranges) for a in pu.arrays] == [("a", ((0, 2),))]
        visit(pu.query, True)
        for proc in pu.procedures:
            visit(proc.body, False)
        assert free_vars(parse(format_program(pu)).query) == free_vars(pu.query)
    assert seen == {"cell", "Exists", "Forall"}


def test_the_oracle_keeps_its_own_relations(monkeypatch):
    # a wrong entry in the engine's table must not mislead its reference too
    monkeypatch.setitem(values._RELATIONS, "<", operator.le)
    assert oracle_truth(conj(Rel("<", IntConst(1), IntConst(1))), EMPTY_VALUATION) is False
