import sys

import pytest

from fap.engine import solve
from fap.formulas import (
    ArrayRef,
    Cons,
    Empty,
    Eq,
    ExistsBounded,
    IntConst,
    Not,
    Or,
    Rel,
    Scalar,
    TrueAtom,
    format_program,
)
from fap.normalize import load
from fap.parser import (
    CYCLE, Diagnostic, NAME, SORT, SYNTAX, _Parser, _SortChecker, parse, parse_query,
)
from fap.values import Valuation


def heads(program):
    return list(program.query)


def test_formula1_shape():
    p = parse_query("(x = 2 OR x = 3) AND (y = x + 1 OR 2 = y) AND (2*x = 3*y)")
    f = p.query
    assert isinstance(f, Cons) and isinstance(f.head, Or)
    assert isinstance(f.tail, Cons) and isinstance(f.tail.head, Or)
    assert isinstance(f.tail.tail, Cons) and isinstance(f.tail.tail.head, Eq)
    assert isinstance(f.tail.tail.tail, Empty)
    assert p.free_var_names() == ("x", "y")


def test_true_unit():
    p = parse_query("TRUE")
    assert heads(p) == [TrueAtom()]


def test_self_referential_definition_is_a_cycle():
    with pytest.raises(Diagnostic) as exc:
        parse("def p(x) := x = 0;\ndef q() := p(q());\nquery p(y);")
    assert exc.value.kind == CYCLE


def test_mutual_recursion_is_a_cycle():
    src = "def a(x) := b(x);\ndef b(x) := a(x);\nquery a(1);"
    with pytest.raises(Diagnostic) as exc:
        parse(src)
    assert exc.value.kind == CYCLE


def test_cycle_reports_its_path_at_the_repeated_procedure():
    src = "def p(x) := q(x);\ndef q(x) := p(x);\nquery p(1);"
    with pytest.raises(Diagnostic) as exc:
        parse(src)
    assert exc.value.kind == CYCLE
    assert exc.value.message == "recursive procedure cycle: p -> q -> p"
    assert (exc.value.line, exc.value.col) == (1, 5)  # at the name p


def test_long_forward_chain_of_procedures_parses():
    # p0 calls p1 calls ... p999: the acyclicity walk follows the whole chain
    src = "".join(f"def p{i}(x) := p{i + 1}(x);\n" for i in range(999))
    src += "def p999(x) := x = 1;\nquery p0(y);"
    assert len(parse(src).procedures) == 1000
    assert solve(load(src)).solutions == (Valuation({"y": 1}),)


def test_forward_reference_is_fine_when_acyclic():
    p = parse("def a(x) := b(x);\ndef b(x) := x = 0;\nquery a(1);")
    assert p.procedure("a") is not None


def test_conjunction_flattens_at_parse():
    p = parse_query("(x = 1 AND y = 2) AND z = 3")
    assert [type(h) for h in heads(p)] == [Eq, Eq, Eq]


def test_operator_precedence_and_over_or():
    p = parse_query("1 < i AND i < 3 OR 1 < j AND j < 4")
    (h,) = heads(p)
    assert isinstance(h, Or)
    assert [type(x) for x in h.left] == [Rel, Rel]
    assert [type(x) for x in h.right] == [Rel, Rel]


def test_implication_is_weakest_and_right_associative():
    p = parse_query("x = 1 AND y = 2 -> x = 1 -> TRUE")
    (h,) = heads(p)
    assert type(h).__name__ == "Implies"
    assert [type(x) for x in h.antecedent] == [Eq, Eq]
    (inner,) = list(h.consequent)
    assert type(inner).__name__ == "Implies"


def test_not_binds_to_the_following_unit():
    p = parse_query("NOT x = 0 AND y = 1")
    hs = heads(p)
    assert isinstance(hs[0], Not) and isinstance(hs[1], Eq)


def test_bounded_quantifier_sugar():
    p = parse_query("SOME k := 1 TO 3 DO k = 2 END")
    (h,) = heads(p)
    assert isinstance(h, ExistsBounded)
    assert h.lo == IntConst(1) and h.hi == IntConst(3)


def test_arrays_parse_and_sort_check():
    p = parse("array a[1..3, 0..1] : int;\nquery a[1, 0] = 5;")
    (h,) = heads(p)
    assert isinstance(h, Eq) and isinstance(h.lhs, ArrayRef)
    assert [(d.name, d.ranges) for d in p.arrays] == [("a", ((1, 3), (0, 1)))]


def test_negative_range_bounds_and_literals():
    p = parse("array a[-2..2] : int;\nquery a[-1] = -5;")
    (h,) = heads(p)
    assert h.rhs == IntConst(-5)


def test_bool_arrays_and_params():
    p = parse(
        "array flag[1..2] : bool;\n"
        "def set(b : bool) := flag[1] = b;\n"
        "query set(TRUE) AND flag[2] = FALSE;"
    )
    assert [(d.name, d.element) for d in p.arrays] == [("flag", Scalar.BOOL)]


def test_sort_error_bool_int_mix():
    with pytest.raises(Diagnostic) as exc:
        parse_query("x = TRUE AND x = 1")
    assert exc.value.kind == SORT


def test_sort_error_relation_on_bool():
    with pytest.raises(Diagnostic) as exc:
        parse("def p(b : bool) := b < TRUE;\nquery p(TRUE);")
    assert exc.value.kind == SORT


def test_call_arity_mismatch():
    with pytest.raises(Diagnostic) as exc:
        parse("def p(x) := x = 0;\nquery p(1, 2);")
    assert exc.value.kind == SORT


def test_unknown_procedure():
    with pytest.raises(Diagnostic) as exc:
        parse_query("nosuch(1)")
    assert exc.value.kind == NAME


def test_unknown_array():
    with pytest.raises(Diagnostic) as exc:
        parse_query("a[1] = 2")
    assert exc.value.kind == NAME


def test_duplicate_procedure():
    with pytest.raises(Diagnostic) as exc:
        parse("def p() := TRUE;\ndef p() := TRUE;\nquery p();")
    assert exc.value.kind == NAME


def test_duplicate_array():
    with pytest.raises(Diagnostic) as exc:
        parse("array a[1..2] : int;\narray a[1..2] : int;\nquery TRUE;")
    assert exc.value.kind == NAME


@pytest.mark.parametrize("src, kind, message, line, col", [
    ("def p(b : bool) := b = TRUE;\nquery p(1);",
     SORT, "argument 'b' of 'p' needs bool, got int", 2, 1),
    ("query SOME i := TRUE TO 3 DO i = 1 END;", SORT, "quantifier bounds must be integers", 1, 1),
    ("query x = TRUE + 1;", SORT, "function '+' needs integer arguments", 1, 1),
    ("array a[1..2, 1..2] : int;\nquery a[1] = 1;",
     SORT, "array 'a' has 2 dimension(s), got 1 index(es)", 2, 1),
    ("array a[1..2] : int;\nquery a[TRUE] = 1;", SORT, "array indices must be integers", 2, 1),
    ("query x = q(1);", NAME, "unknown procedure 'q'", 1, 11),
    ("def p(u) := u = 1;\nquery p = 1;", NAME, "'p' is a procedure, not a variable", 2, 1),
    ("array a[1..2] : int;\ndef a(u) := u = 1;\nquery a[1] = 1;",
     NAME, "'a' already names an array", 2, 5),
    ("def p(u, u) := u = 1;\nquery p(1, 2);", NAME, "duplicate parameter 'u'", 1, 5),
    ("def p(u) := u = 1;\narray a[1..2] : int;\nquery p(1);",
     SYNTAX, "array declarations must precede procedure definitions", 2, 1),
])
def test_static_error_kind_message_and_position(src, kind, message, line, col):
    with pytest.raises(Diagnostic) as exc:
        parse(src)
    d = exc.value
    assert (d.kind, d.message, d.line, d.col) == (kind, message, line, col)


def test_procedure_body_free_variables_must_be_params():
    with pytest.raises(Diagnostic) as exc:
        parse("def p(x) := x = y;\nquery p(1);")
    assert exc.value.kind == NAME


def test_array_name_used_as_scalar_is_rejected():
    with pytest.raises(Diagnostic) as exc:
        parse("array a[1..2] : int;\nquery a = 1;")
    assert exc.value.kind == NAME


def test_procedure_used_as_term_outside_cycle():
    with pytest.raises(Diagnostic) as exc:
        parse("def p(x) := x = 0;\nquery y = p(1);")
    assert exc.value.kind == SORT


def test_syntax_error_has_position():
    with pytest.raises(Diagnostic) as exc:
        parse("query x = ;\n")
    assert exc.value.kind == SYNTAX
    assert exc.value.line == 1 and exc.value.col > 0


def test_comments_and_whitespace():
    p = parse("# leading comment\nquery  # trailing\n  TRUE ;")
    assert heads(p) == [TrueAtom()]


def test_missing_query_is_syntax_error():
    with pytest.raises(Diagnostic) as exc:
        parse("array a[1..2] : int;")
    assert exc.value.kind == SYNTAX


def test_div_mod_parse():
    p = parse_query("x = 7 div 2 AND y = 7 mod 2")
    hs = heads(p)
    assert hs[0].rhs.op == "div" and hs[1].rhs.op == "mod"


def test_free_vars_order_is_first_occurrence():
    p = parse_query("y = 1 AND x = y AND z = x")
    assert p.free_var_names() == ("y", "x", "z")


def test_quantifier_scopes_maximally_right():
    p = parse_query("EXISTS v . v = 0 AND v < 1")
    (h,) = heads(p)
    assert type(h).__name__ == "Exists"
    assert [type(x).__name__ for x in h.body] == ["Eq", "Rel"]


@pytest.mark.parametrize("source", [
    "query x = int;",
    "array a[int] : int; query a[1] = 1;",
    "def p(x : 5) := TRUE; query p(1);",
    "query EXISTS x : 7 . x = 1;",
])
def test_the_sort_keyword_int_is_not_an_integer_literal(source):
    with pytest.raises(Diagnostic) as info:
        parse(source)
    assert info.value.kind == SYNTAX
    assert info.value.line == 1 and info.value.col > 1


def test_deep_nesting_is_a_diagnostic_not_a_crash():
    for source in (
        "query " + "(" * 5000 + "x = 1" + ")" * 5000 + ";",
        "query " + "NOT " * 5000 + "(x = 1);",
        "query x = " + "(" * 5000 + "1" + ")" * 5000 + ";",
    ):
        with pytest.raises(Diagnostic):
            parse(source)


def test_mutated_sources_never_crash():
    import random

    from fap.formulas import format_program
    from fap.oracle import GeneratorConfig, generate

    rng = random.Random(99)
    pieces = ["AND", "OR", "NOT", "(", ")", "=", "<", ";", "query", "def",
              "1", "x", "..", "->", "SOME", "END", "[", "]", ","]
    crashes = 0
    for seed in range(150):
        text = format_program(generate(GeneratorConfig(seed=seed)))
        chars = text.split(" ")
        for _ in range(4):
            mutated = list(chars)
            op = rng.randrange(3)
            pos = rng.randrange(len(mutated))
            if op == 0:
                mutated[pos] = rng.choice(pieces)
            elif op == 1:
                del mutated[pos]
            else:
                mutated.insert(pos, rng.choice(pieces))
            try:
                parse(" ".join(mutated))
            except Diagnostic:
                pass
            except Exception:
                crashes += 1
    assert crashes == 0


def test_roundtrip_fixpoint_on_corpus_files():
    import glob

    paths = sorted(glob.glob("corpus/*.fap"))
    assert len(paths) >= 5
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        once = format_program(parse(text))
        twice = format_program(parse(once))
        assert once == twice


def test_long_conjunction_parses_in_linear_work(monkeypatch):
    calls = 0

    def counting(method):
        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return method(*args, **kwargs)
        return counted

    for cls in (_Parser, _SortChecker):
        for name, method in list(vars(cls).items()):
            if callable(method):
                monkeypatch.setattr(cls, name, counting(method))

    def work(n: int) -> int:
        nonlocal calls
        calls = 0
        program = parse("query " + " AND ".join(f"x{i} = {i}" for i in range(n)) + ";")
        assert len(list(program.query)) == n
        return calls

    # four times the conjuncts: about 4x when linear, 16x when quadratic
    assert work(8000) / work(2000) <= 5


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() reads any number of digits before Python 3.11")
def test_a_literal_longer_than_int_reads_is_a_positioned_syntax_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(Diagnostic) as err:
            parse("query x = 0 OR\n  x = " + "1" * 5001 + ";")
        assert parse("query x = " + "1" * 4300 + ";").query.head.rhs.value == int("1" * 4300)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (err.value.kind, err.value.line, err.value.col) == (SYNTAX, 2, 7)
    assert "5001 digits" in err.value.message
