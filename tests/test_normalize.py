from pathlib import Path

from fap.formulas import (
    EMPTY,
    Eq,
    Exists,
    Forall,
    IntConst,
    Not,
    Or,
    Scalar,
    TrueAtom,
    Var,
    conj,
    format_program,
    free_vars,
    head_parts,
)
from fap.engine import EngineConfig, Success, iter_leaves
from fap.normalize import FreshNames, load, load_query, normalize, normalize_program
from fap.oracle import FiniteDomain, GeneratorConfig, generate
from fap.parser import parse, parse_query

X = Var("x")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_double_negation_collapses():
    f = conj(Not(conj(Not(conj(Eq(X, IntConst(0)))))))
    assert normalize(f) == conj(Eq(X, IntConst(0)))


def test_forall_becomes_not_exists_not():
    f = conj(Forall("x", Scalar.INT, conj(Eq(Var("x"), IntConst(0)))))
    g = normalize(f)
    (outer,) = list(g)
    assert isinstance(outer, Not)
    (inner,) = list(outer.body)
    assert isinstance(inner, Exists)
    assert inner.var != "x" and "$" in inner.var
    (body_head,) = list(inner.body)
    assert isinstance(body_head, Not)
    assert list(body_head.body) == [Eq(Var(inner.var), IntConst(0))]


def test_forall_with_negated_body_collapses_double_negation():
    f = conj(Forall("x", Scalar.INT, conj(Not(conj(Eq(Var("x"), IntConst(0)))))))
    g = normalize(f)
    (outer,) = list(g)
    (inner,) = list(outer.body)
    assert isinstance(inner, Exists)
    # NOT NOT (x=0) inside the rewrite collapsed to x=0
    assert list(inner.body) == [Eq(Var(inner.var), IntConst(0))]


def test_bound_names_are_globally_unique():
    p = load_query(
        "(EXISTS v . v = 1) AND (EXISTS v . v = 2) AND SOME v := 1 TO 2 DO v = 1 END"
    )
    names = []

    def collect(f):
        for h in f:
            if isinstance(h, Exists):
                names.append(h.var)
                collect(h.body)
            elif hasattr(h, "body"):
                names.append(getattr(h, "var", None))
                collect(h.body)
            elif isinstance(h, Or):
                collect(h.left)
                collect(h.right)

    collect(p.query)
    assert len(names) == 3 and len(set(names)) == 3
    assert all("$" in n for n in names)


def binders(f):
    """The variables bound in f, a name once for each binder."""
    names = []
    for h in f:
        _, subs, var = head_parts(h)
        names += [var] if var is not None else []
        for sub in subs:
            names += binders(sub)
    return names


def test_binder_names_are_unique_in_a_unit_and_apart_from_engine_names():
    # closedness checks rely on this: no environment an operand is checked
    # under holds one of the operand's own binders
    programs = [load((CORPUS / "queens8.fap").read_text()), load(
        "def p(u) := SOME k := 1 TO 2 DO u = k END AND EXISTS w . w = u;\n"
        "def r(v) := p(v) AND NOT (FORALL t . t = v);\n"
        "query r(x) AND SOME k := 1 TO 2 DO p(k) AND EXISTS w . w = k END;")]
    domain = FiniteDomain(0, 2, quantifiers=True)
    programs += [normalize_program(generate(GeneratorConfig(
        seed=seed, domain=domain, arrays_and_quantifiers=True))) for seed in range(40)]
    config = EngineConfig(report_internal_bindings=True, max_steps=20_000)
    made_any = False
    for p in programs:
        names = [n for proc in p.procedures for n in binders(proc.body)] + binders(p.query)
        assert len(names) == len(set(names))
        assert all(int(n.rsplit("$", 1)[1]) < p.fresh_base for n in names)
        made = {n for leaf in iter_leaves(p, config=config) if isinstance(leaf, Success)
                for n in leaf.valuation.scalars} - set(p.free_var_names())
        assert not made & set(names)
        made_any = made_any or bool(made)
    assert made_any


def test_normalize_idempotent_on_program_units():
    for seed in range(80):
        pu = generate(GeneratorConfig(seed=seed))
        once = normalize_program(pu)
        twice = normalize_program(once)
        assert once.query == twice.query
        assert once.procedures == twice.procedures


def test_normalize_idempotent_on_surface_text():
    p1 = normalize_program(
        parse_query("FORALL a . (a < 3 -> NOT NOT (EXISTS b . b = a)) AND TRUE")
    )
    p2 = normalize_program(p1)
    assert p1.query == p2.query


def test_normalize_preserves_free_vars():
    for seed in range(60):
        pu = generate(GeneratorConfig(seed=seed))
        assert free_vars(pu.query) == free_vars(normalize_program(pu).query)


def test_fresh_names_not_writable_in_surface_syntax():
    fresh = FreshNames()
    name = fresh.fresh("x")
    from fap.parser import Diagnostic, tokenize
    import pytest

    with pytest.raises(Diagnostic):
        tokenize(f"query {name} = 1;")


def test_empty_formula_normalizes_to_itself():
    assert normalize(EMPTY) == EMPTY


def test_atom_list_normalizes_to_itself():
    f = conj(TrueAtom(), Eq(X, IntConst(1)))
    assert normalize(f) == f


def test_roundtrip_fixpoint_on_generated_programs():
    for seed in range(120):
        pu = generate(GeneratorConfig(seed=seed))
        once = format_program(parse(format_program(pu)))
        twice = format_program(parse(once))
        assert once == twice


def test_roundtrip_fixpoint_on_normalized_programs():
    for seed in range(120):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        text = format_program(pu)
        once = format_program(parse(text))
        twice = format_program(parse(once))
        assert once == twice


def _assert_program_form(f):
    """No unbounded universal quantifier and no doubled negation anywhere."""
    from fap.formulas import Cons, ExistsBounded, ForallBounded, Implies, Not, Or

    for h in f:
        assert not isinstance(h, Forall)
        if isinstance(h, Not):
            body = h.body
            assert not (
                isinstance(body, Cons)
                and isinstance(body.head, Not)
                and body.tail.is_empty()
            )
            _assert_program_form(h.body)
        elif isinstance(h, Or):
            _assert_program_form(h.left)
            _assert_program_form(h.right)
        elif isinstance(h, Implies):
            _assert_program_form(h.antecedent)
            _assert_program_form(h.consequent)
        elif isinstance(h, (Exists, ExistsBounded, ForallBounded)):
            _assert_program_form(h.body)


def test_normal_form_bans_forall_and_double_negation():
    sources = [
        "FORALL a . FORALL b . a = b -> b = a",
        "NOT NOT (x = 1)",
        "FORALL a . NOT (a = 0)",
        "(NOT NOT (x = 1) OR FORALL c . c < 1) AND NOT (NOT NOT (x = 2))",
    ]
    for src in sources:
        _assert_program_form(normalize_program(parse_query(src)).query)
    for seed in range(80):
        _assert_program_form(normalize_program(generate(GeneratorConfig(seed=seed))).query)


def test_normalized_text_reparses_to_equivalent_program():
    # printing strips the reserved marks; re-loading and re-printing must
    # reproduce the same surface text even though internal names differ
    for seed in range(60):
        pu = normalize_program(generate(GeneratorConfig(seed=seed)))
        text = format_program(pu)
        again = format_program(normalize_program(parse(text)))
        assert format_program(normalize_program(parse(again))) == again
