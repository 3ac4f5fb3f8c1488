"""Token soup never crashes fap: parse + normalize_program give a ProgramUnit
or a positioned Diagnostic, never another exception, and every soup that
parses is solved under every search mode without raising."""

from hypothesis import given, settings, strategies as st

from fap.engine import EngineConfig, ImplicationMode, NegationMode, SolveResult, solve
from fap.normalize import normalize_program
from fap.parser import _PUNCT, KEYWORDS, Diagnostic, parse

# every keyword and punctuation mark, names of each kind, literals, and
# characters the lexer rejects
TOKENS = sorted(KEYWORDS) + _PUNCT + ["x", "y", "p", "a", "_v", "0", "1", "7", "12", "?", "#"]
# openings that make a soup more likely to reach the sort checker and
# normalization
PREFIXES = ["", "query ", "def p(x) := ", "array a[1..2] : int; query ",
            "def p(x : bool) := x = TRUE; query "]
# negation x implication, plus pedantic on the two strict-implication modes
MODES = tuple(
    EngineConfig(negation=neg, implication=impl, pedantic=pedantic, max_steps=200)
    for neg in NegationMode
    for impl in ImplicationMode
    for pedantic in ((False, True) if impl is ImplicationMode.STRICT else (False,))
)
SOUPS = (st.sampled_from(PREFIXES), st.lists(st.sampled_from(TOKENS), max_size=30),
         st.booleans())


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(*SOUPS)
def test_token_soup_is_a_program_or_a_diagnostic(prefix, tokens, close):
    source = prefix + " ".join(tokens) + (" ;" if close else "")
    try:
        program = parse(source)
    except Diagnostic as diag:
        assert diag.line >= 0 and diag.col >= 0
        return
    assert normalize_program(program).normalized


# Few token soups parse, so programs are also put together from the
# grammar's pieces: terms with every function, array cells in and out of
# range, calls, every connective and quantifier.  Most of them parse.
TERMS = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "2", "-1", "a[0]", "a[3]"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "div", "mod"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda t: f"a[{t}]"),
    ),
    max_leaves=4,
)
ATOMS = st.one_of(
    st.tuples(TERMS, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), TERMS).map(" ".join),
    st.sampled_from(["TRUE", "FALSE", "q(TRUE)"]),
    TERMS.map(lambda t: f"p({t})"),
)
FORMULAS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR", "->"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda f: f"NOT ({f})"),
        st.tuples(st.sampled_from(["EXISTS", "FORALL"]), st.sampled_from(["x", "w"]), inner).map(
            lambda t: f"({t[0]} {t[1]} . {t[2]})"),
        st.tuples(st.sampled_from(["SOME", "FOR"]), TERMS, TERMS, inner).map(
            lambda t: f"{t[0]} x := {t[1]} TO {t[2]} DO {t[3]} END"),
    ),
    max_leaves=8,
)
DECLARATIONS = ("array a[0..2] : int;\ndef p(u) := u = 1 OR a[u] = u;\n"
                "def q(v : bool) := v = TRUE OR NOT p(1);\n")


def solves_in_every_mode(source: str) -> bool:
    """Whether source parses; when it does, solve it under every mode."""
    try:
        program = normalize_program(parse(source))
    except Diagnostic:
        return False
    for config in MODES:
        assert isinstance(solve(program, config=config), SolveResult)
    return True


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(*SOUPS)
def test_token_soup_that_parses_is_solved_in_every_mode(prefix, tokens, close):
    solves_in_every_mode(prefix + " ".join(tokens) + (" ;" if close else ""))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(FORMULAS)
def test_grammar_programs_are_solved_in_every_mode(formula):
    solves_in_every_mode(f"{DECLARATIONS}query {formula};")
