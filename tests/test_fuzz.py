"""Token soup never crashes the front end: parse + normalize_program give a
ProgramUnit or a positioned Diagnostic, never another exception."""

from hypothesis import given, settings, strategies as st

from fap.normalize import normalize_program
from fap.parser import _PUNCT, KEYWORDS, Diagnostic, parse

# every keyword and punctuation mark, names of each kind, literals, and
# characters the lexer rejects
TOKENS = sorted(KEYWORDS) + _PUNCT + ["x", "y", "p", "a", "_v", "0", "1", "7", "12", "?", "#"]
# openings that make a soup more likely to reach the sort checker and
# normalization
PREFIXES = ["", "query ", "def p(x) := ", "array a[1..2] : int; query ",
            "def p(x : bool) := x = TRUE; query "]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(PREFIXES), st.lists(st.sampled_from(TOKENS), max_size=30),
       st.booleans())
def test_token_soup_is_a_program_or_a_diagnostic(prefix, tokens, close):
    source = prefix + " ".join(tokens) + (" ;" if close else "")
    try:
        program = parse(source)
    except Diagnostic as diag:
        assert diag.line >= 0 and diag.col >= 0
        return
    assert normalize_program(program).normalized
