"""fap.parser.tokenize against the character-loop lexer it replaced
(lexer_reference.py): the same (kind, text, line, col) tokens or the same
Diagnostic.  The one change between them is the digit class: a number is a
run of decimal digits (str.isdecimal), which int() reads, where it was a
run of str.isdigit characters, so a digit such as "²" made int() fail."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fap.formulas import Eq, IntConst, format_program
from fap.oracle import GeneratorConfig, generate
from fap.parser import _PUNCT, KEYWORDS, SYNTAX, Diagnostic, parse, tokenize
from lexer_reference import PUNCT, reference_tokenize

ROOT = Path(__file__).resolve().parent.parent

# every keyword and punctuation mark; letters and digits of several scripts,
# among them digits that are not decimal ("²", "½", "Ⅷ"); white space the
# lexer skips and some it rejects; comments, and other stray characters
PIECES = sorted(KEYWORDS) + _PUNCT + [
    "x", "_v", "é", "Å", "五", "0", "7", "12", "١", "٣٤", "²", "½", "Ⅷ",
    " ", "\t", "\n", "\r\n", "\r", "\x0b", "\xa0", "# note", "#", "?", "$",
]
SOURCES = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.text(alphabet="".join(sorted(set("".join(PIECES)))), max_size=40),
)


def outcome(lex, source: str):
    """lex's (kind, text, line, col) tuples for source, or its Diagnostic."""
    try:
        return [t if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col)
                for t in lex(source)]
    except Diagnostic as d:
        return ("diagnostic", d.kind, d.message, d.line, d.col)


def decimal_reference(source: str):
    return reference_tokenize(source, str.isdecimal)


def test_the_reference_knows_every_punctuation_mark():
    assert PUNCT == _PUNCT


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(SOURCES)
@example("query x = 1; # a comment at the end of the file")
@example("query x\r\n  = y;\r\n# last line\r\n#")
@example("query x = ²;")
@example("query x = 1²;")
@example("query é١ = ١٢ AND x² = ½;")
def test_tokens_match_the_reference_with_decimal_digits(source):
    assert outcome(tokenize, source) == outcome(decimal_reference, source)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(SOURCES)
@example("query é١ = ١٢ AND x_٣ = 0; # ١")
def test_tokens_match_the_reference_as_it_was_without_other_digits(source):
    # with no digit but decimal ones, the digit class makes no difference
    source = "".join(c for c in source if c.isdecimal() or not c.isdigit())
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def test_programs_lex_as_the_reference_lexes_them():
    texts = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("corpus/*.fap"))]
    texts += [format_program(generate(GeneratorConfig(seed=s, max_depth=5))) for s in range(50)]
    for text in texts:
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_a_digit_that_is_not_decimal_is_an_unexpected_character():
    # it used to be lexed as a number, and int() raised ValueError on it
    with pytest.raises(Diagnostic) as info:
        parse("query x = ²;")
    d = info.value
    assert (d.kind, d.message, d.line, d.col) == (SYNTAX, "unexpected character '²'", 1, 11)


def test_decimal_digits_of_any_script_are_a_number():
    (head,) = parse("query x = ١٢;").query
    assert head == Eq(head.lhs, IntConst(12))
