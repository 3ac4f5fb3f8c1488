"""A reference lexer: the character loop fap.parser.tokenize was before it
was made fast, kept as it was except that the test of a digit is a
parameter.  It was written with str.isdigit, which also holds for digits
that int() cannot read, such as "²"; the lexer now takes a number to be a
run of str.isdecimal characters, so it is compared to
reference_tokenize(source, str.isdecimal), and to this lexer as it was on
text without such digits."""

from __future__ import annotations

from typing import Callable

from fap.parser import KEYWORDS, SYNTAX, Diagnostic

PUNCT = ["..", ":=", "->", "<=", ">=", "<>", "(", ")", "[", "]", ",", ";",
         ":", ".", "=", "<", ">", "+", "-", "*"]


def reference_tokenize(
    source: str, is_digit: Callable[[str], bool] = str.isdigit
) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token of source, then "eof"."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if is_digit(c):
            j = i
            while j < n and is_digit(source[j]):
                j += 1
            tokens.append(("number", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append((p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise Diagnostic(SYNTAX, f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens
