"""Lexer, recursive-descent parser and sort checker for .fap program text.

A program is `array` declarations, then `def` procedure definitions, then a
single `query`; see docs/language.md for the grammar (a digit is a decimal
digit, str.isdecimal).  parse() reads a well-formed program without
backtracking and returns it sort-checked (not yet normalized), or raises a
Diagnostic with a line/column position; a program that parses can still
reach runtime error leaves.
"""

from __future__ import annotations


from .formulas import (
    ArrayDecl,
    ArrayRef,
    App,
    BoolConst,
    Call,
    Cons,
    EMPTY,
    Eq,
    Exists,
    ExistsBounded,
    FALSE,
    Forall,
    ForallBounded,
    Formula,
    FUNCTIONS,
    Head,
    Implies,
    IntConst,
    Not,
    Or,
    ProcedureDef,
    ProgramUnit,
    RELATIONS,
    Rel,
    Scalar,
    TRUE,
    Term,
    TrueAtom,
    FalseAtom,
    Var,
    concat,
    head_parts,
    record,
    term_args,
)

SYNTAX = "syntax"
SORT = "sort"
NAME = "name"
CYCLE = "cycle"


class Diagnostic(Exception):
    def __init__(self, kind: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {kind} error: {message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col


@record
class _CallTerm(Term):
    """Call-shaped term `p(...)`; only legal as a procedure atom, but parsed
    permissively so the cycle check can see self-references first."""

    name: str
    args: tuple[Term, ...]
    line: int = 0
    col: int = 0


KEYWORDS = {
    "AND", "OR", "NOT", "EXISTS", "FORALL", "SOME", "FOR", "TO", "DO", "END",
    "TRUE", "FALSE", "array", "def", "query", "int", "bool", "div", "mod",
}

_PUNCT = ["..", ":=", "->", "<=", ">=", "<>", "(", ")", "[", "]", ",", ";",
          ":", ".", "=", "<", ">", "+", "-", "*"]
# each mark maps to itself, so that an operator in a tree is one shared string
_PUNCT2 = {p: p for p in _PUNCT if len(p) == 2}
_PUNCT1 = frozenset(p for p in _PUNCT if len(p) == 1)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "number" | "ident" | keyword text | punct text | "eof"
        self.text = text
        self.line = line
        self.col = col


def tokenize(source: str) -> list[Token]:
    """The tokens of source, then "eof".  A number is a run of decimal digits
    (str.isdecimal, what int() reads); a name starts with a letter or "_" and
    goes on with letters, digits and "_" (str.isalnum)."""
    tokens: list[Token] = []
    append = tokens.append
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        j = i + 1
        if c == "\n":
            line += 1
            col = 0  # 1 after the step below
        elif c == " " or c == "\t" or c == "\r":
            pass
        elif c.isalpha() or c == "_":
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            append(Token(word if word in KEYWORDS else "ident", word, line, col))
        elif c.isdecimal():
            while j < n and source[j].isdecimal():
                j += 1
            append(Token("number", source[i:j], line, col))
        elif c == "#":  # to the end of the line, which keeps its column
            i = source.find("\n", i)
            if i < 0:
                break
            continue
        else:
            p = _PUNCT2.get(source[i:i + 2])
            if p is None:
                p = c
                if p not in _PUNCT1:
                    raise Diagnostic(SYNTAX, f"unexpected character {c!r}", line, col)
            j = i + len(p)
            append(Token(p, p, line, col))
        col += j - i
        i = j
    append(Token("eof", "", line, col))
    return tokens


# Every walk over formulas and terms recurses once per level, some through
# several frames, so inputs nest at most this deep: as written (NOT, bodies,
# parentheses, indices; counted while parsing) and as built (checked after
# parsing by _check_depth, where a + b + c nests one sum in the other).
_MAX_NESTING = 150
_TOO_DEEP = "nesting too deep"


# A term goes on after a parenthesis, a call or a truth value only with one
# of these tokens.
_TERM_GOES_ON = frozenset(("=", *RELATIONS, *FUNCTIONS))
_MUL_OPS = frozenset(("*", "div", "mod"))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.called: set[str] = set()  # the names called in the statement being read
        self.callees: dict[str, set[str]] = {}  # procedure -> self.called of its body
        self.after: dict[int, str] = {}  # index of a "(" -> kind of the token after its ")"
        opened: list[int] = []
        for i, t in enumerate(tokens):
            if t.kind == "(":
                opened.append(i)
            elif t.kind == ")" and opened:
                self.after[opened.pop()] = tokens[i + 1].kind

    # -- token plumbing ----------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def take(self, kind: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            raise Diagnostic(SYNTAX, f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def fail(self, message: str) -> Diagnostic:
        t = self.tokens[self.pos]
        return Diagnostic(SYNTAX, message, t.line, t.col)

    # -- program structure -------------------------------------------------

    def program(
        self,
    ) -> tuple[list[ArrayDecl], list[tuple[ProcedureDef, Token]], Formula, Token]:
        arrays: list[ArrayDecl] = []
        procs: list[tuple[ProcedureDef, Token]] = []
        while self.at("array"):
            arrays.append(self.array_decl())
        while self.at("def"):
            procs.append(self.proc_def())
        if self.at("array"):
            raise self.fail("array declarations must precede procedure definitions")
        query_tok = self.take("query")
        query = self.statement(query_tok)
        self.take(";")
        self.take("eof")
        return arrays, procs, query, query_tok

    def array_decl(self) -> ArrayDecl:
        self.take("array")
        name = self.take("ident")
        self.take("[")
        ranges = [self.range_bounds()]
        while self.accept(","):
            ranges.append(self.range_bounds())
        self.take("]")
        self.take(":")
        element = self.scalar_sort()
        self.take(";")
        return ArrayDecl(name.text, tuple(ranges), element)

    def range_bounds(self) -> tuple[int, int]:
        lo = self.signed_int()
        self.take("..")
        hi = self.signed_int()
        return lo, hi

    def signed_int(self) -> int:
        neg = self.accept("-")
        v = int(self.take("number").text)
        return -v if neg else v

    def scalar_sort(self) -> Scalar:
        if self.accept("int"):
            return Scalar.INT
        if self.accept("bool"):
            return Scalar.BOOL
        raise self.fail("expected 'int' or 'bool'")

    def proc_def(self) -> tuple[ProcedureDef, Token]:
        self.take("def")
        name = self.take("ident")
        self.take("(")
        params: list[tuple[str, Scalar]] = []
        if not self.at(")"):
            params.append(self.param())
            while self.accept(","):
                params.append(self.param())
        self.take(")")
        self.take(":=")
        body = self.statement(name)
        self.callees[name.text] = self.called
        self.take(";")
        return ProcedureDef(name.text, tuple(params), body), name

    def param(self) -> tuple[str, Scalar]:
        name = self.take("ident")
        sort = self.scalar_sort() if self.accept(":") else Scalar.INT
        return name.text, sort

    # -- formulas ------------------------------------------------------------

    def nest(self) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.fail(_TOO_DEEP)

    def statement(self, where: Token) -> Formula:
        """A definition body or the query, checked by _check_depth.  Each
        level of nesting takes a token of its own, so a formula of at most
        _MAX_NESTING tokens is not walked."""
        self.called = set()
        start = self.pos
        f = self.formula()
        if self.pos - start > _MAX_NESTING:
            _check_depth(f, where)
        return f

    def formula(self) -> Formula:
        parts = [self.disjunction()]
        while self.accept("->"):
            parts.append(self.disjunction())
        f = parts.pop()
        for part in reversed(parts):  # right associative
            f = Cons(Implies(part, f), EMPTY)
        return f

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.accept("OR"):
            parts.append(self.conjunction())
        f = parts.pop()
        for part in reversed(parts):
            f = Cons(Or(part, f), EMPTY)
        return f

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.accept("AND"):
            parts.append(self.unary())
        # joined from the right: a head is consed once, and a parenthesized
        # formula's spine is rebuilt once
        f: Formula = EMPTY
        for part in reversed(parts):
            f = concat(part, f) if isinstance(part, Formula) else Cons(part, f)
        return f

    def unary(self) -> Head | Formula:
        """One conjunct: a head, or the formula inside a parenthesis."""
        self.nest()
        kind = self.tokens[self.pos].kind
        if kind == "NOT":
            self.pos += 1
            body = self.unary()
            h = Not(body if isinstance(body, Formula) else Cons(body, EMPTY))
        elif kind == "EXISTS" or kind == "FORALL":
            self.pos += 1
            name = self.take("ident").text
            sort = self.scalar_sort() if self.accept(":") else Scalar.INT
            self.take(".")
            h = (Exists if kind == "EXISTS" else Forall)(name, sort, self.formula())
        elif kind == "SOME" or kind == "FOR":
            self.pos += 1
            name = self.take("ident").text
            self.take(":=")
            lo = self.term()
            self.take("TO")
            hi = self.term()
            self.take("DO")
            body = self.formula()
            self.take("END")
            h = (ExistsBounded if kind == "SOME" else ForallBounded)(name, lo, hi, body)
        else:
            h = self.primary()
        self.depth -= 1
        return h

    def primary(self) -> Head | Formula:
        """`term relop term`, else TRUE, FALSE, a call or `( formula )`.
        A parenthesis, call or truth value starts a term only if the token
        after it goes on with one; otherwise, and when a term reading fails,
        it is read as a formula."""
        tokens, mark = self.tokens, self.pos
        kind = tokens[mark].kind
        call = kind == "ident" and tokens[mark + 1].kind == "("
        if kind == "(":
            after = self.after.get(mark)  # None if it is never closed
        elif call:
            after = self.after.get(mark + 1)
        elif kind == "TRUE" or kind == "FALSE":
            after = tokens[mark + 1].kind
        else:
            after = None
        if after is None or after in _TERM_GOES_ON:
            depth = self.depth
            try:
                lhs = self.term()
                op = tokens[self.pos].kind
                if op == "=":
                    self.pos += 1
                    return Eq(lhs, self.term())
                if op in RELATIONS:
                    self.pos += 1
                    return Rel(op, lhs, self.term())
            except Diagnostic as diag:
                if diag.message == _TOO_DEEP:
                    raise
                self.depth = depth
            self.pos = mark
        # Nest as the term reading does, so that the nesting limit falls on
        # the same token however the input is read: a level here, one more
        # for the arguments of a call, and one at the token after "(".
        self.nest()
        if kind == "TRUE" or kind == "FALSE":
            self.pos += 1
            self.depth -= 1
            return TRUE if kind == "TRUE" else FALSE
        if call:
            self.pos += 1
            self.called.add(tokens[mark].text)
            args = self.call_args()
            self.depth -= 1
            return Call(tokens[mark].text, args)
        if kind == "(":
            self.pos += 1
            self.nest()
            self.depth -= 2
            f = self.formula()
            self.take(")")
            return f
        raise self.fail("expected a formula")

    def call_args(self) -> tuple[Term, ...]:
        self.take("(")
        args: list[Term] = []
        if not self.at(")"):
            args.append(self.term())
            while self.accept(","):
                args.append(self.term())
        self.take(")")
        return tuple(args)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        self.nest()
        t = self.addend()
        tokens = self.tokens
        while (op := tokens[self.pos].kind) == "+" or op == "-":
            self.pos += 1
            t = App(op, (t, self.addend()))
        self.depth -= 1
        return t

    def addend(self) -> Term:
        t = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos].kind) in _MUL_OPS:
            self.pos += 1
            t = App(op, (t, self.factor()))
        return t

    def factor(self) -> Term:
        t = self.tokens[self.pos]
        kind = t.kind
        self.pos += 1
        if kind == "number":
            return IntConst(int(t.text))
        if kind == "ident":
            if self.at("("):
                self.called.add(t.text)
                return _CallTerm(t.text, self.call_args(), t.line, t.col)
            if self.accept("["):
                indices = [self.term()]
                while self.accept(","):
                    indices.append(self.term())
                self.take("]")
                return ArrayRef(t.text, tuple(indices))
            return Var(t.text)
        if kind == "-":
            return IntConst(-int(self.take("number").text))
        if kind == "TRUE" or kind == "FALSE":
            return BoolConst(kind == "TRUE")
        if kind == "(":
            t = self.term()
            self.take(")")
            return t
        self.pos -= 1
        raise self.fail("expected a term")


# ---------------------------------------------------------------------------
# Semantic checks


def _check_depth(f: Formula, where: Token) -> None:
    """Reject f if it nests deeper than _MAX_NESTING, counting one level for
    each head or term inside another and three for FORALL, which
    normalization turns into NOT EXISTS NOT."""
    todo: list[tuple[Formula | Term, int]] = [(f, 0)]
    while todo:
        x, depth = todo.pop()
        if depth > _MAX_NESTING:
            raise Diagnostic(SYNTAX, _TOO_DEEP, where.line, where.col)
        if not isinstance(x, Formula):
            todo += ((t, depth + 1) for t in term_args(x))
            continue
        for h in x:
            terms, subs, _ = head_parts(h)
            inner = depth + (3 if isinstance(h, Forall) else 1)
            todo += ((part, inner) for part in (*terms, *subs))


def _check_acyclic(callees: dict[str, set[str]], where: dict[str, Token]) -> None:
    """Raise CYCLE if a procedure calls itself, directly or through others."""
    state: dict[str, int] = {}  # 1 = visiting, 2 = done
    for root in callees:
        if state.get(root) == 2:
            continue
        # depth-first with an explicit stack of (name, its callees still to
        # visit), so a long chain of calls does not recurse
        state[root] = 1
        stack = [(root, iter(sorted(callees[root])))]
        while stack:
            name, todo = stack[-1]
            for callee in todo:
                if callee not in callees or state.get(callee) == 2:
                    continue  # an unknown callee is reported by the sort checker
                if state.get(callee) == 1:
                    tok = where[callee]
                    path = [n for n, _ in stack]
                    cyc = " -> ".join(path[path.index(callee):] + [callee])
                    raise Diagnostic(CYCLE, f"recursive procedure cycle: {cyc}", tok.line, tok.col)
                state[callee] = 1
                stack.append((callee, iter(sorted(callees[callee]))))
                break
            else:
                stack.pop()
                state[name] = 2


class _SortChecker:
    def __init__(self, arrays: dict[str, ArrayDecl], procs: dict[str, ProcedureDef]):
        self.arrays = arrays
        self.procs = procs
        # diagnostics point at the definition being checked; the AST itself
        # carries no positions
        self.where = Token("eof", "", 0, 0)

    def check_formula(self, f: Formula, env: dict[str, Scalar],
                      may_introduce: bool) -> None:
        """env maps known variables to sorts.  When may_introduce is set,
        unknown variables default to INT and are added to env (query free
        variables); inside procedure bodies unknown variables are errors."""
        for h in f:
            self.check_head(h, env, may_introduce)

    def check_head(self, h: Head, env: dict[str, Scalar], intro: bool) -> None:
        if isinstance(h, Eq):
            ls = self.term_sort(h.lhs, env, intro)
            rs = self.term_sort(h.rhs, env, intro)
            if ls is not rs:
                self.err(SORT, f"'=' needs identical sorts, got {ls} and {rs}")
        elif isinstance(h, Rel):
            for side in (h.lhs, h.rhs):
                if self.term_sort(side, env, intro) is not Scalar.INT:
                    self.err(SORT, f"relation {h.op!r} needs integer operands")
        elif isinstance(h, Call):
            proc = self.procs.get(h.name)
            if proc is None:
                self.err(NAME, f"unknown procedure {h.name!r}")
            if len(h.args) != len(proc.params):
                self.err(SORT, f"procedure {h.name!r} expects {len(proc.params)} "
                               f"argument(s), got {len(h.args)}")
            for arg, (pname, psort) in zip(h.args, proc.params):
                got = self.term_sort(arg, env, intro)
                if got is not psort:
                    self.err(SORT, f"argument {pname!r} of {h.name!r} needs {psort}, got {got}")
        elif isinstance(h, (Or, Implies, Not, TrueAtom, FalseAtom)):
            for sub in head_parts(h)[1]:
                self.check_formula(sub, env, intro)
        elif isinstance(h, (Exists, Forall)):
            self.check_scoped(h.var, h.sort, h.body, env, intro)
        elif isinstance(h, (ExistsBounded, ForallBounded)):
            for side in (h.lo, h.hi):
                if self.term_sort(side, env, intro) is not Scalar.INT:
                    self.err(SORT, "quantifier bounds must be integers")
            self.check_scoped(h.var, Scalar.INT, h.body, env, intro)
        else:
            raise TypeError(f"unknown head {h!r}")

    def check_scoped(self, var: str, sort: Scalar, body: Formula,
                     env: dict[str, Scalar], intro: bool) -> None:
        self.check_clean_name(var)
        shadowed = env.get(var)
        env[var] = sort
        self.check_formula(body, env, intro)
        if shadowed is None:
            del env[var]
        else:
            env[var] = shadowed

    def term_sort(self, t: Term, env: dict[str, Scalar], intro: bool) -> Scalar:
        kind = type(t)
        if kind is Var:
            if t.name not in env:
                self.check_clean_name(t.name)
                if not intro:
                    self.err(NAME, f"unknown variable {t.name!r}")
                env[t.name] = t.sort
            return env[t.name]
        if kind is IntConst:
            return Scalar.INT
        if kind is App:
            for a in t.args:
                if self.term_sort(a, env, intro) is not Scalar.INT:
                    self.err(SORT, f"function {t.op!r} needs integer arguments")
            return Scalar.INT
        if kind is BoolConst:
            return Scalar.BOOL
        if kind is ArrayRef:
            decl = self.arrays.get(t.array)
            if decl is None:
                self.err(NAME, f"unknown array {t.array!r}")
            if len(t.indices) != len(decl.ranges):
                self.err(SORT, f"array {t.array!r} has {len(decl.ranges)} dimension(s), "
                               f"got {len(t.indices)} index(es)")
            for i in t.indices:
                if self.term_sort(i, env, intro) is not Scalar.INT:
                    self.err(SORT, "array indices must be integers")
            return decl.element
        if kind is _CallTerm:
            if t.name not in self.procs:
                raise Diagnostic(NAME, f"unknown procedure {t.name!r}", t.line, t.col)
            raise Diagnostic(SORT, f"procedure {t.name!r} used as a term", t.line, t.col)
        raise TypeError(f"unknown term {t!r}")

    def check_clean_name(self, name: str) -> None:
        if name in self.arrays:
            self.err(NAME, f"{name!r} is an array and needs indices")
        if name in self.procs:
            self.err(NAME, f"{name!r} is a procedure, not a variable")

    def err(self, kind: str, message: str) -> None:
        raise Diagnostic(kind, message, self.where.line, self.where.col)


def parse(source: str) -> ProgramUnit:
    """Parse and sort-check a full program.  Raises Diagnostic on any static
    error; never produces runtime error leaves."""
    parser = _Parser(tokenize(source))
    array_list, proc_list, query, query_tok = parser.program()

    arrays: dict[str, ArrayDecl] = {}
    for decl in array_list:
        if decl.name in arrays:
            raise Diagnostic(NAME, f"duplicate array {decl.name!r}", 0, 0)
        arrays[decl.name] = decl

    procs: dict[str, ProcedureDef] = {}
    for proc, tok in proc_list:
        if proc.name in procs:
            raise Diagnostic(NAME, f"duplicate procedure {proc.name!r}", tok.line, tok.col)
        if proc.name in arrays:
            raise Diagnostic(NAME, f"{proc.name!r} already names an array", tok.line, tok.col)
        seen: set[str] = set()
        for pname, _ in proc.params:
            if pname in seen:
                raise Diagnostic(NAME, f"duplicate parameter {pname!r}", tok.line, tok.col)
            seen.add(pname)
        procs[proc.name] = proc

    # cycle check first: self-referential definitions are reported as cycles
    # even when the reference sits in term position.
    _check_acyclic(parser.callees, {proc.name: tok for proc, tok in proc_list})

    checker = _SortChecker(arrays, procs)
    for proc, tok in proc_list:
        # every variable of a body is a parameter or bound in it: the
        # checker rejects any other
        checker.where = tok
        checker.check_formula(proc.body, dict(proc.params), may_introduce=False)

    checker.where = query_tok
    env: dict[str, Scalar] = {}
    checker.check_formula(query, env, may_introduce=True)
    return ProgramUnit(
        arrays=tuple(array_list),
        procedures=tuple(p for p, _ in proc_list),
        query=query,
        # the free variables, by first occurrence: the checker adds each
        # when it first meets it and removes bound ones after their scope
        free_vars=tuple(env.items()),
    )


def parse_query(source: str) -> ProgramUnit:
    """Parse a bare formula as the query of an otherwise empty program."""
    return parse(f"query {source};")
