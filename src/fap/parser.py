"""Lexer, recursive-descent parser and sort checker for .fap program text.

A program is `array` declarations, then `def` procedure definitions, then a
single `query`; see docs/language.md for the grammar.  parse() returns a
sort-checked (but not yet normalized) ProgramUnit, or raises Diagnostic with a
line/column position.  Static errors are a different thing from runtime error
leaves: a file that parses cleanly can still produce error leaves when run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    ArrayDecl,
    ArrayRef,
    App,
    BoolConst,
    Call,
    Eq,
    Exists,
    ExistsBounded,
    FALSE,
    Forall,
    ForallBounded,
    Formula,
    Head,
    Implies,
    IntConst,
    Not,
    Or,
    ProcedureDef,
    ProgramUnit,
    Rel,
    Scalar,
    TRUE,
    Term,
    TrueAtom,
    FalseAtom,
    Var,
    conj,
    concat,
    free_vars,
    head_parts,
    subterms,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | keyword text | punct text | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
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
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("number", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise Diagnostic(SYNTAX, f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# Every walk over formulas and terms recurses once per level, some through
# several frames, so inputs nest at most this deep: as written (NOT, bodies,
# parentheses, indices; counted while parsing) and as built (checked after
# parsing by _check_depth, where a + b + c nests one sum in the other).
_MAX_NESTING = 150
_TOO_DEEP = "nesting too deep"


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, kind: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if kind is not None and t.kind != kind:
            raise Diagnostic(SYNTAX, f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def take(self, kind: str) -> Token:
        t = self.peek(kind)
        self.pos += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.take(kind)
        return None

    def fail(self, message: str) -> Diagnostic:
        t = self.peek()
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
        neg = self.accept("-") is not None
        t = self.take("number")
        v = int(t.text)
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
            f = conj(Implies(part, f))
        return f

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.accept("OR"):
            parts.append(self.conjunction())
        f = parts[-1]
        for part in reversed(parts[:-1]):
            f = conj(Or(part, f))
        return f

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.accept("AND"):
            parts.append(self.unary())
        # joined from the right: each part's spine is rebuilt once
        f = parts.pop()
        for part in reversed(parts):
            f = concat(part, f)
        return f

    def unary(self) -> Formula:
        self.nest()
        try:
            if self.accept("NOT"):
                return conj(Not(self.unary()))
            if self.at("EXISTS") or self.at("FORALL"):
                kw = self.take(self.peek().kind)
                name = self.binder_name()
                sort = self.scalar_sort() if self.accept(":") else Scalar.INT
                self.take(".")
                body = self.formula()
                cls = Exists if kw.kind == "EXISTS" else Forall
                return conj(cls(name, sort, body))
            if self.at("SOME") or self.at("FOR"):
                kw = self.take(self.peek().kind)
                name = self.binder_name()
                self.take(":=")
                lo = self.term()
                self.take("TO")
                hi = self.term()
                self.take("DO")
                body = self.formula()
                self.take("END")
                cls = ExistsBounded if kw.kind == "SOME" else ForallBounded
                return conj(cls(name, lo, hi, body))
            return self.primary()
        finally:
            self.depth -= 1

    def binder_name(self) -> str:
        t = self.take("ident")
        return t.text

    def primary(self) -> Formula:
        # try `term relop term` first, then the formula-shaped alternatives
        mark = self.pos
        try:
            lhs = self.term()
            op = self.peek().kind
            if op == "=":
                self.take("=")
                return conj(Eq(lhs, self.term()))
            if op in ("<", "<=", ">", ">=", "<>"):
                self.take(op)
                return conj(Rel(op, lhs, self.term()))
        except Diagnostic as diag:
            if diag.message == _TOO_DEEP:
                raise
        self.pos = mark
        if self.at("TRUE"):
            self.take("TRUE")
            return conj(TRUE)
        if self.at("FALSE"):
            self.take("FALSE")
            return conj(FALSE)
        if self.at("ident") and self.tokens[self.pos + 1].kind == "(":
            t = self.take("ident")
            args = self.call_args()
            return conj(Call(t.text, args))
        if self.accept("("):
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
        try:
            t = self.addend()
            while self.at("+") or self.at("-"):
                op = self.take(self.peek().kind)
                t = App(op.kind, (t, self.addend()))
            return t
        finally:
            self.depth -= 1

    def addend(self) -> Term:
        t = self.factor()
        while self.at("*") or self.at("div") or self.at("mod"):
            op = self.take(self.peek().kind)
            t = App(op.kind, (t, self.factor()))
        return t

    def factor(self) -> Term:
        if self.at("number"):
            return IntConst(int(self.take("number").text))
        if self.accept("-"):
            t = self.take("number")
            return IntConst(-int(t.text))
        if self.at("TRUE"):
            self.take("TRUE")
            return BoolConst(True)
        if self.at("FALSE"):
            self.take("FALSE")
            return BoolConst(False)
        if self.at("ident"):
            t = self.take("ident")
            if self.at("("):
                return _CallTerm(t.text, self.call_args(), t.line, t.col)
            if self.accept("["):
                indices = [self.term()]
                while self.accept(","):
                    indices.append(self.term())
                self.take("]")
                return ArrayRef(t.text, tuple(indices))
            return Var(t.text)
        if self.accept("("):
            t = self.term()
            self.take(")")
            return t
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


def _called_names(f: Formula, out: set[str]) -> None:
    for h in f:
        if isinstance(h, Call):
            out.add(h.name)
        terms, subs, _ = head_parts(h)
        out.update(s.name for t in terms for s in subterms(t) if isinstance(s, _CallTerm))
        for sub in subs:
            _called_names(sub, out)


def _check_acyclic(procs: list[tuple[ProcedureDef, Token]]) -> list[str]:
    """Return a topological order of procedure names, or raise CYCLE."""
    graph: dict[str, set[str]] = {}
    where: dict[str, Token] = {}
    for proc, tok in procs:
        callees: set[str] = set()
        _called_names(proc.body, callees)
        graph[proc.name] = callees
        where[proc.name] = tok
    order: list[str] = []
    state: dict[str, int] = {}  # 1 = visiting, 2 = done
    for root in graph:
        if state.get(root) == 2:
            continue
        # depth-first with an explicit stack of (name, its callees still to
        # visit), so a long chain of calls does not recurse
        state[root] = 1
        stack = [(root, iter(sorted(graph[root])))]
        while stack:
            name, callees = stack[-1]
            for callee in callees:
                if callee not in graph or state.get(callee) == 2:
                    continue  # an unknown callee is reported by the sort checker
                if state.get(callee) == 1:
                    tok = where[callee]
                    path = [n for n, _ in stack]
                    cyc = " -> ".join(path[path.index(callee):] + [callee])
                    raise Diagnostic(CYCLE, f"recursive procedure cycle: {cyc}", tok.line, tok.col)
                state[callee] = 1
                stack.append((callee, iter(sorted(graph[callee]))))
                break
            else:
                stack.pop()
                state[name] = 2
                order.append(name)
    return order


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
                self.err(
                    SORT,
                    f"procedure {h.name!r} expects {len(proc.params)} "
                    f"argument(s), got {len(h.args)}",
                )
            for arg, (pname, psort) in zip(h.args, proc.params):
                got = self.term_sort(arg, env, intro)
                if got is not psort:
                    self.err(SORT, f"argument {pname!r} of {h.name!r} needs {psort}, got {got}")
        elif isinstance(h, (TrueAtom, FalseAtom)):
            pass
        elif isinstance(h, (Or, Implies, Not)):
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
        if isinstance(t, IntConst):
            return Scalar.INT
        if isinstance(t, BoolConst):
            return Scalar.BOOL
        if isinstance(t, Var):
            if t.name not in env:
                self.check_clean_name(t.name)
                if not intro:
                    self.err(NAME, f"unknown variable {t.name!r}")
                env[t.name] = t.sort
            return env[t.name]
        if isinstance(t, App):
            for a in t.args:
                if self.term_sort(a, env, intro) is not Scalar.INT:
                    self.err(SORT, f"function {t.op!r} needs integer arguments")
            return Scalar.INT
        if isinstance(t, ArrayRef):
            decl = self.arrays.get(t.array)
            if decl is None:
                self.err(NAME, f"unknown array {t.array!r}")
            if len(t.indices) != len(decl.ranges):
                self.err(
                    SORT,
                    f"array {t.array!r} has {len(decl.ranges)} dimension(s), "
                    f"got {len(t.indices)} index(es)",
                )
            for i in t.indices:
                if self.term_sort(i, env, intro) is not Scalar.INT:
                    self.err(SORT, "array indices must be integers")
            return decl.element
        if isinstance(t, _CallTerm):
            if t.name not in self.procs:
                raise Diagnostic(NAME, f"unknown procedure {t.name!r}", t.line, t.col)
            raise Diagnostic(
                SORT, f"procedure {t.name!r} used as a term", t.line, t.col
            )
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
    _check_acyclic(proc_list)

    checker = _SortChecker(arrays, procs)
    for proc, tok in proc_list:
        checker.where = tok
        env = dict(proc.params)
        checker.check_formula(proc.body, env, may_introduce=False)
        body_free = set(free_vars(proc.body))
        loose = body_free - {p for p, _ in proc.params}
        if loose:
            raise Diagnostic(
                NAME,
                f"procedure {proc.name!r} uses undeclared variable(s) "
                f"{', '.join(sorted(loose))}",
                tok.line,
                tok.col,
            )

    checker.where = query_tok
    env: dict[str, Scalar] = {}
    checker.check_formula(query, env, may_introduce=True)
    order = free_vars(query)
    return ProgramUnit(
        arrays=tuple(array_list),
        procedures=tuple(p for p, _ in proc_list),
        query=query,
        free_vars=tuple((n, env[n]) for n in order),
    )


def parse_query(source: str) -> ProgramUnit:
    """Parse a bare formula as the query of an otherwise empty program."""
    return parse(f"query {source};")
