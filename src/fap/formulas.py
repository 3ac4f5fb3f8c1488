"""Sorted abstract syntax for the formula language.

Formulas are kept in program form: every formula is a right-associated
conjunction list terminated by the empty conjunction, and each conjunct is an
atom, a connective over sub-formulas, or a quantifier.  The module also holds
term/formula substitution, free-variable collection and the pretty printer
used for .fap round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping


class Scalar(Enum):
    INT = "int"
    BOOL = "bool"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ArraySort:
    """Sort of an array symbol: index arity plus scalar element sort."""

    index_arity: int
    element: Scalar

    def __post_init__(self) -> None:
        if self.index_arity < 1:
            raise ValueError("array index arity must be >= 1")


Sort = Scalar | ArraySort

# Reserved character: names containing it cannot be written in surface syntax,
# so normalizer/engine-generated bound variables never collide with user names.
FRESH_MARK = "$"


# ---------------------------------------------------------------------------
# Terms

FUNCTIONS = ("+", "-", "*", "div", "mod")
RELATIONS = ("<", "<=", ">", ">=", "<>")


class Term:
    pass


@dataclass(frozen=True)
class IntConst(Term):
    value: int


@dataclass(frozen=True)
class BoolConst(Term):
    value: bool


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Scalar = Scalar.INT


@dataclass(frozen=True)
class App(Term):
    """Application of one of the fixed integer functions: + - * div mod."""

    op: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.op not in FUNCTIONS:
            raise ValueError(f"unknown function symbol {self.op!r}")
        if len(self.args) != 2:
            raise ValueError(f"{self.op} expects 2 arguments")


@dataclass(frozen=True)
class ArrayRef(Term):
    array: str
    indices: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Atoms (head formulas of the simplest kind)


class Head:
    """A single conjunct of a program-form formula."""


class Atom(Head):
    pass


@dataclass(frozen=True)
class Eq(Atom):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Rel(Atom):
    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in RELATIONS:
            raise ValueError(f"unknown relation symbol {self.op!r}")


@dataclass(frozen=True)
class Call(Atom):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class TrueAtom(Atom):
    pass


@dataclass(frozen=True)
class FalseAtom(Atom):
    pass


TRUE = TrueAtom()
FALSE = FalseAtom()


# ---------------------------------------------------------------------------
# Formulas: right-associated conjunction lists


class Formula:
    def __iter__(self) -> Iterator[Head]:
        f = self
        while isinstance(f, Cons):
            yield f.head
            f = f.tail

    def is_empty(self) -> bool:
        return isinstance(self, Empty)


@dataclass(frozen=True)
class Empty(Formula):
    pass


@dataclass(frozen=True)
class Cons(Formula):
    head: Head
    tail: Formula


EMPTY = Empty()


def conj(*heads: Head) -> Formula:
    """Build the right-associated conjunction of the given heads."""
    f: Formula = EMPTY
    for h in reversed(heads):
        f = Cons(h, f)
    return f


def concat(a: Formula, b: Formula) -> Formula:
    """a followed by b; b's spine is shared, a's is rebuilt on top of it."""
    if isinstance(b, Empty):
        return a
    f = b
    for h in reversed(list(a)):
        f = Cons(h, f)
    return f


@dataclass(frozen=True)
class Or(Head):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Head):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Head):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Not(Head):
    body: Formula


@dataclass(frozen=True)
class Exists(Head):
    var: str
    sort: Scalar
    body: Formula


@dataclass(frozen=True)
class Forall(Head):
    """Unbounded universal quantifier; surface-only, removed by normalization."""

    var: str
    sort: Scalar
    body: Formula


@dataclass(frozen=True)
class ExistsBounded(Head):
    var: str
    lo: Term
    hi: Term
    body: Formula


@dataclass(frozen=True)
class ForallBounded(Head):
    var: str
    lo: Term
    hi: Term
    body: Formula


# ---------------------------------------------------------------------------
# Declarations and program units


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    ranges: tuple[tuple[int, int], ...]
    element: Scalar

    @property
    def sort(self) -> ArraySort:
        return ArraySort(len(self.ranges), self.element)

    def in_range(self, indices: tuple[int, ...]) -> bool:
        return len(indices) == len(self.ranges) and all(
            lo <= i <= hi for i, (lo, hi) in zip(indices, self.ranges)
        )


@dataclass(frozen=True)
class ProcedureDef:
    name: str
    params: tuple[tuple[str, Scalar], ...]
    body: Formula


@dataclass(frozen=True)
class ProgramUnit:
    arrays: tuple[ArrayDecl, ...] = ()
    procedures: tuple[ProcedureDef, ...] = ()
    query: Formula = EMPTY
    free_vars: tuple[tuple[str, Scalar], ...] = ()
    normalized: bool = False
    fresh_base: int = 1

    def array(self, name: str) -> ArrayDecl | None:
        for a in self.arrays:
            if a.name == name:
                return a
        return None

    def procedure(self, name: str) -> ProcedureDef | None:
        for p in self.procedures:
            if p.name == name:
                return p
        return None

    def free_var_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.free_vars)


# ---------------------------------------------------------------------------
# Traversals


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    elif isinstance(t, App):
        for a in t.args:
            yield from term_vars(a)
    elif isinstance(t, ArrayRef):
        for a in t.indices:
            yield from term_vars(a)


def atom_terms(a: Atom) -> tuple[Term, ...]:
    if isinstance(a, (Eq, Rel)):
        return (a.lhs, a.rhs)
    if isinstance(a, Call):
        return a.args
    return ()


def head_parts(h: Head) -> tuple[tuple[Term, ...], tuple[Formula, ...], str | None]:
    """What h is made of, in written order: the terms it reads outside its
    binder, its sub-formulas, and the variable it binds (or None)."""
    if isinstance(h, (Eq, Rel)):
        return (h.lhs, h.rhs), (), None
    if isinstance(h, Call):
        return h.args, (), None
    if isinstance(h, (TrueAtom, FalseAtom)):
        return (), (), None
    if isinstance(h, (Or, And)):
        return (), (h.left, h.right), None
    if isinstance(h, Implies):
        return (), (h.antecedent, h.consequent), None
    if isinstance(h, Not):
        return (), (h.body,), None
    if isinstance(h, (Exists, Forall)):
        return (), (h.body,), h.var
    if isinstance(h, (ExistsBounded, ForallBounded)):
        return (h.lo, h.hi), (h.body,), h.var
    raise TypeError(f"unknown head {h!r}")


def term_args(t: Term) -> tuple[Term, ...]:
    """The terms directly inside t: the indices of an array reference, the
    arguments of an application."""
    if isinstance(t, (Var, IntConst, BoolConst)):
        return ()
    return t.indices if isinstance(t, ArrayRef) else t.args


def subterms(t: Term) -> Iterator[Term]:
    """t and the terms inside it, in preorder."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        todo += reversed(term_args(t))


def free_vars(f: Formula) -> tuple[str, ...]:
    """Free scalar variable names of f, ordered by first occurrence."""
    out: dict[str, None] = {}  # an ordered set: a list would make this quadratic

    def walk(f: Formula, bound: frozenset[str]) -> None:
        for h in f:
            terms, subs, var = head_parts(h)
            for t in terms:
                for v in term_vars(t):
                    if v.name not in bound:
                        out[v.name] = None
            for sub in subs:
                walk(sub, bound if var is None else bound | {var})

    walk(f, frozenset())
    return tuple(out)


def array_names(f: Formula) -> set[str]:
    names: set[str] = set()
    for h in f:
        terms, subs, _ = head_parts(h)
        names.update(s.array for t in terms for s in subterms(t) if isinstance(s, ArrayRef))
        for sub in subs:
            names |= array_names(sub)
    return names


# ---------------------------------------------------------------------------
# Substitution (free occurrences only)


def subst_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.op, tuple(subst_term(a, mapping) for a in t.args))
    if isinstance(t, ArrayRef):
        return ArrayRef(t.array, tuple(subst_term(a, mapping) for a in t.indices))
    return t


def subst_head(h: Head, mapping: Mapping[str, Term]) -> Head:
    if isinstance(h, Eq):
        return Eq(subst_term(h.lhs, mapping), subst_term(h.rhs, mapping))
    if isinstance(h, Rel):
        return Rel(h.op, subst_term(h.lhs, mapping), subst_term(h.rhs, mapping))
    if isinstance(h, Call):
        return Call(h.name, tuple(subst_term(a, mapping) for a in h.args))
    if isinstance(h, (TrueAtom, FalseAtom)):
        return h
    if isinstance(h, Or):
        return Or(subst_formula(h.left, mapping), subst_formula(h.right, mapping))
    if isinstance(h, And):
        return And(subst_formula(h.left, mapping), subst_formula(h.right, mapping))
    if isinstance(h, Implies):
        return Implies(
            subst_formula(h.antecedent, mapping), subst_formula(h.consequent, mapping)
        )
    if isinstance(h, Not):
        return Not(subst_formula(h.body, mapping))
    if isinstance(h, (Exists, Forall)):
        inner = {k: v for k, v in mapping.items() if k != h.var}
        body = subst_formula(h.body, inner) if inner else h.body
        return type(h)(h.var, h.sort, body)
    if isinstance(h, (ExistsBounded, ForallBounded)):
        lo = subst_term(h.lo, mapping)
        hi = subst_term(h.hi, mapping)
        inner = {k: v for k, v in mapping.items() if k != h.var}
        body = subst_formula(h.body, inner) if inner else h.body
        return type(h)(h.var, lo, hi, body)
    raise TypeError(f"unknown head {h!r}")


def subst_formula(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    if not mapping:
        return f
    return conj(*(subst_head(h, mapping) for h in f))


# ---------------------------------------------------------------------------
# Pretty printing.  Output re-parses to the same structure; normalizer-fresh
# bound names are stripped back to their surface base (avoiding capture), so
# printing a normalized program yields legal surface text.

_TERM_ADD, _TERM_MUL, _TERM_ATOM = 1, 2, 3
_MUL_OPS = ("*", "div", "mod")


def format_term(t: Term) -> str:
    return _fmt_term(t, _TERM_ADD)


def _fmt_term(t: Term, level: int) -> str:
    if isinstance(t, IntConst):
        s = str(t.value)
        return f"({s})" if t.value < 0 and level >= _TERM_MUL else s
    if isinstance(t, BoolConst):
        return "TRUE" if t.value else "FALSE"
    if isinstance(t, Var):
        return _surface_name(t.name)
    if isinstance(t, ArrayRef):
        return f"{t.array}[{', '.join(_fmt_term(i, _TERM_ADD) for i in t.indices)}]"
    if isinstance(t, App):
        own = _TERM_MUL if t.op in _MUL_OPS else _TERM_ADD
        lhs = _fmt_term(t.args[0], own)
        # left-associative: the right operand needs parens at the same level
        rhs = _fmt_term(t.args[1], own + 1)
        text = f"{lhs} {t.op} {rhs}"
        return f"({text})" if own < level else text
    raise TypeError(f"unknown term {t!r}")


def _surface_name(name: str) -> str:
    return name.split(FRESH_MARK, 1)[0] if FRESH_MARK in name else name


def format_formula(f: Formula) -> str:
    """f as surface text."""
    heads = list(f)
    last = len(heads) - 1
    parts = (format_head(h, last > 0, i == last) for i, h in enumerate(heads))
    return " AND ".join(parts) or "TRUE"


def _fmt_operand(f: Formula) -> str:
    """An operand of OR / ->: parenthesized unless it is a single tight head."""
    heads = list(f)
    if len(heads) == 1 and isinstance(
        heads[0], (Atom, Not, ExistsBounded, ForallBounded)
    ):
        return format_head(heads[0], in_conj=False, last=True)
    return f"({format_formula(f)})"


def format_head(h: Head, in_conj: bool, last: bool) -> str:
    """One conjunct as text, `in_conj` among others and `last` among them."""
    if isinstance(h, Eq):
        return f"{format_term(h.lhs)} = {format_term(h.rhs)}"
    if isinstance(h, Rel):
        return f"{format_term(h.lhs)} {h.op} {format_term(h.rhs)}"
    if isinstance(h, Call):
        return f"{h.name}({', '.join(format_term(a) for a in h.args)})"
    if isinstance(h, TrueAtom):
        return "TRUE"
    if isinstance(h, FalseAtom):
        return "FALSE"
    if isinstance(h, Or):
        # right-nested ORs print flat; anything else gets parens
        parts = [_fmt_operand(h.left)]
        rest: Formula | Head = h
        while True:
            right = rest.right  # type: ignore[union-attr]
            rheads = list(right)
            if len(rheads) == 1 and isinstance(rheads[0], Or):
                parts.append(_fmt_operand(rheads[0].left))
                rest = rheads[0]
            else:
                parts.append(_fmt_operand(right))
                break
        text = " OR ".join(parts)
        return f"({text})" if in_conj else text
    if isinstance(h, And):
        text = f"({format_formula(h.left)}) AND ({format_formula(h.right)})"
        return f"({text})" if in_conj else text
    if isinstance(h, Implies):
        text = f"{_fmt_operand(h.antecedent)} -> {_fmt_operand(h.consequent)}"
        return f"({text})" if in_conj else text
    if isinstance(h, Not):
        return f"NOT {_fmt_operand(h.body)}"
    if isinstance(h, (Exists, Forall)):
        name, body = format_scope(h.var, h.body)
        kw = "EXISTS" if isinstance(h, Exists) else "FORALL"
        ann = "" if h.sort is Scalar.INT else f" : {h.sort}"
        text = f"{kw} {name}{ann} . {body}"
        # quantifier scope runs maximally right: parenthesize unless final
        return f"({text})" if in_conj and not last else text
    if isinstance(h, (ExistsBounded, ForallBounded)):
        name, body = format_scope(h.var, h.body)
        kw = "SOME" if isinstance(h, ExistsBounded) else "FOR"
        return f"{kw} {name} := {format_term(h.lo)} TO {format_term(h.hi)} DO {body} END"
    raise TypeError(f"unknown head {h!r}")


def format_scope(var: str, body: Formula) -> tuple[str, str]:
    """The printed name of a binder of var over body, avoiding capture, and
    the text of the body under that name."""
    base = _surface_name(var)
    taken = {_surface_name(n) for n in free_vars(body) if n != var}
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    if name != var:
        body = subst_formula(body, {var: Var(name)})
    return name, format_formula(body)


def format_program(p: ProgramUnit) -> str:
    lines: list[str] = []
    for a in p.arrays:
        ranges = ", ".join(f"{lo}..{hi}" for lo, hi in a.ranges)
        lines.append(f"array {a.name}[{ranges}] : {a.element};")
    for proc in p.procedures:
        params = ", ".join(
            n if s is Scalar.INT else f"{n} : {s}" for n, s in proc.params
        )
        lines.append(f"def {proc.name}({params}) := {format_formula(proc.body)};")
    lines.append(f"query {format_formula(p.query)};")
    return "\n".join(lines) + "\n"
