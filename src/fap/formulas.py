"""Sorted abstract syntax for the formula language.

Formulas are kept in program form: every formula is a right-associated
conjunction list terminated by the empty conjunction, and each conjunct is an
atom, a connective over sub-formulas, or a quantifier.  The module also holds
term/formula substitution, free-variable collection and the pretty printer
used for .fap round trips, and `record`, which makes the package's record
classes cheaply at start-up.  Records keep their fields in slots, without a
dict each: corpora hold thousands of programs, and results pile up as well.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping


def record(cls: type | None = None, *, frozen: bool = True, slots: bool = True):
    """cls as a record of the fields its annotations name, in order, the
    class attributes of those names being their defaults: an __init__ that
    calls __post_init__ when cls has one, equality by class and fields, a
    hash of the field tuple when frozen, and the repr Name(field=value, ...),
    all as a frozen data class has them.  A frozen record refuses assignment.
    With slots, a record keeps no dict, and pickles and copies as the list
    of its field values.  _fields and __match_args__ name the fields.  Only
    the hot __init__, __eq__ and __hash__ are generated, one source a class."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    scope = {f"_default_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    if slots:
        ns = {k: v for k, v in cls.__dict__.items() if k not in (*names, "__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__, {**ns, "__slots__": names})
    params = [f"{n}=_default_{n}" if f"_default_{n}" in scope else n for n in names]
    if not frozen:
        body = [f"self.{n} = {n}" for n in names]
    elif slots:  # through the slot descriptors, not the refusing __setattr__
        scope.update({f"_set_{n}": cls.__dict__[n].__set__ for n in names})
        body = [f"_set_{n}(self, {n})" for n in names]
    else:
        body = [f"self.__dict__[{n!r}] = {n}" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine, theirs = ("".join(f"{who}.{n}," for n in names) for who in ("self", "other"))
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])
         + "\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({mine}))\n", scope)
    cls.__init__, cls.__eq__, cls.__repr__ = scope["__init__"], scope["__eq__"], _record_repr
    cls.__hash__ = scope["__hash__"] if frozen else None
    cls._fields = cls.__match_args__ = names
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse_change
    if slots:
        cls.__getstate__, cls.__setstate__ = _record_getstate, _record_setstate
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_change(self, name: str, *value) -> None:
    """__setattr__(name, value) and __delattr__(name) of a frozen record."""
    from dataclasses import FrozenInstanceError  # only on this error path

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record_getstate(self) -> list:
    return [getattr(self, n) for n in self._fields]


def _record_setstate(self, state: list) -> None:
    for n, v in zip(self._fields, state):
        object.__setattr__(self, n, v)


class Scalar(Enum):
    INT = "int"
    BOOL = "bool"

    def __str__(self) -> str:
        return self.value


# Reserved character: names containing it cannot be written in surface syntax,
# so normalizer/engine-generated bound variables never collide with user names.
FRESH_MARK = "$"


# ---------------------------------------------------------------------------
# Terms

FUNCTIONS = ("+", "-", "*", "div", "mod")
RELATIONS = ("<", "<=", ">", ">=", "<>")


class Term:
    __slots__ = ()


@record
class IntConst(Term):
    value: int


@record
class BoolConst(Term):
    value: bool


@record
class Var(Term):
    name: str
    sort: Scalar = Scalar.INT


@record
class App(Term):
    """Application of one of the fixed integer functions: + - * div mod."""

    op: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.op not in FUNCTIONS:
            raise ValueError(f"unknown function symbol {self.op!r}")
        if len(self.args) != 2:
            raise ValueError(f"{self.op} expects 2 arguments")


@record
class ArrayRef(Term):
    array: str
    indices: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Atoms (head formulas of the simplest kind)


class Head:
    """A single conjunct of a program-form formula."""

    __slots__ = ()


class Atom(Head):
    __slots__ = ()


@record
class Eq(Atom):
    lhs: Term
    rhs: Term


@record
class Rel(Atom):
    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in RELATIONS:
            raise ValueError(f"unknown relation symbol {self.op!r}")


@record
class Call(Atom):
    name: str
    args: tuple[Term, ...]


@record
class TrueAtom(Atom):
    pass


@record
class FalseAtom(Atom):
    pass


TRUE = TrueAtom()
FALSE = FalseAtom()


# ---------------------------------------------------------------------------
# Formulas: right-associated conjunction lists


class Formula:
    __slots__ = ()

    def __iter__(self) -> Iterator[Head]:
        f = self
        while isinstance(f, Cons):
            yield f.head
            f = f.tail

    def is_empty(self) -> bool:
        return isinstance(self, Empty)


@record
class Empty(Formula):
    pass


@record
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


@record
class Or(Head):
    left: Formula
    right: Formula


@record
class Implies(Head):
    antecedent: Formula
    consequent: Formula


@record
class Not(Head):
    body: Formula


@record
class Exists(Head):
    var: str
    sort: Scalar
    body: Formula


@record
class Forall(Head):
    """Unbounded universal quantifier; surface-only, removed by normalization."""

    var: str
    sort: Scalar
    body: Formula


@record
class ExistsBounded(Head):
    var: str
    lo: Term
    hi: Term
    body: Formula


@record
class ForallBounded(Head):
    var: str
    lo: Term
    hi: Term
    body: Formula


# ---------------------------------------------------------------------------
# Declarations and program units


@record
class ArrayDecl:
    name: str
    ranges: tuple[tuple[int, int], ...]
    element: Scalar

    def in_range(self, indices: tuple[int, ...]) -> bool:
        return len(indices) == len(self.ranges) and all(
            lo <= i <= hi for i, (lo, hi) in zip(indices, self.ranges)
        )


@record
class ProcedureDef:
    name: str
    params: tuple[tuple[str, Scalar], ...]
    body: Formula


@record(slots=False)
class ProgramUnit:
    arrays: tuple[ArrayDecl, ...] = ()
    procedures: tuple[ProcedureDef, ...] = ()
    query: Formula = EMPTY
    free_vars: tuple[tuple[str, Scalar], ...] = ()
    normalized: bool = False
    fresh_base: int = 1

    def procedure(self, name: str) -> ProcedureDef | None:
        return next((p for p in self.procedures if p.name == name), None)

    def free_var_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.free_vars)

    @cached_property
    def code(self):
        """The compiled form of this program (a values.Code), filled in as
        the engine's searches first reach each part and shared by all of
        them."""
        from .values import Code

        return Code(self)

    def __getstate__(self) -> dict:
        # the compiled form holds generated functions, which do not pickle; a
        # copy compiles its own
        return {k: v for k, v in self.__dict__.items() if k != "code"}


# ---------------------------------------------------------------------------
# Traversals


def head_parts(h: Head) -> tuple[tuple[Term, ...], tuple[Formula, ...], str | None]:
    """What h is made of, in written order: the terms it reads outside its
    binder, its sub-formulas, and the variable it binds (or None)."""
    if isinstance(h, (Eq, Rel)):
        return (h.lhs, h.rhs), (), None
    if isinstance(h, Call):
        return h.args, (), None
    if isinstance(h, (TrueAtom, FalseAtom)):
        return (), (), None
    if isinstance(h, Or):
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
                for v in subterms(t):
                    if type(v) is Var and v.name not in bound:
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

_TERM_ADD, _TERM_MUL = 1, 2  # precedence levels; an operand above _TERM_MUL is an atom
_MUL_OPS = ("*", "div", "mod")


def int_text(v: int) -> str:
    """str(v), also past the length of text sys.set_int_max_str_digits lets
    str() make, whose limit stays: a longer v is printed as two halves."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or v.bit_length() <= 3 * limit:  # then v has at most limit digits
        return str(v)
    half = v.bit_length() * 3 // 20  # about half of v's digits
    high, low = divmod(abs(v), 10 ** half)
    return "-" * (v < 0) + int_text(high) + int_text(low).zfill(half)


def format_term(t: Term, names: Mapping[str, str] | None = None) -> str:
    """t as text, each variable by its name in `names`, else its surface name.
    A stack, not recursion: a term built at run time can nest arbitrarily."""
    out: list[str] = []
    todo: list = [(t, _TERM_ADD)]  # (term, level) and text still to print, last first
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, level = item
        if isinstance(t, IntConst):
            s = int_text(t.value)
            out.append(f"({s})" if t.value < 0 and level >= _TERM_MUL else s)
        elif isinstance(t, BoolConst):
            out.append("TRUE" if t.value else "FALSE")
        elif isinstance(t, Var):
            name = names.get(t.name) if names else None
            out.append(name or _surface_name(t.name))
        elif isinstance(t, ArrayRef):
            todo.append("]")
            for i in range(len(t.indices) - 1, -1, -1):
                todo += ((t.indices[i], _TERM_ADD), ", " if i else f"{t.array}[")
        elif isinstance(t, App):
            own = _TERM_MUL if t.op in _MUL_OPS else _TERM_ADD
            # left-associative: the right operand needs parens at the same level
            close, open_ = (")", "(") if own < level else ("", "")
            todo += (close, (t.args[1], own + 1), f" {t.op} ", (t.args[0], own), open_)
        else:
            raise TypeError(f"unknown term {t!r}")
    return "".join(out)


def _surface_name(name: str) -> str:
    return name.split(FRESH_MARK, 1)[0] if FRESH_MARK in name else name


def format_formula(f: Formula) -> str:
    """f as surface text."""
    return _Printer().formula(f)


def format_head(h: Head, in_conj: bool, last: bool) -> str:
    """One conjunct as text, `in_conj` among others and `last` among them."""
    return _Printer().head(h, in_conj, last)


class _Printer:
    """Text of one formula.  A binder prints as its surface name, or the first
    name_2, name_3, ... that no variable free in its body prints as.  The
    printed names of the binders around the text (`names`) and each head's
    free variables, found once (`free`), make a binder cost its own text."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}
        self.free: dict[int, set[str]] = {}  # id(head) -> its free variables

    def formula(self, f: Formula) -> str:
        heads = list(f)
        last = len(heads) - 1
        parts = (self.head(h, last > 0, i == last) for i, h in enumerate(heads))
        return " AND ".join(parts) or "TRUE"

    def operand(self, f: Formula) -> str:
        """An operand of OR / ->: parenthesized unless it is a single tight head."""
        heads = list(f)
        if len(heads) == 1 and isinstance(heads[0], (Atom, Not, ExistsBounded, ForallBounded)):
            return self.head(heads[0], in_conj=False, last=True)
        return f"({self.formula(f)})"

    def head(self, h: Head, in_conj: bool, last: bool) -> str:
        names = self.names
        if isinstance(h, Eq):
            return f"{format_term(h.lhs, names)} = {format_term(h.rhs, names)}"
        if isinstance(h, Rel):
            return f"{format_term(h.lhs, names)} {h.op} {format_term(h.rhs, names)}"
        if isinstance(h, Call):
            return f"{h.name}({', '.join(format_term(a, names) for a in h.args)})"
        if isinstance(h, (TrueAtom, FalseAtom)):
            return "TRUE" if isinstance(h, TrueAtom) else "FALSE"
        if isinstance(h, Or):
            # right-nested ORs print flat; anything else gets parens
            parts, rest = [self.operand(h.left)], h.right
            while type(rest) is Cons and type(rest.tail) is Empty and type(rest.head) is Or:
                parts.append(self.operand(rest.head.left))
                rest = rest.head.right
            parts.append(self.operand(rest))
            text = " OR ".join(parts)
            return f"({text})" if in_conj else text
        if isinstance(h, Implies):
            text = f"{self.operand(h.antecedent)} -> {self.operand(h.consequent)}"
            return f"({text})" if in_conj else text
        if isinstance(h, Not):
            return f"NOT {self.operand(h.body)}"
        if isinstance(h, (Exists, Forall)):
            name, body = self.scope(h.var, h.body)
            kw = "EXISTS" if isinstance(h, Exists) else "FORALL"
            ann = "" if h.sort is Scalar.INT else f" : {h.sort}"
            text = f"{kw} {name}{ann} . {body}"
            # quantifier scope runs maximally right: parenthesize unless final
            return f"({text})" if in_conj and not last else text
        if isinstance(h, (ExistsBounded, ForallBounded)):
            name, body = self.scope(h.var, h.body)
            kw = "SOME" if isinstance(h, ExistsBounded) else "FOR"
            lo, hi = format_term(h.lo, names), format_term(h.hi, names)
            return f"{kw} {name} := {lo} TO {hi} DO {body} END"
        raise TypeError(f"unknown head {h!r}")

    def scope(self, var: str, body: Formula) -> tuple[str, str]:
        """The printed name of a binder of var over body, and the body's text."""
        names = self.names
        taken = {names.get(n) or _surface_name(n) for n in self.free_in(body) if n != var}
        base = _surface_name(var)
        name, n = base, 1
        while name in taken:
            n += 1
            name = f"{base}_{n}"
        outer, names[var] = names.get(var, base), name
        text = self.formula(body)
        names[var] = outer  # a name absent from names prints as its surface name
        return name, text

    def free_in(self, f: Formula) -> set[str]:
        out: set[str] = set()
        for h in f:
            if id(h) not in self.free:
                terms, subs, var = head_parts(h)
                inner = set().union(*map(self.free_in, subs)) - {var}
                self.free[id(h)] = inner.union(
                    v.name for t in terms for v in subterms(t) if type(v) is Var)
            out |= self.free[id(h)]
        return out


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
