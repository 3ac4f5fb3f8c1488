"""Valuations, term evaluation and atom classification.

A valuation is an immutable finite map from scalar variables and array cells
to domain values; extending it yields a new valuation and is the only way
bindings ever appear.  Atom classification decides which of the four
evaluation cases applies to an atom: closed-and-true, closed-and-false, an
assignment (exactly one unbound variable/cell side against a closed side), or
not evaluable.

Terms are evaluated under an environment (`Env`) as well as a valuation: the
engine runs quantifier and procedure bodies as written and resolves their
binders and parameters through the environment, which maps each such name
to a term that no longer mentions any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .formulas import (
    App,
    ArrayDecl,
    ArrayRef,
    Atom,
    BoolConst,
    Call,
    Eq,
    FalseAtom,
    IntConst,
    Rel,
    Term,
    TrueAtom,
    Var,
)

Value = int | bool
Cell = tuple[str, tuple[int, ...]]
# binder or parameter name -> resolved term (mentions only names outside
# every environment: free variables of the query and engine-fresh names)
Env = Mapping[str, Term]

EMPTY_ENV: Env = {}

FAULT_DIV_ZERO = "division or modulo by zero"
FAULT_RANGE = "array index out of declared range"


class EvalFault(Exception):
    """Evaluation hit a partial-function hole (div/mod by zero, index out of
    range); the engine turns this into an error leaf, never a crash."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Valuation:
    """Immutable map from variable names and array cells to values."""

    __slots__ = ("scalars", "cells")

    def __init__(
        self,
        scalars: Mapping[str, Value] | None = None,
        cells: Mapping[Cell, Value] | None = None,
    ):
        self.scalars: dict[str, Value] = dict(scalars) if scalars else {}
        self.cells: dict[Cell, Value] = dict(cells) if cells else {}

    def bind(self, name: str, value: Value) -> "Valuation":
        if name in self.scalars:
            raise ValueError(f"variable {name!r} is already bound")
        out = Valuation(self.scalars, self.cells)
        out.scalars[name] = value
        return out

    def bind_cell(self, cell: Cell, value: Value) -> "Valuation":
        if cell in self.cells:
            raise ValueError(f"cell {cell!r} is already bound")
        out = Valuation(self.scalars, self.cells)
        out.cells[cell] = value
        return out

    def extends(self, other: "Valuation") -> bool:
        return all(self.scalars.get(k) == v for k, v in other.scalars.items()) and all(
            self.cells.get(k) == v for k, v in other.cells.items()
        ) and set(other.scalars) <= set(self.scalars) and set(other.cells) <= set(self.cells)

    def canonical(self) -> tuple:
        """Hashable content snapshot, sorted; for set comparisons in tests."""
        return (
            tuple(sorted(self.scalars.items())),
            tuple(sorted(self.cells.items())),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Valuation)
            and self.scalars == other.scalars
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Valuation({self.scalars!r}, {self.cells!r})"

    def __str__(self) -> str:
        return format_valuation(self)


EMPTY_VALUATION = Valuation()


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)


def format_valuation(a: Valuation) -> str:
    parts = [f"{n}/{format_value(v)}" for n, v in sorted(a.scalars.items())]
    parts += [
        f"{name}[{','.join(str(i) for i in idx)}]/{format_value(v)}"
        for (name, idx), v in sorted(a.cells.items())
    ]
    return "{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# Term status: one traversal decides closedness, value, or fault.

_OPEN = object()


class Arrays:
    """Lookup helper over the declared arrays of a program unit."""

    def __init__(self, decls: Iterable[ArrayDecl] = ()):
        self.by_name = {d.name: d for d in decls}

    def decl(self, name: str) -> ArrayDecl:
        return self.by_name[name]


NO_ARRAYS = Arrays()


def _term_value(t: Term, a: Valuation, arrays: Arrays, env: Env = EMPTY_ENV):
    """Value of t under env and a, _OPEN if some variable/cell is unbound, or
    raise EvalFault for div/mod-by-zero and out-of-range cells."""
    kind = type(t)  # the hottest function of a search: no isinstance calls
    if kind is Var:
        bound = env.get(t.name)
        if bound is not None:
            return _term_value(bound, a, arrays)
        return a.scalars.get(t.name, _OPEN)
    if kind is IntConst or kind is BoolConst:
        return t.value
    if kind is App:
        lhs = _term_value(t.args[0], a, arrays, env)
        rhs = _term_value(t.args[1], a, arrays, env)
        if lhs is _OPEN or rhs is _OPEN:
            return _OPEN
        return apply_function(t.op, lhs, rhs)
    if kind is ArrayRef:
        cell = _cell_of(t, a, arrays, env)
        if cell is _OPEN:
            return _OPEN
        return a.cells.get(cell, _OPEN)
    raise TypeError(f"unknown term {t!r}")


def _cell_of(t: ArrayRef, a: Valuation, arrays: Arrays, env: Env):
    """Concrete cell referenced by t, or _OPEN when an index is unbound.
    Closed indices outside the declared range fault."""
    idx: list[int] = []
    for i in t.indices:
        v = _term_value(i, a, arrays, env)
        if v is _OPEN:
            return _OPEN
        idx.append(v)
    decl = arrays.decl(t.array)
    if not decl.in_range(tuple(idx)):
        raise EvalFault(FAULT_RANGE)
    return (t.array, tuple(idx))


def resolve_term(t: Term, env: Env) -> Term:
    """t with every name that env binds replaced by its term; the result
    means the same under any environment."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, App):
        return App(t.op, tuple(resolve_term(x, env) for x in t.args))
    if isinstance(t, ArrayRef):
        return ArrayRef(t.array, tuple(resolve_term(x, env) for x in t.indices))
    return t


def apply_function(op: str, lhs: int, rhs: int) -> int:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if rhs == 0:
        raise EvalFault(FAULT_DIV_ZERO)
    if op == "div":
        return lhs // rhs
    if op == "mod":
        return lhs % rhs
    raise ValueError(f"unknown function {op!r}")


def apply_relation(op: str, lhs: int, rhs: int) -> bool:
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "<>":
        return lhs != rhs
    raise ValueError(f"unknown relation {op!r}")


def try_eval_term(
    t: Term, a: Valuation, arrays: Arrays = NO_ARRAYS, env: Env = EMPTY_ENV
) -> Value | None:
    """Value of a closed term, None when t is open; raises EvalFault on
    div/mod-by-zero or an out-of-range cell with closed indices."""
    v = _term_value(t, a, arrays, env)
    return None if v is _OPEN else v


def is_closed(t: Term, a: Valuation, arrays: Arrays = NO_ARRAYS) -> bool:
    """True iff every variable of t is bound and every array reference has
    closed indices whose cell is bound.  Faulting terms count as not closed;
    the fault itself surfaces when the atom is classified or evaluated."""
    try:
        return _term_value(t, a, arrays) is not _OPEN
    except EvalFault:
        return False


def eval_term(t: Term, a: Valuation, arrays: Arrays = NO_ARRAYS) -> Value:
    """Evaluate a closed term; raises EvalFault on partial-function holes."""
    v = _term_value(t, a, arrays)
    if v is _OPEN:
        raise ValueError(f"term is not closed under {a}")
    return v


# ---------------------------------------------------------------------------
# Atom classification


@dataclass(frozen=True)
class ClosedTrue:
    pass


@dataclass(frozen=True)
class ClosedFalse:
    pass


@dataclass(frozen=True)
class Assignment:
    target: str | Cell
    value: Value


@dataclass(frozen=True)
class NotEvaluable:
    fault: str | None = None


AtomClass = ClosedTrue | ClosedFalse | Assignment | NotEvaluable

CLOSED_TRUE = ClosedTrue()
CLOSED_FALSE = ClosedFalse()


def classify_atom(
    atom: Atom, a: Valuation, arrays: Arrays = NO_ARRAYS, env: Env = EMPTY_ENV
) -> AtomClass:
    """Decide the evaluation case for an atom under env and a valuation.
    Procedure calls are unfolded by the engine before classification and are
    rejected here.  Faults are reported in-band via NotEvaluable.fault."""
    if isinstance(atom, TrueAtom):
        return CLOSED_TRUE
    if isinstance(atom, FalseAtom):
        return CLOSED_FALSE
    if isinstance(atom, Call):
        raise TypeError("procedure atoms must be unfolded before classification")
    if isinstance(atom, Rel):
        try:
            lhs = _term_value(atom.lhs, a, arrays, env)
            rhs = _term_value(atom.rhs, a, arrays, env)
        except EvalFault as fault:
            return NotEvaluable(fault.reason)
        if lhs is _OPEN or rhs is _OPEN:
            return NotEvaluable()
        return CLOSED_TRUE if apply_relation(atom.op, lhs, rhs) else CLOSED_FALSE
    if isinstance(atom, Eq):
        try:
            return _classify_eq(atom, a, arrays, env)
        except EvalFault as fault:
            return NotEvaluable(fault.reason)
    raise TypeError(f"unknown atom {atom!r}")


def _classify_eq(atom: Eq, a: Valuation, arrays: Arrays, env: Env) -> AtomClass:
    lhs = _term_value(atom.lhs, a, arrays, env)
    rhs = _term_value(atom.rhs, a, arrays, env)
    if lhs is not _OPEN and rhs is not _OPEN:
        return CLOSED_TRUE if lhs == rhs else CLOSED_FALSE
    if lhs is _OPEN and rhs is not _OPEN:
        target = _assignment_target(atom.lhs, a, arrays, env)
        return Assignment(target, rhs) if target is not None else NotEvaluable()
    if rhs is _OPEN and lhs is not _OPEN:
        target = _assignment_target(atom.rhs, a, arrays, env)
        return Assignment(target, lhs) if target is not None else NotEvaluable()
    return NotEvaluable()


def _assignment_target(
    t: Term, a: Valuation, arrays: Arrays, env: Env
) -> str | Cell | None:
    """The bindable site of an open equation side: a bare unbound variable, or
    an array reference with closed indices and an unbound cell."""
    if isinstance(t, Var) and t.name in env:
        t, env = env[t.name], EMPTY_ENV
    if isinstance(t, Var) and t.name not in a.scalars:
        return t.name
    if isinstance(t, ArrayRef):
        cell = _cell_of(t, a, arrays, env)  # may fault; caller converts
        if cell is not _OPEN and cell not in a.cells:
            return cell
    return None
