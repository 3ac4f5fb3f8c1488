"""A deliberately naive reference interpreter for the verbatim strict
semantics: recursive, materializes every leaf list eagerly, immutable
environments, no trail, no laziness.  Structurally independent from the
engine so the two can be compared leaf for leaf: it substitutes instead of
running bodies under environments, and it has its own term evaluation, atom
classification and closedness check, written from the paper's definitions
rather than taken from fap.values."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from fap.formulas import (
    And,
    App,
    ArrayRef,
    Atom,
    BoolConst,
    Call,
    Cons,
    Empty,
    Eq,
    Exists,
    ExistsBounded,
    FalseAtom,
    ForallBounded,
    Formula,
    Implies,
    IntConst,
    Not,
    Or,
    ProgramUnit,
    Rel,
    Term,
    TrueAtom,
    Var,
    concat,
    conj,
    subst_formula,
)
from fap.values import Valuation

_fresh = itertools.count(1)


@dataclass(frozen=True)
class RSuccess:
    valuation: Valuation


@dataclass(frozen=True)
class RFail:
    pass


@dataclass(frozen=True)
class RError:
    pass


class _Fault(Exception):
    """Division or modulo by zero, or a closed index outside the declared
    range: the atom or bound that meets it is an error."""


_RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<>": lambda a, b: a != b,
}


def reference_leaves(program: ProgramUnit, initial: Valuation) -> list:
    ranges = {d.name: d.ranges for d in program.arrays}

    def value(t: Term, a: Valuation):
        """The value of t under a, or None when t reads an unbound variable
        or cell.  Every part is read, so a fault anywhere raises _Fault."""
        if isinstance(t, (IntConst, BoolConst)):
            return t.value
        if isinstance(t, Var):
            return a.scalars.get(t.name)
        if isinstance(t, App):
            lhs, rhs = value(t.args[0], a), value(t.args[1], a)
            if lhs is None or rhs is None:
                return None
            if t.op in ("div", "mod") and rhs == 0:
                raise _Fault()
            if t.op == "+":
                return lhs + rhs
            if t.op == "-":
                return lhs - rhs
            if t.op == "*":
                return lhs * rhs
            return lhs // rhs if t.op == "div" else lhs % rhs
        assert isinstance(t, ArrayRef)
        cell = cell_of(t, a)
        return None if cell is None else a.cells.get(cell)

    def cell_of(t: ArrayRef, a: Valuation):
        """The cell t denotes, or None while an index is open."""
        idx = [value(i, a) for i in t.indices]
        if any(i is None for i in idx):
            return None
        bounds = ranges[t.array]
        if len(idx) != len(bounds) or not all(
            lo <= i <= hi for i, (lo, hi) in zip(idx, bounds)
        ):
            raise _Fault()
        return (t.array, tuple(idx))

    def classify(h: Atom, a: Valuation):
        """The four cases of an atom: True or False when it is closed, a
        (target, value) pair when it is an equation between a closed side and
        an unbound variable or cell, None when it is not evaluable."""
        if isinstance(h, TrueAtom):
            return True
        if isinstance(h, FalseAtom):
            return False
        try:
            lhs, rhs = value(h.lhs, a), value(h.rhs, a)
            if lhs is not None and rhs is not None:
                if isinstance(h, Rel):
                    return _RELATIONS[h.op](lhs, rhs)
                assert isinstance(h, Eq)
                return lhs == rhs
            if isinstance(h, Rel) or (lhs is None) == (rhs is None):
                return None
            site, closed = (h.lhs, rhs) if lhs is None else (h.rhs, lhs)
            if isinstance(site, Var):
                return (site.name, closed)
            if isinstance(site, ArrayRef):
                cell = cell_of(site, a)
                return None if cell is None else (cell, closed)
            return None
        except _Fault:
            return None

    def closed_formula(f: Formula, a: Valuation, bound: frozenset) -> bool:
        for h in f:
            if isinstance(h, Call):
                proc = program.procedure(h.name)
                body = subst_formula(
                    proc.body,
                    {n: t for (n, _), t in zip(proc.params, h.args)},
                )
                if not all(closed_term(t, a, bound) for t in h.args):
                    return False
                if not closed_formula(body, a, bound):
                    return False
            elif isinstance(h, Atom):
                terms = (h.lhs, h.rhs) if isinstance(h, (Eq, Rel)) else ()
                if not all(closed_term(t, a, bound) for t in terms):
                    return False
            elif isinstance(h, (Or, And)):
                if not (closed_formula(h.left, a, bound) and closed_formula(h.right, a, bound)):
                    return False
            elif isinstance(h, Implies):
                if not (
                    closed_formula(h.antecedent, a, bound)
                    and closed_formula(h.consequent, a, bound)
                ):
                    return False
            elif isinstance(h, Not):
                if not closed_formula(h.body, a, bound):
                    return False
            elif isinstance(h, Exists):
                if not closed_formula(h.body, a, bound | {h.var}):
                    return False
            elif isinstance(h, (ExistsBounded, ForallBounded)):
                if not (
                    closed_term(h.lo, a, bound)
                    and closed_term(h.hi, a, bound)
                    and closed_formula(h.body, a, bound | {h.var})
                ):
                    return False
        return True

    def closed_term(t: Term, a: Valuation, bound: frozenset) -> bool:
        if isinstance(t, Var):
            return t.name in a.scalars or t.name in bound
        if isinstance(t, App):
            return all(closed_term(x, a, bound) for x in t.args)
        if isinstance(t, ArrayRef):
            # quantified index variables cannot be resolved statically
            names = set()

            def collect(u):
                if isinstance(u, Var):
                    names.add(u.name)
                for sub in getattr(u, "args", ()) or getattr(u, "indices", ()) or ():
                    collect(sub)

            for i in t.indices:
                collect(i)
            if not names <= set(a.scalars):
                return False
            try:
                return value(t, a) is not None
            except _Fault:
                return False
        return True

    def tree(f: Formula, a: Valuation) -> list:
        if isinstance(f, Empty):
            return [RSuccess(a)]
        assert isinstance(f, Cons)
        h, tail = f.head, f.tail
        if isinstance(h, Call):
            proc = program.procedure(h.name)
            body = subst_formula(
                proc.body, {n: t for (n, _), t in zip(proc.params, h.args)}
            )
            return tree(concat(body, tail), a)
        if isinstance(h, Atom):
            case = classify(h, a)
            if case is True:
                return tree(tail, a)
            if case is False:
                return [RFail()]
            if case is None:
                return [RError()]
            target, closed = case
            if isinstance(target, str):
                return tree(tail, a.bind(target, closed))
            return tree(tail, a.bind_cell(target, closed))
        if isinstance(h, Or):
            return tree(concat(h.left, tail), a) + tree(concat(h.right, tail), a)
        if isinstance(h, And):
            return tree(concat(h.left, concat(h.right, tail)), a)
        if isinstance(h, Not):
            if not closed_formula(h.body, a, frozenset()):
                return [RError()]
            sub = tree(h.body, a)
            if any(isinstance(l, RSuccess) for l in sub):
                return [RFail()]
            if all(isinstance(l, RFail) for l in sub):
                return tree(tail, a)
            return [RError()]
        if isinstance(h, Implies):
            if not closed_formula(h.antecedent, a, frozenset()):
                return [RError()]
            sub = tree(h.antecedent, a)
            if any(isinstance(l, RSuccess) for l in sub):
                return tree(concat(h.consequent, tail), a)
            if all(isinstance(l, RFail) for l in sub):
                return tree(tail, a)
            return [RError()]
        if isinstance(h, Exists):
            name = f"ref{next(_fresh)}${next(_fresh)}"
            body = subst_formula(h.body, {h.var: Var(name, h.sort)})
            return tree(concat(body, tail), a)
        if isinstance(h, (ExistsBounded, ForallBounded)):
            if not (
                closed_term(h.lo, a, frozenset())
                and closed_term(h.hi, a, frozenset())
            ):
                return [RError()]
            try:
                lo, hi = value(h.lo, a), value(h.hi, a)
            except _Fault:
                return [RError()]
            exists = isinstance(h, ExistsBounded)
            if lo > hi:
                return [RFail()] if exists else tree(tail, a)
            name = f"ref{next(_fresh)}${next(_fresh)}"
            body = subst_formula(h.body, {h.var: Var(name)})
            rest = type(h)(h.var, IntConst(lo + 1), IntConst(hi), h.body)
            bound = a.bind(name, lo)
            if exists:
                expansion: Formula = Cons(Or(body, conj(rest)), tail)
            else:
                expansion = concat(body, Cons(rest, tail))
            return tree(expansion, bound)
        raise TypeError(f"unknown head {h!r}")

    return tree(program.query, initial)
