"""Rewrite parsed formulas into executable program form.

Normalization eliminates unbounded universal quantifiers (FORALL x . f
becomes NOT EXISTS x . NOT f), deletes double negations, and renames every
bound variable to a globally unique name carrying the reserved '$' mark.
Conjunction needs no rewriting: the parser already builds every AND as the
right-associated spine.  Renaming is positional, so normalizing twice yields
the same result.
"""

from __future__ import annotations

from . import parser
from .formulas import (
    Atom,
    Cons,
    Exists,
    ExistsBounded,
    FRESH_MARK,
    Forall,
    ForallBounded,
    Formula,
    Head,
    Implies,
    Not,
    Or,
    ProcedureDef,
    ProgramUnit,
    Term,
    Var,
    conj,
    subst_head,
    subst_term,
)
from .values import Code


class FreshNames:
    """Monotone counter handing out reserved bound-variable names."""

    def __init__(self, start: int = 1):
        self.next_id = start

    def fresh(self, base: str) -> str:
        if FRESH_MARK in base:
            base = base.split(FRESH_MARK, 1)[0]
        name = f"{base}{FRESH_MARK}{self.next_id}"
        self.next_id += 1
        return name


def normalize(f: Formula, fresh: FreshNames | None = None) -> Formula:
    """Normalize a single formula; total on sort-checked input."""
    return _norm(f, fresh if fresh is not None else FreshNames(), {})


def _norm(f: Formula, fresh: FreshNames, names: dict[str, Term]) -> Formula:
    """f in program form, with each variable that names maps renamed: the
    binders around f, renamed on the way down, so each body is built once."""
    heads: list[Head] = []
    while type(f) is Cons:
        _norm_head(f.head, fresh, names, heads)
        f = f.tail
    return conj(*heads)


def _norm_head(h: Head, fresh: FreshNames, names: dict[str, Term], out: list[Head]) -> None:
    """Append what one conjunct normalizes to: a head may dissolve into
    several conjuncts or none."""
    if isinstance(h, Atom):
        out.append(subst_head(h, names) if names else h)
    elif isinstance(h, Or):
        out.append(Or(_norm(h.left, fresh, names), _norm(h.right, fresh, names)))
    elif isinstance(h, Implies):
        out.append(Implies(_norm(h.antecedent, fresh, names), _norm(h.consequent, fresh, names)))
    elif isinstance(h, Not):
        body = _norm(h.body, fresh, names)
        if isinstance(body, Cons) and isinstance(body.head, Not) and body.tail.is_empty():
            out.extend(body.head.body)  # NOT NOT f ~> f
        else:
            out.append(Not(body))
    elif isinstance(h, Forall):
        # FORALL x . f  ~>  NOT EXISTS x . NOT f, then renaming as usual
        _norm_head(Not(conj(Exists(h.var, h.sort, conj(Not(h.body))))), fresh, names, out)
    elif isinstance(h, Exists):
        name = fresh.fresh(h.var)
        body = _norm(h.body, fresh, {**names, h.var: Var(name, h.sort)})
        out.append(Exists(name, h.sort, body))
    elif isinstance(h, (ExistsBounded, ForallBounded)):
        name = fresh.fresh(h.var)
        body = _norm(h.body, fresh, {**names, h.var: Var(name)})
        out.append(type(h)(name, subst_term(h.lo, names), subst_term(h.hi, names), body))
    else:
        raise TypeError(f"unknown head {h!r}")


def normalize_program(p: ProgramUnit) -> ProgramUnit:
    """Normalize procedure bodies and query with one shared name supply, so
    bound names are unique across the whole unit."""
    fresh = FreshNames()
    procs = tuple(
        ProcedureDef(proc.name, proc.params, _norm(proc.body, fresh, {}))
        for proc in p.procedures
    )
    query = _norm(p.query, fresh, {})
    unit = ProgramUnit(
        arrays=p.arrays,
        procedures=procs,
        query=query,
        free_vars=p.free_vars,
        normalized=True,
        fresh_base=fresh.next_id,
    )
    unit.__dict__["code"] = Code(unit)  # now, not on a first read, which locks
    return unit


def load(source: str) -> ProgramUnit:
    """parse + normalize in one step."""
    return normalize_program(parser.parse(source))


def load_query(source: str) -> ProgramUnit:
    return normalize_program(parser.parse_query(source))
