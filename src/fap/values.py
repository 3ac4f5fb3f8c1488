"""Valuations, compiled terms and atoms, and atom classification.

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

The text of a program never changes while it runs, so its terms and atoms
are compiled, each into one closure `(env, scalars, cells) -> value | _OPEN`
(an atom's closure returns its class), in the manner of Feeley and Lapalme,
"Using closures for code generation" (Computer Languages 12(1), 1987):
constants are folded, and array references read their declared ranges from
the closure instead of the declaration.  `Code` is the compiled form of one
program unit, built part by part the first time a search reaches each part;
the unit owns it (`ProgramUnit.code`), so every search of the program reuses
it.  The terms an environment maps names to are built at run time, and are
evaluated by `value_of`, which walks them with an explicit stack however deep
a chain of calls made them.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping

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
    ProgramUnit,
    Rel,
    Term,
    TrueAtom,
    Var,
    int_text,
    record,
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
    """Immutable map from variable names and array cells to values.  The
    valuations without cells share one empty dict, so whatever fills a
    valuation in place gives it cells of its own first."""

    __slots__ = ("scalars", "cells")

    def __init__(
        self,
        scalars: Mapping[str, Value] | None = None,
        cells: Mapping[Cell, Value] | None = None,
    ):
        self.scalars: dict[str, Value] = dict(scalars) if scalars else {}
        self.cells: dict[Cell, Value] = dict(cells) if cells else NO_CELLS

    def bind(self, name: str, value: Value) -> "Valuation":
        if name in self.scalars:
            raise ValueError(f"variable {name!r} is already bound")
        return Valuation({**self.scalars, name: value}, self.cells)

    def bind_cell(self, cell: Cell, value: Value) -> "Valuation":
        if cell in self.cells:
            raise ValueError(f"cell {cell!r} is already bound")
        return Valuation(self.scalars, {**self.cells, cell: value})

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


NO_CELLS: dict = {}  # shared: never written
EMPTY_VALUATION = Valuation()


def format_binding(key: str | Cell, v: Value, sep: str = "/") -> str:
    """One entry of a printed valuation: x/1 or a[1,2]/TRUE."""
    text = ("TRUE" if v else "FALSE") if type(v) is bool else int_text(v)
    if type(key) is str:
        return f"{key}{sep}{text}"
    return f"{key[0]}[{','.join(map(str, key[1]))}]{sep}{text}"


def entry_key(key: str | Cell) -> tuple:
    """Where an entry goes in a printed valuation: scalars, then cells, each
    in sorted order."""
    return (0, key) if type(key) is str else (1, key)


def valuation_entries(a: Valuation, sep: str = "/") -> tuple[list[tuple], list[str]]:
    """a's entry keys in printing order, and each entry's text."""
    items = sorted((entry_key(k), v) for d in (a.scalars, a.cells) for k, v in d.items())
    return [k for k, _ in items], [format_binding(k[1], v, sep) for k, v in items]


def format_valuation(a: Valuation) -> str:
    return "{" + ", ".join(valuation_entries(a)[1]) + "}"


# ---------------------------------------------------------------------------
# Term values.  A term's value is an int or bool, _OPEN while it reads an
# unbound variable or cell, or an EvalFault for div/mod by zero and for a
# closed index outside the declared range.

_OPEN = object()

# (env, scalars, cells) -> value or _OPEN: a compiled term
TermCode = Callable[[Env, dict, dict], object]


def _div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise EvalFault(FAULT_DIV_ZERO)
    return lhs // rhs


def _mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise EvalFault(FAULT_DIV_ZERO)
    return lhs % rhs


_FUNCTIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "div": _div, "mod": _mod}
_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "<>": operator.ne}


# ---------------------------------------------------------------------------
# Atom classes


@record
class ClosedTrue:
    pass


@record
class ClosedFalse:
    pass


@record
class Assignment:
    target: str | Cell
    value: Value


@record
class NotEvaluable:
    fault: str | None = None


AtomClass = ClosedTrue | ClosedFalse | Assignment | NotEvaluable

CLOSED_TRUE = ClosedTrue()
CLOSED_FALSE = ClosedFalse()
NOT_EVALUABLE = NotEvaluable()

# (env, scalars, cells) -> AtomClass: a compiled atom
AtomCode = Callable[[Env, dict, dict], AtomClass]


# ---------------------------------------------------------------------------
# Arrays and compiled code


# array name -> its declaration: the declared arrays of a program unit
Decls = Mapping[str, ArrayDecl]
NO_ARRAYS: Decls = {}  # shared: never written


class Code:
    """The compiled form of one program unit, built part by part: a term or
    atom is compiled the first time it is asked for, and so is each part the
    engine keeps (implication rewrites, the free variables of a witness-checked
    operand).  Closedness is read off the text instead (engine.formula_closed):
    only strict negation, pedantic implication, a dirty witness and a traced
    negation's tag ask for it, too rarely for compiling it to pay.  The table is
    keyed by the identity of program-text nodes and keeps every node it is
    keyed by alive, so no key is ever reused by another node.  Give it only
    nodes of the program text: a node built at run time would be compiled on
    every visit and kept for good.  The compiled code refers to `arrays`,
    never to the table, so a program and its code are freed together when
    the program is.  Searches also read the procedures by name and the
    query's free variables' sorts off it."""

    __slots__ = ("arrays", "procedures", "free", "table", "_keep")

    def __init__(self, program: ProgramUnit):
        self.arrays = {d.name: d for d in program.arrays} if program.arrays else NO_ARRAYS
        self.procedures = {p.name: p for p in program.procedures}
        self.free = dict(program.free_vars)
        # id(term or atom) -> its code; (kind, id(node), ...) -> an engine part
        self.table: dict = {}
        self._keep: list = []  # the nodes whose ids key the table

    def part(self, key: int | tuple, node: object, build: Callable[[], object]):
        """What build() returns for node, under key (id(node), or a tuple
        that holds it), built the first time it is asked for."""
        hit = self.table.get(key)
        if hit is None:
            hit = self.table[key] = build()
            self._keep.append(node)
        return hit


# ---------------------------------------------------------------------------
# Compiling terms.
#
# A compiled closure takes what it was compiled with as default arguments,
# not as closure cells, so each compiled part is one function and one tuple:
# programs are loaded by the thousand and most of their parts run briefly.


def _constant(t: Term):
    """The value of t when it reads no variable or cell and does not fault,
    else _OPEN."""
    kind = type(t)
    if kind is IntConst or kind is BoolConst:
        return t.value
    if kind is App:
        lhs, rhs = _constant(t.args[0]), _constant(t.args[1])
        if lhs is not _OPEN and rhs is not _OPEN:
            try:
                return _FUNCTIONS[t.op](lhs, rhs)
            except EvalFault:
                pass
    return _OPEN


def compile_term(t: Term, arrays: Decls) -> TermCode:
    """t as a closure (env, scalars, cells) -> value or _OPEN; it raises
    EvalFault where t faults."""
    value = _constant(t)
    if value is not _OPEN:
        def const(env, scalars, cells, value=value):
            return value

        return const
    kind = type(t)
    if kind is Var:
        def var(env, scalars, cells, name=t.name, arrays=arrays):
            bound = env.get(name)
            if bound is None:
                return scalars.get(name, _OPEN)
            if type(bound) is Var:  # a quantifier instance
                return scalars.get(bound.name, _OPEN)
            return value_of(bound, scalars, cells, arrays)

        return var
    if kind is App:
        return _compile_app(t, arrays)
    if kind is ArrayRef:
        return _compile_ref(t, arrays)
    raise TypeError(f"unknown term {t!r}")


def _compile_app(t: App, arrays: Decls) -> TermCode:
    fn = _FUNCTIONS[t.op]
    lhs, rhs = t.args
    k = _constant(rhs)
    if k is not _OPEN:
        def app_k(env, scalars, cells, f=compile_term(lhs, arrays), k=k, fn=fn):
            v = f(env, scalars, cells)
            return _OPEN if v is _OPEN else fn(v, k)

        return app_k

    def app(env, scalars, cells, f=compile_term(lhs, arrays), g=compile_term(rhs, arrays), fn=fn):
        a = f(env, scalars, cells)
        b = g(env, scalars, cells)
        if a is _OPEN or b is _OPEN:
            return _OPEN
        return fn(a, b)

    return app


def _ranges(t: ArrayRef, arrays: Decls) -> tuple:
    """The declared ranges of t's array when they match its indices."""
    decl = arrays.get(t.array)
    return decl.ranges if decl is not None and len(decl.ranges) == len(t.indices) else ()


def _compile_ref(t: ArrayRef, arrays: Decls) -> TermCode:
    """The value of the cell t refers to; references with one or two indices
    read and range-check them inline."""
    ranges = _ranges(t, arrays)
    if len(ranges) == 1:
        def ref1(env, scalars, cells, f=compile_term(t.indices[0], arrays),
                 name=t.array, lo=ranges[0][0], hi=ranges[0][1]):
            i = f(env, scalars, cells)
            if i is _OPEN:
                return _OPEN
            if lo <= i <= hi:
                return cells.get((name, (i,)), _OPEN)
            raise EvalFault(FAULT_RANGE)

        return ref1

    def ref(env, scalars, cells, cell_of=compile_cell(t, arrays)):
        cell = cell_of(env, scalars, cells)
        return _OPEN if cell is _OPEN else cells.get(cell, _OPEN)

    return ref


def compile_cell(t: ArrayRef, arrays: Decls) -> TermCode:
    """The cell t refers to as a closure: _OPEN while an index is open (the
    later indices are then not read); a closed index outside the declared
    range faults."""
    name = t.array
    ranges = _ranges(t, arrays)
    idx = tuple(compile_term(i, arrays) for i in t.indices)
    if len(ranges) == 1:
        def cell1(env, scalars, cells, f=idx[0], name=name, lo=ranges[0][0], hi=ranges[0][1]):
            i = f(env, scalars, cells)
            if i is _OPEN:
                return _OPEN
            if lo <= i <= hi:
                return (name, (i,))
            raise EvalFault(FAULT_RANGE)

        return cell1
    if len(ranges) == 2:
        def cell2(env, scalars, cells, f0=idx[0], f1=idx[1], name=name, ranges=ranges):
            i = f0(env, scalars, cells)
            if i is _OPEN:
                return _OPEN
            j = f1(env, scalars, cells)
            if j is _OPEN:
                return _OPEN
            (lo0, hi0), (lo1, hi1) = ranges
            if lo0 <= i <= hi0 and lo1 <= j <= hi1:
                return (name, (i, j))
            raise EvalFault(FAULT_RANGE)

        return cell2

    def cell(env, scalars, cells, idx=idx, name=name, arrays=arrays):
        key = []
        for f in idx:
            v = f(env, scalars, cells)
            if v is _OPEN:
                return _OPEN
            key.append(v)
        key = tuple(key)
        if not arrays[name].in_range(key):
            raise EvalFault(FAULT_RANGE)
        return (name, key)

    return cell


# ---------------------------------------------------------------------------
# Terms built at run time: the resolved terms environments hold.  A chain of
# calls can make them arbitrarily deep, so they are walked with an explicit
# stack and never compiled.


def value_of(t: Term, scalars: dict, cells: dict, arrays: Decls = NO_ARRAYS):
    """Value of t under an empty environment: the value, _OPEN when t reads
    an unbound variable or cell, or EvalFault.  Both arguments of a function
    are read before it applies; the indices of a reference are read in order
    up to the first open one."""
    stack: list[tuple[Term, list]] = []  # (App or ArrayRef, its parts read so far)
    while True:
        kind = type(t)
        if kind is Var:
            v = scalars.get(t.name, _OPEN)
        elif kind is IntConst or kind is BoolConst:
            v = t.value
        elif kind is App:
            stack.append((t, []))
            t = t.args[0]
            continue
        elif kind is ArrayRef:
            stack.append((t, []))
            t = t.indices[0]
            continue
        else:
            raise TypeError(f"unknown term {t!r}")
        while stack:  # hand v up to the terms waiting for it
            node, parts = stack[-1]
            if type(node) is App:
                parts.append(v)
                if len(parts) == 1:
                    t = node.args[1]
                    break
                lhs, rhs = parts
                v = _OPEN if lhs is _OPEN or rhs is _OPEN else _FUNCTIONS[node.op](lhs, rhs)
            elif v is not _OPEN:
                parts.append(v)
                if len(parts) < len(node.indices):
                    t = node.indices[len(parts)]
                    break
                key = tuple(parts)
                if not arrays[node.array].in_range(key):
                    raise EvalFault(FAULT_RANGE)
                v = cells.get((node.array, key), _OPEN)
            stack.pop()
        else:
            return v


def cell_value(t: ArrayRef, scalars: dict, cells: dict, arrays: Decls):
    """The cell a run-time reference denotes, _OPEN while an index is open."""
    key = []
    for i in t.indices:
        v = value_of(i, scalars, cells, arrays)
        if v is _OPEN:
            return _OPEN
        key.append(v)
    key = tuple(key)
    if not arrays[t.array].in_range(key):
        raise EvalFault(FAULT_RANGE)
    return (t.array, key)


def closed_value(
    t: Term, bound: frozenset[str], scalars: dict, cells: dict, arrays: Decls
) -> bool:
    """Whether t is closed under an empty environment: each variable has a
    value or is in bound, and each array reference denotes a bound cell."""
    todo = [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is Var:
            if t.name not in scalars and t.name not in bound:
                return False
        elif kind is App:
            todo += t.args
        elif kind is ArrayRef:
            try:
                if value_of(t, scalars, cells, arrays) is _OPEN:
                    return False
            except EvalFault:
                return False
    return True


# ---------------------------------------------------------------------------
# Public evaluation


def try_eval_term(t: Term, a: Valuation, code: Code, env: Env = EMPTY_ENV) -> Value | None:
    """Value of a closed term of code's program, None when t is open; raises
    EvalFault on div/mod-by-zero or an out-of-range cell with closed
    indices."""
    if type(t) is IntConst:  # a constant bound needs no code
        return t.value
    v = code.part(id(t), t, lambda: compile_term(t, code.arrays))(env, a.scalars, a.cells)
    return None if v is _OPEN else v


def is_closed(t: Term, a: Valuation, arrays: Decls = NO_ARRAYS) -> bool:
    """True iff every variable of t is bound and every array reference has
    closed indices whose cell is bound: the engine's closedness.  A closed
    term may still fault (1 div 0), which eval_term raises."""
    return closed_value(t, frozenset(), a.scalars, a.cells, arrays)


def eval_term(t: Term, a: Valuation, arrays: Decls = NO_ARRAYS) -> Value:
    """Evaluate a closed term; raises EvalFault on partial-function holes."""
    v = value_of(t, a.scalars, a.cells, arrays)
    if v is _OPEN:
        raise ValueError(f"term is not closed under {a}")
    return v


# ---------------------------------------------------------------------------
# Compiling atoms


def classify_atom(atom: Atom, a: Valuation, code: Code, env: Env = EMPTY_ENV) -> AtomClass:
    """Decide the evaluation case for an atom of code's program under env
    and a valuation.  Procedure calls are unfolded by the engine before
    classification and are rejected here.  Faults are reported in-band via
    NotEvaluable.fault."""
    compiled = (code.table.get(id(atom))
                or code.part(id(atom), atom, lambda: compile_atom(atom, code.arrays)))
    return compiled(env, a.scalars, a.cells)


def _closed_true(env, scalars, cells):
    return CLOSED_TRUE


def _closed_false(env, scalars, cells):
    return CLOSED_FALSE


def compile_atom(atom: Atom, arrays: Decls) -> AtomCode:
    """atom as a closure (env, scalars, cells) -> its class.  Atoms that
    read nothing share one closure per class."""
    kind = type(atom)
    if kind is Eq:
        return _compile_eq(atom, arrays)
    if kind is Rel:
        return _compile_rel(atom, arrays)
    if kind is TrueAtom:
        return _closed_true
    if kind is FalseAtom:
        return _closed_false
    if kind is Call:
        raise TypeError("procedure atoms must be unfolded before classification")
    raise TypeError(f"unknown atom {atom!r}")


def _compile_rel(atom: Rel, arrays: Decls) -> AtomCode:
    op = _RELATIONS[atom.op]
    lk, rk = _constant(atom.lhs), _constant(atom.rhs)
    if lk is not _OPEN and rk is not _OPEN:
        return _closed_true if op(lk, rk) else _closed_false

    def rel(env, scalars, cells, f=compile_term(atom.lhs, arrays),
            g=compile_term(atom.rhs, arrays), op=op):
        try:
            lhs = f(env, scalars, cells)
            rhs = g(env, scalars, cells)
        except EvalFault as fault:
            return NotEvaluable(fault.reason)
        if lhs is _OPEN or rhs is _OPEN:
            return NOT_EVALUABLE
        return CLOSED_TRUE if op(lhs, rhs) else CLOSED_FALSE

    return rel


def _compile_eq(atom: Eq, arrays: Decls) -> AtomCode:
    """Each side is read once.  An open side that is a bare variable or an
    array reference with closed indices is what an assignment binds.  An
    equation between variables and constants reads its variables inline."""
    lhs, rhs = atom.lhs, atom.rhs
    lk, rk = _constant(lhs), _constant(rhs)
    if lk is not _OPEN and rk is not _OPEN:
        return _closed_true if lk == rk else _closed_false
    if type(lhs) is Var and rk is not _OPEN:
        return _eq_var_k(lhs.name, rk, arrays)
    if type(rhs) is Var and lk is not _OPEN:
        return _eq_var_k(rhs.name, lk, arrays)
    if type(lhs) is Var and type(rhs) is Var:
        return _eq_vars(lhs.name, rhs.name, arrays)
    lval, lcell, lname = _side(lhs, arrays)
    rval, rcell, rname = _side(rhs, arrays)

    def eq(env, scalars, cells, lval=lval, lcell=lcell, lname=lname,
           rval=rval, rcell=rcell, rname=rname, arrays=arrays):
        try:
            if lcell is None:
                lhs = lval(env, scalars, cells)
            else:
                lc = lcell(env, scalars, cells)
                lhs = _OPEN if lc is _OPEN else cells.get(lc, _OPEN)
            if rcell is None:
                rhs = rval(env, scalars, cells)
            else:
                rc = rcell(env, scalars, cells)
                rhs = _OPEN if rc is _OPEN else cells.get(rc, _OPEN)
        except EvalFault as fault:
            return NotEvaluable(fault.reason)
        if lhs is _OPEN:
            if rhs is _OPEN:
                return NOT_EVALUABLE
            target = lc if lcell is not None else _target(lname, env, scalars, cells, arrays)
            value = rhs
        elif rhs is _OPEN:
            target = rc if rcell is not None else _target(rname, env, scalars, cells, arrays)
            value = lhs
        else:
            return CLOSED_TRUE if lhs == rhs else CLOSED_FALSE
        return NOT_EVALUABLE if target is _OPEN else Assignment(target, value)

    return eq


def _side(t: Term, arrays: Decls) -> tuple[TermCode | None, TermCode | None, str | None]:
    """How an equation side is read: (its value, or None when it is an array
    reference, read through its cell), (its cell, or None), and the name a
    bare variable side binds through the environment."""
    if type(t) is ArrayRef:
        return None, compile_cell(t, arrays), None
    return compile_term(t, arrays), None, t.name if type(t) is Var else None


def _eq_var_k(name: str, k: Value, arrays: Decls) -> AtomCode:
    """x = k, or k = x."""
    def eq_var_k(env, scalars, cells, name=name, k=k, arrays=arrays,
                 assign=Assignment(name, k)):  # what binding `name` itself gives
        bound = env.get(name)
        if bound is None:
            target = name
        elif type(bound) is Var:
            target = bound.name
        else:
            return _classify_eq(bound, _constant_term(k), scalars, cells, arrays)
        v = scalars.get(target, _OPEN)
        if v is _OPEN:
            return assign if target is name else Assignment(target, k)
        return CLOSED_TRUE if v == k else CLOSED_FALSE

    return eq_var_k


def _eq_vars(lname: str, rname: str, arrays: Decls) -> AtomCode:
    """x = y."""
    def eq_vars(env, scalars, cells, lname=lname, rname=rname, arrays=arrays):
        lhs = env.get(lname, None)
        rhs = env.get(rname, None)
        lt = lname if lhs is None else lhs.name if type(lhs) is Var else None
        rt = rname if rhs is None else rhs.name if type(rhs) is Var else None
        if lt is None or rt is None:
            return _classify_eq(lhs or Var(lname), rhs or Var(rname), scalars, cells, arrays)
        lv = scalars.get(lt, _OPEN)
        rv = scalars.get(rt, _OPEN)
        if lv is _OPEN:
            return NOT_EVALUABLE if rv is _OPEN else Assignment(lt, rv)
        if rv is _OPEN:
            return Assignment(rt, lv)
        return CLOSED_TRUE if lv == rv else CLOSED_FALSE

    return eq_vars


def _constant_term(v: Value) -> Term:
    return BoolConst(v) if type(v) is bool else IntConst(v)


def _classify_eq(lhs: Term, rhs: Term, scalars: dict, cells: dict, arrays: Decls) -> AtomClass:
    """lhs = rhs between terms built at run time."""
    try:
        lv = value_of(lhs, scalars, cells, arrays)
        rv = value_of(rhs, scalars, cells, arrays)
    except EvalFault as fault:
        return NotEvaluable(fault.reason)
    if lv is _OPEN:
        if rv is _OPEN:
            return NOT_EVALUABLE
        target, value = _resolved_target(lhs, scalars, cells, arrays), rv
    elif rv is _OPEN:
        target, value = _resolved_target(rhs, scalars, cells, arrays), lv
    else:
        return CLOSED_TRUE if lv == rv else CLOSED_FALSE
    return NOT_EVALUABLE if target is _OPEN else Assignment(target, value)


def _target(name: str | None, env: Env, scalars: dict, cells: dict, arrays: Decls):
    """What an open bare-variable side binds: the variable, or what the
    environment resolves it to when that is a variable or a reference with
    closed indices; _OPEN when there is nothing to bind."""
    if name is None:
        return _OPEN
    return _resolved_target(env.get(name) or Var(name), scalars, cells, arrays)


def _resolved_target(t: Term, scalars: dict, cells: dict, arrays: Decls):
    """What an open run-time term binds: itself when it is a variable, its
    cell when it is a reference with closed indices, else _OPEN."""
    if type(t) is Var:
        return t.name
    if type(t) is ArrayRef:
        return cell_value(t, scalars, cells, arrays)
    return _OPEN
