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

The text of a program never changes while it runs, so each of its atoms
and range bounds runs as one Python function generated from its text: the
interpreter partially evaluated on the program (Jones, Gomard and Sestoft,
"Partial Evaluation and Automatic Program Generation", 1993).  Constants
are folded, variable reads and array references go inline, and an equation
that binds writes the value into the store it was given and returns the
key it bound.  The source of a function names its constants, names, ranges
and operators by parameters, so atoms of one shape share one compiled
source in a process.  `Code` is the compiled form of one program unit,
built part by part the first time a search reaches each part; the unit
owns it (`ProgramUnit.code`), so every search of the program reuses it.
The terms an environment maps names to are built at run time, and are
evaluated by `value_of`, which walks them with an explicit stack however
deep a chain of calls made them.
"""

from __future__ import annotations

import operator
from types import FunctionType
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

# (env, scalars, cells) -> CLOSED_TRUE, CLOSED_FALSE, a NotEvaluable, or the
# key of the variable or cell it bound, the value written into scalars or
# cells: a compiled atom
AtomCode = Callable[[Env, dict, dict], object]


# ---------------------------------------------------------------------------
# Arrays and compiled code


# array name -> its declaration: the declared arrays of a program unit
Decls = Mapping[str, ArrayDecl]
NO_ARRAYS: Decls = {}  # shared: never written


class Code:
    """The compiled form of one program unit, built part by part: an atom or
    a range's bound is compiled the first time it is asked for, and so is
    each part the engine keeps (implication rewrites, the free variables of
    a witness-checked operand).  Closedness is read off the text instead
    (engine.formula_closed): only strict negation, pedantic implication, a
    dirty witness and a traced negation's tag ask for it, too rarely for
    compiling it to pay.  The table is keyed by the identity of program-text
    nodes and keeps every node it is keyed by alive, so no key is ever
    reused by another node.  Give it only nodes of the program text: a node
    built at run time would be compiled on every visit and kept for good.
    The compiled code refers to `arrays`, never to the table, so a program
    and its code are freed together when the program is.  Searches also
    read the procedures by name and the query's free variables' sorts off
    it."""

    __slots__ = ("arrays", "procedures", "free", "table", "_keep")

    def __init__(self, program: ProgramUnit):
        self.arrays = {d.name: d for d in program.arrays} if program.arrays else NO_ARRAYS
        self.procedures = {p.name: p for p in program.procedures}
        self.free = dict(program.free_vars)
        # id(atom or bound) -> its code; (kind, id(node), ...) -> an engine part
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

    def atom(self, atom: Atom) -> AtomCode:
        """The generated function of an atom of the program."""
        return self.part(id(atom), atom, lambda: compile_atom(atom, self.arrays))

    def bound(self, t: Term) -> TermCode:
        """The generated function of a bound of one of the program's ranges."""
        return self.part(id(t), t, lambda: compile_bound(t, self.arrays))


def _ranges(t: ArrayRef, arrays: Decls) -> tuple:
    """The declared ranges of t's array when they match its indices."""
    decl = arrays.get(t.array)
    return decl.ranges if decl is not None and len(decl.ranges) == len(t.indices) else ()


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
    """The cell a run-time reference denotes, _OPEN while an index is open.
    Only read after value_of(t), which range-checks closed indices."""
    key = []
    for i in t.indices:
        v = value_of(i, scalars, cells, arrays)
        if v is _OPEN:
            return _OPEN
        key.append(v)
    return (t.array, tuple(key))


def _resolved_target(t: Term, scalars: dict, cells: dict, arrays: Decls):
    """What an open run-time term binds: itself when it is a variable, its
    cell when it is a reference with closed indices, else _OPEN."""
    if type(t) is Var:
        return t.name
    if type(t) is ArrayRef:
        return cell_value(t, scalars, cells, arrays)
    return _OPEN


def closed_value(t: Term, bound: frozenset[str], scalars: dict, cells: dict, arrays: Decls,
                 known: dict | None = None) -> bool:
    """Whether t is closed under an empty environment: each variable has a
    value or is in bound, and each array reference denotes a bound cell.
    known (id -> term) holds terms found closed before, which are not read
    again; t joins it when it is closed without a name of bound."""
    known = {} if known is None else known
    todo, binder = [t], False
    while todo:
        s = todo.pop()
        kind = type(s)
        if id(s) in known:
            continue
        if kind is Var:
            if s.name not in scalars:
                if s.name not in bound:
                    return False
                binder = True
        elif kind is App:
            todo += s.args
        elif kind is ArrayRef:
            try:
                if value_of(s, scalars, cells, arrays) is _OPEN:
                    return False
            except EvalFault:
                return False
    if not binder:
        known[id(t)] = t
    return True


# ---------------------------------------------------------------------------
# Public evaluation


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


def classify_atom(atom: Atom, a: Valuation, code: Code, env: Env = EMPTY_ENV) -> AtomClass:
    """Decide the evaluation case for an atom of code's program under env
    and a valuation, by running its generated function on copies of a's
    dicts.  Procedure calls are unfolded by the engine before
    classification and are rejected here.  Faults are reported in-band via
    NotEvaluable.fault."""
    scalars, cells = dict(a.scalars), dict(a.cells)
    cls = code.atom(atom)(env, scalars, cells)
    if type(cls) is str:
        return Assignment(cls, scalars[cls])
    if type(cls) is tuple:
        return Assignment(cls, cells[cls])
    return cls


# ---------------------------------------------------------------------------
# Generating code.
#
# Each atom and each non-constant bound of the program text runs as one
# Python function generated from it: the interpreter partially evaluated on
# the program text (Jones, Gomard and Sestoft, "Partial Evaluation and
# Automatic Program Generation", 1993).  The source takes each constant,
# variable name, declared range and operator function as a parameter, so
# what it depends on is the atom's shape (_shape), whose source is
# generated and compiled once in a process; an atom's function is that
# code with the atom's own values as the parameters' defaults.  The source
# is flat however deep the text nests: one local per subterm, each set by a
# simple statement, and an index after the first is read under a flag that
# says every index before it is closed.  A name v... holds a value or
# _OPEN, a name p... a parameter.

# What reads a variable {n} through the environment, which maps it to {e},
# and what an open one binds.
_VAR_VALUE = ("scalars.get({n}, _OPEN) if {e} is None else scalars.get({e}.name, _OPEN) "
              "if type({e}) is Var else value_of({e}, scalars, cells, arrays)")
_VAR_TARGET = ("{n} if {e} is None else {e}.name if type({e}) is Var "
               "else _resolved_target({e}, scalars, cells, arrays)")
# The class of a relation between values {l} and {r}.
_REL_CLASS = "NOT_EVALUABLE if {open} else CLOSED_TRUE if {holds}({l}, {r}) else CLOSED_FALSE"

SHAPE_CACHE = 4096  # the shapes kept compiled; a full cache starts afresh
_shapes: dict = {}  # shape (_shape) -> the code of its generated function


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


def _closed_true(env, scalars, cells):
    return CLOSED_TRUE


def _closed_false(env, scalars, cells):
    return CLOSED_FALSE


def compile_atom(atom: Atom, arrays: Decls) -> AtomCode:
    """atom as one generated function (env, scalars, cells) -> its class, or
    the key of what it bound, the value written into scalars or cells.  Each
    side is read before either is tested.  An open side that is a bare
    variable or an array reference with closed indices is what an equation
    binds.  Atoms that read nothing share one function per class."""
    kind = type(atom)
    if kind is TrueAtom:
        return _closed_true
    if kind is FalseAtom:
        return _closed_false
    if kind is Call:
        raise TypeError("procedure atoms must be unfolded before classification")
    if kind is not Eq and kind is not Rel:
        raise TypeError(f"unknown atom {atom!r}")
    holds = operator.eq if kind is Eq else _RELATIONS[atom.op]
    lk, rk = _constant(atom.lhs), _constant(atom.rhs)
    if lk is not _OPEN and rk is not _OPEN:
        return _closed_true if holds(lk, rk) else _closed_false
    values = [arrays]
    shape = ("eq" if kind is Eq else "rel", _shape(atom.lhs, values, arrays),
             _shape(atom.rhs, values, arrays))
    if kind is Rel:
        values.append(holds)
    return _function(shape, values)


def compile_bound(t: Term, arrays: Decls) -> TermCode:
    """A range's bound as one generated function (env, scalars, cells) ->
    its value or _OPEN; it raises EvalFault where t faults."""
    values = [arrays]
    return _function(("bound", _shape(t, values, arrays), None), values)


def _shape(t: Term, values: list, arrays: Decls):
    """What the generated code that reads t depends on: "k" for a constant,
    "x" for a variable, ("f", lhs, rhs) for a function and ("[", indices,
    ranges known) for an array reference.  The values its parameters take
    are appended to values, in the order the generator names them."""
    k = _constant(t)
    if k is not _OPEN:
        values.append(k)
        return "k"
    kind = type(t)
    if kind is Var:
        values.append(t.name)
        return "x"
    if kind is App:
        shape = ("f", _shape(t.args[0], values, arrays), _shape(t.args[1], values, arrays))
        values.append(_FUNCTIONS[t.op])
        return shape
    if kind is ArrayRef:
        indices = tuple(_shape(i, values, arrays) for i in t.indices)
        ranges = _ranges(t, arrays)
        values.append(t.array)
        for lo_hi in ranges:
            values += lo_hi
        return ("[", indices, bool(ranges))
    raise TypeError(f"unknown term {t!r}")


def _function(shape: tuple, values: list) -> Callable:
    """The function generated for shape, its parameters' defaults values."""
    code = _shapes.get(shape)
    if code is None:
        if len(_shapes) >= SHAPE_CACHE:
            _shapes.clear()
        namespace: dict = {}
        exec(compile(_Source().function(shape), "<fap generated>", "exec"), globals(), namespace)
        code = _shapes[shape] = namespace["generated"].__code__
    return FunctionType(code, globals(), code.co_name, tuple(values))


def _any_open(*names: str) -> str:
    """The test that one of the named values is _OPEN ('' when each is a
    constant's parameter)."""
    return " or ".join(f"{n} is _OPEN" for n in names if n[0] == "v")


class _Source:
    """The source of the function generated for one shape: its parameters
    are `arrays`, then p0, p1, ... in the order _shape gives their values."""

    def __init__(self):
        self.lines: list[str] = []
        self.guard: str | None = None  # the flag the statements emitted now run under
        self.params = self.names = 0

    def function(self, shape: tuple) -> str:
        kind, lhs, rhs = shape
        if kind == "bound":
            value = self.term(lhs)
            body = [*self.lines, f"return {value}"]
        elif kind == "rel":
            lhs, rhs = self.term(lhs), self.term(rhs)
            body = self._try() + ["return " + _REL_CLASS.format(
                open=_any_open(lhs, rhs), holds=self.param(), l=lhs, r=rhs)]
        else:
            (lhs, ltarget), (rhs, rtarget) = self.side(lhs), self.side(rhs)
            body = self._try() + [
                f"if {lhs} is _OPEN:", f"    if {rhs} is _OPEN:", "        return NOT_EVALUABLE",
                f"    key, value = {ltarget}, {rhs}",
                f"elif {rhs} is _OPEN:", f"    key, value = {rtarget}, {lhs}",
                "else:", f"    return CLOSED_TRUE if {lhs} == {rhs} else CLOSED_FALSE",
                "if key is _OPEN:", "    return NOT_EVALUABLE",
                "(scalars if type(key) is str else cells)[key] = value", "return key"]
        params = "".join(f", p{i}" for i in range(self.params))
        return f"def generated(env, scalars, cells, arrays{params}):\n    " + "\n    ".join(body)

    def _try(self) -> list[str]:
        """The statements emitted so far, a fault in them the atom's class."""
        return ["try:", *(f"    {line}" for line in self.lines),
                "except EvalFault as fault:", "    return NotEvaluable(fault.reason)"]

    def param(self) -> str:
        self.params += 1
        return f"p{self.params - 1}"

    def local(self, kind: str) -> str:
        self.names += 1
        return f"{kind}{self.names}"

    def emit(self, statement: str) -> None:
        self.lines.append(statement if self.guard is None else f"if {self.guard}: {statement}")

    def term(self, shape) -> str:
        """Emit what reads a term of this shape; return the name that then
        holds its value."""
        if shape == "k":
            return self.param()
        if shape == "x":
            return self.var()[0]
        if shape[0] == "[":
            return self.ref(shape)[0]
        args = [self.term(shape[1]), self.term(shape[2])]
        v, call = self.local("v"), f"{self.param()}({', '.join(args)})"
        test = _any_open(*args)  # '' only where folding the constants faulted
        self.emit(f"{v} = _OPEN if {test} else {call}" if test else f"{v} = {call}")
        return v

    def side(self, shape) -> tuple[str, str]:
        """Emit what reads an equation side; return the name of its value
        and what it binds while open (_OPEN for a side that binds nothing)."""
        if shape == "x":
            return self.var()
        if shape[0] == "[":
            return self.ref(shape)
        return self.term(shape), "_OPEN"

    def var(self) -> tuple[str, str]:
        """Emit what reads a variable through the environment; return the
        name of its value and what it binds while open."""
        n, e, v = self.param(), self.local("e"), self.local("v")
        self.emit(f"{e} = env.get({n})")
        self.emit(f"{v} = " + _VAR_VALUE.format(n=n, e=e))
        return v, _VAR_TARGET.format(n=n, e=e)

    def ref(self, shape: tuple) -> tuple[str, str]:
        """Emit what reads an array reference: its indices in order, each
        after the first only while those before it are closed, then the
        range check of closed indices.  Return the names of its value and of
        its cell, each _OPEN while an index is open."""
        _, shapes, ranges_known = shape
        outer = closed = self.guard  # what holds while the indices so far are closed
        indices: list[str] = []
        for i in shapes:
            if indices and indices[-1][0] == "v":
                self.guard = closed = self._closed(closed, indices[-1])
            indices.append(self.term(i))
        self.guard = outer
        if indices[-1][0] == "v":
            closed = self._closed(closed, indices[-1])
        name, key = self.param(), f"({''.join(i + ', ' for i in indices)})"
        check = (" and ".join(f"{self.param()} <= {i} <= {self.param()}" for i in indices)
                 if ranges_known else f"arrays[{name}].in_range({key})")
        cell, v = self.local("k"), self.local("v")
        # unguarded: closed already holds the guard this reference is read under
        if closed is None:
            self.lines += [f"if not ({check}): raise EvalFault(FAULT_RANGE)",
                           f"{cell} = ({name}, {key})", f"{v} = cells.get({cell}, _OPEN)"]
        else:
            self.lines += [f"if {closed} and not ({check}): raise EvalFault(FAULT_RANGE)",
                           f"{cell} = ({name}, {key}) if {closed} else _OPEN",
                           f"{v} = _OPEN if {cell} is _OPEN else cells.get({cell}, _OPEN)"]
        return v, cell

    def _closed(self, before: str | None, index: str) -> str:
        """A flag, set whatever guard holds: `before` holds and index is closed."""
        flag = self.local("f")
        self.lines.append(f"{flag} = {before} and {index} is not _OPEN" if before
                          else f"{flag} = {index} is not _OPEN")
        return flag
