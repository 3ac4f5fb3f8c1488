"""Backtracking execution of program-form formulas.

A query and an initial valuation span a finite computation tree: atoms test or
bind, disjunctions branch, conjunction is sequential, negation/implication
consult the status of a sub-tree, quantifiers introduce fresh variables, and
bounded quantifiers iterate over an integer range.  Leaves are success
valuations, failures, or errors; exploration is lazy, left-to-right and
depth-first, and backtracks past error leaves instead of aborting.

Negation and implication come in the strict flavour (a non-closed operand is
an error) and liberal flavours that stay sound while producing fewer errors:
a failed sub-tree justifies the negation regardless of closedness, and a
success whose valuation pins no free variable of the operand refutes it.
Implication can additionally be rewritten through its disjunctive equivalents
(NOT a OR b, NOT a OR (a AND b), or both) which trade success-finding power
against failure-proving power.

Bodies are never rebuilt, and ranges are not either.  A node of the tree is
a goal: a formula of the program text under an environment, followed by the
goal that runs after it.  The environment maps each binder and procedure
parameter in scope to a resolved term: the fresh variable a quantifier
instance introduced, or the caller's argument with the caller's environment
substituted.  Atoms, bounds, closedness and witness checks read variables
through it, so entering a quantifier or a procedure costs one small dict,
not a copy of the body.  The rest of a bounded range is a cursor (Range):
the program's own bounded head, the next index and the evaluated upper
bound, as in Alma-0's and the WAM's retry choice points.  A step through a
range reads it and builds no formula.

Nor is the text walked again at every step.  The program's compiled form
(ProgramUnit.code, a values.Code) holds one closure per atom and per
non-constant bound the search has reached and each implication's rewrite
per mode, each built the first time the search reaches it and reused by
every later search of the program.
Atoms are still classified through classify_atom and a range's bounds
evaluated, on its first step, through try_eval_term, the names the
benchmark's spans wrap.  The terms environments hold are built at run time
(subst_term) and are never compiled: a chain of calls can make them
arbitrarily deep, so they are evaluated and checked with explicit stacks.
Closedness is not compiled either: formula_closed reads it off the text,
term by term under the environment, because few steps ask for it.  A strict
negation and a pedantic implication ask before their sub-tree runs; a
liberal negation asks only where the answer is read, for a success whose
witness is dirty; iter_trace asks to tag each one it shows.  So
the tiling of the benchmark asks 0 times, and its sweep of generated
programs about once in five solves.

Internally the search keeps one mutable binding store with an undo trail
(bindings are cheap, backtracking pops the trail), but everything it emits is
an immutable Valuation snapshot, so solve/trace stay pure functions of
(program, initial valuation, config) including leaf order.  Before its first
step a call checks and copies only what the initial valuation holds, and a
success leaf copies the store once.

One depth-first loop, _Search.walk, runs every step of every tree and ends
every search: at the end of its tree, at the solution limit or at a budget
cut.  An atom
or a step through a range allocates only the binding and the cursor it
keeps: the loop holds the goal as a conjunction cell, an environment and a
continuation, and builds a goal only for a node of a trace.  The other rules
build one only for a continuation a body or a branch captures.  solve and
iter_leaves read the outcome of each leaf, the negation and implication
rules read the leaves of their sub-trees through subtree_status (which stops
at the first success and reports the bindings it made, read off the trail),
and iter_trace reads every node.  A trace is a lazy preorder stream of nodes
that runs the search only as far as it is read; each node keeps its goal and
builds its formula (the body with the environment substituted, a cursor as
the bounded head it stands for) only when it is asked for.  Nodes that start
from the same store share one snapshot of it: the children of one expansion,
and the children of an expansion that bound nothing together with their
parent.  A trace copies the store once per store state it reaches, and each
copy but the root's is a Snapshot that names the copy it extends and the
bindings made since.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Iterator

from .formulas import (
    Call,
    Cons,
    EMPTY,
    Eq,
    Exists,
    ExistsBounded,
    FalseAtom,
    Forall,
    ForallBounded,
    Formula,
    Head,
    Implies,
    IntConst,
    Not,
    Or,
    ProgramUnit,
    Rel,
    Scalar,
    TrueAtom,
    Var,
    conj,
    free_vars,
    head_parts,
    record,
    subst_head,
    subst_term,
    subterms,
)
from .normalize import FreshNames, fresh_prefix
from .values import (
    Assignment,
    CLOSED_FALSE,
    CLOSED_TRUE,
    Cell,
    Code,
    EMPTY_ENV,
    EMPTY_VALUATION,
    Env,
    EvalFault,
    Valuation,
    Value,
    classify_atom,
    closed_value,
    try_eval_term,
)

# Error-leaf causes.
ATOM_NOT_EVALUABLE = "atom-not-evaluable"
NEGAND_UNDETERMINED = "negand-undetermined"
ANTECEDENT_UNDETERMINED = "antecedent-undetermined"
UNBOUNDED_RANGE = "unbounded-range"
EVALUATION_FAULT = "evaluation-fault"
STEP_BUDGET = "step-budget"


class TreeStatus(Enum):
    SUCCESSFUL = "SUCCESSFUL"
    FAILED = "FAILED"
    UNDETERMINED = "UNDETERMINED"


class NegationMode(Enum):
    STRICT = "strict"
    LIBERAL = "liberal"


class ImplicationMode(Enum):
    STRICT = "strict"
    NEG_OR = "negor"
    GUARDED = "guarded"
    COMBINED = "combined"


@record
class EngineConfig:
    negation: NegationMode = NegationMode.STRICT
    implication: ImplicationMode = ImplicationMode.STRICT
    # verbatim strict implication: disable the two liberal relaxations that
    # strict implication otherwise inherits
    pedantic: bool = False
    max_steps: int | None = None
    solution_limit: int | None = None
    report_internal_bindings: bool = False

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.solution_limit is not None and self.solution_limit < 1:
            raise ValueError("solution_limit must be positive")


@record
class Success:
    valuation: Valuation


@record
class Fail:
    pass


@record
class Error:
    cause: str


Leaf = Success | Fail | Error

FAIL = Fail()
# One error leaf per cause, shared: a search can end in thousands of them.
ERRORS = {cause: Error(cause) for cause in (ATOM_NOT_EVALUABLE, NEGAND_UNDETERMINED,
          ANTECEDENT_UNDETERMINED, UNBOUNDED_RANGE, EVALUATION_FAULT, STEP_BUDGET)}
_LEAF_TAGS = {Success: "success", Fail: "fail", Error: "error"}


def status_of(leaves: Iterator[Leaf] | list[Leaf] | tuple[Leaf, ...]) -> TreeStatus:
    saw_error = False
    for leaf in leaves:
        if isinstance(leaf, Success):
            return TreeStatus.SUCCESSFUL
        if isinstance(leaf, Error):
            saw_error = True
    return TreeStatus.UNDETERMINED if saw_error else TreeStatus.FAILED


# ---------------------------------------------------------------------------
# Goals


class Goal:
    """A non-empty conjunction still to run: `formula` under `env`, then
    `next`.  None stands for the empty conjunction."""

    __slots__ = ("formula", "env", "next")

    def __init__(self, formula: Cons, env: Env, next: Goal | None):
        self.formula = formula
        self.env = env
        self.next = next


class Range(Goal):
    """The rest of a bounded range, a cursor: the program's own bounded head
    (`formula`) from index `lo` to the evaluated upper bound `hi`, under
    `env`, then `next`; `prefix` starts the fresh name of each index.  It
    prints as that head with lo and hi for bounds.  What a step through a
    SOME range leaves is a `choice`: the body under `env`, which binds the
    index just taken, or else the rest of the range."""

    __slots__ = ("lo", "hi", "prefix", "choice")

    def __init__(self, head: ExistsBounded | ForallBounded, lo: int, hi: int, prefix: str,
                 env: Env, next: Goal | None, choice: bool = False):
        self.formula, self.env, self.next = head, env, next
        self.lo, self.hi, self.prefix, self.choice = lo, hi, prefix, choice

    def head(self) -> Head:
        """The conjunct this cursor stands for, built to be printed."""
        h = self.formula
        rest = type(h)(h.var, IntConst(self.lo), IntConst(self.hi), h.body)
        return Or(h.body, Cons(rest, EMPTY)) if self.choice else rest


@record(frozen=False)
class TraceNode:
    """One node of the materialized computation tree.  Internal nodes carry
    the goal that was expanded, the valuation it was expanded under and the
    tag of the rule that fired; leaf nodes carry the leaf payload instead.
    Nodes expanded under the same store share one Valuation object."""

    tag: str
    goal: Goal | None = None
    valuation: Valuation | None = None
    children: list["TraceNode"] | None = None  # a new list when not given
    leaf: Leaf | None = None

    def __post_init__(self) -> None:
        if self.children is None:
            self.children = []

    @property
    def formula(self) -> Formula | None:
        """The remaining formula at this node, each goal part with its
        environment substituted; None on leaves."""
        if self.leaf is not None:
            return None
        heads, g = [], self.goal
        while g is not None:
            parts = (g.head(),) if type(g) is Range else g.formula
            heads += (subst_head(head, g.env) for head in parts)
            g = g.next
        return conj(*heads)

    def preorder(self) -> Iterator[tuple[int, TraceNode]]:
        """(depth, node) for this tree in preorder, as iter_trace yields them."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield depth, node
            stack.extend((c, depth + 1) for c in reversed(node.children))

    def leaves(self) -> Iterator[Leaf]:
        return (node.leaf for _, node in self.preorder() if node.leaf is not None)

    def node_count(self) -> int:
        return sum(1 for _ in self.preorder())


@record
class SolveResult:
    leaves: tuple[Leaf, ...]
    status: TreeStatus
    steps: int

    @property
    def solutions(self) -> tuple[Valuation, ...]:
        return tuple(l.valuation for l in self.leaves if isinstance(l, Success))

    @property
    def leaf_counts(self) -> tuple[int, int, int]:
        kinds = [type(l) for l in self.leaves]
        return kinds.count(Success), kinds.count(Fail), kinds.count(Error)

    @property
    def error_causes(self) -> tuple[str, ...]:
        return tuple(sorted({l.cause for l in self.leaves if isinstance(l, Error)}))


Bindings = tuple[tuple["str | Cell", Value], ...]


class _State(Valuation):
    """The search's live binding store: a valuation plus an undo trail.
    Scalar keys are strings and cell keys are tuples, so the trail stores the
    bare keys.  Never leaks out of the engine; leaves carry snapshots."""

    __slots__ = ("trail",)

    def __init__(self, initial: Valuation):
        self.scalars, self.cells = dict(initial.scalars), dict(initial.cells)  # written in place
        self.trail: list[str | Cell] = []

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        assert len(trail) >= mark
        while len(trail) > mark:
            key = trail.pop()
            if type(key) is str:
                del self.scalars[key]
            else:
                del self.cells[key]

    def bindings_since(self, mark: int) -> Bindings:
        return tuple(
            (k, self.scalars[k] if type(k) is str else self.cells[k])
            for k in self.trail[mark:]
        )

    def snapshot(self, parent: Valuation | None = None, mark: int = 0) -> Valuation:
        """A copy of the store; a Snapshot of it, given the one taken at mark."""
        return (Valuation(self.scalars, self.cells) if parent is None
                else Snapshot(self.scalars, self.cells, parent, self.bindings_since(mark)))


class Snapshot(Valuation):
    """A store of a trace: `parent`, the store it extends, plus `bindings`."""

    __slots__ = ("parent", "bindings")

    def __init__(self, scalars: dict, cells: dict, parent: Valuation, bindings: Bindings):
        super().__init__(scalars, cells)
        self.parent, self.bindings = parent, bindings


# What walk() yields for a success leaf, whose valuation the reader takes
# from the store (solve, trace) or the trail (subtree_status), and for the
# goal a step budget cut: the error leaf that ends the tree.
_SUCCEEDED = object()
_CUT = ERRORS[STEP_BUDGET]

# A rule returns (tag, outcome): its children, each a formula, its
# environment and the goal after it, or FAIL, an Error, or a range's cursor
# for the loop to step.  Its bindings are on the trail already, and every
# child starts from the state after them.
Expansion = tuple[str, "tuple[tuple[Formula, Env, Goal | None], ...] | Leaf | Range"]


class _Search(FreshNames):
    def __init__(self, program: ProgramUnit, config: EngineConfig, initial: Valuation,
                 check: bool = True):
        """A search of `program` from `initial`, after checking both."""
        if not program.normalized:
            raise ValueError("program must be normalized before execution")
        if check and (initial.scalars or initial.cells):
            check_initial(program, initial)
        self.next_id = program.fresh_base  # instances are named on from the binders
        self.cfg = config
        self.code = program.code
        self.steps = 0
        self.budget = sys.maxsize if config.max_steps is None else config.max_steps
        self.state = _State(initial)

    # -- the depth-first loop ------------------------------------------------

    def walk(self, f: Formula, env: Env, every_node: bool = False,
             limit: int | None = None) -> Iterator:
        """Run the tree of f under env and the current state, depth first and
        left to right.  Yield each leaf's outcome (_SUCCEEDED, FAIL, an
        Error), or with every_node (a trace) (depth, goal, tag, outcome, mark)
        for each node, an inner one's outcome a tuple; mark is the trail
        length before the step, and the store is as the step left it.  A
        step's first child runs next, the others wait on the stack.  The walk
        returns after its limit-th success.  A budget cut, in this walk or in
        a sub-tree a rule read, yields _CUT at the depth of the goal it cut
        and ends the walk."""
        state, code, budget = self.state, self.code, self.budget
        trail, stack = state.trail, []
        nxt, mark, depth, found = None, len(trail), 0, 0
        while True:
            if type(f) is Cons:
                if every_node:
                    node = Goal(f, env, nxt)
            else:  # the conjunction is done: its continuation runs
                node = f = nxt
                if type(f) is Goal:  # a cursor or the empty goal runs as it is
                    f, env, nxt = f.formula, f.env, f.next
            self.steps += 1
            if self.steps > budget:
                break
            if type(f) is Cons and type(f.head) in _ATOMS:  # the commonest step
                tag, cls = "atom", classify_atom(f.head, state, code, env)
                if cls is CLOSED_TRUE or type(cls) is Assignment:
                    if cls is not CLOSED_TRUE:
                        key = cls.target
                        (state.scalars if type(key) is str else state.cells)[key] = cls.value
                        trail.append(key)
                    outcome, f = (), f.tail
                else:
                    outcome = FAIL if cls is CLOSED_FALSE else ERRORS[
                        EVALUATION_FAULT if cls.fault is not None else ATOM_NOT_EVALUABLE]
            elif type(f) is Cons:
                head, tail = f.head, f.tail
                rule = _RULES.get(type(head))
                if rule is None:
                    raise (ValueError("unbounded FORALL reached the engine; normalize first")
                           if isinstance(head, Forall) else TypeError(f"unknown head {head!r}"))
                tag, outcome = rule(self, head, env,
                                    Goal(tail, env, nxt) if type(tail) is Cons else nxt)
                if self.steps > budget:  # a sub-tree the rule read was cut
                    break
                if type(outcome) is Range:  # a range with its bounds: step it below
                    f = outcome
            elif f is None:
                tag, outcome = "empty", _SUCCEEDED
            if type(f) is Range:
                r, outcome = f, ()
                head, env, nxt, lo, hi = r.formula, r.env, r.next, r.lo, r.hi
                if r.choice:  # the body, which binds the index just taken, or the rest
                    tag, f = "disjunction", head.body
                    others = Range(head, lo, hi, r.prefix, env, nxt)
                    stack.append((EMPTY, env, others, len(trail), depth + 1))
                else:
                    exists = type(head) is ExistsBounded
                    tag = "bounded-exists" if exists else "bounded-forall"
                    if lo > hi:  # an empty range: SOME fails, FOR holds
                        outcome, f = (FAIL, f) if exists else ((), EMPTY)
                    else:
                        name, self.next_id = f"{r.prefix}{self.next_id}", self.next_id + 1
                        state.scalars[name] = lo
                        trail.append(name)
                        inner = {**env, head.var: Var(name)}
                        # SOME leaves a choice, whose rest rebinds head.var, so runs under inner
                        f, env, nxt = (EMPTY if exists else head.body), inner, Range(
                            head, lo + 1, hi, r.prefix, inner if exists else env, nxt, exists)
            if type(outcome) is not tuple:  # a leaf: the next goal waits on the stack
                yield (depth, node, tag, outcome, mark) if every_node else outcome
                if outcome is _SUCCEEDED:
                    found += 1
                    if found == limit:
                        return
                if not stack:
                    return
                f, env, nxt, mark, depth = stack.pop()
                if len(trail) != mark:
                    state.undo_to(mark)
                continue
            if every_node:
                yield depth, node, tag, outcome, mark
                depth, mark = depth + 1, len(trail)
            if outcome:  # a rule's children
                after = len(trail)
                stack += [(c, e, n, after, depth) for c, e, n in outcome[:0:-1]]
                f, env, nxt = outcome[0]
        yield (depth, None, "error", _CUT, mark) if every_node else _CUT

    def _leaf(self, outcome) -> Leaf:
        if outcome is not _SUCCEEDED:
            return outcome
        state = self.state
        if self.cfg.report_internal_bindings:
            return Success(state.snapshot())
        free = self.code.free
        kept = Valuation.__new__(Valuation)  # filled here: Valuation() would copy again
        kept.scalars = {k: v for k, v in state.scalars.items() if k in free}
        kept.cells = dict(state.cells) if state.cells else EMPTY_VALUATION.cells
        return Success(kept)

    # -- the rules the loop calls -------------------------------------------

    def _expand_or(self, head: Or, env: Env, rest: Goal | None) -> Expansion:
        return "disjunction", ((head.left, env, rest), (head.right, env, rest))

    def _expand_exists(self, head: Exists, env: Env, rest: Goal | None) -> Expansion:
        inner = {**env, head.var: Var(self.fresh(head.var), head.sort)}
        return "exists", ((head.body, inner, rest),)

    def _expand_call(self, head: Call, env: Env, rest: Goal | None) -> Expansion:
        body, callee = self._callee(head, env)
        return "procedure-unfold", ((body, callee, rest),)

    def _callee(self, head: Call, env: Env) -> tuple[Formula, Env]:
        """The body of the procedure head calls and the environment it runs
        under: each parameter bound to its argument with env substituted."""
        proc = self.code.procedures.get(head.name)
        if proc is None:
            raise ValueError(f"unknown procedure {head.name!r}")
        if len(proc.params) != len(head.args):
            raise ValueError(f"procedure {head.name!r} expects {len(proc.params)} "
                             f"argument(s), got {len(head.args)}")
        return proc.body, {p: subst_term(arg, env) for (p, _), arg in zip(proc.params, head.args)}

    def _expand_not(self, head: Not, env: Env, rest: Goal | None) -> Expansion:
        """A liberal negation continues on a failed operand and fails on a
        clean witness whatever closedness says, so it checks closedness only
        for a dirty witness.  It is tagged liberal-negation even when its
        operand is closed; iter_trace relabels the nodes it shows."""
        strict = self.cfg.negation is NegationMode.STRICT
        if strict and not self.formula_closed(head.body, env):
            return "negation", ERRORS[NEGAND_UNDETERMINED]
        tag = "negation" if strict else "liberal-negation"
        status, bindings = self.subtree_status(head.body, env)
        if status is TreeStatus.FAILED:
            return tag, ((EMPTY, env, rest),)
        if status is TreeStatus.SUCCESSFUL and (
                strict or self._witness_clean(head.body, env, bindings)
                or self.formula_closed(head.body, env)):
            return tag, FAIL
        return tag, ERRORS[NEGAND_UNDETERMINED]

    def _expand_implies(self, head: Implies, env: Env, rest: Goal | None) -> Expansion:
        mode = self.cfg.implication
        if mode is not ImplicationMode.STRICT:
            rewritten = self.code.part(("rewrite", id(head), mode), head,
                                       lambda: _rewrite(head, mode))
            return "implication-rewrite", ((rewritten, env, rest),)
        if self.cfg.pedantic and not self.formula_closed(head.antecedent, env):
            return "implication", ERRORS[ANTECEDENT_UNDETERMINED]
        status, bindings = self.subtree_status(head.antecedent, env)
        if status is TreeStatus.FAILED:
            return "implication", ((EMPTY, env, rest),)
        if status is TreeStatus.SUCCESSFUL:
            if self.cfg.pedantic or self._witness_clean(head.antecedent, env, bindings):
                return "implication", ((head.consequent, env, rest),)
        return "implication", ERRORS[ANTECEDENT_UNDETERMINED]

    def _expand_bounded(self, head: ExistsBounded | ForallBounded, env: Env,
                        rest: Goal | None) -> Expansion:
        """A range's first step: evaluate its bounds.  The loop then steps
        the range as a cursor, as it does every later step through it."""
        tag = "bounded-exists" if type(head) is ExistsBounded else "bounded-forall"
        try:
            lo = try_eval_term(head.lo, self.state, self.code, env)
            hi = try_eval_term(head.hi, self.state, self.code, env)
        except EvalFault:
            return tag, ERRORS[EVALUATION_FAULT]
        if lo is None or hi is None:
            return tag, ERRORS[UNBOUNDED_RANGE]
        return tag, Range(head, lo, hi, fresh_prefix(head.var), env, rest)

    # -- sub-tree status (negands, antecedents) -----------------------------

    def subtree_status(self, f: Formula, env: Env) -> tuple[TreeStatus, Bindings]:
        """Explore the tree of f under env and the current state: stop at the first
        success leaf (the bindings it made are the witness); otherwise exhaust
        the tree so FAILED really means only-failure-leaves.  A budget cut is
        an error leaf, so a cut tree reads UNDETERMINED.  The state is
        restored before returning."""
        state = self.state
        base = len(state.trail)
        saw_error = False
        try:
            for outcome in self.walk(f, env):
                if outcome is _SUCCEEDED:
                    return TreeStatus.SUCCESSFUL, state.bindings_since(base)
                if type(outcome) is Error:
                    saw_error = True
            return (TreeStatus.UNDETERMINED if saw_error else TreeStatus.FAILED), ()
        finally:
            state.undo_to(base)

    def _witness_clean(self, operand: Formula, env: Env, bindings: Bindings) -> bool:
        """A success of the operand refutes its negation only when the witness
        pinned nothing that is still free in the operand under the current
        state: no new array-cell bindings and no new binding of a free
        variable."""
        free = None
        for key, _ in bindings:
            if type(key) is not str:
                return False
            if free is None:
                free = set()
                names = self.code.part(("free", id(operand)), operand, lambda: free_vars(operand))
                for name in names:
                    bound = env.get(name)
                    if bound is None:
                        free.add(name)
                    else:
                        free.update(t.name for t in subterms(bound) if type(t) is Var)
            if key in free:
                return False
        return True

    # -- formula closedness --------------------------------------------------

    def formula_closed(self, f: Formula, env: Env) -> bool:
        """Every free variable has a value and every array reference denotes a
        bound cell.  References whose indices depend on quantified variables
        cannot be resolved statically and count as not closed.

        The text is read as written: each term with env substituted, and a
        binder met on the way to it counts as closed.  No environment maps a
        binder of the formula it reads (binder names are unique and calls are
        acyclic), so an array index that reads one reads it as open.  A
        call's body is read under the callee's environment, from the same
        stack, so a deep chain of calls does not recurse."""
        arrays, scalars, cells = self.code.arrays, self.state.scalars, self.state.cells
        todo = [(f, env, frozenset())]  # (formula, its environment, binders met)
        while todo:
            f, env, bound = todo.pop()
            while type(f) is Cons:
                h = f.head
                terms, subs, var = head_parts(h)
                for t in terms:
                    if not closed_value(subst_term(t, env) if env else t,
                                        bound, scalars, cells, arrays):
                        return False
                if type(h) is Call:
                    body, callee = self._callee(h, env)
                    todo.append((body, callee, bound))
                if subs:
                    inner = bound if var is None else bound | {var}
                    todo += [(sub, env, inner) for sub in subs]
                f = f.tail
        return True


def _rewrite(head: Implies, mode: ImplicationMode) -> Cons:
    """The disjunction an implication a -> b runs as under a rewriting mode:
    NOT a OR b, NOT a OR (a AND b), or NOT a OR (b OR (a AND b))."""
    neg_branch = conj(Not(head.antecedent))
    if mode is ImplicationMode.NEG_OR:
        return conj(Or(neg_branch, head.consequent))
    guarded = conj(*head.antecedent, *head.consequent)
    if mode is ImplicationMode.GUARDED:
        return conj(Or(neg_branch, guarded))
    return conj(Or(neg_branch, conj(Or(head.consequent, guarded))))


# The expansion rule of each head type.
_ATOMS = frozenset((Eq, Rel, TrueAtom, FalseAtom))  # walk() steps them itself
_RULES = {
    Call: _Search._expand_call,
    Or: _Search._expand_or,
    Not: _Search._expand_not,
    Implies: _Search._expand_implies,
    Exists: _Search._expand_exists,
    ExistsBounded: _Search._expand_bounded,
    ForallBounded: _Search._expand_bounded,
}


# ---------------------------------------------------------------------------
# Public entry points


def check_initial(program: ProgramUnit, initial: Valuation) -> None:
    """Raise ValueError unless initial binds only free variables of the
    query and cells of declared arrays, each in range and of its sort."""
    free, arrays = program.code.free, program.code.arrays
    for name, value in initial.scalars.items():
        if name not in free:
            raise ValueError(f"{name!r} is not a free variable of the query")
        want = free[name]
        if (type(value) is bool) != (want is Scalar.BOOL):
            raise ValueError(f"value for {name!r} must have sort {want}")
    for (array, idx), value in initial.cells.items():
        decl = arrays.get(array)
        if decl is None:
            raise ValueError(f"unknown array {array!r}")
        if not decl.in_range(idx):
            raise ValueError(f"index {list(idx)} out of range for array {array!r}")
        if (type(value) is bool) != (decl.element is Scalar.BOOL):
            raise ValueError(f"cells of {array!r} hold {decl.element} values")


def iter_leaves(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> Iterator[Leaf]:
    """Lazy left-to-right leaf sequence of the query's computation tree."""
    search = _Search(program, config, initial)
    for outcome in search.walk(program.query, EMPTY_ENV, limit=config.solution_limit):
        yield search._leaf(outcome)


def solve(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> SolveResult:
    """Explore the tree (respecting solution/step limits) and classify it:
    SUCCESSFUL with the success leaves found, FAILED when every leaf failed,
    UNDETERMINED otherwise."""
    search = _Search(program, config, initial)
    leaves: list[Leaf] = []
    succeeded = errors = False
    for outcome in search.walk(program.query, EMPTY_ENV, limit=config.solution_limit):
        if outcome is _SUCCEEDED:
            succeeded, outcome = True, search._leaf(outcome)
        elif type(outcome) is Error:
            errors = True
        leaves.append(outcome)
    status = (TreeStatus.SUCCESSFUL if succeeded
              else TreeStatus.UNDETERMINED if errors else TreeStatus.FAILED)
    return SolveResult(tuple(leaves), status, search.steps)


def eval_subtree_status(
    program: ProgramUnit,
    f: Formula,
    a: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> tuple[TreeStatus, Valuation | None]:
    """Status of the tree of (f, a): SUCCESSFUL with the first success leaf as
    witness, FAILED only after exhaustive exploration, else UNDETERMINED.
    f need not be part of the program, so it runs on code of its own."""
    search = _Search(program, config, a, check=False)
    search.code = Code(program)
    status, bindings = search.subtree_status(f, EMPTY_ENV)
    if status is not TreeStatus.SUCCESSFUL:
        return status, None
    scalars, cells = dict(a.scalars), dict(a.cells)
    for key, value in bindings:
        (scalars if type(key) is str else cells)[key] = value
    return status, Valuation(scalars, cells)


def iter_trace(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> Iterator[tuple[int, TraceNode]]:
    """The computation tree as a lazy preorder stream of (depth, node), nodes
    tagged with the rule that fired (a liberal negation whose operand is
    closed as a negation) and without children: a leaf node follows
    the node it ends.  The search runs only as far as the stream is read.  On
    budget exhaustion a step-budget error node, at the depth of the goal it
    cut, ends the stream.  Nodes expanded under the same store share one
    snapshot of it, a Snapshot of the store it extends but at the root."""
    search = _Search(program, config, initial)
    state = search.state
    # stores[d] is the store the nodes at depth d start from: their parent's,
    # when its expansion bound nothing, else a snapshot taken right after it
    stores = [state.snapshot()]
    walk = search.walk(program.query, EMPTY_ENV, every_node=True, limit=config.solution_limit)
    for depth, g, tag, outcome, mark in walk:
        if outcome is _CUT:
            yield depth, TraceNode(tag, leaf=outcome)
            return
        # a negation binds nothing, so the store is still the one it ran under
        if tag == "liberal-negation" and search.formula_closed(g.formula.head.body, g.env):
            tag = "negation"
        yield depth, TraceNode(tag, goal=g, valuation=stores[depth])
        if type(outcome) is tuple:
            del stores[depth + 1:]
            parent = stores[depth]
            stores.append(parent if len(state.trail) == mark else state.snapshot(parent, mark))
            continue
        leaf = search._leaf(outcome)
        valuation = leaf.valuation if outcome is _SUCCEEDED else None
        yield depth + 1, TraceNode(_LEAF_TAGS[type(leaf)], valuation=valuation, leaf=leaf)


def trace(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> TraceNode:
    """Materialize the computation tree by linking up iter_trace(); its leaf
    sequence equals the one solve() emits under the same config."""
    path: list[TraceNode] = []  # the nodes from the root to the last one
    for depth, node in iter_trace(program, initial, config):
        del path[depth:]
        if path:
            path[-1].children.append(node)
        path.append(node)
    return path[0]
