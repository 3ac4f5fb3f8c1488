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

Bodies are never rebuilt.  A node of the tree is a goal: a formula of the
program text under an environment, followed by the goal that runs after it.
The environment maps each binder and procedure parameter in scope to a
resolved term: the fresh variable a quantifier instance introduced, or the
caller's argument with the caller's environment applied.  Atoms, bounds,
closedness and witness checks read variables through it, so entering a
quantifier or a procedure costs one small dict, not a copy of the body.

Nor is the text walked again at every step.  The program's compiled form
(ProgramUnit.code, a values.Code) holds one closure per atom and per bound
the search has reached, one closedness check per negation operand and
antecedent (the binders inside the operand are known when it is compiled),
the argument resolvers of each call and each implication's rewrite per
mode, each built the first time the search reaches it and reused by every
later search of the program.  Atoms are still classified through
classify_atom and bounds evaluated through try_eval_term, the names the
benchmark's spans wrap.  The terms environments hold are built at run time
and are never compiled: a chain of calls can make them arbitrarily deep, so
they are evaluated and checked with explicit stacks.

Internally the search keeps one mutable binding store with an undo trail
(bindings are cheap, backtracking pops the trail), but everything it emits is
an immutable Valuation snapshot, so solve/trace stay pure functions of
(program, initial valuation, config) including leaf order.

One depth-first loop, _Search.walk, explores every tree: solve and
iter_leaves read its leaves, the negation and implication rules read the
leaves of their sub-trees through subtree_status (which stops at the first
success and reports the bindings it made, read off the trail), and
iter_trace reads every node.  A trace is a lazy preorder stream of nodes
that runs the search only as far as it is read; each node keeps its goal and
builds its formula (the body with the environment substituted) only when it
is asked for.  Nodes that start from the same store share one snapshot of
it: the children of one expansion, and the children of an expansion that
bound nothing together with their parent.  A trace copies the store once per
store state it reaches, and each copy but the root's is a Snapshot that
names the copy it extends and the bindings made since.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .formulas import (
    Atom,
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
    subterms,
)
from .normalize import FreshNames
from .values import (
    Arrays,
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
    closed_checks,
    compile_resolver,
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


def goal(f: Formula, env: Env, next: Goal | None) -> Goal | None:
    """f under env, then next.  An empty f adds nothing, so no step is
    spent on it."""
    return Goal(f, env, next) if type(f) is Cons else next


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
            heads += (subst_head(head, g.env) for head in g.formula)
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


class _BudgetExceeded(Exception):
    pass


Bindings = tuple[tuple["str | Cell", Value], ...]


class _State(Valuation):
    """The search's live binding store: a valuation plus an undo trail.
    Scalar keys are strings and cell keys are tuples, so the trail stores the
    bare keys.  Never leaks out of the engine; leaves carry snapshots."""

    __slots__ = ("trail",)

    def __init__(self, initial: Valuation):
        super().__init__(initial.scalars, initial.cells)
        self.trail: list[str | Cell] = []

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        assert len(trail) >= mark
        while len(trail) > mark:
            key = trail.pop()
            if type(key) is str:
                del self.scalars[key]
            else:
                del self.cells[key]

    def push_scalar(self, name: str, value: Value) -> None:
        assert name not in self.scalars
        self.scalars[name] = value
        self.trail.append(name)

    def push_cell(self, cell: Cell, value: Value) -> None:
        assert cell not in self.cells
        self.cells[cell] = value
        self.trail.append(cell)

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


# What expand() reports for the empty goal: a success leaf, whose valuation
# the caller takes from the store (solve, trace) or the trail (subtree_status).
_SUCCEEDED = object()

# What walk() yields for the goal a step budget cut: the error leaf that
# ends the tree.
_CUT = ERRORS[STEP_BUDGET]

# expand() returns (rule tag, outcome): a tuple of child goals, FAIL, an
# Error, or _SUCCEEDED.  Bindings the rule made are already on the trail, and
# every child starts from the state after them.
Expansion = tuple[str, "tuple[Goal | None, ...] | Leaf | object"]


class _Search:
    def __init__(self, program: ProgramUnit, config: EngineConfig, initial: Valuation):
        self.cfg = config
        self.code = program.code
        self.fresh = FreshNames(program.fresh_base)
        self.steps = 0
        self.state = _State(initial)

    # -- the depth-first driver ---------------------------------------------

    def walk(
        self, g: Goal | None, every_node: bool = False
    ) -> Iterator[tuple[int, Goal | None, str, object, int]]:
        """The one depth-first loop: expand the tree of g under the current
        state, left to right, and yield (depth, goal, tag, outcome, mark) for
        each leaf, or for each node when every_node is set (a trace; solve
        and sub-trees would pay for a yield per step), while the store is
        still as the expansion left it; mark is the trail length before it.
        A budget cut yields _CUT at the depth of the goal it cut and ends
        the walk."""
        state = self.state
        stack = [(g, state.mark(), 0)]
        while stack:
            g, mark, depth = stack.pop()
            state.undo_to(mark)
            try:
                tag, outcome = self.expand(g)
            except _BudgetExceeded:
                yield depth, g, "error", _CUT, mark
                return
            if type(outcome) is tuple:
                after = state.mark()
                if len(outcome) == 1:  # most rules have one child
                    stack.append((outcome[0], after, depth + 1))
                else:
                    stack.extend((c, after, depth + 1) for c in reversed(outcome))
                if not every_node:
                    continue
            yield depth, g, tag, outcome, mark

    def _leaf(self, outcome) -> Leaf:
        if outcome is not _SUCCEEDED:
            return outcome
        state = self.state
        if self.cfg.report_internal_bindings:
            return Success(state.snapshot())
        free = self.code.free
        kept = {k: v for k, v in state.scalars.items() if k in free}
        return Success(Valuation(kept, state.cells))

    # -- single-node expansion ----------------------------------------------

    def expand(self, g: Goal | None) -> Expansion:
        self.steps += 1
        if self.cfg.max_steps is not None and self.steps > self.cfg.max_steps:
            raise _BudgetExceeded()
        if g is None:
            return "empty", _SUCCEEDED
        f = g.formula
        head = f.head
        rest = Goal(f.tail, g.env, g.next) if type(f.tail) is Cons else g.next
        rule = _RULES.get(type(head))
        if rule is None:
            if isinstance(head, Forall):
                raise ValueError("unbounded FORALL reached the engine; normalize first")
            raise TypeError(f"unknown head {head!r}")
        return rule(self, head, g.env, rest)

    def _expand_atom(self, head: Atom, env: Env, rest: Goal | None) -> Expansion:
        cls = classify_atom(head, self.state, self.code, env)
        if cls is CLOSED_TRUE:
            return "atom", (rest,)
        if cls is CLOSED_FALSE:
            return "atom", FAIL
        if type(cls) is Assignment:
            if type(cls.target) is str:
                self.state.push_scalar(cls.target, cls.value)
            else:
                self.state.push_cell(cls.target, cls.value)
            return "atom", (rest,)
        cause = EVALUATION_FAULT if cls.fault is not None else ATOM_NOT_EVALUABLE
        return "atom", ERRORS[cause]

    def _expand_or(self, head: Or, env: Env, rest: Goal | None) -> Expansion:
        return "disjunction", (goal(head.left, env, rest), goal(head.right, env, rest))

    def _expand_exists(self, head: Exists, env: Env, rest: Goal | None) -> Expansion:
        inner = {**env, head.var: Var(self.fresh.fresh(head.var), head.sort)}
        return "exists", (goal(head.body, inner, rest),)

    def _expand_call(self, head: Call, env: Env, rest: Goal | None) -> Expansion:
        params, args, body = self.code.part(("call", id(head)), head, lambda: self._call(head))
        callee = {name: arg(env) for name, arg in zip(params, args)}
        return "procedure-unfold", (goal(body, callee, rest),)

    def _call(self, head: Call) -> tuple:
        """(parameter names, argument resolvers, body) of a call."""
        proc = self.code.procedures.get(head.name)
        if proc is None:
            raise ValueError(f"unknown procedure {head.name!r}")
        params = tuple(name for name, _ in proc.params)
        return params, tuple(compile_resolver(arg) for arg in head.args), proc.body

    def _expand_not(self, head: Not, env: Env, rest: Goal | None) -> Expansion:
        closed = self.formula_closed(head.body, env)
        if self.cfg.negation is NegationMode.STRICT and not closed:
            return "negation", ERRORS[NEGAND_UNDETERMINED]
        tag = "negation" if closed else "liberal-negation"
        status, bindings = self.subtree_status(goal(head.body, env, None))
        if status is TreeStatus.FAILED:
            return tag, (rest,)
        if status is TreeStatus.SUCCESSFUL:
            if closed or self._witness_clean(head.body, env, bindings):
                return tag, FAIL
        return tag, ERRORS[NEGAND_UNDETERMINED]

    def _expand_implies(self, head: Implies, env: Env, rest: Goal | None) -> Expansion:
        mode = self.cfg.implication
        if mode is ImplicationMode.STRICT:
            return self._implies_strict(head, env, rest)
        rewritten = self.code.part(("rewrite", id(head), mode), head, lambda: _rewrite(head, mode))
        return "implication-rewrite", (Goal(rewritten, env, rest),)

    def _implies_strict(self, head: Implies, env: Env, rest: Goal | None) -> Expansion:
        if self.cfg.pedantic and not self.formula_closed(head.antecedent, env):
            return "implication", ERRORS[ANTECEDENT_UNDETERMINED]
        status, bindings = self.subtree_status(goal(head.antecedent, env, None))
        if status is TreeStatus.FAILED:
            return "implication", (rest,)
        if status is TreeStatus.SUCCESSFUL:
            if self.cfg.pedantic or self._witness_clean(head.antecedent, env, bindings):
                return "implication", (goal(head.consequent, env, rest),)
        return "implication", ERRORS[ANTECEDENT_UNDETERMINED]

    def _expand_bounded(
        self, head: ExistsBounded | ForallBounded, env: Env, rest: Goal | None
    ) -> Expansion:
        exists = isinstance(head, ExistsBounded)
        tag = "bounded-exists" if exists else "bounded-forall"
        try:
            lo = try_eval_term(head.lo, self.state, self.code, env)
            hi = try_eval_term(head.hi, self.state, self.code, env)
        except EvalFault:
            return tag, ERRORS[EVALUATION_FAULT]
        if lo is None or hi is None:
            return tag, ERRORS[UNBOUNDED_RANGE]
        if lo > hi:
            if exists:
                return tag, FAIL
            return tag, (rest,)
        name = self.fresh.fresh(head.var)
        self.state.push_scalar(name, lo)
        inner = {**env, head.var: Var(name)}
        # the rest of the range rebinds head.var, so it may run under `inner`
        others = Cons(type(head)(head.var, IntConst(lo + 1), IntConst(hi), head.body), EMPTY)
        if exists:
            return tag, (Goal(Cons(Or(head.body, others), EMPTY), inner, rest),)
        return tag, (goal(head.body, inner, Goal(others, env, rest)),)

    # -- sub-tree status (negands, antecedents) -----------------------------

    def subtree_status(self, g: Goal | None) -> tuple[TreeStatus, Bindings]:
        """Explore the tree of g under the current state: stop at the first
        success leaf (the bindings it made are the witness); otherwise exhaust
        the tree so FAILED really means only-failure-leaves.  The state is
        restored before returning; a budget cut propagates to the caller."""
        state = self.state
        base = state.mark()
        saw_error = False
        try:
            for _, _, _, outcome, _ in self.walk(g):
                if outcome is _SUCCEEDED:
                    return TreeStatus.SUCCESSFUL, state.bindings_since(base)
                if outcome is _CUT:
                    raise _BudgetExceeded()
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

        Each formula is checked by its compiled check (_closed), met with
        the binders seen on the way to it.  A call's body is checked under
        the callee's environment, from a stack of its own, so a deep chain
        of calls does not recurse."""
        code = self.code
        scalars, cells = self.state.scalars, self.state.cells
        todo = [(f, frozenset(), env)]
        while todo:
            f, bound, env = todo.pop()
            checks, calls = code.part(
                ("closed", id(f), bound), f, lambda: _closed(f, bound, code.arrays)
            )
            for check in checks:
                if not check(env, scalars, cells):
                    return False
            for name, args, inner in calls:
                proc = code.procedures.get(name)
                if proc is None:
                    return False
                callee = {p: arg(env) for (p, _), arg in zip(proc.params, args)}
                todo.append((proc.body, inner, callee))
        return True


def _closed(f: Formula, bound: frozenset[str], arrays: Arrays) -> tuple[tuple, tuple]:
    """The closedness check of f, met with the binders `bound`: the checks
    of its terms, each term checked once, in written order, and its calls,
    each as (procedure name, argument resolvers, binders met at the call).
    A name bound inside f is not in the environment f is checked under."""
    checks, calls, seen = [], [], set()
    todo = [(f, frozenset())]  # (formula, the binders met inside f)
    while todo:
        f, local = todo.pop()
        if type(f) is not Cons:
            continue
        todo.append((f.tail, local))
        h = f.head
        terms, subs, var = head_parts(h)
        for t in terms:
            for part, check in closed_checks(t, arrays, bound | local):
                if (part, local) not in seen:
                    seen.add((part, local))
                    checks.append(check)
        if type(h) is Call:
            args = tuple(compile_resolver(arg) for arg in h.args)
            calls.append((h.name, args, bound | local))
        inner = local if var is None else local | {var}
        todo += ((sub, inner) for sub in reversed(subs))
    return tuple(checks), tuple(calls)


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
_RULES = {
    Eq: _Search._expand_atom,
    Rel: _Search._expand_atom,
    TrueAtom: _Search._expand_atom,
    FalseAtom: _Search._expand_atom,
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


def _start(
    program: ProgramUnit, initial: Valuation, config: EngineConfig, check: bool = True
) -> _Search:
    """A search of `program` from `initial`, after checking both."""
    if not program.normalized:
        raise ValueError("program must be normalized before execution")
    search = _Search(program, config, initial)
    if check:
        _check_initial(initial, search.code)
    return search


def _check_initial(initial: Valuation, code: Code) -> None:
    free, arrays = code.free, code.arrays
    for name, value in initial.scalars.items():
        if name not in free:
            raise ValueError(f"{name!r} is not a free variable of the query")
        want = free[name]
        if (type(value) is bool) != (want is Scalar.BOOL):
            raise ValueError(f"value for {name!r} must have sort {want}")
    for (array, idx), value in initial.cells.items():
        decl = arrays.by_name.get(array)
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
    search = _start(program, initial, config)
    for _, _, _, outcome, _ in search.walk(goal(program.query, EMPTY_ENV, None)):
        yield search._leaf(outcome)


def solve(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> SolveResult:
    """Explore the tree (respecting solution/step limits) and classify it:
    SUCCESSFUL with the success leaves found, FAILED when every leaf failed,
    UNDETERMINED otherwise."""
    search = _start(program, initial, config)
    leaves: list[Leaf] = []
    successes = 0
    for _, _, _, outcome, _ in search.walk(goal(program.query, EMPTY_ENV, None)):
        leaf = search._leaf(outcome)
        leaves.append(leaf)
        if outcome is _SUCCEEDED:
            successes += 1
            if successes == config.solution_limit:
                break
    return SolveResult(tuple(leaves), status_of(leaves), search.steps)


def eval_subtree_status(
    program: ProgramUnit,
    f: Formula,
    a: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> tuple[TreeStatus, Valuation | None]:
    """Status of the tree of (f, a): SUCCESSFUL with the first success leaf as
    witness, FAILED only after exhaustive exploration, else UNDETERMINED.
    f need not be part of the program, so it runs on code of its own."""
    search = _start(program, a, config, check=False)
    search.code = Code(program)
    try:
        status, bindings = search.subtree_status(goal(f, EMPTY_ENV, None))
    except _BudgetExceeded:
        return TreeStatus.UNDETERMINED, None
    if status is not TreeStatus.SUCCESSFUL:
        return status, None
    witness = Valuation(a.scalars, a.cells)
    for key, value in bindings:
        if type(key) is str:
            witness.scalars[key] = value
        else:
            witness.cells[key] = value
    return status, witness


def iter_trace(
    program: ProgramUnit,
    initial: Valuation = EMPTY_VALUATION,
    config: EngineConfig = EngineConfig(),
) -> Iterator[tuple[int, TraceNode]]:
    """The computation tree as a lazy preorder stream of (depth, node), nodes
    tagged with the rule that fired and without children: a leaf node follows
    the node it ends.  The search runs only as far as the stream is read.  On
    budget exhaustion a step-budget error node, at the depth of the goal it
    cut, ends the stream.  Nodes expanded under the same store share one
    snapshot of it, a Snapshot of the store it extends but at the root."""
    search = _start(program, initial, config)
    state = search.state
    successes = 0
    # stores[d] is the store the nodes at depth d start from: their parent's,
    # when its expansion bound nothing, else a snapshot taken right after it
    stores = [state.snapshot()]
    walk = search.walk(goal(program.query, EMPTY_ENV, None), every_node=True)
    for depth, g, tag, outcome, mark in walk:
        if outcome is _CUT:
            yield depth, TraceNode(tag, leaf=outcome)
            return
        yield depth, TraceNode(tag, goal=g, valuation=stores[depth])
        if type(outcome) is tuple:
            del stores[depth + 1:]
            parent = stores[depth]
            stores.append(parent if state.mark() == mark else state.snapshot(parent, mark))
            continue
        leaf = search._leaf(outcome)
        valuation = leaf.valuation if outcome is _SUCCEEDED else None
        yield depth + 1, TraceNode(_LEAF_TAGS[type(leaf)], valuation=valuation, leaf=leaf)
        if outcome is _SUCCEEDED:
            successes += 1
            if successes == config.solution_limit:
                return


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
