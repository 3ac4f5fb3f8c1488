"""Brute-force ground truth and a random program generator.

The oracle evaluates formulas classically (truth by structural recursion,
satisfiability by enumerating free-variable groundings over a finite integer
domain) with no notion of evaluation order, bindings or errors, so it is an
independent reference for the engine.  It deliberately rejects div/mod and,
unless the domain says otherwise, unbounded quantifiers; the generator never
emits div/mod, and emits EXISTS and FORALL only in a profile that keeps every
witness inside the domain, which keeps the oracle total and the enumeration
exact.
"""

from __future__ import annotations

import itertools
import random

from .formulas import (
    ArrayDecl,
    App,
    ArrayRef,
    Atom,
    BoolConst,
    Call,
    Eq,
    Exists,
    ExistsBounded,
    FALSE,
    FalseAtom,
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
    Var,
    array_names,
    conj,
    free_vars,
    head_parts,
    record,
    subterms,
)
from .values import Valuation, Value

# Not values._RELATIONS, so that a wrong entry there shows as a disagreement.
_RELATIONS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
              ">=": lambda a, b: a >= b, "<>": lambda a, b: a != b}


@record
class FiniteDomain:
    """Inclusive value range used to ground free integer variables."""

    lo: int = 0
    hi: int = 4
    # EXISTS and FORALL range over the domain too.  Exact only for programs
    # whose every witness lies in it, as GeneratorConfig's
    # arrays_and_quantifiers profile keeps them.
    quantifiers: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty domain")

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, v: int) -> bool:
        return self.lo <= v <= self.hi


class OracleRejection(ValueError):
    """Input uses a construct the oracle does not model (div/mod, unbounded
    quantifiers, or an unfoldable call)."""


def _reject_unsupported(f: Formula, program: ProgramUnit | None, d: FiniteDomain) -> None:
    for h in f:
        if isinstance(h, (Exists, Forall)) and not d.quantifiers:
            raise OracleRejection("unbounded quantifiers are not supported")
        terms, subs, _ = head_parts(h)
        if any(isinstance(s, App) and s.op in ("div", "mod")
               for t in terms for s in subterms(t)):
            raise OracleRejection("div/mod are not supported")
        if isinstance(h, Call):
            proc = None if program is None else program.procedure(h.name)
            if proc is None:
                raise OracleRejection(f"no definition for procedure {h.name!r}")
            subs = (proc.body,)
        for sub in subs:
            _reject_unsupported(sub, program, d)


class _Eval:
    def __init__(self, a: Valuation, program: ProgramUnit | None, d: FiniteDomain):
        self.cells = a.cells
        self.program = program
        self.d = d

    def truth(self, f: Formula, env: dict[str, Value]) -> bool:
        return all(self.head(h, env) for h in f)

    def head(self, h: Head, env: dict[str, Value]) -> bool:
        if isinstance(h, TrueAtom):
            return True
        if isinstance(h, FalseAtom):
            return False
        if isinstance(h, Eq):
            return self.term(h.lhs, env) == self.term(h.rhs, env)
        if isinstance(h, Rel):
            return _RELATIONS[h.op](self.term(h.lhs, env), self.term(h.rhs, env))
        if isinstance(h, Call):
            proc = self.program.procedure(h.name)  # presence checked up front
            args = [self.term(t, env) for t in h.args]
            scope = {name: v for (name, _), v in zip(proc.params, args)}
            return self.truth(proc.body, scope)
        if isinstance(h, Or):
            return self.truth(h.left, env) or self.truth(h.right, env)
        if isinstance(h, Implies):
            return (not self.truth(h.antecedent, env)) or self.truth(h.consequent, env)
        if isinstance(h, Not):
            return not self.truth(h.body, env)
        if isinstance(h, (Exists, Forall)):
            values = (False, True) if h.sort is Scalar.BOOL else self.d.values()
            eachs = (self.truth(h.body, {**env, h.var: v}) for v in values)
            return any(eachs) if isinstance(h, Exists) else all(eachs)
        if isinstance(h, (ExistsBounded, ForallBounded)):
            lo = self.term(h.lo, env)
            hi = self.term(h.hi, env)
            eachs = (
                self.truth(h.body, {**env, h.var: v}) for v in range(lo, hi + 1)
            )
            return any(eachs) if isinstance(h, ExistsBounded) else all(eachs)
        raise TypeError(f"unknown head {h!r}")

    def term(self, t: Term, env: dict[str, Value]) -> Value:
        if isinstance(t, IntConst):
            return t.value
        if isinstance(t, BoolConst):
            return t.value
        if isinstance(t, Var):
            if t.name not in env:
                raise ValueError(f"variable {t.name!r} is not grounded")
            return env[t.name]
        if isinstance(t, App):
            lhs = self.term(t.args[0], env)
            rhs = self.term(t.args[1], env)
            if t.op == "+":
                return lhs + rhs
            if t.op == "-":
                return lhs - rhs
            return lhs * rhs
        if isinstance(t, ArrayRef):
            idx = tuple(self.term(i, env) for i in t.indices)
            cell = (t.array, idx)
            if cell not in self.cells:
                raise ValueError(f"array cell {t.array}{list(idx)} is not grounded")
            return self.cells[cell]
        raise TypeError(f"unknown term {t!r}")


def oracle_truth(
    f: Formula,
    a: Valuation,
    d: FiniteDomain = FiniteDomain(),
    program: ProgramUnit | None = None,
) -> bool:
    """Classical truth of f under a.  Every free variable and referenced array
    cell must be grounded by a (the satisfiable/valid wrappers enumerate the
    rest); total otherwise."""
    _reject_unsupported(f, program, d)
    return _Eval(a, program, d).truth(f, dict(a.scalars))


def _groundings(
    f: Formula,
    a: Valuation,
    d: FiniteDomain,
    program: ProgramUnit | None,
):
    """All completions of a that ground the free variables of f and the cells
    of every declared array f mentions."""
    sorts = dict(program.free_vars) if program is not None else {}
    names = [n for n in free_vars(f) if n not in a.scalars]
    open_cells: list[tuple[tuple[str, tuple[int, ...]], Scalar]] = []
    if program is not None:
        mentioned = array_names(f)
        for decl in program.arrays:
            if decl.name not in mentioned:
                continue
            for idx in itertools.product(
                *(range(lo, hi + 1) for lo, hi in decl.ranges)
            ):
                if (decl.name, idx) not in a.cells:
                    open_cells.append(((decl.name, idx), decl.element))

    def choices(sort: Scalar):
        return (False, True) if sort is Scalar.BOOL else d.values()

    var_spaces = [choices(sorts.get(n, Scalar.INT)) for n in names]
    cell_spaces = [choices(sort) for _, sort in open_cells]
    for values in itertools.product(*var_spaces, *cell_spaces):
        scalars = dict(a.scalars)
        scalars.update(zip(names, values))
        cells = dict(a.cells)
        cells.update(zip((c for c, _ in open_cells), values[len(names):]))
        yield Valuation(scalars, cells)


def oracle_satisfiable(
    f: Formula,
    a: Valuation,
    d: FiniteDomain = FiniteDomain(),
    program: ProgramUnit | None = None,
) -> tuple[bool, tuple[Valuation, ...]]:
    """Existential closure of f over d: true iff some grounding of the unbound
    free variables (and open cells of mentioned arrays) satisfies f; returns
    all witnesses."""
    _reject_unsupported(f, program, d)
    witnesses = []
    for g in _groundings(f, a, d, program):
        if _Eval(g, program, d).truth(f, dict(g.scalars)):
            witnesses.append(g)
    return bool(witnesses), tuple(witnesses)


def oracle_valid(
    f: Formula,
    a: Valuation,
    d: FiniteDomain = FiniteDomain(),
    program: ProgramUnit | None = None,
) -> bool:
    """Universal closure of f over d: every grounding satisfies f."""
    _reject_unsupported(f, program, d)
    return all(
        _Eval(g, program, d).truth(f, dict(g.scalars))
        for g in _groundings(f, a, d, program)
    )


# ---------------------------------------------------------------------------
# Random program generator


@record
class GeneratorConfig:
    seed: int = 0
    max_depth: int = 4
    domain: FiniteDomain = FiniteDomain(0, 4)
    allow_procedures: bool = True
    # Also emit one array `a` indexed over the domain, cells read and
    # assigned in the query, and EXISTS and FORALL.  Every index, cell value
    # and witness stays inside the domain, so the oracle can check these
    # programs with FiniteDomain(quantifiers=True) over it.  Off, the
    # generator draws exactly what it always drew.
    arrays_and_quantifiers: bool = False

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


_MAX_RANGE_WIDTH = 3
_FREE_VAR_POOL = ("x", "y", "z")
# assignment-shaped equations dominate so that a healthy share of the
# generated trees is determined rather than error-ridden
_ATOM_WEIGHTS = (
    ("assign", 55),
    ("closed_cmp", 21),
    ("var_cmp", 6),
    ("eq_test", 6),
    ("const", 12),
)
_CONNECTIVE_WEIGHTS = (
    ("atom", 40),
    ("or", 22),
    ("some", 10),
    ("for", 7),
    ("not", 6),
    ("implies", 5),
    ("call", 10),
)
_PROFILE_ATOMS = (("cell_assign", 20),)
_PROFILE_CONNECTIVES = (("exists", 8), ("forall", 5))


class _Gen:
    def __init__(self, cfg: GeneratorConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.d = cfg.domain
        self.quant_count = 0
        self.procs: list[ProcedureDef] = []
        self.profile = cfg.arrays_and_quantifiers
        self.in_procedure = False
        self.atom_weights = _ATOM_WEIGHTS + (_PROFILE_ATOMS if self.profile else ())
        self.connective_weights = _CONNECTIVE_WEIGHTS + (
            _PROFILE_CONNECTIVES if self.profile else ()
        )

    def pick(self, weights: tuple[tuple[str, int], ...]) -> str:
        names = [n for n, _ in weights]
        ws = [w for _, w in weights]
        return self.rng.choices(names, weights=ws, k=1)[0]

    def const(self) -> IntConst:
        return IntConst(self.rng.randint(self.d.lo, self.d.hi))

    def var_of(self, scope: list[str]) -> Var:
        return Var(self.rng.choice(scope))

    def source_term(self, scope: list[str]) -> Term:
        # assignment sources stay inside the domain: a constant or a variable
        if scope and self.rng.random() < 0.4:
            return self.var_of(scope)
        return self.const()

    def cells_allowed(self) -> bool:
        # the oracle grounds the cells the query mentions, so procedure
        # bodies stay array-free
        return self.profile and not self.in_procedure

    def cell(self, scope: list[str]) -> ArrayRef:
        return ArrayRef("a", (self.source_term(scope),))

    def arith(self, scope: list[str], depth: int = 1) -> Term:
        if depth <= 0 or self.rng.random() < 0.45:
            if self.cells_allowed() and self.rng.random() < 0.25:
                return self.cell(scope)
            if scope and self.rng.random() < 0.5:
                return self.var_of(scope)
            return self.const()
        op = self.rng.choice(["+", "-", "*"])
        return App(op, (self.arith(scope, depth - 1), self.arith(scope, depth - 1)))

    def closed_arith(self, depth: int = 1) -> Term:
        return self.arith([], depth)

    def atom(self, scope: list[str]) -> Atom:
        kind = self.pick(self.atom_weights)
        if kind == "cell_assign" and self.cells_allowed():
            target, source = self.cell(scope), self.source_term(scope)
            return Eq(target, source) if self.rng.random() < 0.5 else Eq(source, target)
        if kind == "assign" and scope:
            target = self.var_of(scope)
            source = self.source_term([v for v in scope if v != target.name])
            if self.rng.random() < 0.5:
                return Eq(target, source)
            return Eq(source, target)
        if kind == "closed_cmp":
            op = self.rng.choice(["<", "<=", ">", ">=", "<>"])
            return Rel(op, self.closed_arith(), self.closed_arith())
        if kind == "var_cmp" and scope:
            op = self.rng.choice(["<", "<=", ">", ">=", "<>"])
            return Rel(op, self.arith(scope), self.arith(scope))
        if kind == "eq_test" and scope:
            return Eq(self.arith(scope), self.const())
        return TRUE if self.rng.random() < 0.7 else FALSE

    def formula(self, depth: int, scope: list[str]) -> Formula:
        if depth <= 1:
            return conj(self.atom(scope))
        n = self.rng.choices([1, 2, 3], weights=[4, 4, 2], k=1)[0]
        return conj(*(self.head(depth, scope) for _ in range(n)))

    def head(self, depth: int, scope: list[str]) -> Head:
        kind = self.pick(self.connective_weights) if depth > 1 else "atom"
        if kind == "or":
            return Or(self.formula(depth - 1, scope), self.formula(depth - 1, scope))
        if kind == "not":
            return Not(self.formula(depth - 1, scope))
        if kind == "implies":
            return Implies(
                self.formula(depth - 1, scope), self.formula(depth - 1, scope)
            )
        if kind in ("exists", "forall"):
            self.quant_count += 1
            var = f"e{self.quant_count}"
            body = self.formula(depth - 1, scope + [var])
            return (Exists if kind == "exists" else Forall)(var, Scalar.INT, body)
        if kind in ("some", "for"):
            self.quant_count += 1
            var = f"q{self.quant_count}"
            lo, hi = self.bounds(scope)
            body = self.formula(depth - 1, scope + [var])
            cls = ExistsBounded if kind == "some" else ForallBounded
            return cls(var, lo, hi, body)
        if kind == "call" and self.procs:
            proc = self.rng.choice(self.procs)
            args = tuple(self.source_term(scope) for _ in proc.params)
            return Call(proc.name, args)
        return self.atom(scope)

    def bounds(self, scope: list[str]) -> tuple[Term, Term]:
        lo_v = self.rng.randint(self.d.lo, self.d.hi)
        r = self.rng.random()
        if r < 0.08:
            hi: Term = IntConst(lo_v - 1)  # empty range
        else:
            width = self.rng.randint(0, _MAX_RANGE_WIDTH)
            hi = IntConst(min(lo_v + width, self.d.hi))
        lo: Term = IntConst(lo_v)
        if scope and r > 0.93:
            lo = self.var_of(scope)  # may be unbound at run time
        return lo, hi

    def procedure(self, index: int) -> ProcedureDef:
        params = tuple(
            (f"p{index}{chr(ord('a') + i)}", Scalar.INT)
            for i in range(self.rng.randint(1, 2))
        )
        self.in_procedure = True
        body = self.formula(min(2, self.cfg.max_depth), [n for n, _ in params])
        self.in_procedure = False
        return ProcedureDef(f"proc{index}", params, body)

    def program(self) -> ProgramUnit:
        if self.cfg.allow_procedures and self.rng.random() < 0.25:
            for i in range(self.rng.randint(1, 2)):
                self.procs.append(self.procedure(i + 1))
        depth = self.rng.randint(1, self.cfg.max_depth)
        pool = list(_FREE_VAR_POOL[: self.rng.randint(1, len(_FREE_VAR_POOL))])
        query = self.formula(depth, pool)
        order = free_vars(query)
        d = self.d
        return ProgramUnit(
            arrays=(ArrayDecl("a", ((d.lo, d.hi),), Scalar.INT),) if self.profile else (),
            procedures=tuple(self.procs),
            query=query,
            free_vars=tuple((n, Scalar.INT) for n in order),
        )


def generate(cfg: GeneratorConfig = GeneratorConfig()) -> ProgramUnit:
    """Deterministic (per seed) sort-correct random program over the finite
    domain; parses and normalizes cleanly."""
    return _Gen(cfg).program()
