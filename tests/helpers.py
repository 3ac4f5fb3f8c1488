"""Shared test utilities: a literal unrolling of bounded quantifiers (the
reference for leaf-order checks), a static step bound, and tiny wrappers."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

from fap.engine import Success
from fap.formulas import (
    Atom,
    Call,
    Cons,
    EMPTY,
    Eq,
    Exists,
    ExistsBounded,
    FALSE,
    ForallBounded,
    Formula,
    Head,
    Implies,
    IntConst,
    Not,
    Or,
    ProgramUnit,
    Var,
    concat,
    conj,
    subst_formula,
)

_counter = itertools.count(1)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fap_env() -> dict[str, str]:
    """The environment of a child process that imports fap from this
    checkout's src, whether or not PYTHONPATH names it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_fap(args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m fap.cli *args` in a child process, under fap_env()."""
    return subprocess.run([sys.executable, "-m", "fap.cli", *args], env=fap_env(), **kwargs)


def _fresh(base: str) -> str:
    return f"{base}${1000000 + next(_counter)}"


def literal_bounded_expansion(head: ExistsBounded | ForallBounded) -> Formula:
    """Fully unroll a bounded quantifier with constant bounds the way its
    definition prescribes: one fresh variable and one binding equation per
    range element, disjunction chain for SOME (with the trailing empty-range
    failure), conjunction chain for FOR."""
    assert isinstance(head.lo, IntConst) and isinstance(head.hi, IntConst)
    lo, hi = head.lo.value, head.hi.value
    exists = isinstance(head, ExistsBounded)

    def expand(v: int) -> Formula:
        if v > hi:
            return conj(FALSE) if exists else EMPTY
        name = _fresh(head.var)
        body = subst_formula(head.body, {head.var: Var(name)})
        bind = Eq(Var(name), IntConst(v))
        rest = expand(v + 1)
        if exists:
            return conj(bind, Or(body, rest))
        return Cons(bind, concat(body, rest))

    return expand(lo)


def leaf_kinds(leaves) -> list[str]:
    return [type(l).__name__ for l in leaves]


def success_sets(leaves) -> set[tuple]:
    return {l.valuation.canonical() for l in leaves if isinstance(l, Success)}


def static_step_bound(program: ProgramUnit) -> int:
    """A crude but safe upper bound on the engine's step counter for a
    normalized program: multiplicative over branch points, range widths and
    procedure bodies.  Wildly pessimistic and always finite."""

    procs = {p.name: p for p in program.procedures}

    def bound_formula(f: Formula) -> tuple[int, int]:
        """(steps, success_paths) upper bounds."""
        steps, paths = 1, 1
        for head in reversed(list(f)):
            s, p = bound_head(head)
            # a head runs once per success path threaded after... invert: we
            # fold right-to-left so the tail bound is multiplied by the head's
            # success paths.
            steps = s + p * steps
            paths = p * paths
        return steps + 1, paths

    def bound_head(head: Head) -> tuple[int, int]:
        if isinstance(head, Call):
            proc = procs[head.name]
            s, p = bound_formula(proc.body)
            return s + 1, p
        if isinstance(head, Atom):
            return 1, 1
        if isinstance(head, Or):
            ls, lp = bound_formula(head.left)
            rs, rp = bound_formula(head.right)
            return ls + rs + 1, lp + rp
        if isinstance(head, Implies):
            a_s, a_p = bound_formula(head.antecedent)
            c_s, c_p = bound_formula(head.consequent)
            # covers every rewriting: negand eval, bare consequent, and the
            # guarded disjunct re-running the antecedent before the consequent
            steps = 3 * a_s + c_s + a_p * c_s + 5
            return steps, 1 + c_p + a_p * c_p
        if isinstance(head, Not):
            s, p = bound_formula(head.body)
            return s + 1, 1
        if isinstance(head, Exists):
            s, p = bound_formula(head.body)
            return s + 1, p
        if isinstance(head, (ExistsBounded, ForallBounded)):
            s, p = bound_formula(head.body)
            width = _width_bound(head)
            # each element contributes its body once; paths multiply across
            # iterations for FOR and add for SOME
            steps = (width + 1) * (s + 2)
            if isinstance(head, ExistsBounded):
                return steps, width * p + 1
            return steps * max(p, 1) ** width, max(p, 1) ** width
        raise TypeError(head)

    def _width_bound(head) -> int:
        if isinstance(head.lo, IntConst) and isinstance(head.hi, IntConst):
            return max(0, head.hi.value - head.lo.value + 1)
        return 64  # generated bounds stay tiny; anything larger is a bug

    steps, _ = bound_formula(program.query)
    return steps
