"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.

The generated-program criteria share one corpus of 10,000 seeded programs
over the domain [0..4] with formula depth at most 5; the brute-force oracle
is the reference for every comparison.
"""

import random
import time

import pytest

from helpers import leaf_kinds, literal_bounded_expansion, run_fap, success_sets
from fap.engine import (
    EngineConfig,
    ImplicationMode,
    NegationMode,
    Success,
    TreeStatus,
    solve,
    trace,
)
from fap.formulas import Cons, EMPTY, IntConst, Or, ProgramUnit, Scalar, Var, concat, conj
from fap.normalize import load_query, normalize_program
from fap.oracle import (
    FiniteDomain,
    GeneratorConfig,
    generate,
    oracle_satisfiable,
    oracle_valid,
)
from fap.parser import parse
from fap.render import RenderFormat, RenderOptions, render
from fap.values import EMPTY_VALUATION, Valuation

DOMAIN = FiniteDomain(0, 4)
CORPUS_SIZE = 10_000
FORMULA1 = "corpus/formula1.fap"


def report(line: str) -> None:
    print(f"\n{line}")


# -- shared corpus -------------------------------------------------------------


class CorpusRun:
    __slots__ = ("program", "initial", "status", "successes", "sat")

    def __init__(self, program, initial, status, successes, sat):
        self.program = program
        self.initial = initial
        self.status = status
        self.successes = successes  # full valuations, internals included
        self.sat = sat  # oracle satisfiability of the query under initial


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    runs = []
    cfg = EngineConfig(report_internal_bindings=True)
    for seed in range(CORPUS_SIZE):
        program = normalize_program(
            generate(GeneratorConfig(seed=seed, max_depth=5, domain=DOMAIN))
        )
        rng = random.Random(seed ^ 0xA5A5)
        initial = EMPTY_VALUATION
        free = program.free_var_names()
        if free and rng.random() < 0.25:
            initial = Valuation({rng.choice(free): rng.randint(DOMAIN.lo, DOMAIN.hi)})
        result = solve(program, initial, cfg)
        successes = tuple(l.valuation for l in result.leaves if isinstance(l, Success))
        sat = None
        if result.status in (TreeStatus.SUCCESSFUL, TreeStatus.FAILED):
            sat = oracle_satisfiable(program.query, initial, DOMAIN, program)[0]
        runs.append(CorpusRun(program, initial, result.status, successes, sat))
    return runs, time.perf_counter() - t0


# -- criterion 1 -----------------------------------------------------------------


def test_formula1_reproduction():
    t0 = time.perf_counter()
    with open(FORMULA1, encoding="utf-8") as handle:
        program = normalize_program(parse(handle.read()))
    result = solve(program)
    tree = trace(program)
    elapsed = time.perf_counter() - t0
    assert result.solutions == (Valuation({"x": 3, "y": 2}),)
    assert leaf_kinds(result.leaves) == ["Fail", "Fail", "Fail", "Success"]
    counts = result.leaf_counts
    assert counts == (1, 3, 0)
    assert leaf_kinds(list(tree.leaves())) == ["Fail", "Fail", "Fail", "Success"]
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    report(
        f"PASS formula1 reproduction: solution x=3 y=2, leaves 1/3/0, "
        f"{elapsed * 1000:.2f} ms"
    )


# -- criteria 2-4 over the shared corpus -------------------------------------------


def test_soundness_suite(corpus):
    runs, build_seconds = corpus
    t0 = time.perf_counter()
    checked_successes = 0
    failed_runs = 0
    for run in runs:
        for valuation in run.successes:
            assert valuation.extends(run.initial)
            assert oracle_valid(run.program.query, valuation, DOMAIN, run.program)
            checked_successes += 1
        if run.status is TreeStatus.FAILED:
            failed_runs += 1
            assert run.sat is False
    total = build_seconds + time.perf_counter() - t0
    assert total < 60.0
    report(
        f"PASS soundness suite: {len(runs)} programs, "
        f"{checked_successes} success leaves all true, "
        f"{failed_runs} failed runs all unsatisfiable, 0 violations, "
        f"{total:.1f} s total"
    )


def test_restricted_completeness_suite(corpus):
    runs, _ = corpus
    determined = [r for r in runs if r.status is not TreeStatus.UNDETERMINED]
    for run in determined:
        assert (run.status is TreeStatus.SUCCESSFUL) == run.sat
    fraction = len(determined) / len(runs)
    assert fraction > 0.50, f"determined fraction {fraction:.2%}"
    report(
        f"PASS restricted completeness suite: {len(determined)} determined runs "
        f"({fraction:.1%} of corpus) all match oracle satisfiability"
    )


def test_binding_discipline_suite(corpus):
    runs, _ = corpus
    leaves = 0
    for run in runs:
        free = set(run.program.free_var_names())
        for valuation in run.successes:
            leaves += 1
            assert valuation.extends(run.initial)
            for name in valuation.scalars:
                if name in run.initial.scalars:
                    continue
                # new bindings name query free variables or engine-introduced
                # instances of quantified variables (reserved '$' mark)
                assert name in free or "$" in name, name
    report(
        f"PASS binding discipline suite: {leaves} success leaves extend their "
        f"initial valuation and bind only free/quantified variables"
    )


# -- criteria 2 and 3 on the arrays-and-quantifiers profile ------------------------
#
# The generator's second profile adds an array, cell assignments and reads,
# EXISTS and FORALL, with every index, cell value and witness inside the
# domain, so the oracle ranges the unbounded quantifiers over the domain too.
# Its small domain keeps the array's groundings few.  Every program is solved
# under every negation x implication x pedantic mode.

PROFILE_DOMAIN = FiniteDomain(0, 2, quantifiers=True)
PROFILE_SIZE = 500
ALL_MODES = tuple(
    EngineConfig(negation=neg, implication=impl, pedantic=pedantic,
                 report_internal_bindings=True)
    for neg in NegationMode
    for impl in ImplicationMode
    for pedantic in (False, True)
)


@pytest.fixture(scope="module")
def profile_corpus():
    runs = []
    for seed in range(PROFILE_SIZE):
        program = normalize_program(generate(GeneratorConfig(
            seed=seed, max_depth=5, domain=PROFILE_DOMAIN, arrays_and_quantifiers=True)))
        rng = random.Random(seed ^ 0x5A5A)
        initial = EMPTY_VALUATION
        free = program.free_var_names()
        if free and rng.random() < 0.3:
            initial = Valuation({rng.choice(free): rng.randint(0, 2)},
                                {("a", (0,)): rng.randint(0, 2)} if rng.random() < 0.5 else {})
        sat = None
        for config in ALL_MODES:
            result = solve(program, initial, config)
            if sat is None and result.status is not TreeStatus.UNDETERMINED:
                sat = oracle_satisfiable(program.query, initial, PROFILE_DOMAIN, program)[0]
            successes = tuple(l.valuation for l in result.leaves if isinstance(l, Success))
            runs.append(CorpusRun(program, initial, result.status, successes, sat))
    return runs


def test_soundness_suite_on_arrays_and_quantifiers(profile_corpus):
    checked = failed = 0
    valid = {}  # the modes of one program mostly find the same successes
    for run in profile_corpus:
        for valuation in run.successes:
            assert valuation.extends(run.initial)
            key = (id(run.program), valuation.canonical())
            if key not in valid:
                valid[key] = oracle_valid(run.program.query, valuation, PROFILE_DOMAIN,
                                          run.program)
            assert valid[key]
            checked += 1
        if run.status is TreeStatus.FAILED:
            failed += 1
            assert run.sat is False
    assert checked and failed
    report(
        f"PASS soundness suite, arrays and quantifiers: {PROFILE_SIZE} programs x "
        f"{len(ALL_MODES)} modes, {checked} success leaves all true, {failed} failed "
        f"runs all unsatisfiable"
    )


def test_restricted_completeness_suite_on_arrays_and_quantifiers(profile_corpus):
    determined = [r for r in profile_corpus if r.status is not TreeStatus.UNDETERMINED]
    for run in determined:
        assert (run.status is TreeStatus.SUCCESSFUL) == run.sat
    fraction = len(determined) / len(profile_corpus)
    assert fraction > 0.40, f"determined fraction {fraction:.2%}"
    report(
        f"PASS restricted completeness suite, arrays and quantifiers: "
        f"{len(determined)} determined runs ({fraction:.1%}) all match the oracle"
    )


# -- criterion 5 -----------------------------------------------------------------


def test_order_sensitivity_regressions():
    ok = solve(load_query("x = 0 AND x < 1"))
    assert leaf_kinds(ok.leaves) == ["Success"]
    assert ok.solutions == (Valuation({"x": 0}),)
    bad = solve(load_query("x < 1 AND x = 0"))
    assert leaf_kinds(bad.leaves) == ["Error"]

    pairs = 0
    for seed in range(1000):
        cfg = GeneratorConfig(seed=3 * seed + 1, domain=DOMAIN, allow_procedures=False)
        a = generate(cfg)
        b = generate(GeneratorConfig(seed=3 * seed + 2, domain=DOMAIN, allow_procedures=False))
        ab = normalize_program(ProgramUnit(query=Cons(Or(a.query, b.query), EMPTY)))
        ba = normalize_program(ProgramUnit(query=Cons(Or(b.query, a.query), EMPTY)))
        ra, rb = solve(ab), solve(ba)
        assert success_sets(ra.leaves) == success_sets(rb.leaves)
        assert (ra.status is TreeStatus.FAILED) == (rb.status is TreeStatus.FAILED)
        pairs += 1
    assert pairs == 1000

    strict = EngineConfig()
    liberal = EngineConfig(negation=NegationMode.LIBERAL)
    lhs = load_query("NOT (x = 0 AND x = 1)")
    rhs = load_query("NOT (x = 0) OR NOT (x = 1)")
    assert leaf_kinds(solve(lhs, config=strict).leaves) == ["Error"]
    assert leaf_kinds(solve(rhs, config=strict).leaves) == ["Error", "Error"]
    lib_lhs = solve(lhs, config=liberal)
    assert lib_lhs.status is TreeStatus.SUCCESSFUL
    assert lib_lhs.solutions == (EMPTY_VALUATION,)
    assert solve(rhs, config=liberal).status is TreeStatus.UNDETERMINED
    report(
        f"PASS order-sensitivity regressions: conjunction swap exact, "
        f"{pairs} disjunction pairs commute, negation split behaves as pinned"
    )


# -- criterion 6 -----------------------------------------------------------------


def test_negation_implication_mode_matrix():
    lib = EngineConfig(negation=NegationMode.LIBERAL)

    def mode(impl):
        return EngineConfig(negation=NegationMode.LIBERAL, implication=impl)

    # liberal negation, failed open operand
    r = solve(load_query("NOT (0 = 1 AND x = y) AND x = 5"), config=lib)
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions == (Valuation({"x": 5}),)
    # liberal negation, clean-witness success
    r = solve(load_query("NOT (0 = 0 OR x = y)"), config=lib)
    assert leaf_kinds(r.leaves) == ["Fail"]
    # guarded implication finds {x/0}
    r = solve(load_query("x = 0 -> x < 1"), config=mode(ImplicationMode.GUARDED))
    assert r.status is TreeStatus.SUCCESSFUL
    assert r.solutions == (Valuation({"x": 0}),)
    # plain disjunctive implication misses it
    r = solve(load_query("x = 0 -> x < 1"), config=mode(ImplicationMode.NEG_OR))
    assert r.status is TreeStatus.UNDETERMINED
    # the guard prevents recomputing the continuation
    src = "(x = 0 AND x = 1) -> 0 = 0"
    negor = solve(load_query(src), config=mode(ImplicationMode.NEG_OR))
    guarded = solve(load_query(src), config=mode(ImplicationMode.GUARDED))
    assert sum(isinstance(l, Success) for l in negor.leaves) == 2
    assert sum(isinstance(l, Success) for l in guarded.leaves) == 1
    # the delicate example: only the plain rewriting proves failure
    src = "(0 = 0 OR x < 1) -> 0 = 1"
    assert solve(load_query(src), config=mode(ImplicationMode.NEG_OR)).status is TreeStatus.FAILED
    assert solve(load_query(src), config=mode(ImplicationMode.GUARDED)).status is TreeStatus.UNDETERMINED
    assert solve(load_query(src), config=mode(ImplicationMode.COMBINED)).status is TreeStatus.UNDETERMINED
    report("PASS negation/implication mode matrix: six worked cases exact")


# -- criterion 7 -----------------------------------------------------------------


def _observable(leaves):
    out = []
    for leaf in leaves:
        if isinstance(leaf, Success):
            out.append(("success", leaf.valuation.canonical()))
        else:
            out.append((type(leaf).__name__.lower(),))
    return out


def test_bounded_quantifier_semantics():
    from fap.formulas import Eq, ExistsBounded, ForallBounded, Rel

    # pinned edge cases
    r = solve(load_query("SOME x := 5 TO 3 DO x = x END"))
    assert leaf_kinds(r.leaves) == ["Fail"]
    r = solve(load_query("FOR x := 5 TO 3 DO 0 = 1 END AND y = 1"))
    assert r.solutions == (Valuation({"y": 1}),)
    r = solve(load_query("SOME x := y TO 3 DO x = x END"))
    assert r.error_causes == ("unbounded-range",)
    r = solve(load_query("SOME x := 1 TO 3 DO x = 2 END"))
    assert leaf_kinds(r.leaves) == ["Fail", "Success", "Fail", "Fail"]
    assert r.solutions == (EMPTY_VALUATION,)

    rng = random.Random(0xFA9)
    for case in range(1000):
        lo = rng.randint(-4, 15)
        hi = lo + rng.randint(-2, 20)
        cls = ExistsBounded if rng.random() < 0.5 else ForallBounded
        v = Var("v")
        body_choices = [
            conj(Eq(Var("w"), v)),
            conj(Rel("<", v, IntConst(rng.randint(0, 12)))),
            conj(Eq(v, IntConst(rng.randint(0, 12)))),
            conj(Or(conj(Eq(v, IntConst(rng.randint(0, 9)))),
                    conj(Rel(">", v, IntConst(rng.randint(0, 9)))))),
        ]
        head = cls("v", IntConst(lo), IntConst(hi), rng.choice(body_choices))
        tail = conj(Rel("<", IntConst(0), IntConst(1)))
        direct = ProgramUnit(
            query=Cons(head, tail), free_vars=(("w", Scalar.INT),), normalized=True
        )
        expanded = ProgramUnit(
            query=concat(literal_bounded_expansion(head), tail),
            free_vars=direct.free_vars,
            normalized=True,
        )
        assert _observable(solve(direct).leaves) == _observable(solve(expanded).leaves)
    report(
        "PASS bounded quantifier semantics: edge cases exact, 1000 random "
        "ranges match the literal expansion leaf for leaf"
    )


# -- criterion 8 -----------------------------------------------------------------


def test_squares_end_to_end():
    from fap.squares import check_placement, has_tiling, run_squares

    timings = []

    def timed(nx, ny, sizes, **kwargs):
        t0 = time.perf_counter()
        rep = run_squares(nx, ny, sizes, **kwargs)
        dt = time.perf_counter() - t0
        assert dt < 5.0
        timings.append(dt)
        return rep

    rep = timed(2, 1, [1, 1])
    assert rep.result.status is TreeStatus.SUCCESSFUL
    assert check_placement(2, 1, [1, 1], rep.placement) is None

    rep = timed(5, 4, [4, 1, 1, 1, 1])
    assert rep.result.status is TreeStatus.SUCCESSFUL
    assert check_placement(5, 4, [4, 1, 1, 1, 1], rep.placement) is None
    assert has_tiling(5, 4, [4, 1, 1, 1, 1])

    rep = timed(4, 3, [3, 3])
    assert rep.result.status is TreeStatus.FAILED
    assert not has_tiling(4, 3, [3, 3])

    rep = timed(5, 4, [4, 1, 1, 1, 1], partial_x={1: 1}, partial_y={1: 1})
    assert rep.result.status is TreeStatus.SUCCESSFUL
    assert rep.placement[1] == (1, 1)
    assert check_placement(5, 4, [4, 1, 1, 1, 1], rep.placement) is None

    report(
        f"PASS squares end-to-end: solve/fail/completion as pinned, all "
        f"placements pass the independent checker, max {max(timings):.3f} s"
    )


# -- criterion 9 -----------------------------------------------------------------


def _library_digest() -> str:
    parts = []
    with open(FORMULA1, encoding="utf-8") as handle:
        program = normalize_program(parse(handle.read()))
    result = solve(program)
    parts.append(repr(result.leaves))
    parts.append(render(trace(program), RenderOptions()))
    parts.append(render(trace(program), RenderOptions(format=RenderFormat.DOT)))
    for seed in range(300):
        pu = normalize_program(generate(GeneratorConfig(seed=seed, domain=DOMAIN)))
        r = solve(pu)
        parts.append(f"{seed}:{r.status.value}:{leaf_kinds(r.leaves)}")
        parts.append(render(trace(pu), RenderOptions()))
    return "\n".join(parts)


def _cli_bytes() -> bytes:
    out = b""
    for args in (
        ["run", FORMULA1, "--all", "--trace", "text"],
        ["run", FORMULA1, "--all", "--trace", "dot"],
        ["gen", "--seed", "7", "--depth", "4"],
    ):
        out += run_fap(args, capture_output=True).stdout
    return out


def test_determinism():
    a, b = _library_digest(), _library_digest()
    assert a == b
    ca, cb = _cli_bytes(), _cli_bytes()
    assert ca == cb
    report(
        "PASS determinism: library reports/traces and CLI output byte-identical "
        "across repeated runs"
    )
