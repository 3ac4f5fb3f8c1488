"""The fap benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--trace 0|1]

NAME is one of the workloads below; `all` runs each in its own process and
prints one table.  See bench/README.md for why each workload was chosen, the
layers it loads and what it should leave unchanged.

  queens8_all    fap run corpus/queens8.fap --all
  tiling_33x32   fap squares 33 32 18 15 14 10 9 8 7 4 1
  gen_sweep      generated programs, each loaded once and solved under the
                 10 mode configs (default seeds 0:2000, see --gen-seeds)
  queens8_trace  fap run corpus/queens8.fap --first 10 --trace text

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1` is
the separate traced run: spans around every call into a layer give the
per-layer metrics, and the traced minus the untraced pass time is the
tracing overhead.  Every output is checked outside the timed region.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "fap" / "__init__.py").is_file():
    sys.exit(f"error: no fap sources at {SRC}")
sys.path.insert(0, str(SRC))

# by module path: the package re-exports functions named `normalize` and
# `render` that shadow the submodules as attributes of `fap`
import fap  # noqa: E402

cli, engine, normalize, parser, squares = (
    import_module(f"fap.{name}") for name in ("cli", "engine", "normalize", "parser", "squares")
)
from fap.engine import EngineConfig, ImplicationMode, NegationMode, TreeStatus  # noqa: E402
from fap.formulas import format_program  # noqa: E402
from fap.oracle import (  # noqa: E402
    FiniteDomain,
    GeneratorConfig,
    generate,
    oracle_satisfiable,
    oracle_valid,
)
from fap.values import EMPTY_VALUATION  # noqa: E402

from checks import (  # noqa: E402
    OutputSink,
    leaf_digest,
    queens_problems,
    report_lines,
    tiling_problems,
)
from tracer import Tracer  # noqa: E402

if Path(fap.__file__).resolve().parent != SRC / "fap":
    sys.exit(f"error: imported fap from {fap.__file__}, not from {SRC}")

clock = time.perf_counter

QUEENS8 = str(ROOT / "corpus" / "queens8.fap")
TILING = (33, 32, [18, 15, 14, 10, 9, 8, 7, 4, 1])
GEN_SEEDS = "0:2000"
GEN_DEPTH = 5  # as in the acceptance corpus
DOMAIN = FiniteDomain(0, 4)  # the generator's value domain
EXPECTED = BENCH / "expected.json"
SPANS_DIR = BENCH / "out"
SETUP_LAUNCHES = 20
CHILD_TIMEOUT = 170

# negation x implication, plus pedantic on the two strict-implication configs
MODE_CONFIGS = tuple(
    EngineConfig(negation=neg, implication=impl, pedantic=pedantic)
    for neg in NegationMode
    for impl in ImplicationMode
    for pedantic in ((False, True) if impl is ImplicationMode.STRICT else (False,))
)

RULE_TAGS = (
    "atom",
    "conjunction",
    "disjunction",
    "negation",
    "liberal-negation",
    "implication",
    "implication-rewrite",
    "exists",
    "bounded-exists",
    "bounded-forall",
    "procedure-unfold",
    "empty",
)
LEAF_TAGS = ("success", "fail", "error")


# -- passes ----------------------------------------------------------------------


@dataclass
class Pass:
    """One pass of a workload: its time, the latency of each program in it,
    and what the checks need."""

    wall: float
    latencies: list[float]
    outputs: object
    searches: list  # (args, kwargs) of each solve call, for the census
    output_bytes: int = 0  # written to stdout


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]
    observed: dict  # the determinism record of this pass


class CliWorkload:
    """A workload that is one `fap` command, driven in-process through
    fap.cli.main with stdout captured."""

    def __init__(self, name: str, argv: list[str], text_check) -> None:
        self.name = name
        self.argv = argv
        self.text_check = text_check
        self.solved: list = []
        for module in (cli, squares):
            self._capture_solve(module)

    def _capture_solve(self, module) -> None:
        orig = module.solve
        solved = self.solved

        def solve(*args, **kwargs):
            result = orig(*args, **kwargs)
            solved.append((args, kwargs, result))
            return result

        module.solve = solve

    def prepare(self) -> None:
        pass

    def run_pass(self, tracer: Tracer | None, pass_no: int) -> Pass:
        self.solved.clear()
        if tracer is not None:
            tracer.run_id = pass_no
        sink = OutputSink()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(list(self.argv))
        wall = clock() - t0
        solved = list(self.solved)
        searches = [(a, k) for a, k, _ in solved]
        return Pass(wall, [wall], (rc, sink, solved), searches, sink.bytes)

    def check(self, p: Pass, expected: dict | None) -> Verdict:
        rc, sink, solved = p.outputs
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if len(solved) != 1:
            return Verdict(1, 1, problems + [f"{len(solved)} solve calls"], {})
        result = solved[0][2]
        counts, leaf_sha = leaf_digest(result.leaves)
        observed = {
            "steps": result.steps,
            "leaves": list(counts),
            "leaf_sha256": leaf_sha,
            "stdout_sha256": sink.sha.hexdigest(),
        }
        text = sink.text()
        report = report_lines(text)
        s, f, e = counts
        if report.get("steps") != str(result.steps):
            problems.append(f"report steps {report.get('steps')} != {result.steps}")
        if report.get("leaves") != f"success={s} fail={f} error={e}":
            problems.append(f"report leaves {report.get('leaves')}")
        if report.get("status") != "SUCCESSFUL":
            problems.append(f"status {report.get('status')}")
        problems += self.text_check(text)
        problems += guard_problems(observed, expected)
        return Verdict(1, 1 if problems else 0, problems, observed)


def queens_check(solutions: int):
    def check(text: str) -> list[str]:
        found, problems = queens_problems(text)
        if found != solutions:
            problems.append(f"{found} queens solutions, want {solutions}")
        return problems

    return check


def tiling_check(text: str) -> list[str]:
    nx, ny, sizes = TILING
    return tiling_problems(text, nx, ny, sizes)


class GenSweep:
    """Generated programs as a library user runs them: each text is loaded
    once and solved under every mode config.  The program receives only the
    generated text; generation and rendering happen before timing."""

    name = "gen_sweep"

    def __init__(self, seeds: range, order_seed: int) -> None:
        self.seeds = seeds
        self.order = list(range(len(seeds)))
        random.Random(order_seed).shuffle(self.order)
        self.texts: list[str] = []
        self.reference: list[str] | None = None  # per-program digests

    def prepare(self) -> None:
        self.texts = [
            format_program(generate(GeneratorConfig(seed=s, max_depth=GEN_DEPTH)))
            for s in self.seeds
        ]

    def run_pass(self, tracer: Tracer | None, pass_no: int) -> Pass:
        n = len(self.texts)
        programs: list = [None] * n
        results: list = [None] * n
        latencies = []
        t0 = clock()
        for i in self.order:
            if tracer is not None:
                tracer.run_id = pass_no * n + i
            t = clock()
            try:
                program = normalize.load(self.texts[i])
                results[i] = [engine.solve(program, config=c) for c in MODE_CONFIGS]
            except Exception as exc:  # counted as a failed program
                results[i] = exc
                traceback.print_exc()
            else:
                programs[i] = program
            latencies.append(clock() - t)
        wall = clock() - t0
        searches = [
            ((program, EMPTY_VALUATION, c), {})
            for program in programs
            if program is not None
            for c in MODE_CONFIGS
        ]
        return Pass(wall, latencies, (programs, results), searches)

    def check(self, p: Pass, expected: dict | None) -> Verdict:
        programs, results = p.outputs
        n = len(results)
        problems: list[str] = []
        failed = set()
        digests = []
        steps = 0
        totals = [0, 0, 0]
        for i, rs in enumerate(results):
            if isinstance(rs, Exception):
                failed.add(i)
                problems.append(f"seed {self.seeds[i]}: {rs!r}")
                digests.append("")
                continue
            sha = hashlib.sha256()
            for r in rs:
                counts, leaf_sha = leaf_digest(r.leaves)
                steps += r.steps
                totals = [a + b for a, b in zip(totals, counts)]
                sha.update(f"{r.status.value} {r.steps} {leaf_sha}\n".encode())
            digests.append(sha.hexdigest())
        if self.reference is None:
            for i, rs in enumerate(results):
                if i not in failed:
                    for problem in self._oracle_problems(programs[i], rs):
                        failed.add(i)
                        problems.append(f"seed {self.seeds[i]}: {problem}")
            self.reference = digests
        else:
            for i, (a, b) in enumerate(zip(digests, self.reference)):
                if a != b and i not in failed:
                    failed.add(i)
                    problems.append(f"seed {self.seeds[i]}: differs from first pass")
        observed = {
            "steps": steps,
            "leaves": totals,
            "leaf_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        }
        guard = guard_problems(observed, expected)
        if guard:
            problems += guard
            failed = set(range(n))
        return Verdict(n, len(failed), problems, observed)

    def _oracle_problems(self, program, results) -> list[str]:
        """Soundness of every verdict against the brute-force oracle, and
        restricted completeness: a determined tree agrees with it."""
        problems = []
        sat = oracle_satisfiable(program.query, EMPTY_VALUATION, DOMAIN, program)[0]
        valid: dict[tuple, bool] = {}
        for config, r in zip(MODE_CONFIGS, results):
            mode = f"{config.negation.value}/{config.implication.value}" + (
                "/pedantic" if config.pedantic else ""
            )
            if r.status is TreeStatus.UNDETERMINED:
                continue
            if (r.status is TreeStatus.SUCCESSFUL) != sat:
                problems.append(f"{mode}: {r.status.value} but oracle sat={sat}")
            for v in r.solutions:
                key = v.canonical()
                if key not in valid:
                    valid[key] = oracle_valid(program.query, v, DOMAIN, program)
                if not valid[key]:
                    problems.append(f"{mode}: success {v} does not satisfy the query")
        return problems


def make_workload(name: str, seed: int, gen_seeds: range):
    nx, ny, sizes = TILING
    if name == "queens8_all":
        return CliWorkload(name, ["run", QUEENS8, "--all"], queens_check(92))
    if name == "tiling_33x32":
        argv = ["squares", str(nx), str(ny), *map(str, sizes)]
        return CliWorkload(name, argv, tiling_check)
    if name == "gen_sweep":
        return GenSweep(gen_seeds, seed)
    if name == "queens8_trace":
        argv = ["run", QUEENS8, "--first", "10", "--trace", "text"]
        return CliWorkload(name, argv, queens_check(10))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("queens8_all", "tiling_33x32", "gen_sweep", "queens8_trace")


def expected_record(expected: dict, name: str, gen_seeds: str) -> dict | None:
    record = expected.get(name)
    if name == "gen_sweep" and record is not None:
        record = record.get(gen_seeds)
    return record


def guard_problems(observed: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return []
    return [
        f"determinism guard: {key} is {observed.get(key)!r}, recorded {want!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


# -- measuring -------------------------------------------------------------------


class Run:
    """Passes of one workload within a time budget, each checked after it
    ends, outside the timed region."""

    def __init__(self, workload, expected: dict | None) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict = {}
        self.pass_no = 0
        self.first_pass_rss_mb = 0.0

    def passes(self, budget: float, tracer: Tracer | None = None) -> list[Pass]:
        """Run passes until the next one would end past `budget` seconds of
        measured time; at least one."""
        done: list[Pass] = []
        while True:
            self.pass_no += 1
            gc.collect()  # every pass starts with the collector in the same state
            try:
                p = self.workload.run_pass(tracer, self.pass_no)
            except Exception:  # counted as a failed pass; ends the measuring
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"pass {self.pass_no} raised")
                if not done:
                    raise RuntimeError("no pass completed") from None
                return done
            if self.pass_no == 1:
                # the peak of this process so far: a fresh process that ran one pass
                kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.first_pass_rss_mb = kb / 1024
            self.record(self.workload.check(p, self.expected))
            # keep only what the metrics need: outputs kept alive would grow
            # the heap and slow the later passes through the garbage collector
            p.outputs = None
            if done:
                done[-1].searches = []
            done.append(p)
            spent = sum(q.wall for q in done)
            if spent + statistics.median(q.wall for q in done) > budget:
                return done

    def record(self, v: Verdict) -> None:
        self.attempted += v.attempted
        self.failed += v.failed
        self.problems += v.problems
        self.observed = v.observed


def setup_times(launches: int) -> list[float]:
    """Seconds from a fresh interpreter to `import fap.cli` done, per launch.

    The child reads the system-wide monotonic clock once the import is done
    and prints it.  Timing the child's exit from here instead would add the
    polling of `subprocess.run(timeout=...)`, which sleeps up to 50 ms."""
    cmd = [sys.executable, "-c",
           "import fap.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    times = []
    for _ in range(launches):
        t = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout) - t)
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def untraced_run(args, workload, expected) -> tuple[Run, dict, list[str]]:
    run = Run(workload, expected)
    setup_times(1)  # writes the bytecode caches
    # half the launches before the passes and half after, so that set-up is
    # sampled at both ends of the run
    setup = setup_times(SETUP_LAUNCHES // 2)
    workload.prepare()
    done = run.passes(args.seconds)
    setup += setup_times(SETUP_LAUNCHES - len(setup))
    walls = [p.wall for p in done]
    latencies = mean_latencies(done)
    wall = statistics.fmean(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (run.first_pass_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "programs_per_s": (len(latencies) / wall, "1/s"),
        "program_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "program_p99_ms": (percentile(latencies, 99) * 1000, "ms"),
    }
    notes = [
        "pass walls (s): " + " ".join(f"{w:.3f}" for w in walls),
        f"fastest pass {min(walls):.6f} s, median pass {statistics.median(walls):.6f} s",
        "setup launches (s): " + " ".join(f"{t:.3f}" for t in setup),
        f"{len(done)} passes; {len(latencies)} programs, each timed {len(done)} times; "
        f"setup over {SETUP_LAUNCHES} launches; peak RSS read after the first pass",
    ]
    return run, metrics, notes


def mean_latencies(done: list[Pass]) -> list[float]:
    """Each program's mean latency over the passes.  Every pass runs the
    programs in the same order, so position i is the same program in each."""
    return [statistics.fmean(times) for times in zip(*(p.latencies for p in done))]


# -- the traced run -------------------------------------------------------------------


class _Discard:
    def append(self, _node) -> None:
        pass


def census(searches) -> Counter:
    """Main-tree nodes per rule tag and per leaf kind, from fap.engine.trace.
    The tree is not kept: during the census, trace builds nodes that count
    their tag and drop their children, so memory stays at the search depth."""
    counts: Counter = Counter()
    discard = _Discard()

    class CountingNode:
        __slots__ = ("children",)

        def __init__(self, tag, *args, **kwargs):
            counts[tag] += 1
            self.children = discard

    real = engine.TraceNode
    engine.TraceNode = CountingNode
    try:
        for call_args, call_kwargs in searches:
            engine.trace(*call_args, **call_kwargs)
    finally:
        engine.TraceNode = real
    return counts


def tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


# (module, name the module holds, span)
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "parse", "parser.parse"),
    (cli, "normalize_program", "normalize.normalize"),
    (cli, "solve", "engine.solve"),
    (cli, "trace", "engine.trace"),
    (cli, "render", "render.render"),
    (cli, "run_squares", "squares.run"),
    (squares, "parse", "parser.parse"),
    (squares, "normalize_program", "normalize.normalize"),
    (squares, "solve", "engine.solve"),
    (squares, "check_placement", "squares.check"),
    (normalize, "normalize_program", "normalize.normalize"),
    (parser, "parse", "parser.parse"),
    (parser, "tokenize", "parser.tokenize"),
    (engine, "solve", "engine.solve"),
    (engine, "subst_formula", "formulas.subst"),
    (engine, "concat", "formulas.concat"),
    (engine, "classify_atom", "values.classify"),
    (engine, "try_eval_term", "values.eval"),
)


def traced_run(args, workload, expected) -> tuple[Run, dict, list[str]]:
    run = Run(workload, expected)
    workload.prepare()
    untraced = run.passes(args.seconds / 2)
    tracer = Tracer()
    kept: dict[str, list] = {"engine.trace": [], "render.render": [], "parser.parse": []}
    for module, attr, span in SPANS:
        tracer.wrap(module, attr, span, kept.get(span))
    try:
        traced = run.passes(args.seconds / 2, tracer)
    finally:
        tracer.unwrap_all()
    n = len(traced)
    totals = tracer.totals()
    tags = census(traced[-1].searches)

    def total(span: str) -> float:
        return totals[span].total_s if span in totals else 0.0

    def calls(span: str) -> int:
        return totals[span].calls if span in totals else 0

    def ratio(a: float, b: float) -> float:  # 0 where a wrapped name is gone
        return a / b if b else 0.0

    traced_wall = sum(p.wall for p in traced)
    steps = run.observed["steps"]  # of the last pass, as checked
    main_steps = sum(tags[t] for t in tags if t not in LEAF_TAGS)
    chars = sum(len(a[0]) for a, _, _ in kept["parser.parse"])
    solve_s = total("engine.solve") / n
    self_s = sum(totals[s].self_s for s in ("engine.solve", "engine.trace") if s in totals)
    m: dict[str, tuple[float, str]] = {
        "parser.calls": (calls("parser.parse") / n, "count"),
        "parser.s": (total("parser.parse") / n, "s"),
        "parser.tokenize_s": (total("parser.tokenize") / n, "s"),
        "parser.chars_per_s": (ratio(chars, total("parser.parse")), "chars/s"),
        "normalize.calls": (calls("normalize.normalize") / n, "count"),
        "normalize.s": (total("normalize.normalize") / n, "s"),
        "engine.solve_s": (solve_s, "s"),
        "engine.self_s": (self_s / n, "s"),
        "engine.steps": (steps, "count"),
        "engine.steps_per_s": (ratio(steps, solve_s), "1/s"),
        "formulas.subst_calls": (calls("formulas.subst") / n, "count"),
        "formulas.subst_s": (total("formulas.subst") / n, "s"),
        "formulas.concat_calls": (calls("formulas.concat") / n, "count"),
        "values.classify_calls": (calls("values.classify") / n, "count"),
        "values.classify_s": (total("values.classify") / n, "s"),
        "values.eval_calls": (calls("values.eval") / n, "count"),
        "engine.main_steps": (main_steps, "count"),
        "engine.subtree_steps": (steps - main_steps, "count"),
        "engine.main_step_share": (ratio(main_steps, steps), "ratio"),
    }
    for tag in RULE_TAGS:
        m[f"engine.tag.{tag}"] = (tags[tag], "count")
    other = sum(c for t, c in tags.items() if t not in RULE_TAGS + LEAF_TAGS)
    m["engine.tag.other"] = (other, "count")
    for kind in LEAF_TAGS:
        m[f"engine.leaves.{kind}"] = (tags[kind], "count")
    m.update({
        "engine.searches": ((calls("engine.solve") + calls("engine.trace")) / n, "count"),
        "engine.trace_share": (total("engine.trace") / traced_wall, "ratio"),
        "engine.trace_nodes": (
            sum(tree_nodes(r) for _, _, r in kept["engine.trace"]) / n, "count"),
        "render.share": (total("render.render") / traced_wall, "ratio"),
        "render.bytes": (
            sum(len(r.encode()) for _, _, r in kept["render.render"]) / n, "bytes"),
        "squares.run_share": (total("squares.run") / traced_wall, "ratio"),
        "squares.check_share": (total("squares.check") / traced_wall, "ratio"),
        "cli.self_share": (
            totals["cli.main"].self_s / traced_wall if "cli.main" in totals else 0.0, "ratio"),
        "cli.output_bytes": (sum(p.output_bytes for p in traced) / n, "bytes"),
    })
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    traced_wall_s = statistics.fmean(p.wall for p in traced)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall_s, "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall, "s")

    census_leaves = [tags[k] for k in LEAF_TAGS]
    if census_leaves != run.observed["leaves"]:
        run.failed += 1
        run.problems.append(
            f"trace leaves {census_leaves} differ from solve leaves {run.observed['leaves']}")

    spans_file = SPANS_DIR / f"{workload.name}.spans.tsv"
    tracer.write(spans_file)
    top = sorted(totals.items(), key=lambda kv: -kv[1].self_s)
    notes = [
        f"{len(untraced)} untraced and {n} traced passes; per-layer values are per pass",
        f"{len(tracer.start)} spans written to {spans_file.relative_to(ROOT)}",
        "self time per span (s per pass): " + ", ".join(
            f"{name} {t.self_s / n:.4f}" for name, t in top),
    ]
    return run, m, notes


# -- command line -----------------------------------------------------------------------


def parse_range(text: str) -> range:
    start, _, count = text.partition(":")
    r = range(int(start), int(start) + int(count))
    if len(r) < 1:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return r


def load_expected(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--gen-seeds", args.gen_seeds,
            "--expected", str(args.expected),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + CHILD_TIMEOUT)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"error: {name} exited {proc.returncode} without a result")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "fail_rate", f"{result['failed']}/{result['attempted']}", ""))
    print()
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<14} {metric:<28} {shown:>14} {unit}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the gen_sweep programs; the other workloads are fixed")
    ap.add_argument("--seconds", type=float, default=38,
                    help="measured time per run (split in two when traced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seeds", default=GEN_SEEDS, metavar="START:COUNT",
                    help=f"generator seeds of gen_sweep (default {GEN_SEEDS})")
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="determinism records to check against")
    args = ap.parse_args(argv)
    gen_seeds = parse_range(args.gen_seeds)
    if args.workload == "all":
        return run_all(args)

    workload = make_workload(args.workload, args.seed, gen_seeds)
    expected = expected_record(load_expected(args.expected), args.workload, args.gen_seeds)
    measure = traced_run if args.trace else untraced_run
    run, metrics, notes = measure(args, workload, expected)
    correct = run.failed == 0 and run.attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(f"  {'fail_rate':<28} {run.failed}/{run.attempted} operations")
    for note in notes:
        print(f"  note: {note}")
    if expected is None:
        print("  note: no determinism record for these inputs; guard not applied")
    print(f"  determinism record: {json.dumps(run.observed)}")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
