"""The benchmark's determinism records, checked in the tier-1 suite.

bench/expected.json holds the step count, leaf counts and leaf-sequence
SHA-256 of each benchmark workload.  A speed-up must leave them unchanged;
this test recomputes them, with the benchmark's own digest, for the
workloads cheap enough to run here: the 33x32 tiling, the traced queens8
run (including the SHA-256 of its 9.0 MB of output), and the first 20
generated programs under all ten mode configurations.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import fap.cli
import fap.squares
from fap.cli import main
from fap.engine import EngineConfig, ImplicationMode, NegationMode, solve
from fap.formulas import format_program
from fap.normalize import load
from fap.oracle import GeneratorConfig, generate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def _bench_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


leaf_digest = _bench_checks().leaf_digest

# negation x implication, plus pedantic on the two strict-implication configs
MODE_CONFIGS = tuple(
    EngineConfig(negation=neg, implication=impl, pedantic=pedantic)
    for neg in NegationMode
    for impl in ImplicationMode
    for pedantic in ((False, True) if impl is ImplicationMode.STRICT else (False,))
)


def cli_record(monkeypatch, module, argv: list[str]) -> dict:
    """The determinism record of one in-process `fap` command whose single
    search is `module.solve`."""
    solved = []
    real_solve = module.solve

    def capture(*args, **kwargs):
        solved.append(real_solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(module, "solve", capture)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0 and len(solved) == 1
    counts, leaf_sha = leaf_digest(solved[0].leaves)
    return {
        "steps": solved[0].steps,
        "leaves": list(counts),
        "leaf_sha256": leaf_sha,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }


def test_tiling_33x32_matches_record(monkeypatch):
    argv = ["squares", "33", "32", "18", "15", "14", "10", "9", "8", "7", "4", "1"]
    assert cli_record(monkeypatch, fap.squares, argv) == EXPECTED["tiling_33x32"]


def test_queens8_trace_matches_record(monkeypatch):
    argv = ["run", str(ROOT / "corpus" / "queens8.fap"), "--first", "10", "--trace", "text"]
    assert cli_record(monkeypatch, fap.cli, argv) == EXPECTED["queens8_trace"]


def test_gen_sweep_first_20_matches_record():
    assert len(MODE_CONFIGS) == 10
    steps = 0
    totals = [0, 0, 0]
    digests = []
    for seed in range(20):
        program = load(format_program(generate(GeneratorConfig(seed=seed, max_depth=5))))
        sha = hashlib.sha256()
        for config in MODE_CONFIGS:
            r = solve(program, config=config)
            counts, leaf_sha = leaf_digest(r.leaves)
            steps += r.steps
            totals = [a + b for a, b in zip(totals, counts)]
            sha.update(f"{r.status.value} {r.steps} {leaf_sha}\n".encode())
        digests.append(sha.hexdigest())
    observed = {
        "steps": steps,
        "leaves": totals,
        "leaf_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }
    assert observed == EXPECTED["gen_sweep"]["0:20"]
