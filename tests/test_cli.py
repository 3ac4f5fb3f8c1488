import subprocess
import sys
from pathlib import Path

import pytest

from helpers import fap_env, run_fap
from fap.cli import build_parser, engine_config, format_solution, main, parse_bindings
from fap.engine import EngineConfig, ImplicationMode, NegationMode
from fap.normalize import load
from fap.parser import Diagnostic, parse
from fap.values import Valuation


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return run_fap(args, capture_output=True, text=True)


def test_run_formula1_all():
    proc = run_cli("run", "corpus/formula1.fap", "--all")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "x=3 y=2"
    assert "status: SUCCESSFUL" in lines
    assert "leaves: success=1 fail=3 error=0" in lines


def test_run_with_a_term_grown_deep_by_calls(tmp_path):
    # p0 receives y + 1 + ... + 1, 999 sums deep: the engine evaluates it
    # without recursion
    src = "def p0(a) := a = a;\n"
    src += "".join(f"def p{i}(a) := p{i - 1}(a + 1);\n" for i in range(1, 1000))
    path = tmp_path / "deep.fap"
    path.write_text(src + "query y = 0 AND p999(y);\n")
    proc = run_cli("run", str(path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "status: SUCCESSFUL" in lines and "steps: 1003" in lines


def test_run_unsat_exits_one():
    proc = run_cli("run", "corpus/unsat.fap")
    assert proc.returncode == 1
    assert "status: FAILED" in proc.stdout


def test_run_err_exits_two_and_prints_cause():
    proc = run_cli("run", "corpus/err.fap")
    assert proc.returncode == 2
    assert "errors: atom-not-evaluable" in proc.stdout


def test_run_traces_a_term_grown_deep_by_calls(tmp_path):
    # the same 999-deep sum, printed in trace labels: the renderer keys and
    # prints the terms of environments without recursion
    src = "def p0(a) := a = a;\n"
    src += "".join(f"def p{i}(a) := p{i - 1}(a + 1);\n" for i in range(1, 1000))
    path = tmp_path / "deep.fap"
    path.write_text(src + "query y = 0 AND p999(y);\n")
    proc = run_cli("run", str(path), "--trace", "text")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[atom] y = 0 AND p999(y) | {}"
    assert "] p0(y + 1 + 1 + 1" in proc.stdout
    assert lines[-4:] == ["y=0", "status: SUCCESSFUL", "leaves: success=1 fail=0 error=0",
                          "steps: 1003"]


def test_a_digit_that_is_not_decimal_exits_three_with_its_position(tmp_path):
    bad = tmp_path / "bad.fap"
    bad.write_text("query x = ²;\n", encoding="utf-8")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 3
    assert proc.stderr.strip() == f"{bad}:1:11: syntax error: unexpected character '²'"


def test_static_error_exits_three(tmp_path):
    bad = tmp_path / "bad.fap"
    bad.write_text("query x = ;\n")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 3
    assert "syntax error" in proc.stderr
    assert proc.stdout == ""


def test_internal_error_exits_four_on_one_line(monkeypatch, capsys):
    # deep input used to overflow the recursive sort checker; it is now a
    # static error (test_deepest_accepted_input_runs_and_one_deeper_exits_three),
    # so the engine is made to crash instead
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("fap.cli.solve", crash)
    assert main(["run", str(ROOT / "corpus" / "formula1.fap")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: RecursionError")
    assert err.count("\n") == 1


def test_a_reader_that_closes_stdout_early_changes_no_exit_code():
    # `fap run queens8.fap --first 10 --trace text | head -1`: the reader
    # closes the pipe after one line of a 9 MB trace
    argv = [sys.executable, "-m", "fap.cli", "run", str(ROOT / "corpus" / "queens8.fap"),
            "--first", "10", "--trace", "text"]
    with subprocess.Popen(argv, env=fap_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"[bounded-forall] FOR i := 1 TO 8")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    assert err == ""  # no `internal error:` line, nor any other


# (name, source nesting n levels deep, extra flags): formulas as written,
# parenthesized, and chains that only nest once built
DEEP = [
    ("sum", lambda n: "query x = " + " + ".join(["1"] * n) + ";", ()),
    ("index", lambda n: "array a[1..1] : int; query a[1] = 1 AND x = "
     + "a[" * n + "1" + "]" * n + ";", ()),
    ("negations", lambda n: "query x = 1 AND " + "NOT (y = 1 AND " * n + "x = 1"
     + ")" * n + ";", ()),
    ("implications", lambda n: "query x = 1 AND " + "(" * n + "x = 1"
     + " -> x = 1)" * n + ";", ()),
    ("forall", lambda n: "query " + "".join(f"FORALL i{k} . i{k} = 1 AND " for k in range(n))
     + "TRUE;", ()),
    # tracing every node of this one costs seconds; the first few print the
    # whole formula
    ("some", lambda n: "query " + "".join(f"SOME i{k} := 1 TO 1 DO " for k in range(n))
     + "x = i0" + " END" * n + ";", ("--max-steps", "5")),
]


@pytest.mark.parametrize("name,source,flags", DEEP, ids=[d[0] for d in DEEP])
def test_deepest_accepted_input_runs_and_one_deeper_exits_three(tmp_path, name, source, flags):
    def accepted(n):
        try:
            parse(source(n))
            return True
        except Diagnostic:
            return False

    lo, hi = 1, 1000  # the deepest accepted n, by bisection
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid - 1)
    assert 40 < lo < 1000
    deepest = tmp_path / "deepest.fap"
    deepest.write_text(source(lo))
    proc = run_cli("run", str(deepest), "--trace", "text", *flags)
    assert proc.returncode in (0, 1, 2), proc.stderr
    too_deep = tmp_path / "too_deep.fap"
    too_deep.write_text(source(lo + 1))
    proc = run_cli("run", str(too_deep), "--trace", "text", *flags)
    assert proc.returncode == 3
    assert "syntax error: nesting too deep" in proc.stderr


def test_run_and_squares_share_the_search_flags():
    (subs,) = [a for a in build_parser()._actions if a.dest == "command"]
    options = {name: {o for a in sub._actions for o in a.option_strings}
               for name, sub in subs.choices.items()}
    shared = {"-h", "--help", "--all", "--first", "--impl", "--pedantic", "--max-steps", "--set"}
    assert options["squares"] == shared
    assert options["run"] == shared | {"--neg", "--trace"}
    args = build_parser().parse_args(["squares", "5", "4", "2", "--impl", "negor", "--all"])
    assert engine_config(args) == EngineConfig(
        negation=NegationMode.LIBERAL, implication=ImplicationMode.NEG_OR, max_steps=100_000_000)


def test_missing_file_exits_three():
    proc = run_cli("run", "corpus/nope.fap")
    assert proc.returncode == 3


def test_set_bindings_check_a_witness():
    proc = run_cli("run", "corpus/formula1.fap", "--set", "x=3", "--set", "y=2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x=3 y=2"


def test_set_bindings_that_cannot_extend():
    proc = run_cli("run", "corpus/formula1.fap", "--set", "x=2")
    assert proc.returncode == 1


def test_set_unknown_name_is_static_error():
    proc = run_cli("run", "corpus/formula1.fap", "--set", "nope=1")
    assert proc.returncode == 3


def test_trace_text_contains_tree_and_report():
    proc = run_cli("run", "corpus/formula1.fap", "--all", "--trace", "text")
    assert proc.returncode == 0
    assert proc.stdout.startswith("[disjunction]")
    assert "status: SUCCESSFUL" in proc.stdout
    assert proc.stdout.count("fail") >= 3


def test_trace_leaf_sequence_matches_report_counts():
    proc = run_cli("run", "corpus/formula1.fap", "--all", "--trace", "text")
    tree, _, rep = proc.stdout.partition("\nstatus: ")
    leaves = [
        line.strip().split()[0].split("(")[0]
        for line in tree.splitlines()
        if line.strip().startswith(("success", "fail", "error"))
    ]
    counts = (leaves.count("success"), leaves.count("fail"), leaves.count("error"))
    want = next(
        line for line in proc.stdout.splitlines() if line.startswith("leaves:")
    )
    assert want == f"leaves: success={counts[0]} fail={counts[1]} error={counts[2]}"


def test_trace_dot_is_pure_dot_on_stdout():
    proc = run_cli("run", "corpus/formula1.fap", "--all", "--trace", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")
    assert proc.stdout.rstrip().endswith("}")
    assert "status: SUCCESSFUL" in proc.stderr


def test_liberal_flag_changes_outcome():
    strict = run_cli("run", "corpus/err.fap")
    assert strict.returncode == 2
    # NOT over an open failed operand only works liberally
    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".fap", delete=False, dir="."
    ) as handle:
        handle.write("query NOT (0 = 1 AND x = y) AND x = 5;\n")
        name = handle.name
    try:
        assert run_cli("run", name).returncode == 2
        liberal = run_cli("run", name, "--neg", "liberal")
        assert liberal.returncode == 0
        assert liberal.stdout.splitlines()[0] == "x=5"
    finally:
        os.unlink(name)


def test_gen_is_deterministic_and_parseable():
    a = run_cli("gen", "--seed", "11", "--depth", "4")
    b = run_cli("gen", "--seed", "11", "--depth", "4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    parse(a.stdout)


def test_gen_to_file(tmp_path):
    out = tmp_path / "g.fap"
    proc = run_cli("gen", "--seed", "5", "--out", str(out))
    assert proc.returncode == 0
    parse(out.read_text())


def test_queens_corpus_file():
    proc = run_cli("run", "corpus/queens8.fap")
    assert proc.returncode == 0
    pairs = dict(
        p.split("=") for p in proc.stdout.splitlines()[0].split() if "=" in p
    )
    rows = [int(pairs[f"q[{i}]"]) for i in range(1, 9)]
    assert sorted(rows) == list(range(1, 9))
    assert all(
        abs(rows[a] - rows[b]) != b - a
        for a in range(8)
        for b in range(a + 1, 8)
    )


def test_squares_corpus_file_runs_unmodified():
    # the bundled program is plain text the generic runner can solve; sizes
    # and pins arrive through ordinary --set bindings
    proc = run_cli(
        "run", "corpus/squares_5x4.fap", "--neg", "liberal",
        "--set", "Sizes[1]=4", "--set", "Sizes[2]=1", "--set", "Sizes[3]=1",
        "--set", "Sizes[4]=1", "--set", "Sizes[5]=1",
    )
    assert proc.returncode == 0
    solution = proc.stdout.splitlines()[0]
    assert "posX[1]=1" in solution and "posY[1]=1" in solution
    assert "posX[2]=5" in solution


def test_first_n_limits_solutions():
    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".fap", delete=False, dir="."
    ) as handle:
        handle.write("query x = 1 OR x = 2 OR x = 3;\n")
        name = handle.name
    try:
        two = run_cli("run", name, "--first", "2")
        assert [l for l in two.stdout.splitlines() if l.startswith("x=")] == [
            "x=1", "x=2",
        ]
        everything = run_cli("run", name, "--all")
        assert [l for l in everything.stdout.splitlines() if l.startswith("x=")] == [
            "x=1", "x=2", "x=3",
        ]
    finally:
        os.unlink(name)


def test_squares_subcommand():
    proc = run_cli("squares", "5", "4", "4", "1", "1", "1", "1")
    assert proc.returncode == 0
    assert "verified: coverage and disjointness hold" in proc.stdout
    assert "placement: 1:(1,1)" in proc.stdout


def test_squares_failure_exit():
    proc = run_cli("squares", "4", "3", "3", "3")
    assert proc.returncode == 1
    assert "status: FAILED" in proc.stdout


def test_squares_with_pin():
    proc = run_cli("squares", "5", "4", "4", "1", "1", "1", "1",
                   "--set", "posX[1]=1", "--set", "posY[1]=1")
    assert proc.returncode == 0


def test_squares_rejects_other_bindings():
    proc = run_cli("squares", "2", "1", "1", "1", "--set", "Sizes[1]=2")
    assert proc.returncode == 3


def exit_of(argv, capsys):
    """main's exit status for argv, whether it returns it or argparse exits,
    and what it printed."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr()


FORMULA1 = str(ROOT / "corpus" / "formula1.fap")


@pytest.mark.parametrize("argv, message", [
    (["run", FORMULA1, "--neg", "bogus"], "argument --neg: invalid choice: 'bogus'"),
    (["run", FORMULA1, "--first", "x"], "argument --first: invalid int value: 'x'"),
    (["squares", "5", "4"], "the following arguments are required: sizes"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
], ids=["bad-choice", "bad-int", "missing-argument", "unknown-command"])
def test_a_usage_error_exits_three_not_undetermined(argv, message, capsys):
    code, out = exit_of(argv, capsys)
    assert code == 3 and out.out == ""
    assert out.err.startswith("usage: fap") and f"error: {message}" in out.err


def test_help_exits_zero_and_a_usage_error_three_from_the_shell():
    help_ = run_cli("run", "corpus/formula1.fap", "--help")
    assert help_.returncode == 0 and help_.stdout.startswith("usage: fap run")
    bad = run_cli("run", "corpus/formula1.fap", "--neg", "bogus")
    assert bad.returncode == 3 and "invalid choice: 'bogus'" in bad.stderr


SQUARES = ["squares", "5", "4", "4", "1", "1", "1", "1"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--depth", "0"], "error: max_depth must be >= 1"),
    ([*SQUARES, "--set", "posX[1,2]=3"], "error: squares accepts only posX[k]=v"),
    ([*SQUARES, "--set", "posX[1]=TRUE"], "error: squares accepts only posX[k]=v"),
], ids=["gen-depth-0", "squares-two-indices", "squares-bool-value"])
def test_bad_gen_and_squares_input_is_a_static_error(argv, message, capsys):
    code, out = exit_of(argv, capsys)
    assert code == 3 and out.out == ""
    assert out.err.startswith(message) and "internal error" not in out.err


def test_gen_into_a_missing_directory_is_a_static_error(tmp_path, capsys):
    code, out = exit_of(["gen", "--out", str(tmp_path / "missing" / "x.fap")], capsys)
    assert code == 3 and out.out == ""
    assert out.err.startswith("error: [Errno 2]") and "internal error" not in out.err


def test_run_exit_code_via_main_in_process(capsys):
    code = main(["run", "corpus/formula1.fap", "--all"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "x=3 y=2"


# -- binding parser unit tests ----------------------------------------------------

def test_parse_bindings_scalars_and_cells():
    program = load("array a[1..2, 0..0] : int;\nquery x = 1 AND a[1, 0] = 2;")
    v = parse_bindings(program, ["x=5", "a[1,0]=7"])
    assert v == Valuation({"x": 5}, {("a", (1, 0)): 7})


def test_parse_bindings_rejects_bad_input():
    program = load("array a[1..2] : int;\nquery x = 1 AND a[1] = 0;")
    for bad in ("y=1", "a[3]=1", "a[1,2]=1", "x=TRUE", "x=", "a[1]=TRUE", "x=1x"):
        with pytest.raises(Diagnostic):
            parse_bindings(program, [bad])


def test_parse_bindings_rejects_duplicates():
    program = load("query x = 1;")
    with pytest.raises(Diagnostic):
        parse_bindings(program, ["x=1", "x=2"])


def test_format_solution_empty_and_sorted():
    assert format_solution(Valuation()) == "(empty)"
    v = Valuation({"b": 1, "a": 2}, {("z", (1,)): True})
    assert format_solution(v) == "a=2 b=1 z[1]=TRUE"
