"""Command-line driver.

    fap run FILE [--all | --first N] [--set NAME=V ...] [--neg ...] [--impl ...]
    fap gen [--seed N] [--depth D] [--out FILE]
    fap squares NX NY SIZE [SIZE ...] [--set posX[1]=1 ...]

Exit codes: 0 the query succeeded, 1 it failed, 2 it was undetermined
(error leaves or step budget), 3 a static error (syntax/sort/cycle/name,
bad bindings or bad arguments, with the message on stderr), 4 an internal
error: fap itself crashed, and the one-line `internal error:` message on
stderr names the exception.  `--help` exits 0.  A reader that closes stdout
early (`| head`) changes no exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable

from .engine import (
    EngineConfig,
    ImplicationMode,
    NegationMode,
    SolveResult,
    TreeStatus,
    check_initial,
    iter_trace,
    solve,
)
from .formulas import ProgramUnit, format_program
from .normalize import normalize_program
from .oracle import GeneratorConfig, generate
from .parser import Diagnostic, parse
from .render import RenderOptions, iter_render
from .squares import run_squares
from .values import Cell, Valuation, Value, valuation_entries

EXIT_BY_STATUS = {
    TreeStatus.SUCCESSFUL: 0,
    TreeStatus.FAILED: 1,
    TreeStatus.UNDETERMINED: 2,
}
EXIT_STATIC = 3
EXIT_INTERNAL = 4


def format_solution(v: Valuation) -> str:
    return " ".join(valuation_entries(v, "=")[1]) or "(empty)"


def format_report(report: SolveResult) -> str:
    lines = [format_solution(s) for s in report.solutions]
    lines.append(f"status: {report.status.value}")
    s, f, e = report.leaf_counts
    lines.append(f"leaves: success={s} fail={f} error={e}")
    if report.error_causes:
        lines.append(f"errors: {', '.join(report.error_causes)}")
    lines.append(f"steps: {report.steps}")
    return "\n".join(lines) + "\n"


_SET_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\[(?P<idx>-?\d+(?:\s*,\s*-?\d+)*)\])?"
    r"=(?P<value>-?\d+|TRUE|FALSE)$"
)
_SQUARES_SET_RE = re.compile(r"^(?P<name>posX|posY)\[(?P<idx>-?\d+)\]=(?P<value>-?\d+)$")


def parse_bindings(program: ProgramUnit, settings: list[str]) -> Valuation:
    """The initial valuation the --set flags give, each read once, checked
    against the program by engine.check_initial; raises ValueError."""
    scalars: dict[str, Value] = {}
    cells: dict[Cell, Value] = {}
    for raw in settings:
        m = _SET_RE.match(raw.strip())
        if m is None:
            raise ValueError(f"cannot parse binding {raw!r}")
        name, idx, text = m.group("name", "idx", "value")
        value = text == "TRUE" if text in ("TRUE", "FALSE") else int(text)
        if idx is None:
            key, target = name, scalars
        else:
            key, target = (name, tuple(int(p) for p in idx.split(","))), cells
        if key in target:
            raise ValueError(f"duplicate binding for {raw!r}")
        target[key] = value
    initial = Valuation(scalars, cells)
    check_initial(program, initial)
    return initial


def engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        negation=NegationMode(args.neg),
        implication=ImplicationMode(args.impl),
        pedantic=args.pedantic,
        max_steps=args.max_steps,
        solution_limit=None if args.all else args.first,
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    """The search flags of `run` and `squares`; engine_config reads them and
    `--neg`, which `run` takes and `squares` fixes."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="enumerate every solution")
    group.add_argument(
        "--first", type=int, default=1, metavar="N", help="stop after N solutions"
    )
    sub.add_argument(
        "--impl",
        choices=["strict", "negor", "guarded", "combined"],
        default="strict",
    )
    sub.add_argument(
        "--pedantic",
        action="store_true",
        help="verbatim strict implication (no liberal relaxations)",
    )
    sub.add_argument("--max-steps", type=int, default=100_000_000, metavar="N")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    try:
        program = normalize_program(parse(source))
        initial = parse_bindings(program, args.set)
        config = engine_config(args)
    except Diagnostic as diag:
        print(f"{args.file}:{diag}", file=sys.stderr)
        return EXIT_STATIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    result = solve(program, initial, config)
    report = format_report(result)
    if args.trace is not None:
        # the traced search runs only as far as the text, written as it is made
        opts = RenderOptions(format=args.trace)
        write_out(iter_render(iter_trace(program, initial, config), opts))
    if args.trace == "dot":
        sys.stderr.write(report)
    else:
        write_out(["\n" + report if args.trace == "text" else report])
    return EXIT_BY_STATUS[result.status]


def write_out(texts: Iterable[str]) -> None:
    """Write texts to stdout and flush it.  A reader that closes the pipe
    early chose to; the rest goes to os.devnull (as the signal docs advise)."""
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        cfg = GeneratorConfig(seed=args.seed, max_depth=args.depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    text = format_program(generate(cfg))
    if not args.out:
        write_out([text])
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    return 0


def cmd_squares(args: argparse.Namespace) -> int:
    partial_x: dict[int, int] = {}
    partial_y: dict[int, int] = {}
    for raw in args.set:
        m = _SQUARES_SET_RE.match(raw.strip())
        if m is None:
            print(f"error: squares accepts only posX[k]=v / posY[k]=v, got {raw!r}",
                  file=sys.stderr)
            return EXIT_STATIC
        target = partial_x if m.group("name") == "posX" else partial_y
        target[int(m.group("idx"))] = int(m.group("value"))
    try:
        report = run_squares(
            args.nx, args.ny, args.sizes, partial_x, partial_y, engine_config(args)
        )
    except (ValueError, Diagnostic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    lines = []
    if report.placement:
        placed = " ".join(
            f"{k}:({x},{y})" for k, (x, y) in sorted(report.placement.items())
        )
        lines.append(f"placement: {placed}")
        lines.append("verified: coverage and disjointness hold")
    write_out([("\n".join(lines) + "\n") if lines else "", format_report(report.result)])
    return EXIT_BY_STATUS[report.result.status]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """argparse's usage error, exiting as a static error: its own exit
        status, 2, would read as an undetermined query."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_STATIC, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fap", description="execute first-order formulas as programs")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a .fap program")
    run.add_argument("file")
    _add_engine_flags(run)
    run.add_argument("--neg", choices=["strict", "liberal"], default="strict")
    run.add_argument("--trace", choices=["text", "dot"], default=None)
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=V",
        help="bind a free variable (x=3) or array cell (a[1,2]=5) up front",
    )
    run.set_defaults(func=cmd_run)

    gen = subs.add_parser("gen", help="emit a random .fap program")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--depth", type=int, default=4)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    squares = subs.add_parser(
        "squares", help="tile an NX x NY rectangle with the given squares"
    )
    squares.add_argument("nx", type=int)
    squares.add_argument("ny", type=int)
    squares.add_argument("sizes", type=int, nargs="+")
    _add_engine_flags(squares)
    squares.add_argument("--set", action="append", default=[], metavar="posX[k]=v")
    # the tiling program needs liberal negation (see squares.py)
    squares.set_defaults(func=cmd_squares, neg="liberal")
    return parser


def main(argv: list[str] | None = None) -> int:
    # fap's integers are unbounded, and so is their text, until main returns
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # a crash must never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
