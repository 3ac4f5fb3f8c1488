"""Run first-order formulas as backtracking programs.

Quick start::

    from fap import load_query, solve
    result = solve(load_query("(x = 2 OR x = 3) AND x * 2 = 6"))
    print(result.status, result.solutions)
"""

from .engine import (
    EngineConfig,
    Error,
    Fail,
    ImplicationMode,
    Leaf,
    NegationMode,
    SolveResult,
    Success,
    TraceNode,
    TreeStatus,
    eval_subtree_status,
    iter_leaves,
    iter_trace,
    solve,
    status_of,
    trace,
)
from .formulas import (
    ArrayDecl,
    ProcedureDef,
    ProgramUnit,
    Scalar,
    format_formula,
    format_program,
    free_vars,
)
from .normalize import load, load_query, normalize, normalize_program
from .oracle import (
    FiniteDomain,
    GeneratorConfig,
    generate,
    oracle_satisfiable,
    oracle_truth,
    oracle_valid,
)
from .parser import Diagnostic, parse, parse_query
from .render import RenderOptions, render
from .values import EMPTY_VALUATION, Valuation, classify_atom, eval_term, is_closed

__version__ = "0.1.0"

__all__ = [
    "ArrayDecl",
    "Diagnostic",
    "EMPTY_VALUATION",
    "EngineConfig",
    "Error",
    "Fail",
    "FiniteDomain",
    "GeneratorConfig",
    "ImplicationMode",
    "Leaf",
    "NegationMode",
    "ProcedureDef",
    "ProgramUnit",
    "RenderOptions",
    "Scalar",
    "SolveResult",
    "Success",
    "TraceNode",
    "TreeStatus",
    "Valuation",
    "classify_atom",
    "eval_subtree_status",
    "eval_term",
    "format_formula",
    "format_program",
    "free_vars",
    "generate",
    "is_closed",
    "iter_leaves",
    "iter_trace",
    "load",
    "load_query",
    "normalize",
    "normalize_program",
    "oracle_satisfiable",
    "oracle_truth",
    "oracle_valid",
    "parse",
    "parse_query",
    "render",
    "solve",
    "status_of",
    "trace",
]
