"""Partitioning an integer rectangle into given squares, declaratively.

The program below fills the NX x NY grid cell by cell (left column first,
top to bottom).  A cell already lies under a placed square exactly when the
right edge recorded for its left neighbour reaches past it, or the lower edge
recorded for its upper neighbour does; otherwise some unused square must be
anchored there, fit inside the rectangle, and stamp its edge administration
over every cell it covers.  posX/posY double as output and as input: bind
them up front to check or complete a partial placement.

The formula is ordinary program text (see corpus/squares_5x4.fap); nothing
here is special-cased in the engine.  It must run with liberal negation: at
border cells the guard `1 < i` fails before the (out-of-range, unbound)
neighbour lookup is ever evaluated, which a strict negation would reject as
non-closed.
"""

from __future__ import annotations

from .engine import EngineConfig, NegationMode, SolveResult, solve
from .formulas import record
from .normalize import normalize_program
from .parser import parse
from .values import Valuation

TEMPLATE = """\
# Tile a {nx} x {ny} rectangle with {m} squares of given sizes.
# Sizes[k] is an input (bind it with --set); posX/posY may be bound
# partially to check or complete a placement.
array Sizes[1..{m}] : int;
array posX[1..{m}] : int;
array posY[1..{m}] : int;
array RightEdge[1..{nx}, 1..{ny}] : int;
array LowerEdge[1..{nx}, 1..{ny}] : int;
query
  FOR i := 1 TO {nx} DO
    FOR j := 1 TO {ny} DO
      NOT ((1 < i AND i < RightEdge[i - 1, j]) OR
           (1 < j AND j < LowerEdge[i, j - 1])) ->
      SOME k := 1 TO {m} DO
        posX[k] = i AND
        posY[k] = j AND
        Sizes[k] + i <= {nx} + 1 AND
        Sizes[k] + j <= {ny} + 1 AND
        FOR i1 := 1 TO Sizes[k] DO
          FOR j1 := 1 TO Sizes[k] DO
            RightEdge[i + i1 - 1, j + j1 - 1] = i + Sizes[k] AND
            LowerEdge[i + i1 - 1, j + j1 - 1] = j + Sizes[k]
          END
        END
      END
    END
  END
;
"""


def squares_program(nx: int, ny: int, m: int) -> str:
    if nx < 1 or ny < 1 or m < 1:
        raise ValueError("nx, ny and the number of squares must be >= 1")
    return TEMPLATE.format(nx=nx, ny=ny, m=m)


Placement = dict[int, tuple[int, int]]


@record
class SquaresReport:
    result: SolveResult
    placement: Placement  # square -> (posX, posY) of the first solution


def run_squares(
    nx: int,
    ny: int,
    sizes: list[int],
    partial_x: Placement | None = None,
    partial_y: Placement | None = None,
    config: EngineConfig | None = None,
) -> SquaresReport:
    """Solve (or check/complete) a tiling instance and verify any success
    against the independent coverage/disjointness checker."""
    m = len(sizes)
    if m == 0:
        raise ValueError("need at least one square")
    program = normalize_program(parse(squares_program(nx, ny, m)))
    cells = {("Sizes", (k,)): s for k, s in enumerate(sizes, start=1)}
    for k, x in (partial_x or {}).items():
        cells[("posX", (k,))] = x
    for k, y in (partial_y or {}).items():
        cells[("posY", (k,))] = y
    if config is None:
        config = EngineConfig(negation=NegationMode.LIBERAL, solution_limit=1)
    elif config.negation is not NegationMode.LIBERAL:
        raise ValueError("the squares program needs liberal negation")
    result = solve(program, Valuation({}, cells), config)
    placement: Placement = {}
    if result.solutions:
        found = result.solutions[0].cells
        pos_x = {idx[0]: v for (array, idx), v in found.items() if array == "posX"}
        pos_y = {idx[0]: v for (array, idx), v in found.items() if array == "posY"}
        placement = {k: (pos_x[k], pos_y[k]) for k in pos_x if k in pos_y}
        problem = check_placement(nx, ny, sizes, placement)
        if problem is not None:
            raise RuntimeError(f"engine produced an invalid tiling: {problem}")
    return SquaresReport(result, placement)


def check_placement(
    nx: int, ny: int, sizes: list[int], placement: Placement
) -> str | None:
    """Independent cell-marking check: placed squares stay inside the
    rectangle, never overlap, and together cover every cell.  Returns a
    description of the first problem, or None when the placement is a
    partition."""
    grid = [[0] * (ny + 1) for _ in range(nx + 1)]  # 1-based
    for k, (x, y) in sorted(placement.items()):
        if not 1 <= k <= len(sizes):
            return f"square {k} does not exist"
        s = sizes[k - 1]
        if x < 1 or y < 1 or x + s - 1 > nx or y + s - 1 > ny:
            return f"square {k} sticks out at ({x},{y})"
        for i in range(x, x + s):
            for j in range(y, y + s):
                if grid[i][j]:
                    return f"squares {grid[i][j]} and {k} overlap at ({i},{j})"
                grid[i][j] = k
    for i in range(1, nx + 1):
        for j in range(1, ny + 1):
            if not grid[i][j]:
                return f"cell ({i},{j}) is uncovered"
    return None


def has_tiling(
    nx: int,
    ny: int,
    sizes: list[int],
    fixed: Placement | None = None,
) -> bool:
    """Exhaustive first-uncovered-cell search for any tiling; the independent
    yardstick for failed runs and for completion mode.  `fixed` pins chosen
    squares to positions."""
    fixed = fixed or {}
    grid = [[False] * (ny + 1) for _ in range(nx + 1)]

    def first_open() -> tuple[int, int] | None:
        for i in range(1, nx + 1):
            for j in range(1, ny + 1):
                if not grid[i][j]:
                    return i, j
        return None

    def fits(x: int, y: int, s: int) -> bool:
        if x + s - 1 > nx or y + s - 1 > ny:
            return False
        return all(
            not grid[i][j] for i in range(x, x + s) for j in range(y, y + s)
        )

    def mark(x: int, y: int, s: int, value: bool) -> None:
        for i in range(x, x + s):
            for j in range(y, y + s):
                grid[i][j] = value

    used = [False] * (len(sizes) + 1)

    def search() -> bool:
        cell = first_open()
        if cell is None:
            return True
        x, y = cell
        for k in range(1, len(sizes) + 1):
            if used[k]:
                continue
            if k in fixed and fixed[k] != (x, y):
                continue
            s = sizes[k - 1]
            if not fits(x, y, s):
                continue
            used[k] = True
            mark(x, y, s, True)
            if search():
                return True
            mark(x, y, s, False)
            used[k] = False
        return False

    return search()
