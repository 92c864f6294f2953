"""Exact rational arithmetic and desk-scale linear algebra.

Everything runs on `fractions.Fraction` (arbitrary precision, canonical
form with positive denominator), so ranks, solutions and span coefficients
are exact -- there is no floating point anywhere in this package.

Column/row indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, quote


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction takes "1 / 3" from Python 3.12 on and "1_0" from 3.11
        # on; refusing both inside the literal keeps one spelling everywhere
        text = value.strip()
        if "_" in text or any(ch.isspace() for ch in text):
            raise InputError(f"not a rational literal: {quote(value)}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational literal: {quote(value)}") from exc
    raise InputError(f"exact rational required, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InputError("matrix needs at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        grid = [list(r) for r in rows]
        if not grid or not grid[0]:
            raise InputError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise InputError("ragged rows")
        flat = tuple(as_rational(v) for r in grid for v in r)
        return cls(len(grid), width, flat)

    @classmethod
    def from_text(cls, text: str) -> "RationalMatrix":
        """Parse the shared matrix format: "rows cols" then that many rows
        of whitespace-separated integers or num/den rationals."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise InputError('matrix header must be "rows cols"')
        try:
            nrows, ncols = int(head[0]), int(head[1])
        except ValueError as exc:
            raise InputError("matrix header must hold two integers") from exc
        if len(lines) - 1 != nrows:
            raise InputError(f"expected {nrows} data lines, got {len(lines) - 1}")
        grid = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != ncols:
                raise InputError(f"row {quote(ln)} does not have {ncols} entries")
            grid.append([as_rational(p) for p in parts])
        return cls.from_rows(grid)

    def to_text(self) -> str:
        out = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            out.append(" ".join(str(v) for v in self.row(i)))
        return "\n".join(out) + "\n"

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def is_integer(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)

    def mul_vector(self, x: Sequence) -> tuple[Fraction, ...]:
        if len(x) != self.cols:
            raise InputError("vector length does not match column count")
        xs = [as_rational(v) for v in x]
        return tuple(
            sum((self.entry(i, j) * xs[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )


def _reduce(grid: list[list[Fraction]], width: int) -> list[int]:
    """RREF in place over the first `width` columns, in one Gauss-Jordan pass.

    Pivot rule: scan columns left to right, take the first nonzero entry
    from the top among unused rows, scale it to 1 and clear its column in
    every other row.  Returns the pivot column list; the pivot of row r
    sits in column pivots[r].
    """
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(grid)) if grid[i][col]), None)
        if hit is None:
            continue
        grid[r], grid[hit] = grid[hit], grid[r]
        pv = grid[r][col]
        row = grid[r] = [v / pv for v in grid[r]]
        for i, other in enumerate(grid):
            factor = other[col]
            if factor and i != r:
                grid[i] = [a - factor * b for a, b in zip(other, row)]
        pivots.append(col)
    return pivots


def rank(matrix: RationalMatrix) -> int:
    """Rank over the rationals."""
    grid = [list(matrix.row(i)) for i in range(matrix.rows)]
    return len(_reduce(grid, matrix.cols))


def reduced_row_echelon(
    matrix: RationalMatrix,
) -> tuple[list[list[Fraction]], list[int]]:
    """Full RREF (pivots normalized to 1, zeros above and below).

    Returns (rows, pivot_columns).  With free variables set to arbitrary
    values, row r reads: x[pivots[r]] = -sum over free columns c of
    rows[r][c] * x[c].
    """
    grid = [list(matrix.row(i)) for i in range(matrix.rows)]
    return grid, _reduce(grid, matrix.cols)


def solve_linear(
    matrix: RationalMatrix, rhs: Sequence
) -> Optional[list[Fraction]]:
    """One exact solution of M x = b, or None when inconsistent.

    Underdetermined systems get the canonical solution with every free
    variable set to zero (fixed pivot order), so outputs are reproducible.
    """
    if len(rhs) != matrix.rows:
        raise InputError("right-hand side length does not match row count")
    b = [as_rational(v) for v in rhs]
    grid = [list(matrix.row(i)) + [b[i]] for i in range(matrix.rows)]
    pivots = _reduce(grid, matrix.cols)
    if any(grid[r][-1] != 0 for r in range(len(pivots), matrix.rows)):
        return None
    x = [Fraction(0)] * matrix.cols
    for r, col in enumerate(pivots):
        x[col] = grid[r][-1]
    return x


def in_column_span(
    matrix: RationalMatrix, selected: Sequence[int], target: Sequence
) -> Optional[dict[int, Fraction]]:
    """Express `target` as a rational combination of the selected columns.

    Returns {column index: coefficient} under the zero-free-variable rule,
    or None when target is outside the span.  `selected` is canonicalized
    to ascending order.
    """
    cols = sorted(set(selected))
    if not cols:
        raise InputError("empty column selection")
    if len(cols) != len(list(selected)):
        raise InputError("duplicate column indices in selection")
    if cols[0] < 0 or cols[-1] >= matrix.cols:
        raise InputError("column index out of range")
    sub = RationalMatrix.from_rows(
        [[matrix.entry(i, j) for j in cols] for i in range(matrix.rows)]
    )
    x = solve_linear(sub, target)
    if x is None:
        return None
    return dict(zip(cols, x))
