"""Partition regularity of integer linear systems.

Two independent routes to the same question live here.  The columns
condition decides partition regularity of A x = 0 structurally and emits
a checkable certificate: a partition I_1, ..., I_l of the column indices
where the I_1 columns sum to zero and each later block's column sum lies
in the rational span of all earlier columns.  It is found greedily: a
block valid for some placed columns stays valid, outside them, for any
larger placed set, so absorbing the first valid block never has to be
undone, and a step with no valid block refutes regularity.  The
empirical route brute forces r-colorings of [1..N] and either proves
every coloring contains a monochromatic solution or exhibits one that
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm
from typing import Optional, Sequence

from . import exactq, windows
from .errors import (DEFAULT_COLORING_BUDGET, FS_PREFIX_CAP, BudgetExceededError,
                     DegenerateMatrixError, InputError, json_int, quote)


def _column_key(text: str) -> int:
    """A coefficient key: a column index written as `to_json_dict` writes it."""
    if str(int(text)) != text:
        raise InputError(f"column key {quote(text)} is not a canonical integer")
    return int(text)


@dataclass(frozen=True)
class ColumnsCertificate:
    """Witness of the columns condition.

    Column indices are 1-based, matching the variables x_1..x_q of the
    system.  `coefficients[r-2]` maps each column of I_1 | ... | I_{r-1}
    to the rational coefficient used to express the I_r column sum.
    """

    blocks: tuple[tuple[int, ...], ...]
    coefficients: tuple[dict, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InputError("certificate needs at least one block")
        for block in self.blocks:
            if not block or any((not isinstance(j, int)) or j < 1 for j in block):
                raise InputError("blocks must be nonempty sets of 1-based indices")
            if list(block) != sorted(set(block)):
                raise InputError("blocks must be strictly increasing")
        if len(self.coefficients) != len(self.blocks) - 1:
            raise InputError("need one coefficient map per block after the first")

    def to_json_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "coefficients": [
                {str(j): str(c) for j, c in sorted(m.items())}
                for m in self.coefficients
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ColumnsCertificate":
        try:
            blocks = tuple(tuple(map(json_int, b)) for b in data["blocks"])
            coefficients = tuple(  # a coefficient is an integer or a "p/q" string
                {_column_key(j):
                 exactq.as_rational(c if type(c) is str else json_int(c))
                 for j, c in m.items()} for m in data["coefficients"])
        except (AttributeError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise InputError(f"bad certificate payload: {exc}") from exc
        return cls(blocks, coefficients)


@dataclass(frozen=True)
class Coloring:
    """An r-coloring of [1..N]; colors[n-1] is the color of n."""

    horizon: int
    color_count: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.color_count < 1:
            raise InputError("need at least one color")
        if len(self.colors) != self.horizon:
            raise InputError("need one color per element of [1..N]")
        if any((not isinstance(c, int)) or not 0 <= c < self.color_count
               for c in self.colors):
            raise InputError("color indices must lie in 0..r-1")


@dataclass(frozen=True)
class SolutionVector:
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or any((not isinstance(v, int)) or v < 1
                                  for v in self.values):
            raise InputError("solution entries must be positive integers")


@dataclass(frozen=True)
class EmpiricalResult:
    # verdict is "forced" or "witness"
    verdict: str
    witness: Optional[Coloring]
    nontrivial: bool


@dataclass(frozen=True)
class ForcingReport:
    colors: int
    nontrivial: bool
    forced_at: Optional[int]
    extremal_witness: Optional[Coloring]


def _column_sum(cols, indices, height) -> tuple:
    """The sum of the listed columns, in the columns' own number type."""
    return tuple(sum(cols[j][i] for j in indices) for i in range(height))


def _blocks(indices):
    """Nonempty subsets of `indices`, by size, then lexicographically."""
    return chain.from_iterable(
        combinations(indices, size) for size in range(1, len(indices) + 1))


def columns_condition(matrix: exactq.RationalMatrix) -> Optional[ColumnsCertificate]:
    """Decide partition regularity; return the first certificate found.

    Greedy absorption: starting from no placed columns, take the first
    block of the unplaced ones (by increasing size, then lexicographically)
    that is valid -- its column sum is zero while nothing is placed, and
    lies in the span of the placed columns after that -- until every
    column is placed.  Validity only grows with the placed set S: for a
    certificate I_1, ..., I_l and the first I_k not inside S, the part of
    I_k outside S is valid at S.  So a step that finds no valid block
    proves that no certificate exists, nothing is ever undone, and the
    result is the least certificate in this fixed order, which makes the
    output reproducible.  More than 2^FS_PREFIX_CAP span tests raise
    BudgetExceededError.
    """
    if not matrix.is_integer():
        raise InputError("columns condition applies to integer matrices")
    if matrix.is_zero():
        raise DegenerateMatrixError(
            "zero matrix: trivially satisfied by any assignment"
        )
    # the matrix is integer, so the block sums add Python ints
    cols = [tuple(map(int, matrix.column(j))) for j in range(matrix.cols)]
    placed = []  # (block, coefficients), in order
    rest, tests = tuple(range(matrix.cols)), 0
    while rest:
        used = sorted(j for block, _ in placed for j in block)
        for block in _blocks(rest):
            tests += 1
            if tests > 1 << FS_PREFIX_CAP:
                raise BudgetExceededError(
                    f"columns search made 2^{FS_PREFIX_CAP} span tests")
            target = _column_sum(cols, block, matrix.rows)
            coeff = (exactq.in_column_span(matrix, used, target) if used
                     else None if any(target) else {})
            if coeff is not None:
                break
        else:
            return None
        placed.append((block, coeff))
        rest = tuple(j for j in rest if j not in block)
    return ColumnsCertificate(
        tuple(tuple(j + 1 for j in block) for block, _ in placed),
        tuple({j + 1: c for j, c in coeff.items()} for _, coeff in placed[1:]))


def verify_certificate(matrix: exactq.RationalMatrix, cert: ColumnsCertificate) -> bool:
    """Exact re-check of the certificate relations against the matrix."""
    q = matrix.cols
    seen: set[int] = set()
    for block in cert.blocks:
        for j in block:
            if not 1 <= j <= q:
                raise InputError(f"certificate column {j} out of range 1..{q}")
            if j in seen:
                raise InputError(f"certificate column {j} appears twice")
            seen.add(j)
    if len(seen) != q:
        missing = sorted(set(range(1, q + 1)) - seen)
        raise InputError(f"certificate partition misses columns {missing}")
    cols = [matrix.column(j) for j in range(q)]
    height = matrix.rows
    if any(_column_sum(cols, [j - 1 for j in cert.blocks[0]], height)):
        return False
    earlier: set[int] = set(cert.blocks[0])
    for r in range(1, len(cert.blocks)):
        coeff = cert.coefficients[r - 1]
        if any(j not in earlier for j in coeff):
            raise InputError("coefficient attached to a column outside earlier blocks")
        target = _column_sum(cols, [j - 1 for j in cert.blocks[r]], height)
        combo = tuple(sum((Fraction(c) * cols[j - 1][i] for j, c in coeff.items()),
                          Fraction(0)) for i in range(height))
        if combo != target:
            return False
        earlier.update(cert.blocks[r])
    return True


def default_nontrivial(matrix: exactq.RationalMatrix) -> bool:
    """Nontriviality defaults to ON exactly when the constant vector
    solves the system (every row sums to zero), since otherwise forcing
    numbers would be meaningless."""
    return all(sum(matrix.row(i)) == 0 for i in range(matrix.rows))


def _solution_shells(matrix, horizon, members, nontrivial, distinct):
    """Positive solutions of A x = 0 inside the window, one list (shell)
    per window element n, in order: those whose last free coordinate in
    window order is n.  Fixing the first free position that holds n tries
    each free tuple once.  The rational kernel is parametrized by the free
    columns of the RREF; free coordinates run over the window, pivot
    coordinates are forced and checked for integrality and membership.
    Each pivot row is scaled by the lcm of its denominators, so the
    arithmetic is exact on integers."""
    q = matrix.cols
    rref, pivots = exactq.reduced_row_echelon(matrix)
    pivot_set = set(pivots)
    frees = [c for c in range(q) if c not in pivot_set]
    if not frees:
        return  # trivial kernel: no positive solutions
    domain = list(members) if members is not None else range(1, horizon + 1)
    allowed = set(domain) if members is not None else domain  # a range needs no set
    pivot_rows = []  # (pivot column, scale, [(index into frees, -scale * entry)])
    for r, pcol in enumerate(pivots):
        row = rref[r]
        scale = lcm(*(row[f].denominator for f in frees))
        pivot_rows.append((pcol, scale, [(i, int(-row[f] * scale))
                                         for i, f in enumerate(frees) if row[f]]))
    width = len(frees)
    x = [0] * q
    for k, n in enumerate(domain):
        # a list slice costs O(k), so one free column takes none
        below, upto = (domain[:k], domain[:k + 1]) if width > 1 else ((), ())
        shell = []
        for j in range(width):
            for free_values in product(*[below] * j, (n,), *[upto] * (width - j - 1)):
                for pcol, scale, terms in pivot_rows:
                    v, rem = divmod(sum(a * free_values[i] for i, a in terms), scale)
                    if rem or v < 1 or v > horizon or v not in allowed:
                        break
                    x[pcol] = v
                else:
                    for f, v in zip(frees, free_values):
                        x[f] = v
                    if nontrivial and len(set(x)) == 1:
                        continue
                    if distinct and len(set(x)) != q:
                        continue
                    shell.append(tuple(x))
        yield shell


def enumerate_solutions(
    matrix: exactq.RationalMatrix,
    horizon: int,
    members: Optional[Sequence[int]] = None,
    nontrivial: bool = False,
    distinct: bool = False,
) -> list[tuple[int, ...]]:
    """All positive solutions of A x = 0 inside the window, shell by shell."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    return list(chain.from_iterable(
        _solution_shells(matrix, horizon, members, nontrivial, distinct)))


def solve_in_cell(
    matrix: exactq.RationalMatrix,
    window: windows.SetWindow,
    nontrivial: Optional[bool] = None,
    distinct: bool = False,
) -> Optional[SolutionVector]:
    """Lexicographically least solution with every coordinate in the
    window, or None when the window contains no solution."""
    if len(window) == 0:
        return None
    if nontrivial is None:
        nontrivial = default_nontrivial(matrix)
    sols = enumerate_solutions(matrix, window.horizon, members=window.members,
                               nontrivial=nontrivial, distinct=distinct)
    if not sols:
        return None
    best = min(sols)
    # re-verify post hoc: exact solution, fully inside the window
    assert all(v == 0 for v in matrix.mul_vector(best))
    assert all(v in window.member_set for v in best)
    return SolutionVector(best)


def _coloring_search(matrix, colors, horizon, budget, nontrivial, distinct):
    """Lexicographically least coloring of the longest solution-free
    prefix [1..n], n <= horizon, with color(1) pinned to 0, and the
    nontriviality used (default_nontrivial when None).

    Depth-first with an explicit cursor: depth n tries color c next.  On
    first reaching n it files shell n's solutions under their largest
    entries, which completes level n, so a search that stops early lists
    no more; n may not take color c when all the other entries of a
    level-n solution have color c.  The coloring is a stack exactly as
    deep as the search, so a horizon far past the budget costs no memory.
    Every tried color counts one node against the budget; the record
    prefix is copied only when the search backtracks into the record depth.
    """
    if colors < 1:
        raise InputError("need at least one color")
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    if nontrivial is None:
        nontrivial = default_nontrivial(matrix)
    shells = _solution_shells(matrix, horizon, None, nontrivial, distinct)
    coloring = [0]  # coloring[k] is the color of k, for k below the depth
    levels: dict = {}  # levels[n]: each solution's entries other than n
    record: list[int] = []
    deepest = pulled = ticks = 0
    n, c = 1, 0
    while 0 < n <= horizon:
        if c == (1 if n == 1 else colors):  # every color failed: backtrack
            n -= 1
            if n == deepest > len(record):
                record = coloring[1:n + 1]
            c = coloring.pop() + 1
            continue
        ticks += 1
        if ticks > budget:
            raise BudgetExceededError(f"coloring search exceeded {budget} nodes")
        if n > pulled:
            pulled = n
            for s in next(shells, ()):
                levels.setdefault(max(s), set()).add(tuple(sorted(set(s))[:-1]))
        for entries in levels.get(n, ()):
            for v in entries:
                if coloring[v] != c:
                    break
            else:
                break  # n would complete a monochromatic solution
        else:
            coloring.append(c)
            deepest = max(deepest, n)
            n, c = n + 1, 0
            continue
        c += 1
    return (coloring[1:] if n else record), nontrivial


def empirical_pr(
    matrix: exactq.RationalMatrix,
    colors: int,
    horizon: int,
    nontrivial: Optional[bool] = None,
    distinct: bool = False,
    budget: int = DEFAULT_COLORING_BUDGET,
) -> EmpiricalResult:
    """Exhaustive oracle on [1..N]: "forced" when every r-coloring has a
    monochromatic solution, otherwise the lexicographically least witness
    coloring (the color of 1 is pinned to 0, which costs no generality).
    """
    prefix, nontrivial = _coloring_search(
        matrix, colors, horizon, budget, nontrivial, distinct)
    if len(prefix) == horizon:
        witness = Coloring(horizon, colors, tuple(prefix))
        return EmpiricalResult("witness", witness, nontrivial)
    return EmpiricalResult("forced", None, nontrivial)


def forcing_number(
    matrix: exactq.RationalMatrix,
    colors: int,
    max_horizon: int,
    nontrivial: Optional[bool] = None,
    budget: int = DEFAULT_COLORING_BUDGET,
) -> ForcingReport:
    """Least N <= max_horizon at which every r-coloring of [1..N] is
    forced, with the witness at N - 1.  One search runs at max_horizon;
    the search at each smaller N would visit a prefix of its nodes, so the
    budget binds exactly as on a sweep of per-N searches."""
    prefix, nontrivial = _coloring_search(
        matrix, colors, max_horizon, budget, nontrivial, False)
    witness = Coloring(len(prefix), colors, tuple(prefix)) if prefix else None
    forced_at = len(prefix) + 1 if len(prefix) < max_horizon else None
    return ForcingReport(colors, nontrivial, forced_at, witness)


def schur_matrix() -> exactq.RationalMatrix:
    return exactq.RationalMatrix.from_rows([[1, 1, -1]])


def ap_matrix(length: int) -> exactq.RationalMatrix:
    """The system forcing x_1, ..., x_L into arithmetic progression."""
    if length < 3:
        raise InputError("arithmetic progressions need length >= 3")
    rows = []
    for i in range(length - 2):
        row = [0] * length
        row[i], row[i + 1], row[i + 2] = 1, -2, 1
        rows.append(row)
    return exactq.RationalMatrix.from_rows(rows)


def schur_number(
    colors: int, max_horizon: int = 50, budget: int = DEFAULT_COLORING_BUDGET
) -> ForcingReport:
    """Forcing sweep for x + y = z; the classical number is forced_at - 1."""
    return forcing_number(schur_matrix(), colors, max_horizon, budget=budget)


def vdw_number(
    colors: int,
    length: int,
    max_horizon: int = 50,
    budget: int = DEFAULT_COLORING_BUDGET,
) -> ForcingReport:
    """Forcing sweep for length-L arithmetic progressions (nontrivial, so
    constant progressions do not count); the classical number is forced_at."""
    return forcing_number(
        ap_matrix(length), colors, max_horizon, nontrivial=True, budget=budget
    )
