import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from ramseykit.errors import InputError
from ramseykit.exactq import (
    RationalMatrix,
    as_rational,
    in_column_span,
    rank,
    reduced_row_echelon,
    solve_linear,
)


def brute_rank(matrix: RationalMatrix) -> int:
    """Independent oracle: largest square submatrix with nonzero determinant,
    determinants expanded over permutations."""

    def det(rows, cols):
        n = len(rows)
        total = F(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            # count inversions for the sign
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = F(1)
            for i, p in enumerate(perm):
                prod *= matrix.entry(rows[i], cols[p])
            total += sign * prod
        return total

    best = 0
    for size in range(1, min(matrix.rows, matrix.cols) + 1):
        for rs in combinations(range(matrix.rows), size):
            for cs in combinations(range(matrix.cols), size):
                if det(rs, cs) != 0:
                    best = size
                    break
            else:
                continue
            break
    return best


def test_rank_identity():
    assert rank(RationalMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_single_row():
    assert rank(RationalMatrix.from_rows([[1, 1, -1]])) == 1


def test_rank_two_by_four():
    m = RationalMatrix.from_rows([[1, 1, -1, 0], [1, 0, 1, -1]])
    assert brute_rank(m) == 2
    assert rank(m) == 2


def test_rank_matches_brute_force_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert rank(m) == brute_rank(m)


def test_rank_invariant_under_row_swap_and_scaling():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(2, 4)
        cols = rng.randint(1, 4)
        grid = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        base = rank(RationalMatrix.from_rows(grid))
        i, j = rng.sample(range(rows), 2)
        swapped = [r[:] for r in grid]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert rank(RationalMatrix.from_rows(swapped)) == base
        scaled = [r[:] for r in grid]
        scaled[i] = [F(-3, 2) * v for v in scaled[i]]
        assert rank(RationalMatrix.from_rows(scaled)) == base


def test_reduced_row_echelon_form_on_random_matrices():
    """Pivots strictly increase, each pivot is 1 with zeros elsewhere in its
    column, zero rows come last, and the rows span the input's row space:
    the input and the input stacked on the output have the same rank."""
    rng = random.Random(22)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        m = RationalMatrix.from_rows(grid)
        rows, pivots = reduced_row_echelon(m)
        assert len(rows) == nrows
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for r, col in enumerate(pivots):
            assert [row[col] for row in rows] == [F(int(i == r)) for i in range(nrows)]
        assert not any(v for row in rows[len(pivots):] for v in row)
        assert brute_rank(m) == len(pivots)
        assert brute_rank(RationalMatrix.from_rows(grid + rows)) == len(pivots)


def test_solve_identity():
    m = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert solve_linear(m, [3, 5]) == [F(3), F(5)]


def test_solve_underdetermined_zeroes_free_variables():
    m = RationalMatrix.from_rows([[1, 1]])
    assert solve_linear(m, [0]) == [F(0), F(0)]


def test_solve_inconsistent():
    m = RationalMatrix.from_rows([[1], [1]])
    assert solve_linear(m, [1, 2]) is None


def test_solve_dimension_mismatch():
    m = RationalMatrix.from_rows([[1, 2]])
    with pytest.raises(InputError):
        solve_linear(m, [1, 2])


def test_solutions_are_exact_on_random_systems():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = RationalMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = m.mul_vector(x)
        got = solve_linear(m, b)
        assert got is not None  # consistent by construction
        assert m.mul_vector(got) == b


def test_span_simple():
    m = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert in_column_span(m, [0, 1], [2, 3]) == {0: F(2), 1: F(3)}


def test_span_outside():
    m = RationalMatrix.from_rows([[1], [1]])
    assert in_column_span(m, [0], [1, 2]) is None


def test_span_underdetermined_uses_zero_free_rule():
    m = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    got = in_column_span(m, [0, 1, 2], [1, 1])
    assert got == {0: F(2), 1: F(1), 2: F(0)}
    # substitute back exactly
    combo = [
        sum((got[j] * m.entry(i, j) for j in got), F(0)) for i in range(m.rows)
    ]
    assert combo == [F(1), F(1)]


def test_span_empty_selection_rejected():
    m = RationalMatrix.from_rows([[1]])
    with pytest.raises(InputError):
        in_column_span(m, [], [1])


def test_span_agrees_with_rank_criterion():
    rng = random.Random(19)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        selected = sorted(
            rng.sample(range(cols), rng.randint(1, cols))
        )
        target = [rng.randint(-4, 4) for _ in range(rows)]
        sub = RationalMatrix.from_rows(
            [[m.entry(i, j) for j in selected] for i in range(rows)]
        )
        augmented = RationalMatrix.from_rows(
            [
                [m.entry(i, j) for j in selected] + [target[i]]
                for i in range(rows)
            ]
        )
        expected = rank(sub) == rank(augmented)
        assert (in_column_span(m, selected, target) is not None) == expected


def test_matrix_text_round_trip():
    text = "2 3\n1 1/2 -1\n0 2 3/4\n"
    m = RationalMatrix.from_text(text)
    assert m.entry(0, 1) == F(1, 2)
    assert m.entry(1, 2) == F(3, 4)
    assert RationalMatrix.from_text(m.to_text()) == m


def test_matrix_text_rejects_bad_shapes():
    with pytest.raises(InputError):
        RationalMatrix.from_text("2 2\n1 2\n")
    with pytest.raises(InputError):
        RationalMatrix.from_text("1 2\n1 2 3\n")
    with pytest.raises(InputError):
        RationalMatrix.from_rows([[0.5]])


@pytest.mark.parametrize("text", ["691387 /9829", "1/ 3", "1 / 3", "1_0/3"])
def test_rational_literals_read_alike_on_every_python(text):
    """Fraction takes spaces around the slash from Python 3.12 on and
    underscores from 3.11 on; as_rational refuses both on every version."""
    with pytest.raises(InputError, match="not a rational literal"):
        as_rational(text)


def test_rational_literals_keep_their_outer_whitespace_and_forms():
    assert as_rational(" 691387/9829\n") == F(691387, 9829)
    assert as_rational("-1.5") == F(-3, 2)
    assert as_rational("+2/4") == F(1, 2)
