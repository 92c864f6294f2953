import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from ramseykit.errors import (
    BudgetExceededError,
    DegenerateMatrixError,
    InputError,
)
from ramseykit.exactq import RationalMatrix, reduced_row_echelon
from ramseykit import rado
from ramseykit.rado import (
    Coloring,
    ColumnsCertificate,
    columns_condition,
    default_nontrivial,
    empirical_pr,
    enumerate_solutions,
    forcing_number,
    schur_number,
    solve_in_cell,
    vdw_number,
    verify_certificate,
)
from ramseykit.windows import SetWindow

SCHUR = RationalMatrix.from_rows([[1, 1, -1]])
AP3 = RationalMatrix.from_rows([[1, -2, 1]])
BRAUER = RationalMatrix.from_rows([[1, 1, -1, 0], [1, 0, 1, -1]])


# --- independent oracles -------------------------------------------------

def naive_solutions(matrix, horizon, nontrivial=False, distinct=False):
    """Plain q-fold loop, no linear algebra."""
    q = matrix.cols
    out = []
    for x in product(range(1, horizon + 1), repeat=q):
        if all(v == 0 for v in matrix.mul_vector(x)):
            if nontrivial and len(set(x)) == 1:
                continue
            if distinct and len(set(x)) != q:
                continue
            out.append(x)
    return out


def naive_forced(matrix, colors, horizon, nontrivial=False):
    """Enumerate every coloring outright; None if forced, else the
    lexicographically least witness with color(1) = 0."""
    sols = naive_solutions(matrix, horizon, nontrivial=nontrivial)
    for assignment in product(range(colors), repeat=horizon - 1):
        coloring = (0,) + assignment
        ok = True
        for s in sols:
            c0 = coloring[s[0] - 1]
            if all(coloring[v - 1] == c0 for v in s):
                ok = False
                break
        if ok:
            return coloring
    return None


def oracle_rank(vectors) -> int:
    """Rank of a list of rational vectors by plain row reduction."""
    rows = [[F(v) for v in vec] for vec in vectors]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for r in range(done + 1, len(rows)):
            f = rows[r][col] / rows[done][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[done])]
        done += 1
    return done


def oracle_columns_regular(matrix) -> bool:
    """Try every ordered set partition I_1, ..., I_l of the columns: I_1
    sums to zero and each later block's sum is in the span of the earlier
    columns, which holds exactly when it leaves their rank unchanged."""
    cols = [matrix.column(j) for j in range(matrix.cols)]

    def total(block):
        return [sum(entries) for entries in zip(*(cols[j] for j in block))]

    def extends(placed, rest):
        if not rest:
            return True
        earlier = [cols[j] for j in placed]
        for size in range(1, len(rest) + 1):
            for block in combinations(rest, size):
                target = total(block)
                if placed:
                    ok = oracle_rank(earlier + [target]) == oracle_rank(earlier)
                else:
                    ok = not any(target)
                left = [j for j in rest if j not in block]
                if ok and extends(placed + list(block), left):
                    return True
        return False

    return extends([], list(range(matrix.cols)))


# --- columns condition ----------------------------------------------------

def test_schur_certificate_content():
    cert = columns_condition(SCHUR)
    assert cert.blocks == ((1, 3), (2,))
    assert cert.coefficients == ({1: F(1), 3: F(0)},)
    assert verify_certificate(SCHUR, cert)


def test_one_one_minus_three_not_regular():
    assert columns_condition(RationalMatrix.from_rows([[1, 1, -3]])) is None


def test_brauer_certificate():
    cert = columns_condition(BRAUER)
    assert cert.blocks == ((2, 3, 4), (1,))
    assert verify_certificate(BRAUER, cert)


def test_certificate_with_pair_absorption_block():
    """Neither leftover column sits in the span alone, but their sum does."""
    m = RationalMatrix.from_rows([[1, -1, 1, 1], [1, -1, 0, 2]])
    cert = columns_condition(m)
    assert cert.blocks == ((1, 2), (3, 4))
    assert cert.coefficients == ({1: F(2), 2: F(0)},)
    assert verify_certificate(m, cert)


def test_all_columns_zero_sum_single_block():
    m = RationalMatrix.from_rows([[1, -1]])
    cert = columns_condition(m)
    assert cert.blocks == ((1, 2),)
    assert cert.coefficients == ()
    assert verify_certificate(m, cert)


def test_zero_matrix_is_degenerate():
    with pytest.raises(DegenerateMatrixError):
        columns_condition(RationalMatrix.from_rows([[0, 0], [0, 0]]))


def test_non_integer_matrix_rejected():
    with pytest.raises(InputError):
        columns_condition(RationalMatrix.from_rows([["1/2", 1]]))


def test_verify_rejects_wrong_first_block():
    bad = ColumnsCertificate(((1, 2), (3,)), ({1: F(0), 2: F(0)},))
    assert not verify_certificate(SCHUR, bad)


def test_verify_rejects_wrong_coefficients():
    """A later block whose column sum is not the stated combination."""
    matrix = RationalMatrix.from_rows([[1, -1, 2]])
    found = columns_condition(matrix)
    assert found == ColumnsCertificate(((1, 2), (3,)), ({1: F(2), 2: F(0)},))
    assert verify_certificate(matrix, found)
    bad = ColumnsCertificate(((1, 2), (3,)), ({1: F(3), 2: F(0)},))
    assert not verify_certificate(matrix, bad)


def test_trivial_kernel_has_no_positive_solution():
    identity = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert enumerate_solutions(identity, 10) == []
    assert empirical_pr(identity, 1, 5).verdict == "witness"


def test_verify_raises_on_missing_column():
    partial = ColumnsCertificate(((1, 3),), ())
    with pytest.raises(InputError):
        verify_certificate(SCHUR, partial)
    out_of_range = ColumnsCertificate(((1, 3, 4), (2,)), ({1: F(0), 3: F(0), 4: F(0)},))
    with pytest.raises(InputError):
        verify_certificate(SCHUR, out_of_range)


def test_certificates_always_verify_on_random_matrices():
    rng = random.Random(6)
    for _ in range(80):
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 4)
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if m.is_zero():
            continue
        cert = columns_condition(m)
        if cert is not None:
            assert verify_certificate(m, cert)


def test_verdict_invariant_under_column_permutation():
    rng = random.Random(15)
    for _ in range(40):
        cols = rng.randint(2, 4)
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)]
        )
        if m.is_zero():
            continue
        perm = list(range(cols))
        rng.shuffle(perm)
        permuted = RationalMatrix.from_rows(
            [[m.entry(i, perm[j]) for j in range(cols)] for i in range(2)]
        )
        assert (columns_condition(m) is None) == (columns_condition(permuted) is None)


def census(rows, cols, bound):
    """Every rows x cols integer matrix with entries in [-bound, bound] and
    no zero row, in a fixed order."""
    row_values = [v for v in product(range(-bound, bound + 1), repeat=cols) if any(v)]
    return [RationalMatrix.from_rows(m) for m in product(row_values, repeat=rows)]


def test_census_verdicts_are_rechecked():
    """Both verdicts on small families: every certificate passes the
    verifier and every refusal is confirmed by the ordered-partition oracle.
    The 2x4 family (6400 systems) is sampled."""
    families = [census(1, 3, 3), census(1, 4, 2),
                random.Random(18).sample(census(2, 4, 1), 300)]
    regular = []
    for family in families:
        count = 0
        for m in family:
            cert = columns_condition(m)
            if cert is None:
                assert not oracle_columns_regular(m)
            else:
                assert verify_certificate(m, cert)
                count += 1
        regular.append((count, len(family)))
    assert regular[:2] == [(126, 342), (408, 624)]


def test_columns_search_is_capped(monkeypatch):
    """1 x q all-ones has no zero-sum block, so the search tests all
    2^q - 1 blocks; one test past 2^FS_PREFIX_CAP is a budget error."""
    monkeypatch.setattr(rado, "FS_PREFIX_CAP", 10)
    assert columns_condition(RationalMatrix.from_rows([[1] * 10])) is None
    with pytest.raises(BudgetExceededError, match="2\\^10 span tests"):
        columns_condition(RationalMatrix.from_rows([[1] * 11]))


def test_single_equation_examples():
    """One equation is regular exactly when some coefficients sum to zero;
    the first block is the least such set, by size and then lexicographically."""
    def first_block(coeffs):
        cert = columns_condition(RationalMatrix.from_rows([coeffs]))
        return None if cert is None else cert.blocks[0]

    assert first_block([1, 1, -1]) == (1, 3)
    assert first_block([2, 3, -5]) == (1, 2, 3)
    assert first_block([3, 4, 6]) is None


# --- solution enumeration and solve_in_cell --------------------------------

def test_enumeration_matches_naive_oracle():
    """1x2, 1x3 and 2x4 matrices, the whole of [1..n] and a subset of it;
    most 2x4 reductions have fractional rows, which must stay exact."""
    rng = random.Random(9)
    fractional = 0
    for _ in range(60):
        rows, cols = rng.choice([(1, 2), (1, 3), (2, 4)])
        m = RationalMatrix.from_rows(
            [[rng.choice([v for v in range(-3, 4) if v]) for _ in range(cols)]
             for _ in range(rows)]
        )
        rref, _ = reduced_row_echelon(m)
        fractional += any(v.denominator != 1 for row in rref for v in row)
        n = rng.randint(1, 8)
        members = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        for flag in (False, True):
            expected = naive_solutions(m, n, nontrivial=flag)
            assert sorted(enumerate_solutions(m, n, nontrivial=flag)) == sorted(
                expected
            )
            assert sorted(
                enumerate_solutions(m, n, members=members, nontrivial=flag)
            ) == sorted(x for x in expected if set(x) <= set(members))
    assert fractional >= 5


def test_solve_in_cell_examples():
    assert solve_in_cell(SCHUR, SetWindow.full(13)).values == (1, 1, 2)
    assert solve_in_cell(AP3, SetWindow.odds(9), nontrivial=True).values == (1, 3, 5)
    assert solve_in_cell(SCHUR, SetWindow.odds(99)) is None


def test_solve_in_cell_defaults_and_distinct():
    # default nontriviality: on for the progression matrix, off for Schur
    assert default_nontrivial(AP3) and not default_nontrivial(SCHUR)
    assert solve_in_cell(AP3, SetWindow.full(9)).values == (1, 2, 3)
    got = solve_in_cell(SCHUR, SetWindow.full(13), distinct=True)
    assert got.values == (1, 2, 3)


def test_solve_in_cell_respects_containment():
    rng = random.Random(33)
    for _ in range(30):
        m = RationalMatrix.from_rows(
            [[rng.choice([v for v in range(-3, 4) if v]) for _ in range(3)]]
        )
        members = {rng.randint(1, 25) for _ in range(rng.randint(3, 15))}
        window = SetWindow.from_members(25, members)
        got = solve_in_cell(m, window)
        if got is not None:
            assert all(v == 0 for v in m.mul_vector(got.values))
            assert all(v in window.member_set for v in got.values)


# --- exhaustive coloring oracle --------------------------------------------

def test_schur_forced_and_witness():
    assert empirical_pr(SCHUR, 2, 5).verdict == "forced"
    res = empirical_pr(SCHUR, 2, 4)
    assert res.verdict == "witness"
    assert res.witness.colors == (0, 1, 1, 0)
    # the oracle checks the horizon itself; the search below it would not
    for horizon in (0, -1):
        with pytest.raises(InputError, match=r"^horizon must be >= 1$"):
            empirical_pr(SCHUR, 2, horizon)


def test_ap_forced_and_witness():
    assert empirical_pr(AP3, 2, 9, nontrivial=True).verdict == "forced"
    res = empirical_pr(AP3, 2, 8, nontrivial=True)
    assert res.witness.colors == (0, 0, 1, 1, 0, 0, 1, 1)


def test_empirical_agrees_with_naive_enumeration():
    rng = random.Random(12)
    for _ in range(25):
        m = RationalMatrix.from_rows(
            [[rng.choice([v for v in range(-2, 3) if v]) for _ in range(3)]]
        )
        n = rng.randint(1, 6)
        flag = bool(rng.getrandbits(1))
        expected = naive_forced(m, 2, n, nontrivial=flag)
        got = empirical_pr(m, 2, n, nontrivial=flag)
        if expected is None:
            assert got.verdict == "forced"
        else:
            assert got.verdict == "witness"
            assert got.witness.colors == expected


def test_empirical_budget_is_loud():
    with pytest.raises(BudgetExceededError):
        empirical_pr(SCHUR, 2, 12, budget=5)


def test_distinct_flag_changes_the_game():
    # with repeats banned, {1,2} vs {3,5} has no monochromatic x + y = z
    res = empirical_pr(SCHUR, 2, 5, distinct=True)
    assert res.verdict == "witness"
    sols = enumerate_solutions(SCHUR, 6, distinct=True)
    assert (1, 1, 2) not in sols and (1, 2, 3) in sols


def test_forcing_sweeps():
    schur = schur_number(2, max_horizon=10)
    assert schur.forced_at == 5
    assert schur.extremal_witness.colors == (0, 1, 1, 0)
    vdw = vdw_number(2, 3, max_horizon=12)
    assert vdw.forced_at == 9
    assert vdw.extremal_witness.colors == (0, 0, 1, 1, 0, 0, 1, 1)
    for colors, max_horizon, message in [(0, 0, "need at least one color"),
                                         (0, 5, "need at least one color"),
                                         (2, 0, "horizon must be >= 1"),
                                         (2, -3, "horizon must be >= 1")]:
        with pytest.raises(InputError, match=message):
            forcing_number(SCHUR, colors, max_horizon)
    with pytest.raises(InputError, match="horizon must be >= 1"):
        vdw_number(2, 3, 0)


def test_forcing_number_matches_naive_sweep():
    """The first forced n of the naive oracle, and its witness at n - 1;
    a max_horizon below the forcing number gives None and the witness at
    max_horizon."""
    rng = random.Random(21)
    forced_seen = 0
    for _ in range(25):
        m = RationalMatrix.from_rows(
            [[rng.choice([v for v in range(-3, 4) if v]) for _ in range(3)]]
        )
        flag = bool(rng.getrandbits(1))
        witnesses = {n: naive_forced(m, 2, n, nontrivial=flag) for n in range(1, 9)}
        forced_at = next((n for n in range(1, 9) if witnesses[n] is None), None)
        report = forcing_number(m, 2, 8, nontrivial=flag)
        assert report.forced_at == forced_at
        last = 8 if forced_at is None else forced_at - 1
        got = report.extremal_witness
        assert (got.colors if got else None) == witnesses.get(last)
        if forced_at is not None and forced_at > 1:
            forced_seen += 1
            below = forcing_number(m, 2, forced_at - 1, nontrivial=flag)
            assert below.forced_at is None
            assert below.extremal_witness == report.extremal_witness
    assert forced_seen >= 5


@pytest.mark.parametrize("coeffs", [
    (1, 1), (1, 2), (1, 1, 1), (1, 3), (1, 1, 2), (1, 1, 1, 1), (1, 4),
    (1, 2, 2), (2, 2), (1, 2, 3), (2, 3)])
def test_guo_sun_two_color_rado_numbers(coeffs):
    """a_1 x_1 + ... + a_m x_m = x_0 has 2-color Rado number a v^2 + v - a
    with a = min a_i and v = sum a_i (Guo and Sun, JCTA 115, 2008)."""
    a, v = min(coeffs), sum(coeffs)
    rado = a * v * v + v - a
    report = forcing_number(RationalMatrix.from_rows([[*coeffs, -1]]), 2, rado)
    assert report.forced_at == rado
    colors = report.extremal_witness.colors
    assert len(colors) == rado - 1
    for xs in product(range(1, rado), repeat=len(coeffs)):
        x0 = sum(c * x for c, x in zip(coeffs, xs))
        if x0 < rado:
            assert len({colors[x - 1] for x in (*xs, x0)}) == 2


# x + y = 0 has no positive solution, so the search runs straight down to
# the horizon; it is iterative, so no depth hits the recursion limit.
def test_deep_oracle_needs_no_recursion():
    res = empirical_pr(RationalMatrix.from_rows([[1, 1]]), 2, 1500)
    assert res.verdict == "witness" and res.witness.colors == (0,) * 1500


def test_deep_sweep_needs_no_recursion():
    report = forcing_number(RationalMatrix.from_rows([[1, 1]]), 2, 1050)
    assert report.forced_at is None
    assert report.extremal_witness.colors == (0,) * 1050


@pytest.mark.parametrize("call, minimal", [
    (lambda b: schur_number(3, 14, budget=b), 1954),
    (lambda b: schur_number(3, 10, budget=b), 81),  # never forced
    (lambda b: vdw_number(2, 3, 12, budget=b), 79),
    (lambda b: forcing_number(RationalMatrix.from_rows([[1, 1, 1, -1]]), 2, 20,
                              budget=b), 53),
    (lambda b: empirical_pr(SCHUR, 2, 12, budget=b), 11),
    (lambda b: empirical_pr(SCHUR, 3, 13, budget=b), 406),
], ids=["S(3)", "S(3)-unforced", "W(2;3)", "x+y+z=w", "schur-2-12",
        "schur-3-13"])
def test_minimal_budgets_are_pinned(call, minimal):
    """Each search passes at its node count and fails one below it: a
    forcing sweep is one search, charged like the last per-N search."""
    call(minimal)
    with pytest.raises(BudgetExceededError,
                       match=f"^coloring search exceeded {minimal - 1} nodes$"):
        call(minimal - 1)


def test_three_color_schur_number():
    report = schur_number(3, max_horizon=14)
    assert report.forced_at == 14  # classical value: S(3) = 13


def test_coloring_validation():
    with pytest.raises(InputError):
        Coloring(3, 2, (0, 1, 2))


@pytest.mark.parametrize("payload", [
    {"blocks": [[1, 3], [2]], "coefficients": [{"1": "1/0", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{"1": 1.5, "3": "0"}]},
    {"blocks": [[1, 3], [1.5]], "coefficients": [{"1": "1", "3": "0"}]},
    {"blocks": [[True, 3], [2]], "coefficients": [{"1": "1", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [["1"]]},
    # spellings that Fraction and int take on some Python versions only
    {"blocks": [[1, 3], [2]], "coefficients": [{"1": "1_0", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{"1": "1 / 3", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{"0_1": "1", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{" 1": "1", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{"+1": "1", "3": "0"}]},
    {"blocks": [[1, 3], [2]], "coefficients": [{"01": "1", "3": "0"}]},
])
def test_certificate_payload_takes_only_exact_numbers(payload):
    """Block entries are JSON integers, coefficient keys are column indices
    in canonical decimal and coefficients are integers or "p/q" strings;
    anything else, or a zero denominator, is an input error."""
    with pytest.raises(InputError, match="bad certificate payload"):
        ColumnsCertificate.from_json_dict(payload)


def test_certificate_json_round_trip():
    cert = columns_condition(BRAUER)
    again = ColumnsCertificate.from_json_dict(cert.to_json_dict())
    assert again == cert
    assert verify_certificate(BRAUER, again)
