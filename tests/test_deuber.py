import random
from itertools import product

import pytest

from ramseykit.deuber import (
    MpcParams,
    contains_mpc,
    generate_mpc,
    iter_rows,
    mpc_size,
    verify_mpc,
)
from ramseykit.errors import BudgetExceededError, InputError, MpcExpansionError
from ramseykit.ipcore import IPSystemSpec, fs_enumerate
from ramseykit.windows import SetWindow


def brute_values(m, p, c, gens):
    """Independent oracle: expand every row with explicit nested products."""
    vals = set()
    for k in range(m + 1):
        for pattern in product(range(-p, p + 1), repeat=k):
            vals.add(c * gens[k] + sum(i * s for i, s in zip(pattern, gens)))
    return vals


def random_valid_tuple(rng, m, p, c, cap=30):
    while True:
        gens = tuple(rng.randint(1, cap) for _ in range(m + 1))
        if min(brute_values(m, p, c, gens)) >= 1:
            return gens


def test_mpc_size():
    assert mpc_size(0, 5) == 1
    assert mpc_size(1, 1) == 4
    assert mpc_size(2, 1) == 13
    # closed form equals the row enumeration length
    for m in range(0, 3):
        for p in range(1, 4):
            rows = list(iter_rows(MpcParams(m, p, 1), [1] * (m + 1)))
            assert len(rows) == mpc_size(m, p)


def test_expansion_over_the_row_cap_is_a_budget_error():
    """mpc_size(12, 1) = 797161 rows pass, mpc_size(13, 1) = 2391484 do
    not; the generator checks come first, so a huge m with too few
    generators is an input error and is never raised to a power."""
    assert mpc_size(12, 1) <= 1 << 20 < mpc_size(13, 1)
    with pytest.raises(BudgetExceededError,
                       match=r"^the \(13, 1\) expansion has more than 2\^20 rows$"):
        generate_mpc(MpcParams(13, 1, 1), [1] * 14)
    with pytest.raises(InputError, match="need 1000000001 generators"):
        generate_mpc(MpcParams(10**9, 1, 1), [1])


def test_generate_examples():
    assert generate_mpc(MpcParams(1, 1, 2), (1, 3)).values == (2, 5, 6, 7)
    assert generate_mpc(MpcParams(1, 1, 1), (1, 4)).values == (1, 3, 4, 5)
    assert generate_mpc(MpcParams(1, 2, 1), (1, 10)).values == (1, 8, 9, 10, 11, 12)


def test_generate_matches_brute_force():
    rng = random.Random(2)
    for _ in range(40):
        m, p, c = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3)
        gens = random_valid_tuple(rng, m, p, c)
        assert set(generate_mpc(MpcParams(m, p, c), gens).values) == brute_values(
            m, p, c, gens
        )


def test_generate_rejects_nonpositive_rows():
    with pytest.raises(MpcExpansionError) as err:
        generate_mpc(MpcParams(1, 2, 1), (5, 3))
    assert err.value.level == 1
    assert err.value.pattern == (-2,)
    assert err.value.value == -7
    with pytest.raises(InputError):
        generate_mpc(MpcParams(1, 1, 1), (1,))
    with pytest.raises(InputError):
        generate_mpc(MpcParams(1, 1, 1), (0, 2))


def test_verify_examples():
    w = SetWindow.from_members(7, [2, 5, 6, 7])
    assert verify_mpc(w, MpcParams(1, 1, 2), (1, 3))
    assert not verify_mpc(SetWindow.from_members(7, [2, 5, 6]), MpcParams(1, 1, 2), (1, 3))
    assert verify_mpc(SetWindow.full(100), MpcParams(2, 1, 1), (1, 4, 20))


def test_verify_monotone_under_supersets():
    rng = random.Random(8)
    for _ in range(20):
        m, p, c = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 2)
        gens = random_valid_tuple(rng, m, p, c, cap=15)
        system = generate_mpc(MpcParams(m, p, c), gens)
        horizon = max(system.values) + 10
        small = SetWindow.from_members(horizon, system.values)
        extra = set(system.values) | {
            rng.randint(1, horizon) for _ in range(10)
        }
        assert verify_mpc(small, MpcParams(m, p, c), gens)
        assert verify_mpc(SetWindow.from_members(horizon, extra), MpcParams(m, p, c), gens)


def test_contains_examples():
    w = SetWindow.from_members(7, [2, 5, 6, 7])
    assert contains_mpc(w, MpcParams(1, 1, 2), 10) == (1, 3)
    assert contains_mpc(SetWindow.full(25), MpcParams(1, 1, 1), 25) == (1, 2)
    assert contains_mpc(SetWindow.odds(99), MpcParams(1, 1, 1), 99) is None
    # c = 2 puts every row on an even number; the bound is never walked
    assert contains_mpc(SetWindow.odds(99), MpcParams(0, 1, 2), 10**12) is None


def test_contains_is_lexicographically_least():
    """Cross-check against exhaustive tuple enumeration on small windows."""
    rng = random.Random(13)
    for _ in range(60):
        members = {rng.randint(1, 30) for _ in range(rng.randint(5, 28))}
        window = SetWindow.from_members(30, members)
        params = MpcParams(rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3))
        bound = 12
        expected = None
        for gens in product(range(1, bound + 1), repeat=params.m + 1):
            vals = brute_values(params.m, params.p, params.c, gens)
            if min(vals) >= 1 and vals <= members:
                expected = gens
                break
        assert contains_mpc(window, params, bound) == expected


def test_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        m, p, c = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3)
        gens = random_valid_tuple(rng, m, p, c)
        system = generate_mpc(MpcParams(m, p, c), gens)
        window = SetWindow.from_members(max(system.values), system.values)
        found = contains_mpc(window, MpcParams(m, p, c), max(gens))
        assert found is not None
        refound = generate_mpc(MpcParams(m, p, c), found)
        assert set(refound.values) <= set(system.values)
        assert verify_mpc(window, MpcParams(m, p, c), found)


def test_schur_embedding():
    """Every (1,1,1)-tower contains a solution of x + y = z."""
    rng = random.Random(31)
    for _ in range(30):
        gens = random_valid_tuple(rng, 1, 1, 1, cap=50)
        values = set(generate_mpc(MpcParams(1, 1, 1), gens).values)
        x = gens[0]          # the level-0 row
        y = gens[1]          # level-1 row with coefficient 0
        z = gens[1] + gens[0]  # level-1 row with coefficient 1
        assert {x, y, z} <= values
        assert x + y == z


def test_sum_closure_shadow():
    """If u and v generate towers inside S and S holds all the row-wise
    sums with matching coefficient patterns, the tower of u + v is in S."""
    rng = random.Random(17)
    for _ in range(25):
        m, p = rng.randint(0, 2), rng.randint(1, 2)
        params = MpcParams(m, p, 1)
        u = random_valid_tuple(rng, m, p, 1, cap=20)
        v = random_valid_tuple(rng, m, p, 1, cap=20)
        rows_u = {(k, pat): val for k, pat, val in iter_rows(params, u)}
        rows_v = {(k, pat): val for k, pat, val in iter_rows(params, v)}
        members = set(rows_u.values()) | set(rows_v.values())
        members |= {rows_u[key] + rows_v[key] for key in rows_u}
        window = SetWindow.from_members(max(members), members)
        w = tuple(a + b for a, b in zip(u, v))
        assert verify_mpc(window, params, w)


def test_sum_closure_on_finite_sums_window():
    """Concrete sum-closed substrate: an FS window holds the sum of two of
    its towers whenever their generator supports are disjoint."""
    window = fs_enumerate(IPSystemSpec.from_terms([1, 10, 100]), 3)
    assert window.members == (1, 10, 11, 100, 101, 110, 111)
    params = MpcParams(0, 1, 1)
    for u, v in [((1,), (10,)), ((1,), (100,)), ((10,), (100,)), ((11,), (100,))]:
        assert verify_mpc(window, params, u)
        assert verify_mpc(window, params, v)
        assert verify_mpc(window, params, (u[0] + v[0],))
