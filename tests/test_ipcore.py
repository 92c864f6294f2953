import random
from itertools import combinations

import pytest

from ramseykit.errors import BudgetExceededError, InputError
from ramseykit.ipcore import (
    FiniteIndexSet,
    IPSystemSpec,
    alpha_less,
    find_divisible_subsequence,
    finite_sums,
    fs_enumerate,
    ip_term,
    zero_sum_mod,
)


def brute_finite_sums(terms, k):
    """Independent oracle: enumerate every nonempty subset explicitly."""
    out = set()
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            out.add(sum(terms[i] for i in combo))
    return out


def test_alpha_less():
    assert alpha_less(FiniteIndexSet((1, 2)), FiniteIndexSet((3,)))
    assert not alpha_less(FiniteIndexSet((1, 3)), FiniteIndexSet((2,)))
    assert not alpha_less(FiniteIndexSet((5,)), FiniteIndexSet((5,)))


def test_index_set_validation():
    with pytest.raises(InputError):
        FiniteIndexSet(())
    with pytest.raises(InputError):
        FiniteIndexSet((0, 1))
    with pytest.raises(InputError):
        FiniteIndexSet((65,))
    with pytest.raises(InputError):
        FiniteIndexSet((3, 1, 3))
    assert FiniteIndexSet((1, 3)).members == (1, 3)


def test_ip_term():
    assert ip_term(IPSystemSpec.from_terms([3, 1, 4]), FiniteIndexSet((1, 3))) == 7
    assert ip_term(IPSystemSpec.constant(1, 8), FiniteIndexSet((1, 2, 3, 4, 5))) == 5
    with pytest.raises(InputError, match="^scalar IP-system terms must be integers$"):
        IPSystemSpec.from_terms([(1, 2), (3, 4)])
    with pytest.raises(InputError):
        ip_term(IPSystemSpec.from_terms([1, 2]), FiniteIndexSet((3,)))


def test_ip_term_additive_over_disjoint_sets():
    rng = random.Random(23)
    for _ in range(50):
        terms = [rng.randint(-9, 9) for _ in range(10)]
        spec = IPSystemSpec.from_terms(terms)
        indices = rng.sample(range(1, 11), 6)
        a = FiniteIndexSet(tuple(sorted(indices[:3])))
        b = FiniteIndexSet(tuple(sorted(indices[3:])))
        both = FiniteIndexSet(tuple(sorted(indices)))
        assert ip_term(spec, both) == ip_term(spec, a) + ip_term(spec, b)


def test_fs_enumerate_examples():
    assert fs_enumerate(IPSystemSpec.from_terms([1, 2, 4]), 3).members == tuple(range(1, 8))
    assert fs_enumerate(IPSystemSpec.from_terms([1, 1]), 2).members == (1, 2)
    assert fs_enumerate(IPSystemSpec.from_terms([2, 3]), 2).members == (2, 3, 5)


def test_fs_enumerate_matches_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(1, 8)
        terms = [rng.randint(1, 30) for _ in range(k)]
        window = fs_enumerate(IPSystemSpec.from_terms(terms), k)
        assert set(window.members) == brute_finite_sums(terms, k)


def test_finite_sums_of_signed_terms_match_brute_force():
    """The verifier's terms may be zero or negative, so a sum of 0 is a
    member like any other, not an empty-subset marker."""
    assert finite_sums([]) == set()
    assert finite_sums([2, -2]) == {2, -2, 0}
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 8)
        terms = [rng.randint(-20, 20) for _ in range(k)]
        assert finite_sums(terms) == brute_finite_sums(terms, k)


def test_fs_enumerate_caps():
    spec = IPSystemSpec.constant(1, 25)
    with pytest.raises(BudgetExceededError):
        fs_enumerate(spec, 21)
    with pytest.raises(InputError):
        fs_enumerate(IPSystemSpec.constant(1, 3), 4)
    with pytest.raises(InputError):
        fs_enumerate(IPSystemSpec.from_terms([1, -5]), 2)


def test_divisible_examples():
    got = find_divisible_subsequence(IPSystemSpec.constant(1, 6), 3, 2)
    assert [a.members for a in got] == [(1, 2, 3), (4, 5, 6)]
    got = find_divisible_subsequence(IPSystemSpec.from_terms([1, 2, 3, 4, 5, 6]), 3, 1)
    assert [a.members for a in got] == [(1, 2)]
    got = find_divisible_subsequence(IPSystemSpec.constant(9, 5), 1, 3)
    assert [a.members for a in got] == [(1,), (2,), (3,)]


def test_divisible_horizon_guard():
    with pytest.raises(InputError, match="n\\*c"):
        find_divisible_subsequence(IPSystemSpec.constant(1, 5), 3, 2)


def test_divisible_random_sequences():
    rng = random.Random(41)
    for _ in range(60):
        c = rng.randint(1, 12)
        n = rng.randint(1, 3)
        horizon = n * c + rng.randint(0, 5)
        spec = IPSystemSpec.from_terms(
            [rng.randint(-50, 50) for _ in range(horizon)]
        )
        alphas = find_divisible_subsequence(spec, c, n)
        assert len(alphas) == n
        for a, b in zip(alphas, alphas[1:]):
            assert alpha_less(a, b)
        for a in alphas:
            assert ip_term(spec, a) % c == 0


def test_zero_sum_examples():
    assert zero_sum_mod([1, 2, 3], 3) == (1, 2)
    assert zero_sum_mod([3], 3) == (1,)
    assert zero_sum_mod([1, 1, 1, 1], 4) == (1, 2, 3, 4)


def test_zero_sum_short_inputs():
    assert zero_sum_mod([1, 1], 5) is None
    assert zero_sum_mod([2, 3], 5) == (1, 2)
    assert zero_sum_mod([7], 14) is None
    # every subset sum lies in [1, 465], so no search is needed
    assert zero_sum_mod(list(range(1, 31)), 10**6) is None
    # no prefix run, so the exhaustive search decides
    assert zero_sum_mod([2, 1, 2], 4) == (1, 3)
    assert zero_sum_mod([2, 2], 3) is None


def test_zero_sum_random_guarantee():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 12)
        xs = [rng.randint(1, 99) for _ in range(n + rng.randint(0, 6))]
        got = zero_sum_mod(xs, n)
        assert got is not None
        assert sum(xs[i - 1] for i in got) % n == 0
        assert list(got) == sorted(set(got))


def test_geometric_terms_are_powers():
    """Terms built by one multiplication each equal start * ratio**n; a
    horizon below 1 leaves no term, which is an input error."""
    rng = random.Random(23)
    for horizon in range(-1, 31):
        for _ in range(8):
            start = rng.randint(-10**6, 10**6)
            ratio = rng.choice([r for r in range(-40, 41) if r])
            if horizon < 1:
                with pytest.raises(InputError, match="at least one generator term"):
                    IPSystemSpec.geometric(start, ratio, horizon)
            else:
                assert IPSystemSpec.geometric(start, ratio, horizon).terms == tuple(
                    start * ratio**n for n in range(horizon))


def test_spec_parsing():
    assert IPSystemSpec.parse("const:2", horizon=4).terms == (2, 2, 2, 2)
    assert IPSystemSpec.parse("arith:3,2", horizon=4).terms == (3, 5, 7, 9)
    assert IPSystemSpec.parse("geom:1,2", horizon=5).terms == (1, 2, 4, 8, 16)
    assert IPSystemSpec.parse("list:4,1,6").terms == (4, 1, 6)
    with pytest.raises(InputError):
        IPSystemSpec.parse("const:2")
    with pytest.raises(InputError):
        IPSystemSpec.parse("wat:1", horizon=3)
    with pytest.raises(InputError):
        IPSystemSpec.parse("list:1,2", horizon=5)
