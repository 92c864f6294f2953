import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import cst
from ramseykit.cst import (
    CstWitness,
    cst_search,
    mpc_from_cst,
    verify_cst_witness,
)
from ramseykit.deuber import MpcParams, verify_mpc
from ramseykit.errors import BudgetExceededError, InputError
from ramseykit.ipcore import FiniteIndexSet, IPSystemSpec, fs_enumerate, ip_term
from ramseykit.windows import SetWindow


def brute_search(window, specs, depth):
    """Independent oracle: enumerate every (a, alpha) chain outright in the
    same smallest-first order and check all subset sums directly."""
    horizon = specs[0].horizon
    members = window.member_set
    alphas = []
    for mask in range(1, 1 << horizon):
        alphas.append(tuple(i + 1 for i in range(horizon) if mask >> i & 1))
    a_hi = window.horizon + sum(
        -min(0, min(s.terms)) * horizon for s in specs
    )

    def ok(chain):
        for spec in specs:
            terms = [
                a + sum(spec.terms[i - 1] for i in alpha) for a, alpha in chain
            ]
            sums = set()
            for t in terms:
                sums |= {t} | {s + t for s in sums}
            if any(s not in members for s in sums):
                return False
        return True

    def rec(chain, low):
        if len(chain) == depth:
            return list(chain)
        for a in range(1, a_hi + 1):
            for alpha in alphas:
                if alpha[0] <= low:
                    continue
                cand = chain + [(a, alpha)]
                if ok(cand):
                    got = rec(cand, alpha[-1])
                    if got is not None:
                        return got
        return None

    return rec([], 0)


def test_full_window_depth_two():
    specs = [IPSystemSpec.constant(1, 6)]
    wit = cst_search(SetWindow.full(20), specs, 2)
    assert wit.a_values == (1, 1)
    assert [a.members for a in wit.alphas] == [(1,), (2,)]
    assert verify_cst_witness(SetWindow.full(20), specs, wit)


def test_even_window_depth_two():
    specs = [IPSystemSpec.constant(2, 6)]
    wit = cst_search(SetWindow.evens(100), specs, 2)
    assert wit.a_values == (2, 2)
    assert [a.members for a in wit.alphas] == [(1,), (2,)]


def test_odd_window_depth_two_is_proven_absent():
    specs = [IPSystemSpec.constant(1, 6)]
    assert cst_search(SetWindow.odds(999), specs, 2) is None


def assert_matches_brute_force(window, specs, depth):
    expected = brute_search(window, specs, depth)
    got = cst_search(window, specs, depth)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert list(got.a_values) == [a for a, _ in expected]
        assert [al.members for al in got.alphas] == [al for _, al in expected]
        assert verify_cst_witness(window, specs, got)


def level_zero_positions(window, specs):
    """(live, dead) counts of the first-level (a, alpha) positions whose
    terms all lie in the window: live when every term is also a difference
    of two members, so the next level has somewhere to go."""
    members = window.member_set
    differences = {y - x for x in members for y in members}
    horizon = specs[0].horizon
    a_hi = window.horizon - min(min(0, sum(t for t in s.terms if t < 0))
                                or min(s.terms) for s in specs)
    live = dead = 0
    for a in range(1, a_hi + 1):
        for mask in range(1, 1 << horizon):
            terms = [a + sum(t for i, t in enumerate(s.terms) if mask >> i & 1)
                     for s in specs]
            if all(u in members for u in terms):
                if all(u in differences for u in terms):
                    live += 1
                else:
                    dead += 1
    return live, dead


def test_search_agrees_with_brute_force_on_small_windows():
    rng = random.Random(18)
    for _ in range(12):
        members = {rng.randint(1, 14) for _ in range(rng.randint(2, 10))}
        window = SetWindow.from_members(14, members)
        specs = [
            IPSystemSpec.from_terms([rng.randint(-2, 3) for _ in range(3)])
            for _ in range(rng.randint(1, 2))
        ]
        depth = rng.randint(1, 2)
        assert_matches_brute_force(window, specs, depth)
    # every term beyond the horizon: a_hi <= 0, so no a is tried at all
    window = SetWindow.from_members(14, [3, 5, 14])
    assert_matches_brute_force(window, [IPSystemSpec.from_terms([16, 20, 17])], 1)
    # mixed signs in both systems: shifts run both ways within one scan
    window = SetWindow.from_members(14, [2, 3, 5, 6, 8, 9, 11, 12, 14])
    specs = [IPSystemSpec.from_terms([3, -2, 1]),
             IPSystemSpec.from_terms([-1, 2, -3])]
    for depth in (1, 2):
        assert_matches_brute_force(window, specs, depth)
    # depth 3 on dense windows, one system with a negative term: level 0
    # holds both live positions and dead ends (a term that is no difference
    # of two members), and some of these inputs are refuted, so a look-ahead
    # that drops a live position disagrees with the brute force
    for _ in range(10):
        window = SetWindow.from_members(
            30, rng.sample(range(1, 31), rng.randint(14, 28)))
        specs = [
            IPSystemSpec.from_terms([rng.randint(-2, 3) for _ in range(4)]),
            IPSystemSpec.from_terms(
                [rng.randint(1, 3) for _ in range(3)] + [-rng.randint(1, 2)]),
        ]
        live, dead = level_zero_positions(window, specs)
        assert live and dead
        assert_matches_brute_force(window, specs, 3)


def test_multi_system_witness():
    specs = [IPSystemSpec.constant(2, 4), IPSystemSpec.constant(4, 4)]
    window = SetWindow.evens(60)
    wit = cst_search(window, specs, 2)
    assert wit is not None
    assert verify_cst_witness(window, specs, wit)


def test_negative_terms_allow_a_beyond_horizon():
    """Completeness: with negative generator sums the additive part may
    exceed the window horizon."""
    specs = [IPSystemSpec.from_terms([-6])]
    window = SetWindow.from_members(4, [2])
    wit = cst_search(window, specs, 1)
    assert wit is not None
    assert wit.a_values == (8,)  # 8 + (-6) = 2


def test_verify_examples():
    specs = [IPSystemSpec.constant(1, 6)]
    wit = CstWitness(2, (1, 1), (FiniteIndexSet((1,)), FiniteIndexSet((2,))), 1)
    assert verify_cst_witness(SetWindow.full(20), specs, wit)
    assert not verify_cst_witness(SetWindow.full(3), specs, wit)
    clash = CstWitness(2, (1, 1), (FiniteIndexSet((1,)), FiniteIndexSet((1,))), 1)
    assert not verify_cst_witness(SetWindow.full(20), specs, clash)
    beyond = CstWitness(1, (1,), (FiniteIndexSet((9,)),), 1)
    with pytest.raises(InputError):
        verify_cst_witness(SetWindow.full(20), specs, beyond)


def test_witness_downward_closure():
    specs = [IPSystemSpec.constant(2, 8)]
    window = SetWindow.evens(200)
    wit = cst_search(window, specs, 3)
    assert wit is not None
    shorter = CstWitness(2, wit.a_values[:2], wit.alphas[:2], 1)
    assert verify_cst_witness(window, specs, shorter)


def test_search_results_self_verify_on_random_windows():
    rng = random.Random(44)
    for _ in range(10):
        members = set(range(2, 40, 2)) | {rng.randint(1, 40) for _ in range(6)}
        window = SetWindow.from_members(40, members)
        specs = [IPSystemSpec.constant(rng.choice([1, 2]), 5)]
        wit = cst_search(window, specs, 2)
        if wit is not None:
            assert verify_cst_witness(window, specs, wit)


def test_budget_verdict_is_distinct_from_absent():
    specs = [IPSystemSpec.constant(1, 6)]
    with pytest.raises(BudgetExceededError):
        cst_search(SetWindow.odds(999), specs, 2, budget=50)
    # same instance with room to finish: a definite refutation, not an error
    assert cst_search(SetWindow.odds(999), specs, 2) is None


def test_budget_counts_every_scanned_position():
    """odd + odd is even, so no level-2 term survives on the odds and the
    search scans all of level 1: a_hi * (2^h - 1) = 98 * 63 positions."""
    window, specs = SetWindow.odds(99), [IPSystemSpec.constant(1, 6)]
    assert cst_search(window, specs, 2, budget=98 * 63) is None
    with pytest.raises(BudgetExceededError,
                       match="witness search exceeded 6173 candidates"):
        cst_search(window, specs, 2, budget=98 * 63 - 1)


@pytest.mark.parametrize("expr, rule, horizon, depth, a_values", [
    ("odds:99", "geom:-1,1000", 8, 2, None),
    ("odds:99", "const:-10000000000000000000", 3, 1, None),
    ("all:100", "geom:-1,1000", 8, 2, (2, 1001)),
])
def test_huge_negative_terms_stay_within_budget(expr, rule, horizon, depth,
                                                a_values):
    """a_hi is over 10^19 here.  Positions past the budget are never
    scanned, so the search answers at once instead of running out of
    memory, and refutations raise the budget error as before."""
    window = SetWindow.from_expression(expr)
    specs = [IPSystemSpec.parse(rule, horizon=horizon)]
    if a_values is None:
        with pytest.raises(BudgetExceededError,
                           match="witness search exceeded 5000000 candidates"):
            cst_search(window, specs, depth)
    else:
        assert cst_search(window, specs, depth).a_values == a_values


# windows outside the set-expression grammar, by the name the pins use
NAMED_WINDOWS = {
    # return times of 0 to [0, 1/3) under rotation by 233/377
    "rot233/377:300": SetWindow.from_members(
        300, [k for k in range(1, 301) if (233 * k % 377) * 3 < 377]),
}


@pytest.mark.parametrize("expr, rules, horizon, depth, minimal, a_values", [
    ("evens:100", ["const:2"], 6, 3, 112, (2, 2, 2)),
    ("mod:1,3,120", ["geom:1,2"], 7, 3, 15113, None),
    ("all:30", ["arith:-1,1", "const:2"], 4, 2, 15, (1, 1)),
    # dead-end positions dropped at levels 1 and 2, not only at level 0
    ("rot233/377:300", ["arith:1,1", "const:2"], 5, 3, 15801, (7, 11, 29)),
    ("mod:0,3,300", ["const:3", "arith:-3,3"], 6, 4, 181, (3, 3, 3, 3)),
    # odd + odd is even, so every first-level position is a dead end and
    # the search charges a_hi * (2^h - 1) = 149 * 63 positions, as in
    # test_budget_counts_every_scanned_position
    ("odds:150", ["const:1", "const:2"], 6, 2, 149 * 63, None),
    # level 0's only live term is 2, which leaves {1}: no live term, so
    # level 1 is refuted without its table, charging 2 * 3 after alpha {1}
    # and 2 * 1 after alpha {2}, on top of level 0's 2 * 7
    ("all:3", ["const:1"], 3, 3, 22, None),
])
def test_minimal_budgets_are_pinned(expr, rules, horizon, depth, minimal,
                                    a_values):
    """The least budget each search finishes within.  A scan that skips
    failing or dead-end (a, alpha) pairs must still charge every one of
    them."""
    window = NAMED_WINDOWS.get(expr) or SetWindow.from_expression(expr)
    specs = [IPSystemSpec.parse(rule, horizon=horizon) for rule in rules]
    for budget in (minimal, minimal + 1):
        got = cst_search(window, specs, depth, budget=budget)
        assert (got and got.a_values) == a_values
    with pytest.raises(BudgetExceededError):
        cst_search(window, specs, depth, budget=minimal - 1)


def budgeted_brute_search(window, specs, depth, budget=None):
    """Independent budget oracle over every index set, with no candidate
    table, no look-ahead and set arithmetic throughout.

    Positions (a, alpha) are scanned in order and each level charges up to
    the last one it visits, or a_hi * (2^width - 1) when it finds nothing.
    Only a repeated dead state (remaining depth, max index, sum sets) is
    skipped.  A level with 2^width - 1 index sets over the budget raises as
    soon as it is entered.  With budget None nothing raises and the result
    is (chain, least budget that finishes)."""
    horizon = specs[0].horizon
    members = window.member_set
    a_hi = max(0, window.horizon - min(
        min(0, sum(t for t in s.terms if t < 0)) or min(s.terms) for s in specs))
    ticks = widest = 0
    dead = set()

    def charge(n):
        nonlocal ticks
        ticks += n
        if budget is not None and ticks > budget:
            raise BudgetExceededError(f"witness search exceeded {budget} candidates")

    def rec(chain, low, sum_sets):
        nonlocal widest
        if not all(any(all(x + t in members for t in sums) for x in members)
                   for sums in sum_sets):
            return None
        width = horizon - low
        count = (1 << width) - 1
        widest = max(widest, count)
        if budget is not None and count > budget:
            raise BudgetExceededError(
                f"2^{width} candidate index sets per level is over budget")
        seen = 0
        for a in range(1, a_hi + 1):
            for mask in range(1, count + 1):
                alpha = tuple(low + b + 1 for b in range(width) if mask >> b & 1)
                terms = [a + sum(s.terms[i - 1] for i in alpha) for s in specs]
                merged = [sums | {u} | {t + u for t in sums}
                          for sums, u in zip(sum_sets, terms)]
                if not all(m <= members for m in merged):
                    continue
                pos = (a - 1) * count + mask
                charge(pos - seen)
                seen = pos
                if len(chain) + 1 == depth:
                    return chain + [(a, alpha)]
                key = (depth - len(chain) - 1, alpha[-1],
                       tuple(map(frozenset, merged)))
                if key in dead:
                    continue
                got = rec(chain + [(a, alpha)], alpha[-1], merged)
                if got is not None:
                    return got
                dead.add(key)
        charge(a_hi * count - seen)
        return None

    got = rec([], 0, [set() for _ in specs])
    return got if budget is not None else (got, max(ticks, widest))


def budget_outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceededError as exc:
        return str(exc)


def assert_budgets_match_the_full_scan(window, specs, depth):
    """The same witness or refutation as budgeted_brute_search, the same
    least budget and the same budget message one below it."""
    expected, minimal = budgeted_brute_search(window, specs, depth)
    for budget in (minimal - 1, minimal, minimal + 1):
        if budget < 1:
            continue
        want = budget_outcome(budgeted_brute_search, window, specs, depth,
                              budget)
        got = budget_outcome(cst_search, window, specs, depth, budget)
        if isinstance(got, CstWitness):
            got = [(a, al.members) for a, al in zip(got.a_values, got.alphas)]
        assert got == want, (window, specs, depth, budget)
    assert isinstance(want, str) or want == expected


def test_candidate_table_keeps_every_budget_of_the_full_scan():
    """Seeded widths up to 8 with mixed signs and one to three systems, some
    of them with many repeated sums."""
    rng = random.Random(11)
    for _ in range(100):
        horizon = rng.randint(2, 8)
        n = rng.randint(6, 30)
        # sparse windows, so that witnesses sit past the first index sets
        window = SetWindow.from_members(n, rng.sample(range(1, n + 1),
                                                      rng.randint(2, n // 3)))
        specs = [IPSystemSpec.from_terms(
                     [rng.choice([1, 2, rng.randint(-3, 4)])
                      for _ in range(horizon)])
                 for _ in range(rng.randint(1, 3))]
        depth = rng.randint(1, 3 if horizon <= 5 else 2)
        assert_budgets_match_the_full_scan(window, specs, depth)


def test_level_refutations_keep_every_budget_of_the_full_scan(monkeypatch):
    """Residue classes, some with a few stray members, where the first
    level with no live term is level 0, level 1 or deeper."""
    refuted = []
    original = cst._live_terms

    def live_terms(b):
        got = original(b)
        if not got:
            refuted.append(b)
        return got

    monkeypatch.setattr(cst, "_live_terms", live_terms)
    rng = random.Random(21)
    deeper = 0
    for _ in range(60):
        n = rng.randint(8, 30)
        modulus = rng.randint(2, 5)
        members = set(range(rng.randrange(modulus) or modulus, n + 1, modulus))
        if rng.random() < 0.5:
            members |= set(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        window = SetWindow.from_members(n, members)
        horizon = rng.randint(2, 5)
        specs = [IPSystemSpec.from_terms(
                     [rng.choice([1, 2, 3, rng.randint(-2, 4)])
                      for _ in range(horizon)])
                 for _ in range(rng.randint(1, 2))]
        depth = rng.randint(2, 3)
        refuted.clear()
        assert_budgets_match_the_full_scan(window, specs, depth)
        deeper += any(b != window.mask for b in refuted)
    assert deeper >= 5


def test_wide_refutation_builds_no_candidate_table():
    """odd + odd is even, so no member of the odds up to 5 is a difference
    of two: level 0 of a depth-2 search is refuted before its 2^20 - 1
    index sets are summed (that table peaks at about 260 MB).  At horizon
    21 the width check still comes first, before any charge."""
    window = SetWindow.from_expression("odds:5")
    specs = [IPSystemSpec.parse("geom:1,2", horizon=20)]
    tracemalloc.start()
    try:
        assert cst_search(window, specs, 2) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    specs = [IPSystemSpec.parse("geom:1,2", horizon=21)]
    with pytest.raises(BudgetExceededError, match=r"^2\^21 candidate index "
                       r"sets per level is over budget$"):
        cst_search(window, specs, 2)


def test_live_terms_match_their_definition():
    """_live_terms(b) is {u in b : b & (b >> u) != 0}, the members of b
    that are a difference of two members of b.  The masks cover both of
    its exits: one residue class r mod d with d not dividing r, refuted by
    its first gap, and everything else, scanned over the lower half."""
    rng = random.Random(7)
    masks = [0, 1, 1 << 1, 1 << 40, 0b11, 0b101]
    for n in (1, 2, 3, 10, 64, 200):
        masks.append((1 << (n + 1)) - 2)  # the range 1..n
        for modulus in (2, 3, 5, 6):
            for residue in range(modulus):
                masks.append(SetWindow.residue_class(residue, modulus, n).mask)
        # sum-free, but not inside one class: {2, 3} mod 5 and (n/3, 2n/3]
        masks.append(sum(1 << x for x in range(1, n + 1) if x % 5 in (2, 3)))
        masks.append(sum(1 << x for x in range(n // 3 + 1, 2 * n // 3 + 1)))
        # the odds, with a first gap of 6: the class test does not apply
        masks.append(sum(1 << x for x in [1] + list(range(7, n + 1, 2))))
        # d divides x_1, so the scan decides: {4, 6, 8, ...}, {6, 9, 12, ...}
        masks.append(sum(1 << x for x in range(4, n + 1, 2)))
        masks.append(sum(1 << x for x in range(6, n + 1, 3)))
    for _ in range(300):
        n = rng.randint(1, 150)
        members = rng.sample(range(n + 1), rng.randint(1, n + 1))
        masks.append(sum(1 << x for x in members))
    for _ in range(300):
        # deeper levels' sets B & (B >> u), from classes and random sets
        n = rng.randint(1, 150)
        modulus = rng.randint(2, 7)
        b = SetWindow.residue_class(rng.randrange(modulus), modulus, n).mask
        if rng.random() < 0.5:
            b = sum(1 << x for x in rng.sample(range(n + 1), rng.randint(1, n + 1)))
        for _ in range(rng.randint(1, 3)):
            b &= b >> rng.randint(0, n // 2)
            masks.append(b)
    for b in masks:
        members = {x for x in range(b.bit_length()) if b >> x & 1}
        live = {u for u in members if any(x + u in members for x in members)}
        assert cst._live_terms(b) == sum(1 << u for u in live), bin(b)


def test_a_million_odds_are_refuted_by_their_residue_class():
    """Every difference of two odds is even, so level 0 of x + y = z on the
    odds to 10^6 has no live term, which their first gap shows at once;
    a scan of the 500,000 members one at a time runs past the timeout.
    A fresh interpreter, so the timeout bounds the whole call."""
    script = textwrap.dedent("""
        from ramseykit import IPSystemSpec, SetWindow
        from ramseykit.cst import cst_search
        specs = [IPSystemSpec.parse("const:1", horizon=1)]
        assert cst_search(SetWindow.odds(10**6), specs, 2) is None
    """)
    src = os.path.dirname(os.path.dirname(cst.__file__))
    proc = subprocess.run([sys.executable, "-c", script], timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def test_candidate_table_keeps_the_first_index_set_of_each_sum():
    """{1, 3} and {2, 3} both sum to 3 with max index 3: the first one is
    the witness, at position 5, and the second is never tried."""
    specs = [IPSystemSpec.from_terms([1, 1, 2])]
    wit = cst_search(SetWindow.from_members(4, [4]), specs, 1)
    assert wit.a_values == (1,) and wit.alphas == (FiniteIndexSet((1, 3)),)


@pytest.mark.parametrize("rule", ["const:1", "arith:1,1"])
def test_few_distinct_sums_build_a_small_table(rule):
    """const:1 at horizon 20 has 210 (max index, sum) pairs among its
    2^20 - 1 index sets, and the table follows the pairs: the witness at the
    first position took over 2 s on a 2-core Xeon when every index set was
    summed first."""
    started = time.perf_counter()
    wit = cst_search(SetWindow.full(100),
                     [IPSystemSpec.parse(rule, horizon=20)], 1)
    assert time.perf_counter() - started < 1
    assert wit.a_values == (1,) and wit.alphas == (FiniteIndexSet((1,)),)


def test_level_cap_is_a_rule_about_budget_positions():
    """2^20 - 1 positions per a do not fit a budget of 2^20 - 2, however few
    distinct sums the table holds."""
    specs = [IPSystemSpec.constant(1, 20)]
    with pytest.raises(BudgetExceededError, match=r"^2\^20 candidate index "
                       r"sets per level is over budget$"):
        cst_search(SetWindow.full(100), specs, 1, budget=2**20 - 2)
    assert cst_search(SetWindow.full(100), specs, 1, budget=2**20 - 1)


def test_fs_windows_support_every_depth():
    """Sum-closed substrate: finite-sums windows admit witnesses at every
    depth that fits the horizon."""
    spec = IPSystemSpec.geometric(1, 2, 10)
    window = fs_enumerate(spec, 10)
    for depth in (1, 2, 3):
        wit = cst_search(window, [IPSystemSpec.geometric(1, 2, 6)], depth)
        assert wit is not None
        assert verify_cst_witness(window, [IPSystemSpec.geometric(1, 2, 6)], wit)


def test_witness_json_round_trip():
    wit = CstWitness(2, (2, 4), (FiniteIndexSet((1,)), FiniteIndexSet((2, 3))), 2)
    assert CstWitness.from_json_dict(wit.to_json_dict()) == wit
    with pytest.raises(InputError):
        CstWitness.from_json_dict({"depth": 1})


@pytest.mark.parametrize("field, value", [
    ("a_values", [1.5]), ("a_values", [True]), ("a_values", [float("inf")]),
    ("a_values", [1e300]), ("alphas", [[True]]), ("depth", True),
    ("system_count", "1"), ("alphas", [[1, 1]]), ("alphas", [[2, 1]]),
])
def test_witness_payload_takes_only_json_integers(field, value):
    """Floats, bools and strings are input errors: 1.5 is not read as the
    valid a-value 1, and infinity is no OverflowError.  An alpha must be
    strictly increasing as given; it is not sorted or deduplicated."""
    data = {"depth": 1, "a_values": [1], "alphas": [[1]], "system_count": 1}
    data[field] = value
    with pytest.raises(InputError, match="bad witness payload"):
        CstWitness.from_json_dict(data)


# --- tower pipeline -----------------------------------------------------------

def test_tower_from_full_window():
    got = mpc_from_cst(SetWindow.full(50), 1, 1, 1)
    assert got is not None
    assert verify_mpc(SetWindow.full(50), got.params, got.system.generators)


def test_tower_even_window_divides_by_two():
    got = mpc_from_cst(SetWindow.evens(200), 0, 1, 2)
    assert got is not None
    assert got.families == ((1,),)
    assert got.system.values == (2,)


def test_tower_absent_on_odds():
    assert mpc_from_cst(SetWindow.odds(99), 1, 1, 1) is None


def test_tower_cross_validates_with_window_search():
    rng = random.Random(52)
    for _ in range(6):
        window = SetWindow.evens(400)
        m, p, c = rng.randint(0, 1), 1, rng.choice([1, 2])
        got = mpc_from_cst(window, m, p, c)
        assert got is not None
        assert verify_mpc(window, MpcParams(m, p, c), got.system.generators)
        assert set(got.system.values) <= window.member_set


def test_tower_deeper_families_stay_valid():
    got = mpc_from_cst(SetWindow.full(300), 1, 1, 1, family_depth=2)
    assert got is not None
    assert all(len(fam) == 2 for fam in got.families)
    # every index set over the family generates a tower inside the window
    for mask in (0b01, 0b10, 0b11):
        alpha = FiniteIndexSet(tuple(i + 1 for i in range(2) if mask >> i & 1))
        gens = tuple(
            ip_term(IPSystemSpec.from_terms(list(fam)), alpha)
            for fam in got.families
        )
        assert verify_mpc(SetWindow.full(300), MpcParams(1, 1, 1), gens)


def test_tower_with_higher_divisor():
    window = SetWindow.residue_class(0, 3, 900)
    got = mpc_from_cst(window, 0, 1, 3)
    assert got is not None
    assert verify_mpc(window, MpcParams(0, 1, 3), got.system.generators)


def test_tower_combination_systems_are_capped_by_the_budget():
    """Level m searches (2p+1)^m combination systems, so more of them than
    the budget is a budget error before any is built (3^15 took minutes)."""
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^3\^15 combination systems"):
        mpc_from_cst(SetWindow.full(200), 15, 1, 1)
    assert time.perf_counter() - started < 1
    # all:145 at (3, 1, 1) needed a budget of 8 before the cap; now 3^3 = 27
    window = SetWindow.full(145)
    with pytest.raises(BudgetExceededError, match=r"^3\^3 combination systems"):
        mpc_from_cst(window, 3, 1, 1, budget=26)
    got = mpc_from_cst(window, 3, 1, 1, budget=27)
    assert got is not None and got == mpc_from_cst(window, 3, 1, 1)
    assert verify_mpc(window, MpcParams(3, 1, 1), got.system.generators)


def test_tower_families_form_a_list_of_systems():
    """Each family column is a scalar IP-system, and the list of them is the
    vector-valued system: any index set picks the coordinate-wise finite
    sums, which are generators of a tower."""
    got = mpc_from_cst(SetWindow.full(300), 1, 1, 1, family_depth=2)
    assert got is not None
    coords = [IPSystemSpec.from_terms(list(fam)) for fam in got.families]
    assert len(coords) == 2 and all(s.horizon == 2 for s in coords)
    alpha = FiniteIndexSet((1, 2))
    per_coordinate = tuple(ip_term(s, alpha) for s in coords)
    assert per_coordinate == tuple(map(sum, got.families))
    assert verify_mpc(SetWindow.full(300), MpcParams(1, 1, 1), per_coordinate)


@st.composite
def small_searches(draw):
    """A window inside [1..40], one or two scalar specs with terms in
    -3..6 at a shared horizon <= 5, and a depth <= 3."""
    members = draw(st.sets(st.integers(1, 40)))
    horizon = draw(st.integers(1, 5))
    terms = st.lists(st.integers(-3, 6), min_size=horizon, max_size=horizon)
    specs = [IPSystemSpec.from_terms(t)
             for t in draw(st.lists(terms, min_size=1, max_size=2))]
    return SetWindow.from_members(40, members), specs, draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_searches())
def test_search_results_hold_and_refutations_agree_with_brute_force(search):
    window, specs, depth = search
    got = cst_search(window, specs, depth)
    if got is None:
        assert brute_search(window, specs, depth) is None
    else:
        assert got.depth == depth
        assert verify_cst_witness(window, specs, got)


@pytest.mark.parametrize("m, p, c, family_depth, detail", [
    # level 0 searches to depth family_depth * c^(2m+1), past the cap here
    (2, 1, 2, 1, "depth 32 exceeds the 20 cap"),
    (2, 1, 2, 2, "depth 64 exceeds the 20 cap"),
    (1, 1, 3, 1, "depth 27 exceeds the 20 cap"),
    (1, 1, 3, 2, "depth 54 exceeds the 20 cap"),
])
def test_tower_schedule_refuses_level_zero_past_the_depth_cap(
        m, p, c, family_depth, detail):
    with pytest.raises(BudgetExceededError, match=f"^{detail}$"):
        mpc_from_cst(SetWindow.full(300), m, p, c, family_depth=family_depth)


@pytest.mark.parametrize("expr, m, p, c, family_depth, families", [
    ("evens:400", 2, 2, 1, 1, ((2,), (6,), (18,))),
    ("evens:400", 2, 2, 1, 2, ((2, 2), (6, 6), (18, 18))),
    ("mod:0,3,900", 2, 1, 1, 2, ((3, 3), (6, 6), (12, 12))),
    ("all:300", 1, 1, 2, 1, ((1,), (1,))),
    ("all:300", 1, 1, 2, 2, ((1, 1), (1, 1))),
    ("fs:arith:1,1,12", 1, 2, 2, 1, ((2,), (3,))),
    ("fs:arith:1,1,12", 1, 2, 2, 2, ((2, 2), (3, 3))),
    ("fs:geom:1,2,8", 0, 1, 3, 2, ((1, 1),)),
])
def test_tower_families_are_pinned(expr, m, p, c, family_depth, families):
    """Exact families for m up to 2 and c up to 3, wherever the depth cap
    lets level 0 through."""
    window = SetWindow.from_expression(expr)
    got = mpc_from_cst(window, m, p, c, family_depth=family_depth)
    assert got.families == families
    assert got.system.generators == tuple(fam[0] for fam in families)
    assert verify_mpc(window, MpcParams(m, p, c), got.system.generators)


@pytest.mark.parametrize("expr", ["mod:2,4,2000", "mod:1,3,900"])
def test_tower_refutations_are_pinned(expr):
    window = SetWindow.from_expression(expr)
    assert mpc_from_cst(window, 2, 2, 1) is None
    assert mpc_from_cst(window, 1, 1, 2) is None
    with pytest.raises(BudgetExceededError,
                       match="^witness search exceeded 5000000 candidates$"):
        mpc_from_cst(window, 1, 1, 2, family_depth=2)
