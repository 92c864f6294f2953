import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ramseykit
from ramseykit.dynsets import (
    Arc,
    Cylinder,
    ProductSystem,
    ProductTarget,
    RotationSystem,
    ShiftSystem,
    banach_density_estimate,
    orbit_hits,
    parse_point,
    parse_system,
    parse_target,
    piecewise_syndetic_window,
    product_return_times,
    strauss_set,
    strauss_witnesses_hold,
    syndetic_gap,
)
from ramseykit.errors import BudgetExceededError, InputError
from ramseykit.ipcore import IPSystemSpec, zero_sum_mod
from ramseykit.rado import solve_in_cell
from ramseykit.exactq import RationalMatrix
from ramseykit.windows import SetWindow


def integer_rotation_hits(p, q, num, den, horizon):
    """Independent oracle for rotation by p/q from 0 with arc [0, num/den):
    n is a hit iff (n*p mod q) * den < num * q."""
    return [n for n in range(1, horizon + 1) if ((n * p) % q) * den < num * q]


# --- orbits -----------------------------------------------------------------

def test_rotation_five_eighths():
    res = orbit_hits(RotationSystem(F(5, 8)), 0, Arc.from_interval(0, F(1, 5)), 16)
    assert list(res.window.members) == integer_rotation_hits(5, 8, 1, 5, 16)
    assert res.window.members == (5, 8, 13, 16)
    # n = 8 and 16 land exactly on the left endpoint of the open arc
    assert res.boundary_hits == (8, 16)


def test_rotation_matches_integer_oracle_on_random_cases():
    rng = random.Random(14)
    for _ in range(25):
        q = rng.randint(2, 30)
        p = rng.randint(1, q - 1)
        den = rng.randint(2, 9)
        res = orbit_hits(
            RotationSystem(F(p, q)), 0, Arc.from_interval(0, F(1, den)), 50
        )
        assert list(res.window.members) == integer_rotation_hits(p, q, 1, den, 50)


def test_rotation_periodicity():
    """For angle p/q the return-time set is q-periodic: the first q entries
    determine the rest of the window."""
    res = orbit_hits(RotationSystem(F(3, 7)), F(1, 3), Arc.from_interval(0, F(1, 2)), 70)
    hits = set(res.window.members)
    for n in range(1, 64):
        assert (n in hits) == ((n + 7) in hits)


def test_shift_fixed_point():
    shift = ShiftSystem("1" * 12)
    res = orbit_hits(shift, 0, Cylinder("1"), 10)
    assert res.window.members == tuple(range(1, 11))
    assert res.boundary_hits == ()


def test_shift_pattern_and_length_guard():
    shift = ShiftSystem("10110" + "0" * 10)
    res = orbit_hits(shift, 0, Cylinder("1"), 4)
    assert res.window.members == (2, 3)
    with pytest.raises(InputError):
        orbit_hits(ShiftSystem("101"), 0, Cylinder("1"), 10)


def test_identity_rotation_missing_target():
    res = orbit_hits(RotationSystem(F(0)), 0, Arc.from_interval(F(1, 2), F(3, 5)), 10)
    assert res.window.members == ()


def test_boundary_semantics_on_both_endpoints():
    """Half-open arcs keep the left endpoint and drop the right one, and
    both kinds of exact hit get flagged."""
    res = orbit_hits(RotationSystem(F(1, 8)), 0, Arc.from_interval(0, F(1, 4)), 8)
    assert res.window.members == (1, 8)   # 2/8 sits on the excluded end
    assert res.boundary_hits == (2, 8)


def test_product_return_times():
    arc = Arc.from_interval(0, F(1, 10))
    res = product_return_times(
        RotationSystem(F(1, 2)), RotationSystem(F(1, 3)), 0, 0, (arc, arc), 12
    )
    assert res.window.members == (6, 12)


def test_product_full_target_hits_everywhere():
    full = Arc(F(0), F(1))
    res = product_return_times(
        RotationSystem(F(1, 2)), RotationSystem(F(2, 5)), 0, F(1, 5), (full, full), 9
    )
    assert res.window.members == tuple(range(1, 10))


def test_product_diagonal_identity():
    rng = random.Random(20)
    for _ in range(15):
        q = rng.randint(2, 12)
        sys = RotationSystem(F(rng.randint(1, q - 1), q))
        x = F(rng.randint(0, 5), 7)
        arc = Arc.from_interval(0, F(1, rng.randint(2, 6)))
        single = orbit_hits(sys, x, arc, 40)
        double = product_return_times(sys, sys, x, x, (arc, arc), 40)
        assert single.window == double.window


def rotation_oracle(angle, point, lo, width):
    """(member, boundary) at time n of a rotation, from the closed form
    (x + n*angle - lo) mod 1 rather than by stepping."""
    def at(n):
        if width >= 1:
            return True, False
        offset = (point + n * angle - lo) % 1
        return offset < width, offset in (0, width)
    return at


def shift_oracle(symbols, point, cylinder):
    return lambda n: (symbols[point + n:point + n + len(cylinder)] == cylinder, False)


def _random_fraction(rng, scale):
    q = rng.randint(1, 12)
    return F(rng.randint(-scale * q, scale * q), q)


def _random_component(rng, horizon):
    """(system, point, target, oracle) for a seeded rotation or shift."""
    if rng.random() < 0.5:
        angle, point = _random_fraction(rng, 3), _random_fraction(rng, 2)
        a, b = _random_fraction(rng, 1), F(rng.randint(1, 14), rng.randint(1, 12))
        if rng.random() < 0.5:
            target, lo, width = f"arc:{a},{a + b}", a, b
        else:  # a radius of 1/2 or more covers the circle
            target, lo, width = f"carc:{a},{b / 2}", a - b / 2, b
        system = RotationSystem(angle)
        oracle = rotation_oracle(angle, point, lo, width)
    else:
        cylinder = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        point = rng.randint(0, 5)
        symbols = "".join(rng.choice("01")
                          for _ in range(point + horizon + len(cylinder)))
        system, target = ShiftSystem(symbols), f"cyl:{cylinder}"
        oracle = shift_oracle(symbols, point, cylinder)
    return system, point, parse_target(system, target), oracle


def _expected(oracle, horizon):
    marks = [(n, *oracle(n)) for n in range(1, horizon + 1)]
    return (tuple(n for n, member, _ in marks if member),
            tuple(n for n, _, boundary in marks if boundary))


def test_rotations_match_the_closed_form():
    """Negative and greater-than-1 angles, nonzero points, `arc:` and `carc:`
    targets, widths of 1 or more included."""
    rng = random.Random(41)
    for _ in range(300):
        horizon = rng.randint(1, 60)
        system, point, target, oracle = _random_component(rng, horizon)
        if not isinstance(system, RotationSystem):
            continue
        res = orbit_hits(system, point, target, horizon)
        assert (res.window.members, res.boundary_hits) == _expected(oracle, horizon)


def test_products_and_and_or_their_components():
    """rot x rot, rot x shift and shift x shift: a product's hits are the
    per-n AND of its components and its boundary hits the per-n OR."""
    rng = random.Random(42)
    for _ in range(300):
        horizon = rng.randint(1, 60)
        sys_a, x, u, first = _random_component(rng, horizon)
        sys_b, y, v, second = _random_component(rng, horizon)

        def both(n):
            (m1, b1), (m2, b2) = first(n), second(n)
            return m1 and m2, b1 or b2
        res = product_return_times(sys_a, sys_b, x, y, (u, v), horizon)
        assert (res.window.members, res.boundary_hits) == _expected(both, horizon)


@pytest.mark.parametrize("center, radius", [
    (F(1, 20), F(1, 20)), ("1/20", "1/20"), (0.05, 0.05)],
    ids=["fraction", "string", "float"])
def test_arc_fields_are_exact(center, radius):
    """An arc converts its fields as the parser does: 1/20 lands on both
    ends of [0, 1/10), which floats would miss, so floats are refused."""
    if isinstance(center, float):
        with pytest.raises(InputError, match="exact rational"):
            Arc(center, radius)
        return
    res = orbit_hits(RotationSystem(F(1, 10)), 0, Arc(center, radius), 10)
    assert (res.window.members, res.boundary_hits) == ((10,), (1, 10))


def test_invalid_orbit_inputs_are_input_errors():
    arc, cyl = Arc(F(0), F(1, 4)), Cylinder("1")
    rot, shift = RotationSystem(F(1, 3)), ShiftSystem("0110")
    # the full circle hits every time, but only after the point is checked
    with pytest.raises(InputError, match="exact rational"):
        orbit_hits(rot, 0.5, Arc(F(0), F(1)), 5)
    with pytest.raises(InputError, match="too short"):
        product_return_times(rot, shift, 0, 0, (arc, cyl), 10)
    with pytest.raises(InputError, match="nonnegative"):
        orbit_hits(shift, -1, cyl, 2)
    product = ProductSystem(rot, shift)
    for point in (0, (0,), (0, 0, 0)):
        with pytest.raises(InputError, match="pairs"):
            orbit_hits(product, point, ProductTarget(arc, cyl), 2)


# --- density / gaps / piecewise syndetic ------------------------------------

def test_density_examples():
    odds = SetWindow.odds(100)
    rep = banach_density_estimate(odds, 10)
    assert rep.estimate == F(1, 2)
    squares = SetWindow.from_members(10000, [i * i for i in range(1, 101)])
    rep = banach_density_estimate(squares, 100)
    assert (rep.count, rep.best_start, rep.estimate) == (10, 1, F(1, 10))
    full = SetWindow.full(30)
    assert banach_density_estimate(full, 7).estimate == 1


def test_density_monotone_and_leftmost():
    rng = random.Random(25)
    for _ in range(20):
        members = {rng.randint(1, 60) for _ in range(rng.randint(0, 40))}
        bigger = members | {rng.randint(1, 60) for _ in range(10)}
        w = rng.randint(1, 60)
        small_rep = banach_density_estimate(SetWindow.from_members(60, members), w)
        big_rep = banach_density_estimate(SetWindow.from_members(60, bigger), w)
        assert small_rep.estimate <= big_rep.estimate
        # brute-force the leftmost best start
        best = max(
            range(1, 62 - w),
            key=lambda a: (sum(1 for v in members if a <= v < a + w), -a),
        )
        assert small_rep.best_start == best
    with pytest.raises(InputError):
        banach_density_estimate(SetWindow.full(5), 6)


def test_syndetic_gap_examples():
    assert syndetic_gap(SetWindow.evens(100)) == 2
    assert syndetic_gap(SetWindow.from_members(100, [50])) == 51
    assert syndetic_gap(SetWindow(10, ())) == 11


def test_piecewise_syndetic_empty_set():
    rep = piecewise_syndetic_window(SetWindow(10, ()), 0, 1)
    assert not rep.contains_interval
    assert rep.best_length == 0 and rep.witness_start is None


def test_piecewise_syndetic_examples():
    multiples = SetWindow.residue_class(0, 3, 99)
    rep = piecewise_syndetic_window(multiples, 2, 30)
    assert rep.contains_interval and rep.witness_start == 1
    rep = piecewise_syndetic_window(SetWindow.odds(99), 0, 2)
    assert not rep.contains_interval and rep.best_length == 1
    squares = SetWindow.from_members(10000, [i * i for i in range(1, 101)])
    rep = piecewise_syndetic_window(squares, 3, 20)
    assert not rep.contains_interval
    assert rep.best_length == 4  # 1..4 via the squares 1 and 4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sets(st.integers(1, 60)), st.integers(0, 70), st.integers(1, 12))
def test_piecewise_syndetic_matches_brute_force(members, shifts, length):
    """Recount S u (S-1) u ... u (S-k) inside [1..60] element by element and
    read its runs of consecutive integers off directly."""
    window = SetWindow.from_members(60, members)
    covered = {v - i for v in members for i in range(shifts + 1) if v - i >= 1}
    runs = []  # (start, length), left to right
    for n in sorted(covered):
        if n - 1 in covered:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((n, 1))
    best_len = max((size for _, size in runs), default=0)
    best_start = next((start for start, size in runs if size == best_len), None)
    witness = next((start for start, size in runs if size >= length), None)
    rep = piecewise_syndetic_window(window, shifts, length)
    assert rep.contains_interval == (witness is not None)
    assert (rep.witness_start, rep.best_length, rep.best_start) == (
        witness, best_len, best_start)


# --- the near-full-density construction --------------------------------------

def test_strauss_window_example():
    res = strauss_set(F(1, 2), 8)
    assert res.witnesses == ((0, 4), (1, 8))
    assert res.window.members == (2, 3, 5, 6, 7)
    assert res.density == F(5, 8) >= F(1, 2)
    assert strauss_witnesses_hold(res)


def test_strauss_witness_check_rejects_a_hit_class():
    res = strauss_set(F(1, 2), 64)
    assert strauss_witnesses_hold(res)
    # 1 mod 2 meets the odd members of the window
    assert not strauss_witnesses_hold(dataclasses.replace(res, witnesses=((1, 2),)))


def test_strauss_density_and_witnesses_across_epsilons():
    for eps in (F(1, 2), F(1, 4), F(1, 10), F(2, 7)):
        res = strauss_set(eps, 3000)
        assert res.density >= 1 - eps
        assert strauss_witnesses_hold(res)
        # removed density never exceeds the schedule's budget
        removed = F(3000 - len(res.window.members), 3000)
        assert removed <= eps
    with pytest.raises(InputError):
        strauss_set(F(3, 2), 100)
    with pytest.raises(InputError):
        strauss_set(F(0), 100)


def test_strauss_blocks_finite_sums_and_forced_multiples():
    """The classical consequence: inside S - t no finite-sums family can
    live, because some subset sum is divisible by n and S - t misses all
    multiples of n; likewise any system forcing a multiple of n has no
    solution there."""
    res = strauss_set(F(1, 2), 400)
    t, n = res.witnesses[0]
    shifted = sorted(v - t for v in res.window.members if 1 <= v - t <= 300)
    assert all(v % n != 0 for v in shifted)
    rng = random.Random(30)
    for _ in range(10):
        xs = rng.sample(shifted, n)
        block = zero_sum_mod(xs, n)
        assert block is not None
        total = sum(xs[i - 1] for i in block)
        assert total % n == 0
        assert total not in set(shifted)
    # x2 = n * x1 forces a multiple of n, so the shifted window has none
    forcing = RationalMatrix.from_rows([[n, -1]])
    window = SetWindow.from_members(300, shifted)
    assert solve_in_cell(forcing, window) is None


# --- config strings -----------------------------------------------------------

def test_parse_round_trips():
    sys_a = parse_system("rot:5/8")
    assert isinstance(sys_a, RotationSystem) and sys_a.angle == F(5, 8)
    shift = parse_system("shift:0101")
    assert isinstance(shift, ShiftSystem)
    prod = parse_system("prod:(rot:1/2;rot:1/3)")
    assert isinstance(prod, ProductSystem)
    assert parse_point(prod, "0;1/3") == (F(0), F(1, 3))
    target = parse_target(prod, "arc:0,1/10;arc:1/2,3/5")
    assert isinstance(target, ProductTarget)
    assert parse_target(sys_a, "carc:0,1/10") == Arc(F(0), F(1, 10))
    assert parse_target(shift, "cyl:01") == Cylinder("01")
    with pytest.raises(InputError):
        parse_system("wat:1")
    with pytest.raises(InputError):
        parse_target(sys_a, "cyl:01")
    # a product's components are rotations or shifts: a product of products
    # is refused by its shape, its second `;`
    for text in ("prod:(prod:(rot:1/2;shift:0110);prod:(rot:1/3;rot:2/5))",
                 "prod:(prod:(rot:1/2;shift:0110);rot:1/3)",
                 "prod:(rot:1/3;prod:(rot:1/2;shift:0110))"):
        with pytest.raises(InputError, match="look like A;B"):
            parse_system(text)
    mixed = parse_system("prod:(rot:1/2;shift:0110)")
    assert parse_point(mixed, " 1/4 ; 2") == (F(1, 4), 2)
    assert parse_target(mixed, "carc:0,1/4;cyl:01") == ProductTarget(
        Arc(F(0), F(1, 4)), Cylinder("01"))
    # a point holds one `;`, and a parenthesised half is not a point
    for text in ("1/4;2;0;1/5", "(1/4;2);(0;1/5)", "(1/4;2)"):
        with pytest.raises(InputError):
            parse_point(mixed, text)
    # list rules: the horizon may not exceed the list, and does not cut it
    assert IPSystemSpec.parse("list:3,-1,4") == IPSystemSpec((3, -1, 4))
    assert IPSystemSpec.parse(" list:3,-1,4 ", horizon=2).terms == (3, -1, 4)
    with pytest.raises(InputError):
        IPSystemSpec.parse("list:3,-1,4", horizon=4)
    with pytest.raises(InputError):
        IPSystemSpec.parse("const:3")
    # fs: the rule keeps its commas; the prefix length is the last field
    assert SetWindow.from_expression("fs:arith:1,2,3").members == (1, 3, 4, 5, 6, 8, 9)
    assert SetWindow.from_expression("fs:list:4,1,9,2") == SetWindow.from_expression(
        "fs:list:4,1,9,2,2")
    for text in ("fs:arith:1,2", "fs:3", "fs:arith:1,2,x"):
        with pytest.raises(InputError):
            SetWindow.from_expression(text)


def _nested_products(depth: int) -> str:
    text = "rot:1/2"
    for _ in range(depth):
        text = f"prod:({text};rot:1/3)"
    return text


def test_product_nesting_is_capped():
    """A product's components are rotations or shifts.  A nested product
    holds a second `;`, so it is an input error at every depth, before any
    component is parsed, rather than a RecursionError."""
    assert isinstance(parse_system(_nested_products(1)), ProductSystem)
    for depth in (2, 3, 100, 1500):
        with pytest.raises(InputError, match="product systems look like A;B"):
            parse_system(_nested_products(depth))
    # a product component without a `;` of its own is no product either
    with pytest.raises(InputError):
        parse_system("prod:(prod:(rot:1/2);rot:1/3)")


KIND_NAMES = ["all", "odds", "evens", "mod", "file", "fs", "const", "arith",
              "geom", "list", "rot", "shift", "prod", "arc", "carc", "cyl"]
DIGITS = st.from_regex(r"[0-9]{1,4}", fullmatch=True)
TOKENS = st.one_of(st.sampled_from(KIND_NAMES), DIGITS,
                   st.sampled_from(list(":,;()/-= ")))
FIELD = st.one_of(DIGITS, DIGITS, st.builds("{}/{}".format, DIGITS, DIGITS),
                  st.builds("-{}".format, DIGITS))
KIND_TEXT = st.builds("{}:{}".format, st.sampled_from(KIND_NAMES),
                      st.lists(FIELD, min_size=1, max_size=3).map(",".join))
# free token strings, kind:fields strings with number fields alone or as a
# pair, and numbers alone or as a pair (points)
GRAMMAR_TEXT = st.one_of(st.lists(TOKENS, max_size=12).map("".join), KIND_TEXT,
                         st.builds("{};{}".format, KIND_TEXT, KIND_TEXT),
                         st.lists(FIELD, min_size=1, max_size=2).map(";".join))
FIXED_SYSTEMS = [parse_system(text) for text in
                 ("rot:1/3", "shift:0101", "prod:(rot:1/2;shift:0110)")]


def _value_or_input_error(parse, *args):
    """The parsed value, or None for an input error; a fixed cap (exit 2)
    counts as a verdict too.  Anything else escapes and fails the test."""
    try:
        return parse(*args)
    except (InputError, BudgetExceededError):
        return None


# one empty directory serves every example: the parsers only read it
@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(GRAMMAR_TEXT)
def test_every_expression_is_a_value_or_an_input_error(tmp_path, monkeypatch, text):
    """Strings over the grammar's alphabet through all five entry points; bare
    paths, `file:` and `shift:file=` resolve in an empty directory."""
    monkeypatch.chdir(tmp_path)
    _value_or_input_error(SetWindow.from_expression, text)
    for horizon in (None, 4):
        _value_or_input_error(IPSystemSpec.parse, text, horizon)
    system = _value_or_input_error(parse_system, text)
    for sys_ in FIXED_SYSTEMS + ([system] if system is not None else []):
        _value_or_input_error(parse_point, sys_, text)
        _value_or_input_error(parse_target, sys_, text)


@pytest.mark.parametrize("text", ["arc:0", "arc:1,2,3", "arc:", "carc:1/2",
                                  "carc:0,1/10,1"])
def test_malformed_arcs_are_input_errors(text):
    with pytest.raises(InputError):
        parse_target(parse_system("rot:1/3"), text)


def test_shift_system_from_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("0101\n1100\n")
    system = parse_system(f"shift:file={path}")
    assert system.symbols == "01011100"


def test_unreadable_shift_file_is_an_input_error(tmp_path):
    for path in (tmp_path / "no-such.txt", tmp_path):
        with pytest.raises(InputError, match="cannot read shift file"):
            parse_system(f"shift:file={path}")
    binary = tmp_path / "seq.bin"
    binary.write_bytes(b"\xff\xfe01")
    with pytest.raises(InputError, match="not UTF-8 text"):
        parse_system(f"shift:file={binary}")


def test_reimport_releases_old_modules():
    """A fresh import must not keep the previous one alive.  A run-time
    typing.Union over the module's classes would stay in typing's cache
    and pin every old module dict through the classes' methods."""
    script = textwrap.dedent("""
        import gc, sys, weakref
        import ramseykit.dynsets
        first = weakref.ref(ramseykit.dynsets.Arc)
        for _ in range(3):
            for name in [m for m in sys.modules if m.startswith("ramseykit")]:
                del sys.modules[name]
            import ramseykit.dynsets
        gc.collect()
        sys.exit(0 if first() is None else 1)
    """)
    src = os.path.dirname(os.path.dirname(ramseykit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert proc.returncode == 0
