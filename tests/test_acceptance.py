"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import ramseykit as rk
from ramseykit.cli import run as cli_run
from ramseykit.deuber import MpcParams, iter_rows
from ramseykit.ipcore import IPSystemSpec


@contextmanager
def criterion(number, summary):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {summary}")
        raise
    print(f"[criterion {number:02d}] PASS  {summary} "
          f"({time.monotonic() - started:.2f}s)")


def cli_json(capsys, *argv):
    code = cli_run(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _monochromatic_solution(coeffs, cell):
    """Naive search for a nontrivial solution of a*x + b*y + c*z = 0 with
    x, y, z all in `cell`; independent of the library's solver."""
    a, b, c = coeffs
    members = set(cell)
    for x in cell:
        for y in cell:
            num = -(a * x + b * y)
            if num % c == 0 and num // c in members and not x == y == num // c:
                return (x, y, num // c)
    return None


def _rado_prime(coeffs):
    """Least prime dividing no nonempty subset sum of the coefficients."""
    sums = {sum(sub) for k in range(1, len(coeffs) + 1)
            for sub in combinations(coeffs, k)}
    assert 0 not in sums, "a zero subset sum: no Rado prime exists"
    p = 2
    while any(p % d == 0 for d in range(2, p)) or any(s % p == 0 for s in sums):
        p += 1
    return p


def _rado_coloring(p, horizon):
    """Color classes of [1..horizon] by the last nonzero base-p digit."""
    cells = [[] for _ in range(p - 1)]
    for n in range(1, horizon + 1):
        m = n
        while m % p == 0:
            m //= p
        cells[m % p - 1].append(n)
    return cells


def test_criterion_01_columns_condition_vs_empirical_oracle():
    with criterion(1, "columns condition vs. Rado (p-1)-coloring oracle on "
                      "1x3 corpus"):
        started = time.monotonic()
        values = [v for v in range(-3, 4) if v != 0]
        not_regular = 0
        for coeffs in product(values, repeat=3):
            matrix = rk.RationalMatrix.from_rows([list(coeffs)])
            if rk.columns_condition(matrix) is not None:
                continue
            not_regular += 1
            # Rado: the last-nonzero-digit coloring in base p has no
            # monochromatic solution, so p - 1 colors always suffice
            p = _rado_prime(coeffs)
            for cell in _rado_coloring(p, 20):
                assert _monochromatic_solution(coeffs, cell) is None, (coeffs, p)
            res = rk.empirical_pr(matrix, p - 1, 20, nontrivial=True)
            assert res.verdict == "witness", (coeffs, p)
            assert res.witness.horizon == 20
            for c in range(p - 1):
                cell = [n for n, k in enumerate(res.witness.colors, start=1) if k == c]
                assert _monochromatic_solution(coeffs, cell) is None, (coeffs, p)
        assert not_regular == 108
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"

        # A fixed two colors do not suffice: x + y = 3z is not partition
        # regular, yet every 2-coloring of [1..9] has a monochromatic
        # solution, while [1..8] still has a solution-free 2-coloring.
        coeffs = (1, 1, -3)
        matrix = rk.RationalMatrix.from_rows([list(coeffs)])
        assert rk.columns_condition(matrix) is None
        assert rk.empirical_pr(matrix, 2, 9).verdict == "forced"
        assert rk.empirical_pr(matrix, 2, 8).verdict == "witness"
        for horizon, forced in ((9, True), (8, False)):
            has_free = any(
                all(_monochromatic_solution(
                        coeffs, [n for n in range(1, horizon + 1)
                                 if colors[n - 1] == c]) is None
                    for c in (0, 1))
                for colors in product((0, 1), repeat=horizon))
            assert has_free != forced, horizon


def test_criterion_02_schur_number(capsys):
    with criterion(2, "Schur number via CLI: 4, forced at 5"):
        started = time.monotonic()
        rep = cli_json(capsys, "rado", "schur-number", "--colors", "2")
        elapsed = time.monotonic() - started
        assert rep["schur_number"] == 4
        assert rep["forced_at"] == 5
        witness = rep["extremal_witness"]
        cells = [[], []]
        for n, c in enumerate(witness["colors"], start=1):
            cells[c].append(n)
        assert sorted(map(tuple, cells)) == [(1, 4), (2, 3)]
        assert elapsed < 1, f"{elapsed:.2f}s"


def _coloring_avoids_nontrivial_3aps(colors):
    n = len(colors)
    for a in range(1, n + 1):
        for d in range(1, (n - a) // 2 + 1):
            if colors[a - 1] == colors[a + d - 1] == colors[a + 2 * d - 1]:
                return False
    return True


def test_criterion_03_van_der_waerden(capsys):
    with criterion(3, "van der Waerden number via CLI: 9, witness at 8"):
        started = time.monotonic()
        rep = cli_json(capsys, "rado", "vdw-number", "--colors", "2",
                       "--length", "3")
        elapsed = time.monotonic() - started
        assert rep["vdw_number"] == 9
        assert rep["witness_at"] == 8
        colors = rep["extremal_witness"]["colors"]
        cells = [[], []]
        for n, c in enumerate(colors, start=1):
            cells[c].append(n)
        assert sorted(map(tuple, cells)) == [(1, 2, 5, 6), (3, 4, 7, 8)]
        # independent re-verification of the witness
        assert _coloring_avoids_nontrivial_3aps(colors)
        assert elapsed < 5, f"{elapsed:.2f}s"


def test_criterion_04_deuber_round_trip():
    with criterion(4, "generate -> contains -> verify closes on 200 towers"):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            m = rng.randint(0, 2)
            p = rng.randint(1, 2)
            c = rng.randint(1, 3)
            gens = tuple(rng.randint(1, 30) for _ in range(m + 1))
            params = MpcParams(m, p, c)
            try:
                system = rk.generate_mpc(params, gens)
            except rk.MpcExpansionError:
                continue
            rows = list(iter_rows(params, gens))
            assert len(rows) == rk.mpc_size(m, p)
            assert rk.mpc_size(m, p) == ((2 * p + 1) ** (m + 1) - 1) // (2 * p)
            window = rk.SetWindow.from_members(max(system.values), system.values)
            found = rk.contains_mpc(window, params, max(gens))
            assert found is not None
            assert set(rk.generate_mpc(params, found).values) <= set(system.values)
            assert rk.verify_mpc(window, params, found)
            done += 1


def test_criterion_05_finite_sums_identity():
    with criterion(5, "finite sums of powers of two fill [1..2^k-1], k<=16"):
        spec = IPSystemSpec.geometric(1, 2, 16)
        for k in range(1, 17):
            window = rk.fs_enumerate(spec, k)
            assert window.members == tuple(range(1, 2 ** k))


def test_criterion_06_divisibility_lemma():
    with criterion(6, "divisible subsequences and zero-sum blocks, no failures"):
        rng = random.Random(99)
        for _ in range(100):
            c = rng.randint(1, 12)
            horizon = 3 * c + rng.randint(0, 8)
            spec = IPSystemSpec.from_terms(
                [rng.randint(-99, 99) for _ in range(horizon)]
            )
            alphas = rk.find_divisible_subsequence(spec, c, 3)
            assert len(alphas) == 3
            for a, b in zip(alphas, alphas[1:]):
                assert rk.alpha_less(a, b)
            for a in alphas:
                assert rk.ip_term(spec, a) % c == 0
        for _ in range(100):
            n = rng.randint(1, 12)
            xs = [rng.randint(1, 500) for _ in range(n + rng.randint(0, 8))]
            block = rk.zero_sum_mod(xs, n)
            assert block is not None
            assert sum(xs[i - 1] for i in block) % n == 0


def test_criterion_07_return_time_exactness():
    with criterion(7, "rotation and product return times are exact"):
        res = rk.orbit_hits(
            rk.RotationSystem(F(5, 8)), 0, rk.Arc.from_interval(0, F(1, 5)), 16
        )
        assert res.window.members == (5, 8, 13, 16)
        arc = rk.Arc.from_interval(0, F(1, 10))
        res = rk.product_return_times(
            rk.RotationSystem(F(1, 2)), rk.RotationSystem(F(1, 3)),
            0, 0, (arc, arc), 12,
        )
        assert res.window.members == (6, 12)


def test_criterion_08_syndetic_gap_stabilization():
    with criterion(8, "golden-convergent return gaps stabilize below 20"):
        rot = rk.RotationSystem(F(233, 377))
        arc = rk.Arc(F(0), F(1, 10))
        hits = rk.orbit_hits(rot, 0, arc, 10 ** 4).window
        gap_large = rk.syndetic_gap(hits)
        gap_small = rk.syndetic_gap(hits.restrict(10 ** 3))
        assert gap_large == gap_small
        assert gap_large < 20


def test_criterion_09_strauss_construction():
    with criterion(9, "near-full-density sets dodge all witness classes"):
        for eps in (F(1, 2), F(1, 4), F(1, 10)):
            res = rk.strauss_set(eps, 10 ** 5)
            assert res.density >= 1 - eps
            members = res.window.member_set
            for t, modulus in res.witnesses:
                r = t % modulus
                start = r if r >= 1 else modulus
                assert all(
                    x not in members for x in range(start, 10 ** 5 + 1, modulus)
                )


def test_criterion_10_cst_refutation_and_witness():
    with criterion(10, "witness search: parity refutation and even witness"):
        started = time.monotonic()
        got = rk.cst_search(rk.SetWindow.odds(999),
                            [IPSystemSpec.constant(1, 8)], 2)
        assert got is None  # proven absent, budget untouched
        elapsed = time.monotonic() - started
        assert elapsed < 5, f"refutation took {elapsed:.2f}s"

        started = time.monotonic()
        specs = [IPSystemSpec.constant(2, 8)]
        window = rk.SetWindow.evens(200)
        wit = rk.cst_search(window, specs, 3)
        assert wit is not None
        assert rk.verify_cst_witness(window, specs, wit)
        elapsed = time.monotonic() - started
        assert elapsed < 5, f"positive search took {elapsed:.2f}s"


def test_criterion_11_tower_from_finite_sums_window():
    with criterion(11, "tower pipeline output verifies inside the FS window"):
        started = time.monotonic()
        window = rk.SetWindow.from_expression("fs:geom:1,2,16")
        got = rk.mpc_from_cst(window, 1, 1, 1)
        assert got is not None
        assert rk.verify_mpc(window, MpcParams(1, 1, 1), got.system.generators)
        assert time.monotonic() - started < 30


def test_criterion_12_report_determinism(capsys, tmp_path):
    with criterion(12, "all subcommands byte-identical across runs"):
        schur = tmp_path / "schur.mat"
        schur.write_text("1 3\n1 1 -1\n")
        rep = cli_json(capsys, "cst", "search", "--set", "evens:200",
                       "--specs", "const:2", "--depth", "2",
                       "--spec-horizon", "6")
        witness_file = tmp_path / "wit.json"
        witness_file.write_text(json.dumps(rep["witness"]))
        commands = [
            ["rado", "check", "--matrix", str(schur)],
            ["rado", "empirical", "--matrix", str(schur),
             "--colors", "2", "--horizon", "4"],
            ["rado", "solve", "--matrix", str(schur), "--set", "all:13"],
            ["rado", "schur-number", "--colors", "2", "--max", "6"],
            ["rado", "vdw-number", "--colors", "2", "--length", "3",
             "--max", "9"],
            ["mpc", "gen", "--m", "1", "--p", "1", "--c", "2",
             "--generators", "1,3"],
            ["mpc", "verify", "--set", "all:25", "--m", "1", "--p", "1",
             "--c", "1", "--generators", "1,2"],
            ["mpc", "find", "--set", "all:25", "--m", "1", "--p", "1",
             "--c", "1", "--bound", "25"],
            ["fs", "enum", "--spec", "geom:1,2", "--k", "4"],
            ["fs", "divisible", "--spec", "const:1", "--horizon", "6",
             "--modulus", "3", "--count", "2"],
            ["fs", "zerosum", "--values", "1,2,3", "--modulus", "3"],
            ["dyn", "orbit", "--system", "rot:5/8", "--point", "0",
             "--target", "arc:0,1/5", "--horizon", "16"],
            ["dyn", "product", "--system-a", "rot:1/2", "--system-b",
             "rot:1/3", "--point-a", "0", "--point-b", "0",
             "--target-a", "arc:0,1/10", "--target-b", "arc:0,1/10",
             "--horizon", "12"],
            ["dyn", "density", "--set", "odds:100", "--window", "10"],
            ["dyn", "gaps", "--set", "evens:100"],
            ["dyn", "pws", "--set", "mod:0,3,99", "--shifts", "2",
             "--length", "30"],
            ["dyn", "strauss", "--epsilon", "1/2", "--horizon", "64"],
            ["cst", "search", "--set", "evens:200", "--specs", "const:2",
             "--depth", "2", "--spec-horizon", "6"],
            ["cst", "verify", "--set", "evens:200", "--specs", "const:2",
             "--spec-horizon", "6", "--witness", str(witness_file)],
            ["cst", "mpc", "--set", "evens:200", "--m", "0", "--p", "1",
             "--c", "2"],
        ]
        for argv in commands:
            outputs = set()
            for _ in range(4):
                code = cli_run(argv)
                captured = capsys.readouterr()
                assert code == 0, captured.out
                outputs.add(captured.out)
            assert len(outputs) == 1, f"nondeterministic report: {argv}"
