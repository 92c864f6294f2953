"""`rado`: columns-condition decisions, the 2-colour empirical oracle and
forcing sweeps with known values.

Why: `exactq` does most of the columns jobs' work, solution enumeration most
of the oracle jobs' work (they set job_ms.p50), and the coloring DFS most of
the sweeps' work (the eleven heaviest jobs are sweeps, so they set
job_ms.tail; W(3;3)=27 alone sets most of wall_s).  No SetWindow, cst or
dynsets work happens here.
"""

from __future__ import annotations

from itertools import product

from common import Job
import naive

# (rows, cols) of the columns-condition matrices; each shape appears twice
# per batch, once built regular and once drawn at random.
SHAPES = [(1, 3), (1, 5), (2, 4), (2, 6), (2, 9), (3, 5), (3, 7), (3, 9),
          (4, 7), (4, 9)]


def _oracle_pool():
    """Every 1x3 equation with coefficients in +-1..4 and mixed signs, up to
    the order of the variables and the sign of the row."""
    seen, pool = set(), []
    for c in product(range(-4, 5), repeat=3):
        if 0 in c or min(c) > 0 or max(c) < 0:
            continue
        key = tuple(sorted(c))
        if key not in seen and tuple(sorted(-v for v in c)) not in seen:
            seen.add(key)
            pool.append(key)
    return pool


# The oracle jobs run the whole pool, each with a seeded presentation, so
# the batch median (which lands inside them) does not move with the seed.
ORACLE_POOL = _oracle_pool()

# Forcing sweeps: (label, equation, colours, forced_at, copies).  An
# equation is ("ap", L) for length-L progressions or a coefficient row.
# x + a*y = z has 2-colour forcing number a^2 + 3a + 1 (5 at a = 1 is
# Schur's); the values for a = 4, 5 were confirmed with naive.coloring_search.
FORCING = [
    ("W(3;3)", ("ap", 3), 3, 27, 1),
    ("W(2;4)", ("ap", 4), 2, 35, 1),
    ("W(2;3)", ("ap", 3), 2, 9, 1),
    ("S(2)", (1, 1, -1), 2, 5, 1),
    ("S(3)", (1, 1, -1), 3, 14, 1),
    ("x+y+z=w", (1, 1, 1, -1), 2, 11, 1),  # m^2 - m - 1 at m = 4
    ("x+4y=z", (1, 4, -1), 2, 29, 7),
    ("x+5y=z", (1, 5, -1), 2, 41, 2),
]
TINY_FORCING = {"W(2;3)", "S(2)", "x+y+z=w"}


def _vec(rng, rows, lo=-4, hi=4):
    while True:
        v = [rng.randint(lo, hi) for _ in range(rows)]
        if any(v):
            return v


def _regular_columns(rng, rows, cols):
    """Columns built to satisfy the columns condition: a zero-sum first
    block, then blocks whose sum is a combination of earlier columns."""
    nblocks = rng.randint(1, min(3, cols - 1))
    sizes = [2] + [1] * (nblocks - 1)
    for _ in range(cols - sum(sizes)):
        sizes[rng.randrange(nblocks)] += 1
    placed = []
    for b, size in enumerate(sizes):
        while True:
            block = [_vec(rng, rows) for _ in range(size - 1)]
            if b == 0:
                target = [0] * rows
            else:
                target = [0] * rows
                for col in placed:
                    k = rng.randint(-2, 2)
                    target = [t + k * x for t, x in zip(target, col)]
            last = [t - sum(v[i] for v in block) for i, t in enumerate(target)]
            if any(last):
                break
        placed += block + [last]
    rng.shuffle(placed)
    return placed


def _matrix_rows(cols):
    return [list(r) for r in zip(*cols)]


def _presented(rng, equation):
    """A seeded but equivalent presentation: permuted columns and each row
    scaled by a nonzero integer."""
    if equation[0] == "ap":
        length = equation[1]
        rows = []
        for i in range(length - 2):
            row = [0] * length
            row[i], row[i + 1], row[i + 2] = 1, -2, 1
            rows.append(row)
    else:
        rows = [list(equation)]
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    out = []
    for row in rows:
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        out.append([k * row[j] for j in perm])
    return out


def _solutions(equation, horizon):
    if equation[0] == "ap":
        return naive.ap_solutions(equation[1], horizon)
    return naive.equation_solutions(list(equation), list(range(1, horizon + 1)),
                                    nontrivial=sum(equation) == 0)


def _columns_job(lib, job_id, rows):
    rado = lib.rado
    matrix = lib.RationalMatrix.from_rows(rows)

    def call():
        cert = rado.columns_condition(matrix)
        verified = rado.verify_certificate(matrix, cert) if cert else None
        return cert, verified

    def check(result):
        cert, verified = result
        if cert is None:
            return "regular matrix refuted" if naive.columns_regular(rows) else None
        if verified is not True:
            return "library verifier rejected the certificate"
        if not naive.certificate_holds(rows, cert.blocks, cert.coefficients):
            return "certificate fails the naive check"
        return None

    return Job(job_id, call, check)


def _oracle_job(lib, job_id, rows, coeffs, horizon):
    rado = lib.rado
    matrix = lib.RationalMatrix.from_rows(rows)
    nontrivial = sum(coeffs) == 0

    def call():
        return rado.empirical_pr(matrix, 2, horizon)

    def check(result):
        sols = naive.equation_solutions(list(coeffs), list(range(1, horizon + 1)),
                                        nontrivial)
        expected = naive.coloring_search(sols, horizon, 2)
        got = result.witness.colors if result.witness else None
        if result.nontrivial != nontrivial:
            return "wrong nontriviality default"
        if (result.verdict == "witness") != (got is not None):
            return f"verdict {result.verdict} disagrees with its witness"
        if got != expected:
            return f"oracle answer {got} differs from naive {expected}"
        return None

    return Job(job_id, call, check)


def _forcing_job(lib, job_id, rows, equation, colors, forced_at, max_horizon):
    rado = lib.rado
    matrix = lib.RationalMatrix.from_rows(rows)

    def call():
        return rado.forcing_number(matrix, colors, max_horizon)

    def check(report):
        if report.forced_at != forced_at:
            return f"forced at {report.forced_at}, known value {forced_at}"
        wit = report.extremal_witness
        n = forced_at - 1
        if n == 0:
            return None if wit is None else "witness on an empty window"
        if wit is None or wit.horizon != n or wit.color_count != colors:
            return "missing or misshapen extremal witness"
        if naive.monochromatic(_solutions(equation, n), wit.colors):
            return "extremal witness has a monochromatic solution"
        return None

    return Job(job_id, call, check)


KNOWN_DEFECTS = ()


def build(lib, rng, tiny=False, corrupt=False, tracer=None):
    jobs = []
    for i, (rows, cols) in enumerate(SHAPES[:4] if tiny else SHAPES):
        built = _regular_columns(rng, rows, cols)
        drawn = [_vec(rng, rows, -6, 6) for _ in range(cols)]
        jobs.append(_columns_job(lib, f"columns-{i}-regular", _matrix_rows(built)))
        jobs.append(_columns_job(lib, f"columns-{i}-drawn", _matrix_rows(drawn)))
    for i, coeffs in enumerate(ORACLE_POOL[:4] if tiny else ORACLE_POOL):
        # the horizon is fixed per equation: the enumeration costs N^2
        horizon = 24 + i % 7
        jobs.append(_oracle_job(lib, f"oracle-{i}", _presented(rng, coeffs),
                                coeffs, horizon))
    for label, equation, colors, forced_at, copies in FORCING:
        if tiny and label not in TINY_FORCING:
            continue
        if corrupt and label == "W(2;3)":
            forced_at += 1  # a wrong expected answer: the job must fail
        for c in range(copies):
            rows = _presented(rng, equation)
            max_horizon = forced_at + rng.randint(1, 8)
            jobs.append(_forcing_job(lib, f"forcing-{label}-{c}", rows, equation,
                                     colors, forced_at, max_horizon))
    rng.shuffle(jobs)
    return jobs
