"""`cli`: fresh-process `ramseykit` calls covering all 20 subcommands.

Why: the kernel work is kept small, so most of the time goes to interpreter
start-up, importing the package, building the argparse parser, parsing the
expressions and emitting JSON.  This is the only workload where the `cli`
layer and the module import are more than noise.  One child runs at a
time.  Error-path calls with malformed input (set, matrix, target) must
exit 1 without a traceback and a tight --budget must exit 2.

Known defect: `--target arc:0` ends in a traceback (a ValueError from the
target parser), so that job fails at this commit.  It stays in the mix.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from common import Crash, Job
import naive

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
VARIANTS = 2  # calls per subcommand per batch

# job id prefixes that may fail at this commit, for the self-test: the
# arc:0 traceback, and strauss_set's density assertion (see README.md)
KNOWN_DEFECTS = ("error-target-arc0", "dyn-strauss-")

SCHUR = {1: 1, 2: 4, 3: 13}
VDW = {(2, 3): 9, (1, 3): 3, (1, 4): 4, (1, 5): 5}


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str


class Files:
    """Input files of one setup.  Paths are given relative to the checkout
    root, the children's working directory, because reports echo them and
    the digests must not depend on where the checkout lives."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, suffix, text):
        self.count += 1
        path = self.dir / f"in{self.count}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))


def _matrix_text(rows):
    return f"{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(str(v) for v in row) + "\n" for row in rows)


def _coeffs(rng, bound=3):
    while True:
        c = [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(3)]
        if min(c) < 0 < max(c):
            return c


def _set_expr(rng, files, lo, hi, kinds=("all", "odds", "evens", "mod", "file")):
    """(expression, sorted members, horizon) of a seeded set expression."""
    kind = rng.choice(kinds)
    n = rng.randint(lo, hi)
    if kind == "mod":
        m = rng.randint(2, 5)
        r = rng.randint(0, m - 1)
        members = [x for x in range(1, n + 1) if x % m == r]
        return f"mod:{r},{m},{n}", members, n
    if kind == "file":
        members = sorted(rng.sample(range(1, n + 1), rng.randint(n // 3, n // 2)))
        path = files.write(".txt", "\n".join(map(str, [n] + members)) + "\n")
        return f"file:{path}", members, n
    start, step = {"all": (1, 1), "odds": (1, 2), "evens": (2, 2)}[kind]
    return f"{kind}:{n}", list(range(start, n + 1, step)), n


def _ok(cond, reason):
    return None if cond else reason


# ---------------------------------------------------------------------------
# one generator per subcommand: (rng, files, lib) -> (argv, validator)

def _rado_check(rng, files, lib):
    if rng.random() < 0.5:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[a, b, -(a + b)] if rng.random() < 0.5 else [a, b, -a]]
    else:
        rows = [[rng.randint(-5, 5) or 1 for _ in range(4)] for _ in range(2)]
    path = files.write(".mat", _matrix_text(rows))

    def validate(rep):
        if not rep["partition_regular"]:
            return _ok(not naive.columns_regular(rows), "regular matrix refuted")
        cert = lib.ColumnsCertificate.from_json_dict(rep["certificate"])
        matrix = lib.RationalMatrix.from_rows(rows)
        if not lib.verify_certificate(matrix, cert):
            return "library verifier rejected the certificate"
        return _ok(naive.certificate_holds(rows, cert.blocks, cert.coefficients),
                   "certificate fails the naive check")

    return ["rado", "check", "--matrix", path], validate


def _rado_empirical(rng, files, lib):
    coeffs = _coeffs(rng)
    n = rng.randint(8, 14)
    path = files.write(".mat", _matrix_text([coeffs]))
    nontrivial = sum(coeffs) == 0

    def validate(rep):
        sols = naive.equation_solutions(coeffs, list(range(1, n + 1)), nontrivial)
        expected = naive.coloring_search(sols, n, 2)
        wit = rep["witness"]
        got = tuple(wit["colors"]) if wit else None
        return _ok(got == expected and rep["nontrivial"] == nontrivial
                   and rep["verdict"] == ("witness" if expected else "forced"),
                   f"oracle answer {got}, naive {expected}")

    return ["rado", "empirical", "--matrix", path, "--colors", "2",
            "--horizon", str(n)], validate


def _rado_solve(rng, files, lib):
    coeffs = rng.choice([[1, 1, -1], [1, 1, -2], [1, 2, -1], [2, 1, -3]])
    path = files.write(".mat", _matrix_text([coeffs]))
    expr, members, _n = _set_expr(rng, files, 20, 60)
    nontrivial = sum(coeffs) == 0

    def validate(rep):
        expected = naive.least_solution(coeffs, members, nontrivial)
        got = tuple(rep["solution"]) if rep["solution"] else None
        return _ok(got == expected, f"solution {got}, naive {expected}")

    return ["rado", "solve", "--matrix", path, "--set", expr], validate


def _forcing_validate(rep, key, expected, colors, solutions):
    if rep[key] != expected:
        return f"{key} {rep[key]}, known value {expected}"
    wit = rep["extremal_witness"]
    if wit is None or wit["color_count"] != colors:
        return "missing extremal witness"
    sols = solutions(wit["horizon"])
    return _ok(not naive.monochromatic(sols, wit["colors"]),
               "extremal witness has a monochromatic solution")


def _rado_schur(rng, files, lib):
    colors = rng.randint(1, 3)
    top = SCHUR[colors] + 1 + rng.randint(0, 5)

    def validate(rep):
        return _forcing_validate(
            rep, "schur_number", SCHUR[colors], colors,
            lambda n: naive.equation_solutions([1, 1, -1], list(range(1, n + 1)),
                                               False))

    return ["rado", "schur-number", "--colors", str(colors), "--max",
            str(top)], validate


def _rado_vdw(rng, files, lib):
    colors, length = rng.choice(sorted(VDW))
    expected = VDW[(colors, length)]

    def validate(rep):
        return _forcing_validate(rep, "vdw_number", expected, colors,
                                 lambda n: naive.ap_solutions(length, n))

    return ["rado", "vdw-number", "--colors", str(colors), "--length", str(length),
            "--max", str(expected + rng.randint(0, 5))], validate


def _tower_args(rng, m_max=2):
    m, p, c = rng.randint(0, m_max), rng.randint(1, 2), rng.randint(1, 3)
    gens = [rng.randint(1, 5)]
    for _ in range(m):
        low = -(-(p * sum(gens) + 1) // c)
        gens.append(rng.randint(low, low + 5))
    return m, p, c, gens


def _mpc_gen(rng, files, lib):
    m, p, c, gens = _tower_args(rng)

    def validate(rep):
        rows = sum((2 * p + 1) ** k for k in range(m + 1))
        return _ok(rep["values"] == naive.tower_values(m, p, c, gens)
                   and rep["row_count"] == rows, "tower values differ")

    return ["mpc", "gen", "--m", str(m), "--p", str(p), "--c", str(c),
            "--generators", ",".join(map(str, gens))], validate


def _mpc_verify(rng, files, lib):
    m, p, c, gens = _tower_args(rng, 1)
    expr, members, _n = _set_expr(rng, files, 40, 120)

    def validate(rep):
        expected = set(naive.tower_values(m, p, c, gens)) <= set(members)
        return _ok(rep["contained"] == expected, "containment verdict differs")

    return ["mpc", "verify", "--set", expr, "--m", str(m), "--p", str(p),
            "--c", str(c), "--generators", ",".join(map(str, gens))], validate


def _mpc_find(rng, files, lib):
    m, p, c = rng.randint(0, 1), 1, rng.randint(1, 2)
    bound = rng.randint(10, 25)
    expr, members, _n = _set_expr(rng, files, 20, 60)
    allowed = set(members)

    def validate(rep):
        expected = None
        for gens in _tuples(bound, m + 1):
            values = naive.tower_values(m, p, c, gens)
            if values[0] >= 1 and set(values) <= allowed:
                expected = list(gens)
                break
        return _ok(rep["generators"] == expected,
                   f"generators {rep['generators']}, naive {expected}")

    return ["mpc", "find", "--set", expr, "--m", str(m), "--p", str(p),
            "--c", str(c), "--bound", str(bound)], validate


def _tuples(bound, width):
    if width == 0:
        yield ()
        return
    for s in range(1, bound + 1):
        for rest in _tuples(bound, width - 1):
            yield (s,) + rest


def _ip_rule(rng):
    kind = rng.choice(["const", "arith", "geom"])
    if kind == "const":
        k = rng.randint(1, 5)
        return f"const:{k}", lambda n: k
    if kind == "arith":
        a, d = rng.randint(1, 4), rng.randint(1, 3)
        return f"arith:{a},{d}", lambda n: a + n * d
    a, r = rng.randint(1, 3), rng.randint(2, 3)
    return f"geom:{a},{r}", lambda n: a * r ** n


def _fs_enum(rng, files, lib):
    rule, term = _ip_rule(rng)
    k = rng.randint(3, 10)
    sums = sorted(naive.subset_sums([term(n) for n in range(k)]))

    def validate(rep):
        win = rep["window"]
        return _ok(win["members"] == sums and win["horizon"] == sums[-1],
                   "finite sums differ")

    return ["fs", "enum", "--spec", rule, "--k", str(k)], validate


def _fs_divisible(rng, files, lib):
    rule, term = _ip_rule(rng)
    modulus, count = rng.randint(2, 5), rng.randint(1, 3)
    horizon = modulus * count + rng.randint(0, 4)
    terms = [term(n) for n in range(horizon)]

    def validate(rep):
        alphas = rep["alphas"]
        if len(alphas) != count or any(
                a[-1] >= b[0] for a, b in zip(alphas, alphas[1:])):
            return "not a chain of the requested length"
        sums = [sum(terms[i - 1] for i in a) for a in alphas]
        return _ok(rep["terms"] == sums and all(s % modulus == 0 for s in sums),
                   "sums wrong or not divisible")

    return ["fs", "divisible", "--spec", rule, "--horizon", str(horizon),
            "--modulus", str(modulus), "--count", str(count)], validate


def _fs_zerosum(rng, files, lib):
    values = [rng.randint(1, 30) for _ in range(rng.randint(2, 7))]
    modulus = rng.randint(2, 9)

    def validate(rep):
        idx = rep["indices"]
        if idx is None:
            return _ok(not any(s % modulus == 0 for s in naive.subset_sums(values)),
                       "a zero-sum subset was missed")
        total = sum(values[i - 1] for i in idx)
        return _ok(total % modulus == 0 and rep["subset_sum"] == total,
                   "subset sum wrong or not divisible")

    return ["fs", "zerosum", "--values", ",".join(map(str, values)),
            "--modulus", str(modulus)], validate


def _rot(rng):
    q = rng.randint(3, 50)
    p = rng.randint(1, q - 1)
    return Fraction(p, q)


def _arc_args(rng):
    lo = Fraction(rng.randint(0, 9), 10)
    hi = lo + Fraction(1, rng.randint(3, 8))
    return lo, hi


def _dyn_orbit(rng, files, lib):
    horizon = rng.randint(50, 300)
    kind = rng.choice(["rot", "shift", "prod"])
    if kind == "rot":
        angle, (lo, hi) = _rot(rng), _arc_args(rng)
        point = Fraction(rng.randint(0, 5), 6)
        expected = naive.rotation_hits(angle, point, lo, hi - lo, horizon)
        args = [f"rot:{angle}", str(point), f"arc:{lo},{hi}"]
    elif kind == "shift":
        start = rng.randint(0, 3)
        bits = "".join(rng.choice("01") for _ in range(start + horizon + 4))
        cyl = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        system = f"shift:{bits}"
        if rng.random() < 0.5:
            system = "shift:file=" + files.write(".bits", bits + "\n")
        expected = naive.shift_hits(bits, start, cyl, horizon), []
        args = [system, str(start), f"cyl:{cyl}"]
    else:
        a, b = _rot(rng), _rot(rng)
        (lo1, hi1), (lo2, hi2) = _arc_args(rng), _arc_args(rng)
        expected = naive.product_hits(
            naive.rotation_hits(a, Fraction(0), lo1, hi1 - lo1, horizon),
            naive.rotation_hits(b, Fraction(0), lo2, hi2 - lo2, horizon))
        args = [f"prod:(rot:{a};rot:{b})", "0;0",
                f"arc:{lo1},{hi1};arc:{lo2},{hi2}"]

    def validate(rep):
        return _ok((rep["hits"], rep["boundary_hits"]) == tuple(expected),
                   "return times differ from the integer recount")

    return ["dyn", "orbit", "--system", args[0], "--point", args[1],
            "--target", args[2], "--horizon", str(horizon)], validate


def _dyn_product(rng, files, lib):
    horizon = rng.randint(50, 300)
    a, b = _rot(rng), _rot(rng)
    x, y = Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4)
    (lo1, hi1), (lo2, hi2) = _arc_args(rng), _arc_args(rng)
    expected = naive.product_hits(
        naive.rotation_hits(a, x, lo1, hi1 - lo1, horizon),
        naive.rotation_hits(b, y, lo2, hi2 - lo2, horizon))

    def validate(rep):
        return _ok((rep["hits"], rep["boundary_hits"]) == tuple(expected),
                   "return times differ from the integer recount")

    return ["dyn", "product", "--system-a", f"rot:{a}", "--system-b", f"rot:{b}",
            "--point-a", str(x), "--point-b", str(y),
            "--target-a", f"arc:{lo1},{hi1}", "--target-b", f"arc:{lo2},{hi2}",
            "--horizon", str(horizon)], validate


def _dyn_density(rng, files, lib):
    expr, members, n = _set_expr(rng, files, 50, 300)
    width = rng.randint(5, 40)

    def validate(rep):
        start, count = naive.density(members, n, width)
        return _ok((rep["best_start"], rep["count"], rep["estimate"])
                   == (start, count, str(Fraction(count, width))),
                   "density differs from the recount")

    return ["dyn", "density", "--set", expr, "--window", str(width)], validate


def _dyn_gaps(rng, files, lib):
    expr, members, n = _set_expr(rng, files, 50, 300)

    def validate(rep):
        return _ok(rep["max_gap"] == naive.max_gap(members, n), "gap differs")

    return ["dyn", "gaps", "--set", expr], validate


def _dyn_pws(rng, files, lib):
    expr, members, n = _set_expr(rng, files, 50, 300)
    shifts, length = rng.randint(0, 4), rng.randint(5, 40)

    def validate(rep):
        witness, best_len, best_start = naive.covered_runs(members, n, shifts, length)
        got = (rep["contains_interval"], rep["witness_start"], rep["best_length"],
               rep["best_start"])
        return _ok(got == (witness is not None, witness, best_len, best_start),
                   "piecewise-syndetic report differs from the recount")

    return ["dyn", "pws", "--set", expr, "--shifts", str(shifts),
            "--length", str(length)], validate


def _dyn_strauss(rng, files, lib):
    eps = Fraction(1, rng.randint(2, 10))
    horizon = rng.randint(32, 600)
    members, witnesses = naive.strauss(eps, horizon)

    def validate(rep):
        return _ok(rep["window"]["members"] == members
                   and rep["witnesses"] == [list(w) for w in witnesses]
                   and Fraction(rep["density"]) >= 1 - eps,
                   "Strauss set differs from the recount")

    return ["dyn", "strauss", "--epsilon", str(eps), "--horizon",
            str(horizon)], validate


def _cst_inputs(rng, files):
    """A multiples-of-m window, IP rules with terms divisible by m, and a
    witness that holds by construction."""
    m = rng.randint(2, 4)
    n = rng.randint(100, 300)
    h, depth = rng.randint(4, 6), rng.randint(2, 3)
    rules = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            rules.append((f"const:{m * rng.randint(1, 2)}", None))
        else:
            rules.append((f"arith:{m},{m}", None))
    terms = []
    for rule, _ in rules:
        kind, _, rest = rule.partition(":")
        vals = [int(v) for v in rest.split(",")]
        terms.append([vals[0]] * h if kind == "const"
                     else [vals[0] + i * vals[1] for i in range(h)])
    expr = f"mod:0,{m},{n}" if m != 2 else f"evens:{n}"
    members = set(range(m, n + 1, m))
    built = ([m] * depth, [(i,) for i in range(1, depth + 1)])
    return expr, members, ";".join(r for r, _ in rules), h, depth, terms, built


def _cst_search(rng, files, lib):
    expr, members, specs, h, depth, terms, built = _cst_inputs(rng, files)

    def validate(rep):
        wit = rep["witness"]
        if wit is None:
            return _ok(not naive.cst_witness_holds(members, terms, *built),
                       "refuted a window that holds a known witness")
        window = lib.SetWindow.from_members(max(members), members)
        specs_obj = [lib.IPSystemSpec.from_terms(t) for t in terms]
        if not lib.verify_cst_witness(window, specs_obj,
                                      lib.CstWitness.from_json_dict(wit)):
            return "library verifier rejected the witness"
        return _ok(naive.cst_witness_holds(members, terms, wit["a_values"],
                                           wit["alphas"]),
                   "witness fails the naive check")

    return ["cst", "search", "--set", expr, "--specs", specs, "--depth",
            str(depth), "--spec-horizon", str(h)], validate


def _cst_verify(rng, files, lib):
    expr, members, specs, h, depth, terms, (a_values, alphas) = \
        _cst_inputs(rng, files)
    if rng.random() < 0.5:
        a_values = list(a_values)
        a_values[rng.randrange(depth)] += 1  # breaks divisibility by m
    payload = {"depth": depth, "a_values": a_values,
               "alphas": [list(a) for a in alphas], "system_count": len(terms)}
    path = files.write(".json", json.dumps(payload))
    expected = naive.cst_witness_holds(members, terms, a_values, alphas)

    def validate(rep):
        return _ok(rep["accepted"] == expected, "verdict differs from the naive check")

    return ["cst", "verify", "--set", expr, "--specs", specs, "--spec-horizon",
            str(h), "--witness", path], validate


def _cst_mpc(rng, files, lib):
    kind = rng.choice(["all", "evens"])
    n = rng.randint(100, 300)
    members = set(range(1, n + 1)) if kind == "all" else set(range(2, n + 1, 2))
    m, p, c = rng.choice([(0, 1, 1), (0, 2, 2), (1, 1, 1), (1, 2, 1), (1, 1, 2)])

    def validate(rep):
        if rep["verdict"] != "found":
            return "pipeline gave no tower (not checkable)"
        gens = rep["generators"]
        return _ok(gens == [f[0] for f in rep["families"]]
                   and naive.tower_holds(members, m, p, c, gens, rep["values"]),
                   "tower fails the naive check")

    return ["cst", "mpc", "--set", f"{kind}:{n}", "--m", str(m), "--p", str(p),
            "--c", str(c)], validate


SUBCOMMANDS = {
    "rado-check": _rado_check, "rado-empirical": _rado_empirical,
    "rado-solve": _rado_solve, "rado-schur": _rado_schur, "rado-vdw": _rado_vdw,
    "mpc-gen": _mpc_gen, "mpc-verify": _mpc_verify, "mpc-find": _mpc_find,
    "fs-enum": _fs_enum, "fs-divisible": _fs_divisible, "fs-zerosum": _fs_zerosum,
    "dyn-orbit": _dyn_orbit, "dyn-product": _dyn_product,
    "dyn-density": _dyn_density, "dyn-gaps": _dyn_gaps, "dyn-pws": _dyn_pws,
    "dyn-strauss": _dyn_strauss, "cst-search": _cst_search,
    "cst-verify": _cst_verify, "cst-mpc": _cst_mpc,
}


def _error_calls(rng, files):
    """(id, argv, exit code) of the error-path and budget calls."""
    schur = files.write(".mat", _matrix_text([[1, 1, -1]]))
    short = files.write(".mat", "1 3\n1 1\n")
    word = files.write(".mat", "1 3\n1 x -1\n")
    n = rng.randint(10, 99)
    rot = f"rot:{_rot(rng)}"
    return [
        ("error-set-number", ["rado", "solve", "--matrix", schur,
                              "--set", f"odds:{n}x"], 1),
        ("error-set-arity", ["dyn", "gaps", "--set", f"mod:1,{n}"], 1),
        ("error-matrix-short", ["rado", "check", "--matrix", short], 1),
        ("error-matrix-word", ["rado", "empirical", "--matrix", word, "--colors",
                               "2", "--horizon", str(rng.randint(3, 9))], 1),
        ("error-target-kind", ["dyn", "orbit", "--system", rot, "--point", "0",
                               "--target", f"disc:0,1/{rng.randint(2, 9)}",
                               "--horizon", str(n)], 1),
        # known defect: arc:0 escapes the target parser as a traceback
        ("error-target-arc0", ["dyn", "orbit", "--system", rot, "--point", "0",
                               "--target", "arc:0", "--horizon", str(n)], 1),
        ("budget-empirical", ["rado", "empirical", "--matrix", schur, "--colors",
                              "2", "--horizon", str(rng.randint(10, 14)),
                              "--budget", str(rng.randint(1, 5))], 2),
        ("budget-cst", ["cst", "search", "--set", f"odds:{rng.randint(150, 300)}",
                        "--specs", "const:1", "--depth", "2", "--spec-horizon",
                        "6", "--budget", str(rng.randint(20, 200))], 2),
    ]


def _cli_job(job_id, argv, want_code, validate, tracer, out_dir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    counter = [0]

    def call():
        if tracer is None:
            cmd = [sys.executable, "-m", "ramseykit.cli"] + argv
        else:
            counter[0] += 1
            spans_file = out_dir / f"spans-{job_id}-{counter[0]}.json"
            tracer.child_files.append(spans_file)
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(spans_file)] + argv
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(done.stdout.encode())
        return Proc(done.returncode, done.stdout, done.stderr)

    def check(proc):
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            return Crash(f"traceback: {last}")
        if proc.code != want_code:
            return f"exit status {proc.code}, expected {want_code}"
        if want_code == 1:
            return _ok(proc.stdout == "", "error path wrote a report")
        report = json.loads(proc.stdout)
        if want_code == 2:
            return _ok(report.get("verdict") == "budget-exceeded",
                       "budget exit without the budget verdict")
        return validate(report)

    return Job(job_id, call, check,
               answer=lambda proc: {"exit": proc.code, "stdout": proc.stdout})


def build(lib, rng, tiny=False, corrupt=False, tracer=None):
    files = Files(ROOT / ".bench_out" / "cli")
    jobs = []
    for name, make in SUBCOMMANDS.items():
        for v in range(1 if tiny else VARIANTS):
            argv, validate = make(rng, files, lib)
            jobs.append(_cli_job(f"{name}-{v}", argv, 0, validate, tracer, files.dir))
    for job_id, argv, code in _error_calls(rng, files):
        jobs.append(_cli_job(job_id, argv, code, None, tracer, files.dir))
    rng.shuffle(jobs)
    return jobs
