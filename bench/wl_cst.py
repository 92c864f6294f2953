"""`cst`: Central Sets Theorem witness searches and the tower pipeline.

Why: a few small windows are queried millions of times, through the
admissible-set rebuild and the candidate loop of `cst_search`.  Parity and
residue refutations take most of the time and are two thirds of the jobs,
so they set wall_s, job_ms.p50 and job_ms.tail; witness searches and
towers are quick.  No `rado` or `exactq` calls happen here.
"""

from __future__ import annotations

from fractions import Fraction

from common import Job
import naive

# Refutations: (window kind, modulus, spec horizon, IP rule kinds, horizon).
# The horizon is set per slot so that every slot costs about the same, and
# the seed only draws parameters that barely change the cost.
REFUTATIONS = [
    ("odds", 2, 6, ("const",), 220), ("odds", 2, 7, ("arith",), 200),
    ("odds", 2, 8, ("geom",), 180), ("odds", 2, 6, ("geom",), 280),
    ("mod", 3, 6, ("const",), 340), ("mod", 3, 7, ("arith",), 300),
    ("mod", 3, 8, ("geom",), 290), ("mod", 3, 6, ("arith",), 350),
    ("mod", 4, 6, ("const",), 450), ("mod", 4, 7, ("geom",), 420),
    ("mod", 4, 8, ("arith",), 360), ("mod", 4, 6, ("geom",), 480),
    ("mod", 5, 6, ("const",), 630), ("mod", 5, 7, ("arith",), 530),
    ("mod", 5, 8, ("const",), 450), ("mod", 5, 6, ("geom",), 630),
    ("odds", 2, 6, ("const", "const"), 180), ("mod", 3, 6, ("const", "const"), 270),
    ("odds", 2, 7, ("const", "const"), 160), ("mod", 4, 6, ("const", "const"), 360),
]
WITNESS_KINDS = ["multiples", "evens", "fs3", "fs2", "rotation"]
WITNESS_JOBS = 14
# (m, p, c) that the pipeline completes on the tower windows below; slot i
# uses entry i, since deeper towers cost more.
TOWER_PARAMS = [(0, 1, 1), (0, 1, 2), (0, 2, 3), (1, 1, 1), (1, 2, 1),
                (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1)]
TOWER_JOBS = 6


def _spec_text(rng, unit, kind=None):
    """An IP rule whose terms are all multiples of `unit`."""
    kind = kind or rng.choice(["const", "arith", "geom"])
    if kind == "const":
        return f"const:{unit * rng.randint(1, 2)}"
    if kind == "arith":
        a, d = rng.choice([(1, 1), (2, 1), (2, 2)])
        return f"arith:{unit * a},{unit * d}"
    return f"geom:{unit * rng.randint(1, 2)},2"


def _rotation_window(lib, q, p, eps, horizon):
    """Return times of 0 under rotation by p/q to [-eps, eps), computed
    here in integers; every multiple of q is among them."""
    den = q * eps.denominator
    step, width = p * eps.denominator, eps.numerator * q
    members = [n for n in range(1, horizon + 1)
               if (n * step + width) % den < 2 * width]
    return lib.SetWindow.from_members(horizon, members)


def _construction(kind, unit, depth):
    """(a_values, alphas) of a witness known to exist, or None."""
    alphas = [(i,) for i in range(1, depth + 1)]
    if kind == "fs3":
        return [3 ** i - 2 for i in range(1, depth + 1)], alphas
    return [unit] * depth, alphas


def _search_job(lib, job_id, window, specs, depth, expect):
    """expect: "refute" or ("witness", construction)."""
    members = set(window.members)
    spec_terms = [list(s.terms) for s in specs]

    def call():
        wit = lib.cst.cst_search(window, specs, depth)
        verified = lib.cst.verify_cst_witness(window, specs, wit) if wit else None
        return wit, verified

    def check(result):
        wit, verified = result
        if wit is None:
            if expect == "refute":
                if naive.residue_refutes(members, depth):
                    return None
                return "refutation without a residue certificate"
            a_values, alphas = expect[1]
            if naive.cst_witness_holds(members, spec_terms, a_values, alphas):
                return "refuted a window that holds a known witness"
            return "refutation could not be checked"
        if verified is not True:
            return "library verifier rejected the witness"
        alphas = [a.members for a in wit.alphas]
        if wit.depth != depth or not naive.cst_witness_holds(
                members, spec_terms, wit.a_values, alphas):
            return "witness fails the naive check"
        return None

    return Job(job_id, call, check)


def _tower_job(lib, job_id, window, m, p, c):
    members = set(window.members)

    def call():
        res = lib.cst.mpc_from_cst(window, m, p, c)
        ok = lib.deuber.verify_mpc(window, res.params, res.system.generators) \
            if res else None
        return res, ok

    def check(result):
        res, ok = result
        if res is None:
            return "pipeline gave no tower (not checkable)"
        gens = res.system.generators
        if ok is not True:
            return "library verifier rejected the tower"
        if list(gens) != [f[0] for f in res.families]:
            return "generators are not the families' first members"
        if not naive.tower_holds(members, m, p, c, gens, res.system.values):
            return "tower fails the naive check"
        return None

    return Job(job_id, call, check)


def _witness_inputs(lib, rng, kind, h, depth):
    """(window, specs, depth, construction) for a witness search."""
    while True:
        if kind == "fs3":
            k = rng.randint(depth + 2, 8)
            window = lib.SetWindow.from_expression(f"fs:geom:1,3,{k}")
            texts, unit = ["const:2"], 1
        else:
            if kind == "multiples":
                unit = rng.randint(3, 6)
                n = rng.randint(300, 1000)
                window = lib.SetWindow.from_expression(f"mod:0,{unit},{n}")
            elif kind == "evens":
                unit = 2
                window = lib.SetWindow.from_expression(
                    f"evens:{rng.randint(200, 1000)}")
            elif kind == "fs2":
                unit = 1
                window = lib.SetWindow.from_expression(
                    f"fs:geom:1,2,{rng.randint(8, 10)}")
            else:
                unit = rng.randint(3, 9)
                p = rng.choice([j for j in range(1, unit) if _coprime(j, unit)])
                eps = Fraction(1, rng.randint(2 * unit + 1, 4 * unit))
                window = _rotation_window(lib, unit, p, eps, rng.randint(100, 600))
            texts = [_spec_text(rng, unit) for _ in range(rng.randint(1, 2))]
        specs = [lib.IPSystemSpec.parse(t, horizon=h) for t in texts]
        terms = [list(s.terms) for s in specs]
        built = _construction(kind, unit, depth)
        if naive.cst_witness_holds(set(window.members), terms, *built):
            return window, specs, depth, built


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


KNOWN_DEFECTS = ()


def build(lib, rng, tiny=False, corrupt=False, tracer=None):
    jobs = []
    # refutations run twice over the slot table at two sizes, so they are
    # the majority and the batch median lands inside them
    slots = REFUTATIONS[:3] if tiny else [
        (kind, mod, h, rules, round(horizon * scale))
        for scale in (0.8, 0.6) for kind, mod, h, rules, horizon in REFUTATIONS]
    for i, (kind, mod, h, rules, horizon) in enumerate(slots):
        n = round(horizon * rng.uniform(0.97, 1.03)) // (4 if tiny else 1)
        residue = 1 if kind == "odds" else rng.randint(1, mod - 1)
        expr = f"odds:{n}" if kind == "odds" else f"mod:{residue},{mod},{n}"
        window = lib.SetWindow.from_expression(expr)
        specs = [lib.IPSystemSpec.parse(_spec_text(rng, 1, rule), horizon=h)
                 for rule in rules]
        jobs.append(_search_job(lib, f"refute-{i}", window, specs,
                                rng.randint(2, 4), "refute"))
    for i in range(5 if tiny else WITNESS_JOBS):
        # the kind, spec horizon and depth are fixed per slot: the candidate
        # count grows as 2^h, so drawing h would make the batch's cost vary
        kind = WITNESS_KINDS[i % len(WITNESS_KINDS)]
        h, depth = 6 + i % 3, 2 + i % 3
        window, specs, depth, built = _witness_inputs(lib, rng, kind, h, depth)
        jobs.append(_search_job(lib, f"witness-{i}-{kind}", window, specs, depth,
                                ("witness", built)))
    tower_windows = ["all:{}", "fs:geom:1,2,{}", "fs:arith:1,1,{}", "evens:{}",
                     "mod:0,3,{}"]
    sizes = [(200, 800), (8, 10), (12, 20), (200, 800), (300, 900)]
    for i in range(2 if tiny else TOWER_JOBS):
        w = rng.randrange(len(tower_windows))
        window = lib.SetWindow.from_expression(
            tower_windows[w].format(rng.randint(*sizes[w])))
        m, p, c = TOWER_PARAMS[i % len(TOWER_PARAMS)]
        jobs.append(_tower_job(lib, f"tower-{i}", window, m, p, c))
    rng.shuffle(jobs)
    return jobs
