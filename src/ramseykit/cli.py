"""Command-line front end.

One batch process per invocation.  Reports go to stdout as canonical JSON
(sorted keys, compact separators) so identical inputs give byte-identical
output; wall-clock timing goes to stderr where it cannot break that
contract.  Exit status: 0 for any definite verdict (including "absent"),
2 when a search budget ran out, 1 for input errors and bad usage.

Every subcommand is one row of `COMMANDS`; `run` adds the subcommand name and
the row's echoed inputs to the fields its handler returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

# modules, not names: each module runs only when a handler first reads it
from . import cst as cstmod, deuber, dynsets, exactq, ipcore, rado, windows
from .errors import (DEFAULT_COLORING_BUDGET, DEFAULT_CST_BUDGET, FS_PREFIX_CAP,
                     BudgetExceededError, DegenerateMatrixError, InputError,
                     fields, read_text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _window_payload(window: windows.SetWindow) -> dict:
    payload = {"horizon": window.horizon, "count": len(window)}
    if len(window) <= 10000:
        payload["members"] = list(window.members)
        payload["members_omitted"] = False
    else:
        payload["members_omitted"] = True
    return payload


def _coloring_payload(coloring):
    return None if coloring is None else asdict(coloring)


def _load_matrix(path: str) -> exactq.RationalMatrix:
    return exactq.RationalMatrix.from_text(read_text(path, "matrix file"))


def _parse_specs(text: str, horizon) -> list:
    return [ipcore.IPSystemSpec.parse(p, horizon=horizon)
            for p in text.split(";") if p.strip()]


_NONTRIVIAL = {"auto": None, "on": True, "off": False}


# handlers: each returns its own report fields

def _rado_check(args):
    matrix = _load_matrix(args.matrix)
    try:
        cert = rado.columns_condition(matrix)
    except DegenerateMatrixError as exc:
        return {"degenerate": True, "note": str(exc),
                "partition_regular": True, "certificate": None}
    if cert is not None:
        assert rado.verify_certificate(matrix, cert)
    return {"degenerate": False, "partition_regular": cert is not None,
            "certificate": cert.to_json_dict() if cert is not None else None}


def _rado_empirical(args):
    result = rado.empirical_pr(
        _load_matrix(args.matrix), args.colors, args.horizon,
        nontrivial=_NONTRIVIAL[args.nontrivial], distinct=args.distinct,
        budget=args.budget)
    return {"verdict": result.verdict, "nontrivial": result.nontrivial,
            "witness": _coloring_payload(result.witness)}


def _rado_solve(args):
    matrix = _load_matrix(args.matrix)
    window = windows.SetWindow.from_expression(args.set)
    nontrivial = _NONTRIVIAL[args.nontrivial]
    if nontrivial is None:
        nontrivial = rado.default_nontrivial(matrix)
    found = rado.solve_in_cell(
        matrix, window, nontrivial=nontrivial, distinct=args.distinct
    )
    return {"nontrivial": nontrivial, "distinct": args.distinct,
            "solution": list(found.values) if found else None}


def _sweep_payload(report, forced_key: str, last_key: str) -> dict:
    """A forcing sweep's report, under the subcommand's key names."""
    forced = report.forced_at
    return {
        "nontrivial": report.nontrivial,
        forced_key: forced,
        last_key: forced - 1 if forced else None,
        "extremal_witness": _coloring_payload(report.extremal_witness),
    }


def _rado_schur(args):
    report = rado.schur_number(args.colors, args.max, budget=args.budget)
    return _sweep_payload(report, "forced_at", "schur_number")


def _rado_vdw(args):
    report = rado.vdw_number(args.colors, args.length, args.max,
                             budget=args.budget)
    return _sweep_payload(report, "vdw_number", "witness_at")


def _mpc_params(args) -> deuber.MpcParams:
    return deuber.MpcParams(args.m, args.p, args.c)


def _mpc_gen(args):
    params = _mpc_params(args)
    generators = fields(args.generators, int, "--generators")
    # expand first: it checks the generators and the row cap before
    # mpc_size raises 2p + 1 to the power m + 1
    values = list(deuber.generate_mpc(params, generators).values)
    return {"row_count": deuber.mpc_size(args.m, args.p), "values": values}


def _mpc_verify(args):
    params = _mpc_params(args)
    window = windows.SetWindow.from_expression(args.set)
    generators = fields(args.generators, int, "--generators")
    return {"contained": deuber.verify_mpc(window, params, generators)}


def _mpc_find(args):
    params = _mpc_params(args)
    window = windows.SetWindow.from_expression(args.set)
    found = deuber.contains_mpc(window, params, args.bound)
    return {"generators": list(found) if found else None}


def _fs_enum(args):
    return {"window": _window_payload(ipcore.fs_window(args.spec, args.k))}


def _fs_divisible(args):
    spec = ipcore.IPSystemSpec.parse(args.spec, horizon=args.horizon)
    alphas = ipcore.find_divisible_subsequence(spec, args.modulus, args.count)
    return {"alphas": [list(a.members) for a in alphas],
            "terms": [ipcore.ip_term(spec, a) for a in alphas]}


def _fs_zerosum(args):
    values = fields(args.values, int, "--values")
    indices = ipcore.zero_sum_mod(values, args.modulus)
    return {
        "indices": list(indices) if indices else None,
        "subset_sum": sum(values[i - 1] for i in indices) if indices else None,
    }


def _orbit_payload(result) -> dict:
    return {"hits": list(result.window.members),
            "boundary_hits": list(result.boundary_hits)}


def _dyn_orbit(args):
    system = dynsets.parse_system(args.system)
    point = dynsets.parse_point(system, args.point)
    target = dynsets.parse_target(system, args.target)
    return _orbit_payload(
        dynsets.orbit_hits(system, point, target, args.horizon))


def _dyn_product(args):
    sys_a = dynsets.parse_system(args.system_a)
    sys_b = dynsets.parse_system(args.system_b)
    return _orbit_payload(dynsets.product_return_times(
        sys_a, sys_b,
        dynsets.parse_point(sys_a, args.point_a),
        dynsets.parse_point(sys_b, args.point_b),
        (dynsets.parse_target(sys_a, args.target_a),
         dynsets.parse_target(sys_b, args.target_b)),
        args.horizon,
    ))


def _dyn_density(args):
    window = windows.SetWindow.from_expression(args.set)
    report = asdict(dynsets.banach_density_estimate(window, args.window))
    return {**report, "estimate": str(report["estimate"])}


def _dyn_gaps(args):
    window = windows.SetWindow.from_expression(args.set)
    return {"max_gap": dynsets.syndetic_gap(window)}


def _dyn_pws(args):
    window = windows.SetWindow.from_expression(args.set)
    return asdict(
        dynsets.piecewise_syndetic_window(window, args.shifts, args.length))


def _dyn_strauss(args):
    result = dynsets.strauss_set(exactq.as_rational(args.epsilon), args.horizon)
    assert dynsets.strauss_witnesses_hold(result)
    return {"density": str(result.density),
            "witnesses": [list(w) for w in result.witnesses],
            "window": _window_payload(result.window)}


def _cst_search(args):
    window = windows.SetWindow.from_expression(args.set)
    # refuse an over-cap horizon where cst_search would refuse level 0: past
    # its depth checks, on a nonempty window, but before the rules are built
    horizon = args.spec_horizon
    if (horizon is not None and horizon > FS_PREFIX_CAP and window.members
            and 1 <= args.depth <= FS_PREFIX_CAP):
        cstmod.check_level_width(horizon, args.budget)
    specs = _parse_specs(args.specs, horizon)
    witness = cstmod.cst_search(window, specs, args.depth, budget=args.budget)
    return {"verdict": "witness" if witness else "absent",
            "witness": witness.to_json_dict() if witness else None}


def _cst_verify(args):
    window = windows.SetWindow.from_expression(args.set)
    specs = _parse_specs(args.specs, args.spec_horizon)
    try:
        data = json.loads(read_text(args.witness, "witness file"))
    except json.JSONDecodeError as exc:
        raise InputError(f"witness file is not JSON: {exc}") from exc
    if isinstance(data, dict) and "witness" in data:
        data = data["witness"]
    witness = cstmod.CstWitness.from_json_dict(data)
    return {"accepted": cstmod.verify_cst_witness(window, specs, witness)}


def _cst_mpc(args):
    window = windows.SetWindow.from_expression(args.set)
    result = cstmod.mpc_from_cst(
        window, args.m, args.p, args.c,
        budget=args.budget, family_depth=args.family_depth)
    if not result:
        return {"verdict": "absent", "families": None, "generators": None,
                "values": None}
    return {"verdict": "found",
            "families": [list(f) for f in result.families],
            "generators": list(result.system.generators),
            "values": list(result.system.values)}


# the command table

_TEXT = {"required": True}
_INT = {"type": int, "required": True}

# every flag's type and default, stated once
FLAGS = {
    "matrix": _TEXT, "set": _TEXT, "generators": _TEXT, "spec": _TEXT,
    "values": _TEXT, "system": _TEXT, "point": _TEXT, "target": _TEXT,
    "system-a": _TEXT, "system-b": _TEXT, "point-a": _TEXT,
    "point-b": _TEXT, "target-a": _TEXT, "target-b": _TEXT,
    "epsilon": _TEXT, "specs": _TEXT, "witness": _TEXT,
    "colors": _INT, "horizon": _INT, "length": _INT, "m": _INT, "p": _INT,
    "c": _INT, "bound": _INT, "k": _INT, "modulus": _INT, "count": _INT,
    "window": _INT, "shifts": _INT, "depth": _INT,
    "nontrivial": {"choices": tuple(_NONTRIVIAL), "default": "auto"},
    "distinct": {"action": "store_true"},
    "max": {"type": int, "default": 20},
    "budget": {"type": int, "default": DEFAULT_COLORING_BUDGET},
    "spec-horizon": {"type": int, "default": None},
    "family-depth": {"type": int, "default": 1},
}

# the one flag whose setting depends on the group: `cst` has its own budget
GROUP_FLAGS = {"cst": {"budget": {"default": DEFAULT_CST_BUDGET}}}

# (group, command, handler, flags, inputs the report echoes)
COMMANDS = (
    ("rado", "check", _rado_check, "matrix", "matrix"),
    ("rado", "empirical", _rado_empirical,
     "matrix colors horizon nontrivial distinct budget",
     "matrix colors horizon"),
    ("rado", "solve", _rado_solve, "matrix set nontrivial distinct",
     "matrix set"),
    ("rado", "schur-number", _rado_schur, "colors max budget", "colors max"),
    ("rado", "vdw-number", _rado_vdw, "colors length max budget",
     "colors length max"),
    ("mpc", "gen", _mpc_gen, "m p c generators", "m p c generators"),
    ("mpc", "verify", _mpc_verify, "m p c set generators",
     "set m p c generators"),
    ("mpc", "find", _mpc_find, "m p c set bound", "set m p c bound"),
    ("fs", "enum", _fs_enum, "spec k", "spec k"),
    ("fs", "divisible", _fs_divisible, "spec horizon modulus count",
     "spec modulus count"),
    ("fs", "zerosum", _fs_zerosum, "values modulus", "values modulus"),
    ("dyn", "orbit", _dyn_orbit, "system point target horizon",
     "system point target horizon"),
    ("dyn", "product", _dyn_product,
     "system-a system-b point-a point-b target-a target-b horizon",
     "system_a system_b horizon"),
    ("dyn", "density", _dyn_density, "set window", "set window"),
    ("dyn", "gaps", _dyn_gaps, "set", "set"),
    ("dyn", "pws", _dyn_pws, "set shifts length", "set shifts length"),
    ("dyn", "strauss", _dyn_strauss, "epsilon horizon", "epsilon horizon"),
    ("cst", "search", _cst_search, "set specs depth spec-horizon budget",
     "set specs depth spec_horizon"),
    ("cst", "verify", _cst_verify, "set specs spec-horizon witness",
     "set specs witness"),
    ("cst", "mpc", _cst_mpc, "set m p c family-depth budget", "set m p c"),
)


def _build_parser(argv=()) -> _Parser:
    """The parser for the `COMMANDS` row that `argv` names, or for the whole
    table when it names none (help, a bare group, a usage error)."""
    rows = [row for row in COMMANDS if row[:2] == tuple(argv[:2])] or COMMANDS
    common = _Parser(add_help=False)
    common.add_argument("--plain", action="store_true",
                        help="emit key=value lines instead of JSON")

    parser = _Parser(prog="ramseykit",
                     description="partition Ramsey theory toolkit")
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}
    for group, command, handler, flags, echo in rows:
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest="command", required=True)
        sub = commands[group].add_parser(command, parents=[common])
        overrides = GROUP_FLAGS.get(group, {})
        for flag in flags.split():
            sub.add_argument(f"--{flag}",
                             **{**FLAGS[flag], **overrides.get(flag, {})})
        sub.set_defaults(handler=handler, echo=echo.split(), parser=sub)
    return parser


def _emit(report: dict, plain: bool) -> None:
    if plain:
        for key in sorted(report):
            print(f"{key}={json.dumps(report[key], sort_keys=True)}")
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def run(argv) -> int:
    started = time.monotonic()
    try:
        args, extra = _build_parser(argv).parse_known_args(argv)
        if extra:  # under the subcommand's usage, not the top-level one
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        report = {
            "subcommand": f"{args.group} {args.command}",
            "inputs": {name: getattr(args, name) for name in args.echo},
            **args.handler(args),
        }
        code = 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        report, code = {"verdict": "budget-exceeded", "detail": str(exc)}, 2
    _emit(report, args.plain and code == 0)
    print(f"elapsed_seconds={time.monotonic() - started:.6f}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
