"""ramseykit: computational partition Ramsey theory.

Decides partition regularity of integer linear systems via the columns
condition, builds and finds Deuber (m, p, c)-towers, manipulates
IP-systems and finite sums, generates central-set/D-set candidates as
return-time sets of exact dynamical systems, and searches finite-scale
witnesses of the Central Sets Theorem conclusion.

Every submodule below is registered in `sys.modules` at import, but its code
runs on its first attribute access, so a caller runs only the modules it uses.
Submodules therefore refer to each other by module, not by name
(`from . import windows`, then `windows.SetWindow` where it is used), so a
module runs only when a call reads one of its names.  `errors`, which every
command runs, is the one module whose names are imported.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# the public names, by the submodule that defines them.  `cli` is not here:
# `python -m ramseykit.cli` must find it unregistered, or runpy warns and
# runs it a second time.
_PUBLIC = {
    "cst": "CstWitness MpcFromCstResult cst_search mpc_from_cst verify_cst_witness",
    "deuber": "MpcParams MpcSystem contains_mpc generate_mpc mpc_size verify_mpc",
    "dynsets": "Arc Cylinder DensityReport OrbitResult ProductSystem ProductTarget "
               "RotationSystem ShiftSystem StraussResult banach_density_estimate "
               "orbit_hits piecewise_syndetic_window product_return_times "
               "strauss_set syndetic_gap",
    "errors": "BudgetExceededError DegenerateMatrixError InputError MpcExpansionError",
    "exactq": "RationalMatrix in_column_span rank solve_linear",
    "ipcore": "FiniteIndexSet IPSystemSpec alpha_less find_divisible_subsequence "
              "fs_enumerate ip_term zero_sum_mod",
    "rado": "Coloring ColumnsCertificate EmpiricalResult SolutionVector "
            "columns_condition empirical_pr schur_number solve_in_cell "
            "vdw_number verify_certificate",
    "windows": "SetWindow",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_HOME)


def _lazy(name):
    """Submodule `name`, registered to run on first attribute access.  One
    that is registered already is kept, so a reload swaps out no module."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        sys.modules[fullname] = module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


globals().update({name: _lazy(name) for name in _PUBLIC})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
