"""Deuber tower systems: generation, verification, and window search.

A tower with parameters (m, p, c) and generating tuple (s0, ..., sm)
consists of all values c*s_k + i_{k-1}*s_{k-1} + ... + i_0*s_0 with each
|i_j| <= p.  Containment of every such tower is the combinatorial bridge
between solvability of partition regular systems and set structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

from . import windows
from .errors import FS_PREFIX_CAP, BudgetExceededError, InputError, MpcExpansionError


@dataclass(frozen=True)
class MpcParams:
    m: int
    p: int
    c: int

    def __post_init__(self):
        if self.m < 0:
            raise InputError("m must be >= 0")
        if self.p < 1 or self.c < 1:
            raise InputError("p and c must be >= 1")


@dataclass(frozen=True)
class MpcSystem:
    params: MpcParams
    generators: tuple[int, ...]
    values: tuple[int, ...]


def mpc_size(m: int, p: int) -> int:
    """Row count of the expansion: sum of (2p+1)^k for k = 0..m."""
    if m < 0 or p < 1:
        raise InputError("need m >= 0 and p >= 1")
    return ((2 * p + 1) ** (m + 1) - 1) // (2 * p)


def iter_rows(
    params: MpcParams, generators: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (level k, coefficient pattern (i_0..i_{k-1}), value) in the
    deterministic order: levels ascending, patterns lexicographic.  An
    expansion of more than 2^FS_PREFIX_CAP rows is a budget error."""
    gens = list(generators)
    if len(gens) != params.m + 1:
        raise InputError(f"need {params.m + 1} generators, got {len(gens)}")
    if any((not isinstance(g, int)) or g < 1 for g in gens):
        raise InputError("generators must be positive integers")
    # mpc_size(k, p) >= 3^k > 2^k, so comparing at k = min(m, cap) decides it
    # without raising a huge m to a power
    if mpc_size(min(params.m, FS_PREFIX_CAP), params.p) > 1 << FS_PREFIX_CAP:
        raise BudgetExceededError(
            f"the ({params.m}, {params.p}) expansion has more than "
            f"2^{FS_PREFIX_CAP} rows"
        )
    coeffs = range(-params.p, params.p + 1)
    for k in range(params.m + 1):
        lead = params.c * gens[k]
        for pattern in product(coeffs, repeat=k):
            yield k, pattern, lead + sum(i * s for i, s in zip(pattern, gens))


def generate_mpc(params: MpcParams, generators: Sequence[int]) -> MpcSystem:
    """Expand a generating tuple; rejects tuples whose expansion dips below 1."""
    values = set()
    for k, pattern, value in iter_rows(params, generators):
        if value < 1:
            raise MpcExpansionError(k, pattern, value)
        values.add(value)
    return MpcSystem(params, tuple(generators), tuple(sorted(values)))


def verify_mpc(
    window: windows.SetWindow, params: MpcParams, generators: Sequence[int]
) -> bool:
    """True iff every expanded value lies in the window."""
    system = generate_mpc(params, generators)
    return all(v in window.member_set for v in system.values)


def contains_mpc(
    window: windows.SetWindow, params: MpcParams, bound: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically least generating tuple with generators <= bound
    whose whole expansion lies in the window, or None.

    Depth-first over s_0, s_1, ... ascending.  Level k's rows are c*s_k
    plus the offsets {i_0*s_0 + ... + i_{k-1}*s_{k-1} : |i_j| <= p}; the
    window mask ANDed with itself shifted by each offset t keeps bit n iff
    every n + t is a member, so its bits at multiples of c are every
    admissible s_k at once (0 is an offset, so they lie in the window).
    """
    if bound < 1:
        raise InputError("generator bound must be >= 1")
    members = window.mask
    steps = range(-params.p, params.p + 1)

    def descend(gens: list[int], offsets: set) -> Optional[tuple[int, ...]]:
        if len(gens) == params.m + 1:
            return tuple(gens)
        ok = members
        for t in offsets:
            ok &= members >> t if t >= 0 else members << -t
        while ok:
            low = ok & -ok
            ok ^= low
            s, rest = divmod(low.bit_length() - 1, params.c)
            if s > bound:
                return None
            if not rest:
                found = descend(gens + [s], {t + i * s for t in offsets for i in steps})
                if found is not None:
                    return found
        return None

    return descend([], {0})
