"""Return-time sets of concrete dynamical systems, plus finite-window
density and syndeticity reports.

Rotations run on exact rational angles (irrational rotations enter via
explicit convergents, e.g. Fibonacci ratios for the golden mean), shifts
on stored 0/1 sequences, and products of two systems are first class.
Arc membership uses half-open intervals in exact arithmetic; landing
exactly on an endpoint of the (topologically open) target is reported,
never silently classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exactq, windows
from .errors import InputError, expression, fields, pair, read_text


# ---------------------------------------------------------------------------
# targets

@dataclass(frozen=True)
class Arc:
    """Half-open arc [center - radius, center + radius) on the unit circle."""

    center: Fraction
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", exactq.as_rational(self.center))
        object.__setattr__(self, "radius", exactq.as_rational(self.radius))
        if self.radius <= 0:
            raise InputError("arc radius must be positive")

    @classmethod
    def from_interval(cls, lo, hi) -> "Arc":
        lo, hi = exactq.as_rational(lo), exactq.as_rational(hi)
        if hi <= lo:
            raise InputError("arc interval needs hi > lo")
        return cls((lo + hi) / 2, (hi - lo) / 2)


@dataclass(frozen=True)
class Cylinder:
    """All 0/1 sequences starting with the given symbols (clopen)."""

    symbols: str

    def __post_init__(self):
        if not self.symbols or any(ch not in "01" for ch in self.symbols):
            raise InputError("cylinder symbols must be a nonempty 0/1 string")


@dataclass(frozen=True)
class ProductTarget:
    """A pair of targets, one per component of a ProductSystem."""

    first: object
    second: object


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class RotationSystem:
    """Rotation of the circle [0,1) by a fixed exact rational angle."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", exactq.as_rational(self.angle) % 1)

    def returns(self, point, target, horizon: int) -> tuple[list, list]:
        """(hits, boundary_hits) of the orbit of `point` in the arc `target`:
        a time is a hit when its offset from the arc's left end is below
        the width, and a boundary hit when it sits on either end."""
        point = exactq.as_rational(point)
        if not isinstance(target, Arc):
            raise InputError("rotation targets must be arcs")
        width = 2 * target.radius
        if width >= 1:
            return list(range(1, horizon + 1)), []
        offset = (point - (target.center - target.radius)) % 1
        hits, flagged = [], []
        for n in range(1, horizon + 1):
            offset = (offset + self.angle) % 1
            if offset < width:
                hits.append(n)
            if offset == 0 or offset == width:
                flagged.append(n)
        return hits, flagged


@dataclass(frozen=True)
class ShiftSystem:
    """Left shift acting on one stored 0/1 sequence; points are offsets
    into the sequence (0 = the sequence itself)."""

    symbols: str

    def __post_init__(self):
        if not self.symbols or any(ch not in "01" for ch in self.symbols):
            raise InputError("shift sequence must be a nonempty 0/1 string")

    def returns(self, point, target, horizon: int) -> tuple[list, list]:
        """(hits, no boundary hits): cylinders are clopen."""
        if not isinstance(point, int) or point < 0:
            raise InputError("shift points are nonnegative offsets")
        if not isinstance(target, Cylinder):
            raise InputError("shift targets must be cylinders")
        if point + horizon + len(target.symbols) > len(self.symbols):
            raise InputError(
                "stored sequence too short for the requested horizon"
            )
        return [n for n in range(1, horizon + 1)
                if self.symbols.startswith(target.symbols, point + n)], []


@dataclass(frozen=True)
class ProductSystem:
    """Two systems run side by side on pairs of points."""

    first: object
    second: object

    def returns(self, point, target, horizon: int) -> tuple[list, list]:
        """The times both components return, flagged when either component
        sat on an endpoint."""
        if not isinstance(point, (tuple, list)) or len(point) != 2:
            raise InputError("product points are pairs")
        if not isinstance(target, ProductTarget):
            raise InputError("product targets must be target pairs")
        hits1, flagged1 = self.first.returns(point[0], target.first, horizon)
        hits2, flagged2 = self.second.returns(point[1], target.second, horizon)
        both = set(hits2)
        return ([n for n in hits1 if n in both],
                sorted(set(flagged1).union(flagged2)))


@dataclass(frozen=True)
class OrbitResult:
    """The return times of an orbit, and those that fell on a target end."""

    window: windows.SetWindow
    boundary_hits: tuple[int, ...]


def orbit_hits(system, point, target, horizon: int) -> OrbitResult:
    """The return-time set {n <= N : T^n(point) in target}, exactly.

    boundary_hits lists the times whose orbit point fell on a target
    endpoint: those n are classified by the half-open convention but the
    open-set reading of the target is ambiguous there.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    hits, flagged = system.returns(point, target, horizon)
    return OrbitResult(windows.SetWindow(horizon, tuple(hits)), tuple(flagged))


def product_return_times(
    system_a, system_b, x, y, targets, horizon: int
) -> OrbitResult:
    """Return times of the pair orbit: {n : T^n x in U and T^n y in V}.

    Whether such a set qualifies as a D-set candidate also depends on the
    diagonal point (y, y) being approached by the pair orbit, which no
    finite window can decide; start from points where it holds by
    construction (x = y, or x on the orbit of y).  Likewise the gap and
    density reports below describe recurrence on the window only and never
    classify a point as uniformly or essentially recurrent.
    """
    if not isinstance(targets, (tuple, list)) or len(targets) != 2:
        raise InputError("product target must be a pair (U, V)")
    return orbit_hits(
        ProductSystem(system_a, system_b),
        (x, y),
        ProductTarget(targets[0], targets[1]),
        horizon,
    )


# ---------------------------------------------------------------------------
# density and syndeticity on windows

@dataclass(frozen=True)
class DensityReport:
    """The densest subwindow of a given length: start, count and density."""

    window_length: int
    best_start: int
    count: int
    estimate: Fraction


def banach_density_estimate(window: windows.SetWindow, length: int) -> DensityReport:
    """Best density over all length-w subwindows of [1..N] (the finite
    stand-in for upper Banach density), with the leftmost maximizing start."""
    if not 1 <= length <= window.horizon:
        raise InputError("window length must lie in 1..horizon")
    members = window.member_set
    count = sum(1 for v in range(1, length + 1) if v in members)
    best_count, best_start = count, 1
    for start in range(2, window.horizon - length + 2):
        count += (start - 1 + length in members) - (start - 1 in members)
        if count > best_count:
            best_count, best_start = count, start
    return DensityReport(length, best_start, best_count, Fraction(best_count, length))


def syndetic_gap(window: windows.SetWindow) -> int:
    """Largest gap between consecutive members, including the lead-in gap
    from 0 and the tail gap to N+1; the empty window reports N+1."""
    prev = 0
    worst = 0
    for v in window.members:
        worst = max(worst, v - prev)
        prev = v
    return max(worst, window.horizon + 1 - prev)


@dataclass(frozen=True)
class PiecewiseSyndeticReport:
    """Whether a union of shifts covers an interval, and the best one found."""

    contains_interval: bool
    witness_start: Optional[int]
    best_length: int
    best_start: Optional[int]


def piecewise_syndetic_window(
    window: windows.SetWindow, shifts: int, length: int
) -> PiecewiseSyndeticReport:
    """Does S u (S-1) u ... u (S-k) cover an interval of the given length
    inside the window?  Reports the leftmost witness start, or the best
    achievable interval when the answer is no."""
    if shifts < 0 or length < 1:
        raise InputError("need shifts >= 0 and length >= 1")
    covered = 0
    for i in range(min(shifts, window.horizon) + 1):  # later shifts add nothing
        covered |= window.mask >> i
    bits = bin(covered)[:1:-1] + "0"  # character n is the integer n
    best_len, best_start = 0, None
    witness = None
    start = bits.find("1", 1)
    while start != -1:
        run_len = bits.find("0", start) - start
        if run_len > best_len:
            best_len, best_start = run_len, start
        if witness is None and run_len >= length:
            witness = start
        start = bits.find("1", start + run_len)
    return PiecewiseSyndeticReport(witness is not None, witness, best_len, best_start)


# ---------------------------------------------------------------------------
# the near-full-density set avoiding all shifted multiples

@dataclass(frozen=True)
class StraussResult:
    """A dense window, the residue classes it misses, and its density."""

    window: windows.SetWindow
    witnesses: tuple[tuple[int, int], ...]
    density: Fraction


def strauss_set(epsilon, horizon: int) -> StraussResult:
    """Remove one residue class t_j mod n_j per witness, with t_j running
    over 0, 1, -1, 2, -2, ... and n_j = 2^(j+1) * ceil(1/eps), truncated at
    the first modulus beyond the horizon.

    The doubling schedule keeps the removed portion at or below eps, so the
    window density stays >= 1 - eps, while each emitted witness (t, n)
    satisfies S and (t + n*Z) disjoint on [1..N]: no shifted copy of S meets
    every set of multiples.
    """
    eps = exactq.as_rational(epsilon)
    if not 0 < eps < 1:
        raise InputError("epsilon must lie strictly between 0 and 1")
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    base = -((-eps.denominator) // eps.numerator)  # ceil(1/eps)
    witnesses = []
    j = 0
    while True:
        modulus = (2 ** (j + 1)) * base
        if modulus > horizon:
            break
        t = (j + 1) // 2 if j % 2 == 1 else -(j // 2)
        witnesses.append((t, modulus))
        j += 1
    removed = bytearray(horizon + 1)
    for t, modulus in witnesses:
        r = t % modulus
        start = r if r >= 1 else modulus
        for x in range(start, horizon + 1, modulus):
            removed[x] = 1
    members = tuple(x for x in range(1, horizon + 1) if not removed[x])
    density = Fraction(len(members), horizon)
    assert density >= 1 - eps, "doubling schedule failed its density bound"
    return StraussResult(windows.SetWindow(horizon, members), tuple(witnesses), density)


def strauss_witnesses_hold(result: StraussResult) -> bool:
    """Re-check that every emitted witness class misses the set entirely."""
    for t, modulus in result.witnesses:
        r = t % modulus
        if any(x % modulus == r for x in result.window.members):
            return False
    return True


# ---------------------------------------------------------------------------
# config-string parsing ("rot:5/8", "shift:0101", "prod:(A;B)", arcs, ...)

def _shift_system(rest: str) -> ShiftSystem:
    if rest.startswith("file="):
        rest = "".join(read_text(rest[len("file="):], "shift file").split())
    return ShiftSystem(rest)


def _product_system(rest: str) -> ProductSystem:
    # the components are rotations or shifts: a product component would
    # bring a second `;`, which `pair` refuses
    inner = rest.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise InputError("product systems look like prod:(sysA;sysB)")
    first, second = pair(inner[1:-1], "product system")
    return ProductSystem(parse_system(first), parse_system(second))


def _rational(text: str) -> Fraction:
    # exactq is read at call time, so commands that parse no rational
    # never run it
    return exactq.as_rational(text)


_SYSTEM_KINDS = {
    "rot": ((_rational,), RotationSystem),
    "shift": (None, _shift_system),
    "prod": (None, _product_system),
}
_TARGET_KINDS = {RotationSystem: {"arc": ((_rational,) * 2, Arc.from_interval),
                                  "carc": ((_rational,) * 2, Arc)},
                 ShiftSystem: {"cyl": (None, Cylinder)}}
_POINT_FIELDS = {RotationSystem: (_rational,), ShiftSystem: (int,)}


def parse_system(text: str):
    return expression(text, _SYSTEM_KINDS, "system")


def parse_point(system, text: str):
    if isinstance(system, ProductSystem):
        first, second = pair(text, "product point")
        return (parse_point(system.first, first),
                parse_point(system.second, second))
    if type(system) not in _POINT_FIELDS:
        raise InputError("unknown system type")
    return fields(text, _POINT_FIELDS[type(system)], "point")[0]


def parse_target(system, text: str):
    if isinstance(system, ProductSystem):
        first, second = pair(text, "product target")
        return ProductTarget(parse_target(system.first, first),
                             parse_target(system.second, second))
    return expression(text, _TARGET_KINDS.get(type(system), {}), "target")
