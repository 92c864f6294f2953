"""IP-systems indexed by finite sets: finite sums, ordering, divisibility.

An IP-system assigns to every finite nonempty index set alpha the sum of
the generator terms it selects.  The ordering alpha < beta means
max(alpha) < min(beta); chains in that order are what all constructions
downstream produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, islice, repeat
from operator import mul
from typing import Iterable, Optional, Sequence

from . import windows
from .errors import (FS_PREFIX_CAP, BudgetExceededError, InputError, expression,
                     fields, quote)

# The largest index a FiniteIndexSet may hold.  Index sets are stored as
# tuples, so this bounds input size (witness files, divisibility chains),
# not a representation.
INDEX_CAP = 64


@dataclass(frozen=True)
class FiniteIndexSet:
    """A finite nonempty set of positive integers (at most INDEX_CAP)."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InputError("index set must be nonempty")
        prev = 0
        for v in self.members:
            if not isinstance(v, int) or v <= prev:
                raise InputError("index set must be strictly increasing positive integers")
            prev = v
        if self.members[-1] > INDEX_CAP:
            raise InputError(f"index {self.members[-1]} exceeds the cap {INDEX_CAP}")

    def smallest(self) -> int:
        return self.members[0]

    def largest(self) -> int:
        return self.members[-1]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def alpha_less(a: FiniteIndexSet, b: FiniteIndexSet) -> bool:
    """The block order on finite index sets: every index of a precedes b."""
    return a.largest() < b.smallest()


@dataclass(frozen=True)
class IPSystemSpec:
    """A generator sequence s_1, s_2, ... of integers with finite horizon.

    A spec is its integer terms: two specs are equal exactly when their
    terms are.  Several systems, such as the coordinates of a vector-valued
    one, are a list of specs.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise InputError("IP-system needs at least one generator term")
        if not all(isinstance(t, int) for t in self.terms):
            raise InputError("scalar IP-system terms must be integers")

    @property
    def horizon(self) -> int:
        return len(self.terms)

    @classmethod
    def from_terms(cls, values: Sequence[int]) -> "IPSystemSpec":
        return cls(tuple(values))

    @classmethod
    def constant(cls, k: int, horizon: int) -> "IPSystemSpec":
        return cls(tuple([k] * horizon))

    @classmethod
    def arithmetic(cls, start: int, step: int, horizon: int) -> "IPSystemSpec":
        return cls(tuple(start + n * step for n in range(horizon)))

    @classmethod
    def geometric(cls, start: int, ratio: int, horizon: int) -> "IPSystemSpec":
        if ratio == 0:
            raise InputError("geometric ratio must be nonzero")
        # start * ratio**n by one multiplication per term, not one power each
        terms = accumulate(repeat(ratio), mul, initial=start)
        return cls(tuple(islice(terms, max(horizon, 0))))

    @classmethod
    def parse(cls, text: str, horizon: Optional[int] = None) -> "IPSystemSpec":
        """Parse rule syntax: const:k, arith:a,d, geom:a,r, list:v1,v2,..."""
        if horizon is None and not text.strip().startswith("list:"):
            raise InputError(f"rule {quote(text)} needs an explicit horizon")
        return expression(text, _RULE_KINDS, "IP-system rule", horizon)


def _list_rule(rest: str, horizon: Optional[int]) -> IPSystemSpec:
    vals = fields(rest, int, "list rule")
    if horizon is not None and horizon > len(vals):
        raise InputError("requested horizon exceeds list length")
    return IPSystemSpec.from_terms(vals)


_RULE_KINDS = {
    "const": ((int,), IPSystemSpec.constant),
    "arith": ((int, int), IPSystemSpec.arithmetic),
    "geom": ((int, int), IPSystemSpec.geometric),
    "list": (None, _list_rule),
}


def ip_term(spec: IPSystemSpec, alpha: FiniteIndexSet) -> int:
    """The finite sum s_alpha of the integer terms selected by alpha; a
    vector-valued system is a list of specs, one ip_term per coordinate."""
    if alpha.largest() > spec.horizon:
        raise InputError(
            f"index {alpha.largest()} beyond spec horizon {spec.horizon}"
        )
    return sum(spec.terms[n - 1] for n in alpha)


def finite_sums(terms: Iterable[int]) -> set:
    """Every sum over a nonempty subset of `terms`, whatever their signs."""
    sums: set = set()
    for t in terms:
        sums |= {t} | {s + t for s in sums}
    return sums


def check_fs_prefix(k: int) -> None:
    """Refuse a prefix over FS_PREFIX_CAP."""
    if k > FS_PREFIX_CAP:
        raise BudgetExceededError(
            f"prefix length {k} exceeds the {FS_PREFIX_CAP} cap (2^k - 1 sums)"
        )


def fs_enumerate(spec: IPSystemSpec, k: int) -> windows.SetWindow:
    """All finite sums over nonempty subsets of the first k generators."""
    if not 1 <= k <= spec.horizon:
        raise InputError(f"prefix length {k} outside 1..{spec.horizon}")
    check_fs_prefix(k)
    sums = finite_sums(spec.terms[:k])
    if min(sums) < 1:
        raise InputError("finite sums leave the positive integers; no window")
    return windows.SetWindow.from_members(max(sums), sums)


def fs_window(rule: str, k: int) -> windows.SetWindow:
    """The finite sums of the first k terms of `rule`, parsed at horizon k.
    The cap is checked first, since building the rule alone can take seconds."""
    check_fs_prefix(k)
    return fs_enumerate(IPSystemSpec.parse(rule, horizon=k), k)


def _zero_run(values: Sequence[int], n: int) -> Optional[tuple[int, int]]:
    """(i, j) for the first prefix sum that repeats a residue mod n, the
    empty prefix counting as residue 0, so values[i:j] sums to a multiple of
    n.  None when all len(values) + 1 residues differ, which needs
    len(values) < n."""
    seen = {0: 0}
    acc = 0
    for j, v in enumerate(values, start=1):
        acc += v
        i = seen.setdefault(acc % n, j)
        if i != j:
            return i, j
    return None


def find_divisible_subsequence(
    spec: IPSystemSpec, c: int, n: int
) -> list[FiniteIndexSet]:
    """A chain alpha_1 < ... < alpha_n with every s_{alpha_i} divisible by c.

    Deterministic pigeonhole: the index line is cut into n disjoint blocks
    of c consecutive indices; inside each block, among the c+1 prefix sums
    two agree mod c (or one is 0), giving a consecutive run whose sum is
    divisible by c.
    """
    if c < 1 or n < 1:
        raise InputError("modulus and count must be >= 1")
    if spec.horizon < n * c:
        raise InputError(
            f"horizon {spec.horizon} too small: need at least n*c = {n * c} terms"
        )
    out = []
    for start in range(0, n * c, c):
        run = _zero_run(spec.terms[start:start + c], c)
        assert run is not None, "pigeonhole cannot fail within c+1 prefixes"
        i, j = run
        out.append(FiniteIndexSet(tuple(range(start + i + 1, start + j + 1))))
    return out


def zero_sum_mod(xs: Sequence[int], n: int) -> Optional[tuple[int, ...]]:
    """1-based indices of a nonempty subset whose sum is divisible by n.

    With len(xs) >= n the consecutive block found by the first repeated
    (or zero) prefix sum mod n always exists.  Shorter inputs fall back to
    exhaustive subset search, which gives up after 2^FS_PREFIX_CAP subsets;
    None means no subset works.
    """
    if n < 1:
        raise InputError("modulus must be >= 1")
    vals = list(xs)
    if not vals or any((not isinstance(v, int)) or v < 1 for v in vals):
        raise InputError("need a nonempty list of positive integers")
    run = _zero_run(vals, n)
    if run is not None:
        return tuple(range(run[0] + 1, run[1] + 1))
    # only reachable when len(vals) < n; every subset sum lies in [1, sum]
    if sum(vals) < n:
        return None
    tried = 0
    for size in range(1, len(vals) + 1):
        for combo in combinations(range(1, len(vals) + 1), size):
            if sum(vals[i - 1] for i in combo) % n == 0:
                return combo
            tried += 1
            if tried == 1 << FS_PREFIX_CAP:
                raise BudgetExceededError(f"zero-sum search tried 2^{FS_PREFIX_CAP} subsets")
    return None
