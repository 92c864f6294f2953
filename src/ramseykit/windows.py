"""Finite set windows S intersected with [1..N].

Every search in the toolkit runs on such a window; infinite statements
only ever get finite-scale shadows here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import ipcore
from .errors import InputError, expression, fields, read_text


@dataclass(frozen=True)
class SetWindow:
    """A subset of [1..horizon], stored sorted."""

    horizon: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("window horizon must be >= 1")
        prev = 0
        for v in self.members:
            if not isinstance(v, int):
                raise InputError("window members must be integers")
            if v <= prev:
                raise InputError("window members must be strictly increasing")
            prev = v
        if self.members and self.members[-1] > self.horizon:
            raise InputError("window member exceeds horizon")

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def mask(self) -> int:
        """The members as one int, bit n set when n is a member.

        Built as the binary digits in one buffer, most significant first,
        and parsed by one int(buf, 2), which Python's digit limit leaves
        alone for base 2.  The buffer takes horizon + 1 bytes, not the
        horizon / 8 of a packed one, and is never copied."""
        horizon = self.horizon
        buf = bytearray(b"0") * (horizon + 1)
        for v in self.members:
            buf[horizon - v] = 49  # ord("1")
        return int(buf, 2)

    def __contains__(self, n) -> bool:
        return n in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @classmethod
    def from_members(cls, horizon: int, members: Iterable[int]) -> "SetWindow":
        return cls(horizon, tuple(sorted(set(members))))

    @classmethod
    def full(cls, horizon: int) -> "SetWindow":
        return cls(horizon, tuple(range(1, horizon + 1)))

    @classmethod
    def odds(cls, horizon: int) -> "SetWindow":
        return cls(horizon, tuple(range(1, horizon + 1, 2)))

    @classmethod
    def evens(cls, horizon: int) -> "SetWindow":
        return cls(horizon, tuple(range(2, horizon + 1, 2)))

    @classmethod
    def residue_class(cls, residue: int, modulus: int, horizon: int) -> "SetWindow":
        if modulus < 1:
            raise InputError("modulus must be >= 1")
        r = residue % modulus
        first = r if r >= 1 else modulus
        return cls(horizon, tuple(range(first, horizon + 1, modulus)))

    def restrict(self, horizon: int) -> "SetWindow":
        """The same set cut down to a smaller horizon."""
        if horizon > self.horizon:
            raise InputError("restrict() cannot grow the horizon")
        return SetWindow(horizon, tuple(v for v in self.members if v <= horizon))

    @classmethod
    def from_text(cls, text: str) -> "SetWindow":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty window text")
        try:
            horizon = int(lines[0])
            members = [int(ln) for ln in lines[1:]]
        except ValueError as exc:
            raise InputError("window file lines must be integers") from exc
        return cls.from_members(horizon, members)

    def to_text(self) -> str:
        return "\n".join([str(self.horizon)] + [str(v) for v in self.members]) + "\n"

    @classmethod
    def from_file(cls, path: str) -> "SetWindow":
        return cls.from_text(read_text(path, "window file"))

    @classmethod
    def from_expression(cls, expr: str) -> "SetWindow":
        """Parse set expressions: all:N, odds:N, evens:N, mod:r,m,N,
        fs:rule,k, file:PATH, or a bare file path."""
        expr = expr.strip()
        if ":" not in expr and os.path.exists(expr):
            return cls.from_file(expr)
        return expression(expr, _SET_KINDS, "set expression")


def _fs_window(rest: str) -> SetWindow:
    # the rule itself may contain commas: split on the last one
    rule, _, ktext = rest.rpartition(",")
    if not rule:
        raise InputError("fs expression needs a rule and a prefix length")
    (k,) = fields(ktext, (int,), "fs prefix length")
    return ipcore.fs_window(rule, k)


_SET_KINDS = {
    "all": ((int,), SetWindow.full),
    "odds": ((int,), SetWindow.odds),
    "evens": ((int,), SetWindow.evens),
    "mod": ((int, int, int), SetWindow.residue_class),
    "file": (None, SetWindow.from_file),
    "fs": (None, _fs_window),
}
