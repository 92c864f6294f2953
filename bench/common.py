"""Jobs, canonical answers and digests shared by every workload."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


class Crash(str):
    """A failure without an answer (an exception or a traceback), as opposed
    to a plain `str` reason, which marks a wrong or uncheckable answer."""


@dataclass
class Job:
    """One closed-loop request: `call` is the timed program call; `check`
    returns None when its result is right, otherwise why not; `answer`
    gives the part of the result that the digest covers."""

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    answer: Callable[[Any], Any] = lambda result: result


def canonical(value):
    """JSON-able canonical form of a program result."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combined_digest(job_digests: dict[str, str]) -> str:
    text = "\n".join(f"{k} {job_digests[k]}" for k in sorted(job_digests))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values):
    """(value, percentile): the highest percentile of `values` with at
    least ten samples beyond it, i.e. the eleventh largest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
