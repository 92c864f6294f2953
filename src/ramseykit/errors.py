"""Shared exception types, the default search budgets, and the input boundary:
the one reader of input text files, the integer check for JSON payloads, and
the `kind:fields` reader."""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its node/size budget before reaching a verdict.

    Raised instead of returning a possibly wrong answer; callers map this
    to the distinguished "budget" verdict (CLI exit status 2).
    """


# node budgets of the coloring searches (rado) and of the CST searches (cst)
DEFAULT_COLORING_BUDGET = 20_000_000
DEFAULT_CST_BUDGET = 5_000_000

# A k-prefix has 2^k - 1 nonempty index sets: the cap on every enumeration
# of subset sums (fs windows, cst levels, zero-sum search, mpc rows) and on
# the span tests of the columns condition.
FS_PREFIX_CAP = 20


class DegenerateMatrixError(Exception):
    """The zero matrix: every vector solves the system, so the partition
    regularity question is trivial and no certificate is meaningful."""


class MpcExpansionError(InputError):
    """A generator tuple whose expansion leaves the positive integers."""

    def __init__(self, level, pattern, value):
        self.level = level
        self.pattern = tuple(pattern)
        self.value = value
        super().__init__(
            f"not expandable over the positive integers: level {level}, "
            f"coefficients {self.pattern} give value {value}"
        )


def read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file at `path`.  A file that cannot be read or
    decoded is an InputError naming `what` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path!r} is not UTF-8 text") from exc


def json_int(value) -> int:
    """`value` when it is a JSON integer.  A float, bool or string is an
    InputError, so a payload is never rounded or coerced into a number."""
    if type(value) is not int:
        raise InputError(f"expected an integer, got {value!r}")
    return value


QUOTE_CAP = 80


def quote(text: str) -> str:
    """`text` quoted for a message: verbatim up to QUOTE_CAP characters, else
    its first QUOTE_CAP characters and the full length."""
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"


def fields(text: str, converters, what: str) -> tuple:
    """The comma-separated fields of `text`, one per converter in a tuple or any
    number through one converter.  A wrong count or refused field is an InputError."""
    parts = text.split(",")
    if callable(converters):
        converters = (converters,) * len(parts)
    if len(parts) != len(converters):
        raise InputError(f"{what}s look like {len(converters)} values, got {quote(text)}")
    try:
        return tuple(convert(part) for convert, part in zip(converters, parts))
    except ValueError as exc:
        raise InputError(f"bad {what} {quote(text)}: {exc}") from exc


def expression(text: str, kinds: dict, what: str, *extra):
    """Build `kind:rest` by its row (converters, build) of `kinds`: build gets
    the raw rest if converters is None, else the converted fields, then `extra`."""
    kind, _, rest = text.strip().partition(":")
    if kind not in kinds:
        raise InputError(f"unknown {what} kind: {quote(kind)}")
    converters, build = kinds[kind]
    if converters is None:
        return build(rest, *extra)
    return build(*fields(rest, converters, f"{kind} {what}"), *extra)


def pair(text: str, what: str) -> tuple[str, str]:
    """The two sides of the one `;` of `text`."""
    if text.count(";") != 1:
        raise InputError(f"{what}s look like A;B, got {quote(text)}")
    first, _, second = text.partition(";")
    return first, second
