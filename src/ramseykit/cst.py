"""Finite-scale search for the Central Sets Theorem conclusion.

A depth-k witness against a window S and IP-systems s^1, ..., s^p is a
pair of sequences a_1..a_k and alpha_1 < ... < alpha_k such that for every
nonempty subset {k_1 < ... < k_l} of {1..k} and every system i the sum
(a_{k_1} + s^i_{alpha_{k_1}}) + ... + (a_{k_l} + s^i_{alpha_{k_l}}) stays
in S.

The infinitary construction picks each step inside a combinatorially large
subset; on a window that largeness is replaced by complete backtracking
over candidates ordered smallest-(a, alpha) first.  "No witness" therefore
genuinely means none exists within the window, which the API keeps
distinct from running out of budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, mul
from typing import Optional, Sequence

from . import deuber, ipcore, windows
from .errors import (DEFAULT_CST_BUDGET, FS_PREFIX_CAP, BudgetExceededError,
                     InputError, json_int)


@dataclass(frozen=True)
class CstWitness:
    depth: int
    a_values: tuple[int, ...]
    alphas: tuple[ipcore.FiniteIndexSet, ...]
    system_count: int

    def __post_init__(self):
        if self.depth < 1 or self.system_count < 1:
            raise InputError("depth and system count must be >= 1")
        if len(self.a_values) != self.depth or len(self.alphas) != self.depth:
            raise InputError("need one (a, alpha) pair per level")
        if any((not isinstance(a, int)) or a < 1 for a in self.a_values):
            raise InputError("a-values must be positive integers")

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "a_values": list(self.a_values),
            "alphas": [list(a.members) for a in self.alphas],
            "system_count": self.system_count,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CstWitness":
        try:
            return cls(
                json_int(data["depth"]),
                tuple(map(json_int, data["a_values"])),
                tuple(ipcore.FiniteIndexSet(tuple(map(json_int, a)))
                      for a in data["alphas"]),
                json_int(data["system_count"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad witness payload: {exc}") from exc


def _common_horizon(specs: Sequence[ipcore.IPSystemSpec]) -> int:
    if not specs:
        raise InputError("need at least one IP-system")
    horizons = {s.horizon for s in specs}
    if len(horizons) != 1:
        raise InputError("all IP-systems must share one horizon")
    return horizons.pop()


def _min_subset_sum(spec: ipcore.IPSystemSpec) -> int:
    negatives = sum(t for t in spec.terms if t < 0)
    return negatives if negatives < 0 else min(spec.terms)


def _live_terms(b: int) -> int:
    """The members u of b with b & (b >> u) nonzero, the differences of two
    members of b.

    First the residue class: with x_1 the least member and d the gap to
    the next, a b inside the class x_1 mod d has every difference a
    multiple of d, so when d does not divide x_1 no member is live and one
    AND against that class's mask answers.  Otherwise the scan: x + u = y
    with x <= u puts x in the lower half of b, so only the members
    x <= max(b)/2 are taken, smallest first; each marks every u it settles
    (b & (b >> x)), and itself when that is nonempty.  After each step the
    largest open u (the one the fewest members can settle) is tested by
    itself, so on a window with few dead ends the smallest members settle
    almost every u at once."""
    low = b & -b
    x1 = low.bit_length() - 1
    above = b ^ low
    if above:
        d = (above & -above).bit_length() - 1 - x1
        r = x1 % d
        if r:
            k = b.bit_length() // d + 1
            if b & (int(("0" * (d - 1) + "1") * k, 2) << r) == b:
                return 0
    rest = b & ((1 << ((b.bit_length() + 1) >> 1)) - 1)  # x <= max(b)/2
    live = 0
    todo = b
    while todo and rest:
        x = rest & -rest
        rest ^= x
        hit = b & (b >> (x.bit_length() - 1))
        if hit:
            hit |= x
            live |= hit
        todo &= ~(hit | x)
        if todo:
            u = todo.bit_length() - 1
            todo ^= 1 << u
            if b & (b >> u):
                live |= 1 << u
    # once every lower-half member has been taken, the open u are dead ends
    return live


def check_level_width(width: int, budget: int) -> None:
    """Refuse a level of 2^width - 1 candidate index sets past FS_PREFIX_CAP or
    the budget.  Callers that parse rules at horizon `width` check first,
    since building the rules alone can take seconds."""
    if width > FS_PREFIX_CAP or (1 << width) - 1 > budget:
        raise BudgetExceededError(
            f"2^{width} candidate index sets per level is over budget"
        )


def cst_search(
    window: windows.SetWindow,
    specs: Sequence[ipcore.IPSystemSpec],
    depth: int,
    budget: int = DEFAULT_CST_BUDGET,
) -> Optional[CstWitness]:
    """Backtracking search for a depth-k witness; None means proven absent
    within the window (budget exhaustion raises instead).

    Candidates are tried smallest-a first, then smallest index set in
    binary-counting order, and each level n+1 restricts its index sets to
    start beyond max(alpha_n), which enforces the chain order structurally.
    The admissible term values for the next level form the set
    B_i = S  intersect  (S - t) over all subset sums t collected so far --
    membership there is exactly what keeps every new subset sum inside S,
    so dead states can be memoized by their sum sets.  B_i and the sum sets
    are int bitmasks (bit n set when n is a member), and one AND over the
    systems gives every passing a for an index set at once.  A new term
    u = a + s_i adds the sums u and t + u, so the next level's set is
    B_i & (B_i >> u).

    That set is empty unless u is a difference of two members of B_i, so
    below the last level a term must lie in the live targets
    L_i = B_i  intersect  (B_i - B_i) (see _live_terms); the last level
    tests B_i itself.  L_i is found once per admissible mask, before the
    level's table is built, and a level with an empty L_i has no passing
    position: it is refuted without a table, so the odds under x + y = z
    answer at once however wide the level.  A B_i inside one residue class
    r mod d with d not dividing r, d being its first gap, has an empty L_i
    (every difference is a multiple of d, and no member is), found with one
    AND whatever its size; any other B_i is scanned over its members up to
    max(B_i)/2, the smaller of any two members summing into B_i.

    The budget counts every (a, alpha) position in scan order, including
    those that fail, are skipped as duplicates or are not live: each is
    charged with the next visited position or with the level's closing
    charge of a_hi * (2^width - 1), and it would have charged nothing below
    it.  A level whose 2^width - 1 positions per a pass the budget raises
    before it is scanned or refuted.  The table it scans holds the first
    index set of each (max index, sums) pair, built from the distinct
    subset sums (see candidates), so its size and cost follow their number:
    const:1 at horizon 20 has 210 candidates among 2^20 - 1 index sets,
    while a rule whose subset sums all differ, such as geom, has them all.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > FS_PREFIX_CAP:
        raise BudgetExceededError(f"depth {depth} exceeds the {FS_PREFIX_CAP} cap")
    horizon = _common_horizon(specs)
    members = window.mask
    p = len(specs)
    # a runs over 1..a_hi, none when every sum already lies beyond S
    a_hi = max(0, window.horizon - min(_min_subset_sum(s) for s in specs))
    ticks = 0
    dead: set = set()
    cand_cache: dict[int, tuple] = {}
    live: dict[int, int] = {}  # admissible mask -> its live targets

    def candidates(low: int) -> tuple:
        """(count, reach, distinct) for the indices in (low, horizon]: the
        count of their nonempty subsets, the largest a the budget can reach
        at this level, and the candidates (mask, max index, per-spec sums)
        in mask order.  Bit b of a mask is index low + b + 1, so the mask is
        also the subset's position in binary-counting order.  Only the first
        subset of each (max index, sums) pair is a candidate: a later one
        would reach the same memo key for every a, so it can only be a dead
        state once the first has been tried.

        The table is built from the distinct sum vectors, not from all
        2^width subsets.  `first` maps the sums of each subset of the
        indices taken so far (the empty one included) to its smallest mask,
        so the first subset with max index idx and sums V is
        first[V - s(idx)] | bit.  `first` stays in mask order, so each index
        adds its candidates in mask order, above all earlier ones.  The work
        is width times the number of distinct sum vectors, which is 2^width
        only when every subset sum differs."""
        got = cand_cache.get(low)
        if got is not None:
            return got
        width = horizon - low
        check_level_width(width, budget)
        count = (1 << width) - 1
        first = {(0,) * p: 0}
        distinct = []
        for idx in range(low + 1, horizon + 1):
            bit = 1 << (idx - low - 1)
            step = [s.terms[idx - 1] for s in specs]
            rows = [(mask | bit, idx, tuple(map(add, sums, step)))
                    for sums, mask in first.items()]
            distinct += rows
            for mask, _, sums in rows:
                first.setdefault(sums, mask)
        # an a beyond reach starts at position (a - 1) * count + 1, already
        # over budget, so the bit ranges stay small however large a_hi is
        reach = min(a_hi, budget // count + 1) if count else 0
        got = cand_cache[low] = (count, reach, distinct)
        return got

    def scan(reach, distinct, targets):
        """(a, candidate) for every a <= reach and distinct candidate whose
        terms a + s_i all lie in their targets, in (a, position) order."""
        a_range = (1 << (reach + 1)) - 2
        passing = []
        for cand in distinct:
            ok = a_range
            for b, s in zip(targets, cand[2]):
                if s >= 0:
                    ok &= b >> s
                elif -s <= reach:
                    ok &= b << -s
                else:
                    ok = 0
            if ok:
                passing.append((ok, cand))
        union = 0
        for ok, _ in passing:
            union |= ok
        while union:
            low = union & -union
            union ^= low
            a = low.bit_length() - 1
            for ok, cand in passing:
                if ok >> a & 1:
                    yield a, cand

    def charge(positions):
        nonlocal ticks
        ticks += positions
        if ticks > budget:
            raise BudgetExceededError(
                f"witness search exceeded {budget} candidates"
            )

    def extend(level, low, sum_sets, admissible, chosen):
        # only an empty window stops here: the look-ahead keeps every
        # deeper level's sets nonempty
        if not all(admissible):
            return None
        last = level + 1 == depth
        targets = admissible
        if not last:
            targets = []
            for b in admissible:
                got = live.get(b)
                if got is None:
                    got = live[b] = _live_terms(b)
                if not got:
                    # no position passes: charge the level without its table
                    width = horizon - low
                    check_level_width(width, budget)
                    charge(a_hi * ((1 << width) - 1))
                    return None
                targets.append(got)
        count, reach, distinct = candidates(low)
        seen = 0  # positions of this level charged so far
        for a, (bits, amax, svec) in scan(reach, distinct, targets):
            # every position up to this one counts as scanned: the failing,
            # duplicate and dead-end ones are charged here without a visit
            pos = (a - 1) * count + bits
            charge(pos - seen)
            seen = pos
            if last:
                return chosen + [(a, low, bits)]
            terms = [a + s for s in svec]
            merged = tuple(
                sums | (1 << u) | (sums << u)
                for sums, u in zip(sum_sets, terms)
            )
            key = (depth - level - 1, amax, merged)
            if key in dead:
                continue
            nxt = [b & (b >> u) for b, u in zip(admissible, terms)]
            found = extend(level + 1, amax, merged, nxt, chosen + [(a, low, bits)])
            if found is not None:
                return found
            dead.add(key)
        charge(a_hi * count - seen)
        return None

    found = extend(0, 0, (0,) * p, (members,) * p, [])
    if found is None:
        return None
    return CstWitness(
        depth,
        tuple(a for a, _, _ in found),
        tuple(ipcore.FiniteIndexSet(tuple(
            low + b + 1 for b in range(bits.bit_length()) if bits >> b & 1))
            for _, low, bits in found),
        p,
    )


def verify_cst_witness(
    window: windows.SetWindow,
    specs: Sequence[ipcore.IPSystemSpec],
    witness: CstWitness,
) -> bool:
    """Exhaustively re-check all 2^k - 1 subset sums for every system."""
    horizon = _common_horizon(specs)
    if len(specs) != witness.system_count:
        raise InputError("system count does not match the witness")
    if witness.depth > FS_PREFIX_CAP:
        raise BudgetExceededError(f"depth {witness.depth} exceeds the {FS_PREFIX_CAP} cap")
    if any(a.largest() > horizon for a in witness.alphas):
        raise InputError("witness index set beyond the spec horizon")
    for i in range(len(witness.alphas) - 1):
        if not ipcore.alpha_less(witness.alphas[i], witness.alphas[i + 1]):
            return False
    members = window.member_set
    for spec in specs:
        terms = [
            a + ipcore.ip_term(spec, alpha)
            for a, alpha in zip(witness.a_values, witness.alphas)
        ]
        if not ipcore.finite_sums(terms) <= members:
            return False
    return True


@dataclass(frozen=True)
class MpcFromCstResult:
    params: deuber.MpcParams
    families: tuple[tuple[int, ...], ...]
    system: deuber.MpcSystem


def _pull_back(families, alphas):
    """Re-index every family along a chain of index sets: member n of the
    new family is the finite sum that alphas[n] selects from the old one."""
    return [[sum(fam[n - 1] for n in a) for a in alphas] for fam in families]


def mpc_from_cst(
    window: windows.SetWindow,
    m: int,
    p: int,
    c: int,
    budget: int = DEFAULT_CST_BUDGET,
    family_depth: int = 1,
) -> Optional[MpcFromCstResult]:
    """Derive a verified (m, p, c)-tower inside the window by running the
    same level step for r = 0..m.

    Level r feeds the (2p+1)^r combination systems i_{r-1} t^{r-1} + ...
    + i_0 t^0 of the families found so far into the witness search (at
    level 0 the one empty pattern gives the all-zero system, whose witnesses
    are finite-sums families inside S).  The witness's index sets pull every
    family back, and its a-values become family r.  For c > 1 a
    divisibility chain pulls them all back again, so that family r can be
    divided by c, restoring the leading coefficient c.

    The pipeline takes the first witness at every level and does not
    backtrack across levels, so None refutes this deterministic
    construction on the window, not containment as such; budget exhaustion
    in any inner search propagates as BudgetExceededError.

    Level r searches to depth family_depth * c^(2(m-r)+1) and keeps
    family_depth * c^(2(m-r)) members, level r+1's horizon.  Dividing by c
    can break residue compatibility (on the even numbers with c = 2, halved
    values turn odd), and the cure is index sets summing several family
    members, which needs spare length.  Level 0's depth thus passes
    FS_PREFIX_CAP, a budget error before any search, already at family_depth 1
    once c = 2 and m >= 2, or c >= 3 and m >= 1.
    """
    params = deuber.MpcParams(m, p, c)
    if family_depth < 1:
        raise InputError("family depth must be >= 1")
    # level m searches (2p+1)^m systems; 3^k > budget once k is its bit length
    if (2 * p + 1) ** min(m, budget.bit_length()) > budget:
        raise BudgetExceededError(
            f"{2 * p + 1}^{m} combination systems at the top level is over budget"
        )
    families: list = []
    for r in range(m + 1):
        keep = family_depth * c ** (2 * (m - r))
        rows = list(zip(*families)) or [()] * (keep * c)  # level 0: all zero
        specs = [ipcore.IPSystemSpec(tuple(sum(map(mul, pattern, row)) for row in rows))
                 for pattern in product(range(-p, p + 1), repeat=r)]
        wit = cst_search(window, specs, keep * c, budget)
        if wit is None:
            return None
        families = _pull_back(families, wit.alphas) + [list(wit.a_values)]
        if c > 1:
            top = ipcore.IPSystemSpec.from_terms(families[-1])
            chain = ipcore.find_divisible_subsequence(top, c, keep)
            families = _pull_back(families, chain)
            assert all(v % c == 0 for v in families[-1])
            families[-1] = [v // c for v in families[-1]]
    system = deuber.generate_mpc(params, [fam[0] for fam in families])
    assert deuber.verify_mpc(window, params, system.generators)
    return MpcFromCstResult(params, tuple(map(tuple, families)), system)
