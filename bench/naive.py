"""Independent reference checks, written without the library.

Each function recomputes or re-checks an answer from plain integers (and
`Fraction` only where a rational span test needs it), so a job's answer is
accepted without trusting the search that produced it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd


# ---------------------------------------------------------------------------
# columns condition

def _rank(vectors) -> int:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _col_sum(cols, idx):
    return [sum(cols[j][i] for j in idx) for i in range(len(cols[0]))]


def _in_span(cols, basis_idx, target) -> bool:
    if not any(target):
        return True
    base = [cols[j] for j in basis_idx]
    return _rank(base + [target]) == _rank(base)


def certificate_holds(rows, blocks, coefficients) -> bool:
    """The columns-condition relations, with 1-based column indices."""
    q = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(q)]
    flat = [j for b in blocks for j in b]
    if sorted(flat) != list(range(1, q + 1)):
        return False
    if any(_col_sum(cols, [j - 1 for j in blocks[0]])):
        return False
    earlier = set(blocks[0])
    for block, coeff in zip(blocks[1:], coefficients):
        if not set(coeff) <= earlier:
            return False
        combo = [sum(Fraction(c) * cols[j - 1][i] for j, c in coeff.items())
                 for i in range(len(rows))]
        if combo != _col_sum(cols, [j - 1 for j in block]):
            return False
        earlier |= set(block)
    return True


def columns_regular(rows) -> bool:
    """Decide the columns condition by greedy absorption.

    For a fixed first block, absorbing any block whose column sum lies in
    the span of the columns placed so far never hurts: the span only grows,
    and the unplaced part of any valid later block stays absorbable.  So
    the condition holds iff some zero-sum first block absorbs everything.
    """
    q = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(q)]
    for size in range(1, q + 1):
        for first in combinations(range(q), size):
            if any(_col_sum(cols, first)):
                continue
            placed = list(first)
            rest = [j for j in range(q) if j not in first]
            grew = True
            while rest and grew:
                grew = False
                for bsize in range(1, len(rest) + 1):
                    hit = next((b for b in combinations(rest, bsize)
                                if _in_span(cols, placed, _col_sum(cols, b))),
                               None)
                    if hit is not None:
                        placed += hit
                        rest = [j for j in rest if j not in hit]
                        grew = True
                        break
            if not rest:
                return True
    return False


# ---------------------------------------------------------------------------
# single equations and colorings

def equation_solutions(coeffs, domain, nontrivial):
    """All solutions of sum coeffs[i] * x_i = 0 with every x_i in `domain`
    (a sorted list of positive integers), the last variable solved for."""
    *head, last = coeffs
    allowed = set(domain)
    out = []
    for xs in product(domain, repeat=len(head)):
        rest = -sum(c * x for c, x in zip(head, xs))
        if rest % last:
            continue
        z = rest // last
        if z not in allowed:
            continue
        sol = xs + (z,)
        if nontrivial and len(set(sol)) == 1:
            continue
        out.append(sol)
    return out


def least_solution(coeffs, members, nontrivial):
    """Lexicographically least solution inside the sorted member list."""
    sols = equation_solutions(coeffs, members, nontrivial)
    return min(sols) if sols else None


def coloring_search(solutions, horizon, colors):
    """Lexicographically least coloring of [1..N] (color of 1 pinned to 0)
    without a monochromatic solution, or None when every coloring has one."""
    by_max = [[] for _ in range(horizon + 1)]
    for sol in solutions:
        by_max[max(sol)].append(sol)
    coloring = [0] * (horizon + 1)

    def ok(n):
        return not any(all(coloring[v] == coloring[sol[0]] for v in sol)
                       for sol in by_max[n])

    def extend(n):
        if n > horizon:
            return True
        for c in (range(1) if n == 1 else range(colors)):
            coloring[n] = c
            if ok(n) and extend(n + 1):
                return True
        return False

    return tuple(coloring[1:]) if extend(1) else None


def monochromatic(solutions, colors_of):
    """Some solution with all entries the same color (colors_of[n-1])."""
    return any(len({colors_of[v - 1] for v in sol}) == 1 for sol in solutions)


def ap_solutions(length, horizon):
    """Nonconstant length-L arithmetic progressions in [1..N], as tuples."""
    return [tuple(a + i * d for i in range(length))
            for d in range(1, horizon) for a in range(1, horizon + 1)
            if a + (length - 1) * d <= horizon]


# ---------------------------------------------------------------------------
# Central Sets witnesses and towers

def subset_sums(values):
    return {sum(c) for k in range(1, len(values) + 1)
            for c in combinations(values, k)}


def cst_witness_holds(members, spec_terms, a_values, alphas) -> bool:
    horizon = len(spec_terms[0])
    if len(a_values) != len(alphas) or any(a < 1 for a in a_values):
        return False
    for alpha in alphas:
        if not alpha or list(alpha) != sorted(set(alpha)):
            return False
        if alpha[0] < 1 or alpha[-1] > horizon:
            return False
    if any(alphas[i][-1] >= alphas[i + 1][0] for i in range(len(alphas) - 1)):
        return False
    for terms in spec_terms:
        steps = [a + sum(terms[n - 1] for n in alpha)
                 for a, alpha in zip(a_values, alphas)]
        if not subset_sums(steps) <= members:
            return False
    return True


def residue_refutes(members, depth) -> bool:
    """A window inside one class r mod m with r != 0 holds no x, y with
    x + y in it, so no witness of depth >= 2 exists."""
    if depth < 2:
        return False
    ms = sorted(members)
    if len(ms) < 2:
        return True
    m = 0
    for v in ms[1:]:
        m = gcd(m, v - ms[0])
    return m > 1 and ms[0] % m != 0


def tower_values(m, p, c, generators):
    values = set()
    for k in range(m + 1):
        for pattern in product(range(-p, p + 1), repeat=k):
            values.add(c * generators[k]
                       + sum(i * s for i, s in zip(pattern, generators)))
    return sorted(values)


def tower_holds(members, m, p, c, generators, values) -> bool:
    if len(generators) != m + 1:
        return False
    expected = tower_values(m, p, c, generators)
    return (list(values) == expected and expected[0] >= 1
            and set(expected) <= members)


# ---------------------------------------------------------------------------
# return times in integer arithmetic

def _scale(*fracs):
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return den, [f.numerator * (den // f.denominator) for f in fracs]


def rotation_hits(angle: Fraction, point: Fraction, lo: Fraction, span: Fraction,
                  horizon: int):
    """(hits, boundary hits) of the rotation orbit on the half-open arc
    [lo, lo + span), with every rational scaled to one denominator L."""
    L, (step, start, low, width) = _scale(angle, point, lo, span)
    hits, flagged = [], []
    if width >= L:
        return list(range(1, horizon + 1)), []
    offset = (start - low) % L
    step %= L
    for n in range(1, horizon + 1):
        offset = (offset + step) % L
        if offset < width:
            hits.append(n)
        if offset == 0 or offset == width:
            flagged.append(n)
    return hits, flagged


def shift_hits(symbols: str, start: int, cylinder: str, horizon: int):
    hits = []
    i = symbols.find(cylinder, start + 1)
    while 0 <= i <= start + horizon:
        hits.append(i - start)
        i = symbols.find(cylinder, i + 1)
    return hits


def product_hits(first, second):
    """first, second: (hits, flagged) of the two factor orbits."""
    both = sorted(set(first[0]) & set(second[0]))
    flagged = sorted(set(first[1]) | set(second[1]))
    return both, flagged


# ---------------------------------------------------------------------------
# statistics recounted

def density(members, horizon, length):
    """(leftmost best start, count) of the densest length-w subwindow."""
    inside = _indicator(members, horizon)
    count = sum(inside[1:length + 1])
    best, where = count, 1
    for start in range(2, horizon - length + 2):
        count += inside[start + length - 1] - inside[start - 1]
        if count > best:
            best, where = count, start
    return where, best


def max_gap(members, horizon):
    points = [0] + sorted(members) + [horizon + 1]
    return max(b - a for a, b in zip(points, points[1:]))


def covered_runs(members, horizon, shifts, length):
    """(witness start, best length, best start) for the union of S - i."""
    covered = bytearray(horizon + 2)
    for v in members:
        lo = max(1, v - shifts)
        covered[lo:v + 1] = b"\x01" * (v + 1 - lo)
    witness, best_len, best_start = None, 0, None
    n = 1
    while n <= horizon:
        if not covered[n]:
            n += 1
            continue
        run_start = n
        while n <= horizon and covered[n]:
            n += 1
        run_len = n - run_start
        if run_len > best_len:
            best_len, best_start = run_len, run_start
        if witness is None and run_len >= length:
            witness = run_start
    return witness, best_len, best_start


def _indicator(members, horizon):
    inside = bytearray(horizon + 2)
    for v in members:
        inside[v] = 1
    return inside


def strauss(eps: Fraction, horizon: int):
    """(members, witnesses) of the Strauss construction on [1..N]."""
    base = -(-eps.denominator // eps.numerator)
    witnesses = []
    j = 0
    while (2 ** (j + 1)) * base <= horizon:
        t = (j + 1) // 2 if j % 2 else -(j // 2)
        witnesses.append((t, (2 ** (j + 1)) * base))
        j += 1
    removed = bytearray(horizon + 1)
    for t, n in witnesses:
        first = t % n or n
        removed[first::n] = b"\x01" * len(range(first, horizon + 1, n))
    members = [x for x in range(1, horizon + 1) if not removed[x]]
    return members, witnesses
