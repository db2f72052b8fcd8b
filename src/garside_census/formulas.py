"""
Closed formulas and recurrences for the counting numbers, each evaluated
in exact integers and cross-checked against the matrix pipeline.  The two
series identities are checked multiplied through by their factorial
denominators.

Where a published formula disagrees with its own derivation and with every
computational path (three such spots are known: the degree-3 count at the
near-full twist, the additive constant in the degree-4 recurrence, and one
repeated term family in the degree-3 two-step sum), the functions here
return the value consistent with the derivation, the reference tables and
the pipeline, and the report rows record the printed variant with a
"paper-discrepancy" flag instead of silently correcting it.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

from . import matrices
from .descents import PartitionN, _multinomial
from .reference import PAPER_DISCREPANCY


@dataclasses.dataclass(frozen=True)
class Check:
    label: str
    expected: int | bool
    computed: int | bool
    match: bool
    flag: str | None = None


@dataclasses.dataclass(frozen=True)
class FormulaReport:
    formula: str
    checks: tuple[Check, ...]

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.match and c.flag is None)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(label: str, expected, computed, flag: str | None = None) -> Check:
    return Check(label=label, expected=expected, computed=computed, match=expected == computed, flag=flag)


def b3_closed(d: int, lam: PartitionN) -> int:
    """Per-partition closed forms on 3 strands."""
    if d < 1:
        raise ValueError("d must be at least 1")
    lam = tuple(lam)
    if lam == (1, 1, 1):
        return 4 * 2**d - 3 * d - 4
    if lam == (2, 1):
        return 2**d - 1
    if lam == (3,):
        return 1
    raise ValueError(f"unknown partition {lam!r} of 3")


def b3_total_closed(d: int) -> int:
    if d < 1:
        raise ValueError("d must be at least 1")
    return 8 * 2**d - 3 * d - 7


def b4_recurrence_check(dmax: int) -> FormulaReport:
    """
    The 4-strand totals against the order-2 recurrence
    u_d = 6 u_{d-1} - 3 u_{d-2} + 32*2^d - 12 d - 34 seeded by
    u_{-1} = 0, u_0 = 1.
    """
    if dmax < 2:
        raise ValueError("dmax must be at least 2")
    checks = []
    u_prev2, u_prev1 = 0, 1
    for d in range(1, dmax + 1):
        u = 6 * u_prev1 - 3 * u_prev2 + 32 * 2**d - 12 * d - 34
        checks.append(_check(f"d={d}", matrices.b_total(4, d), u))
        u_prev2, u_prev1 = u_prev1, u
    return FormulaReport(formula="b4-recurrence", checks=tuple(checks))


def b_n2_recurrence(nmax: int) -> list[int]:
    """
    The degree-2 totals b(n, 2) for n = 0..nmax from the alternating
    squared-binomial recurrence.
    """
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    vals = [1]
    for n in range(1, nmax + 1):
        s = sum(
            (-1) ** (n + i + 1) * math.comb(n, i) ** 2 * vals[i] for i in range(n)
        )
        vals.append(s)
    return vals


def _gf_coefficient(b: Sequence[int], m: int) -> int:
    """m!^2 times the x^m coefficient of sum b[i] x^i / i!^2 times sum (-1)^j x^j / j!^2."""
    return sum((-1) ** (m - i) * math.comb(m, i) ** 2 * b[i] for i in range(m + 1))


def gf_identity_check(order: int) -> bool:
    """
    Formal-series check that sum b(n,2) x^n / n!^2 is the reciprocal of the
    alternating series sum (-1)^n x^n / n!^2, in integers: for m <= order,
    sum over i of (-1)^(m-i) C(m, i)^2 b(i, 2) is 1 at m = 0 and 0 after.
    That is the recurrence b_n2_recurrence solves, so this checks the
    recurrence against the series; the bn2-recurrence report row ties its
    values to the pipeline.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    b = b_n2_recurrence(order)
    return all(_gf_coefficient(b, m) == int(m == 0) for m in range(order + 1))


def b_n2_delta(n: int, r: int) -> int:
    """Degree-2 count at the half twist on the first n-r strands: n!/(n-r)!."""
    if not 1 <= r <= n:
        raise ValueError(f"r={r} out of range 1..{n}")
    return math.factorial(n) // math.factorial(n - r)


def b_n3_delta1(n: int) -> int:
    """
    Degree-3 count at the half twist one strand short: 2^n - 1.  The
    printed closed form says 2^(n-1) but its own derivation sums to
    2^n - 1, which every table value and pipeline run confirms.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2**n - 1


def b_n3_delta2(n: int) -> int:
    """Degree-3 count at the half twist two strands short, closed form."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return 2 * 3**n - (n + 6) * 2 ** (n - 1) + 1


def b_n3_delta2_by_sums(n: int) -> int:
    """
    The same count assembled from the case analysis over the right-descent
    set of the middle factor: the one-strand-short tail, the three-block
    multinomials, and the mixed case whose two-block compositions with both
    parts at least 2 contribute twice.  (The printed sum misses that
    repetition: at n = 4 it yields 77 against the correct 83.)  The 2- and
    3-block compositions are listed by their first one or two blocks.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    total = b_n3_delta1(n)
    for p in range(1, n):
        total += _multinomial((p, n - p)) * (2 if min(p, n - p) >= 2 else 1)
        for q in range(1, n - p):
            total += _multinomial((p, q, n - p - q)) * (2 if q >= 2 else 1)
    return total


def b_n4_delta1(n: int) -> int:
    """Degree-4 count at the half twist one strand short: sum of n!/i!."""
    if n < 1:
        raise ValueError("n must be at least 1")
    fact = math.factorial(n)
    return sum(fact // math.factorial(i) for i in range(n))


def b_n4_delta1_by_compositions(n: int) -> int:
    """
    The same count as a sum over all compositions of n, weighting the
    multinomial of (p_1, ..., p_k) by p_1 (p_2 - 1) ... (p_{k-1} - 1) p_k
    (just n for the one-part composition), by induction on p_1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _composition_sum(n, 0)


def _unit_composition_sum(m: int) -> int:
    """Sum over compositions p of m of multinomial(p) (p_1 - 1) ... (p_{k-1} - 1) p_k."""
    return _composition_sum(m, 1)


def _composition_sum(m: int, shift: int) -> int:
    """
    Sum over compositions p of m of multinomial(p) times the weight
    (p_1 - shift) (p_2 - 1) ... (p_{k-1} - 1) p_k, or m for the one-part
    composition.  The two sums above differ only in shift.  By induction
    on the first part j, it is m + sum over j < m of C(m, j) (j - shift)
    U(m - j), U the unit sum: U(r) = r + sum over j < r of C(r, j) (j - 1) U(r - j).
    """
    unit = [0]
    for r in range(1, m):
        unit.append(r + sum(math.comb(r, j) * (j - 1) * unit[r - j] for j in range(1, r)))
    return m + sum(math.comb(m, j) * (j - shift) * unit[m - j] for j in range(1, m))


def f_identity_check(imax: int) -> bool:
    """
    The composition identity behind the factorial-sum formula: for each i,
    summing (p_1 - 1)/p_1! ... (p_{k-1} - 1)/p_{k-1}! * p_k/p_k! over the
    compositions of m = i+1 gives exactly 1; times m!, in integers,
    _unit_composition_sum(m) == m!.
    """
    if imax < 0:
        raise ValueError("imax must be non-negative")
    return all(_unit_composition_sum(m) == math.factorial(m) for m in range(1, imax + 2))


def floor_e_identity(n: int) -> int:
    """
    floor(n! e) - 1, with e taken from its continued fraction [2; 1, 2, 1,
    1, 4, 1, 1, 6, ...].  Consecutive convergents lie on opposite sides of
    e, so once n! times each of two consecutive ones has the same floor,
    that floor is floor(n! e).  The floor-e row checks it against
    b_n4_delta1(n), the sum of n!/i! over i < n: that is n! e less the
    term n!/n! = 1 and a tail strictly between 0 and 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    fact = math.factorial(n)
    p0, q0, p1, q1 = 1, 0, 2, 1
    for k in itertools.count(1):
        a = 2 * (k + 1) // 3 if k % 3 == 2 else 1
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if fact * p0 // q0 == fact * p1 // q1:
            return fact * p1 // q1 - 1


def cor47_check(nmax: int) -> FormulaReport:
    """
    The first-order recurrence for the degree-4 counts: the printed
    variant u_n = n u_{n-1} + 2n - 1 fails against the factorial sum from
    n = 2 on, while u_n = n u_{n-1} + n reproduces it.  Both are evaluated
    and the printed one is reported flagged.
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    checks = []
    printed = 1
    derived = 1
    for n in range(2, nmax + 1):
        printed = n * printed + 2 * n - 1
        derived = n * derived + n
        target = b_n4_delta1(n)
        checks.append(_check(f"derived n={n}", target, derived))
        checks.append(
            _check(f"printed n={n}", target, printed, flag=PAPER_DISCREPANCY)
        )
    return FormulaReport(formula="bn4-recurrence", checks=tuple(checks))


def verify_all(nmax: int = 8, dmax: int = 20) -> tuple[FormulaReport, ...]:
    """Evaluate every formula family against the pipeline."""
    reports: list[FormulaReport] = []

    checks = []
    for d in range(1, dmax + 1):
        for lam in ((1, 1, 1), (2, 1), (3,)):
            checks.append(
                _check(
                    f"d={d} lam={lam}",
                    matrices.b_of_partition(3, d, lam),
                    b3_closed(d, lam),
                )
            )
        checks.append(_check(f"d={d} total", matrices.b_total(3, d), b3_total_closed(d)))
    reports.append(FormulaReport(formula="b3-closed", checks=tuple(checks)))

    reports.append(b4_recurrence_check(dmax))

    vals = b_n2_recurrence(nmax)
    checks = [
        _check(f"n={n}", matrices.b_total(n, 2), vals[n]) for n in range(1, nmax + 1)
    ]
    reports.append(FormulaReport(formula="bn2-recurrence", checks=tuple(checks)))

    reports.append(
        FormulaReport(
            formula="bessel-reciprocal-gf",
            checks=(_check("order<=12 coefficients vanish", True, gf_identity_check(12)),),
        )
    )

    checks = []
    for n in range(1, nmax + 1):
        for r in range(1, n + 1):
            checks.append(
                _check(f"n={n} r={r}", matrices.b_delta(n, 2, r), b_n2_delta(n, r))
            )
    reports.append(FormulaReport(formula="bn2-delta", checks=tuple(checks)))

    checks = []
    for n in range(2, nmax + 1):
        pipeline = matrices.b_delta(n, 3, 1)
        checks.append(_check(f"n={n}", pipeline, b_n3_delta1(n)))
        checks.append(
            _check(f"printed n={n}", pipeline, 2 ** (n - 1), flag=PAPER_DISCREPANCY)
        )
    reports.append(FormulaReport(formula="bn3-delta1", checks=tuple(checks)))

    checks = []
    for n in range(3, nmax + 1):
        pipeline = matrices.b_delta(n, 3, 2)
        checks.append(_check(f"closed n={n}", pipeline, b_n3_delta2(n)))
        checks.append(_check(f"case-sum n={n}", pipeline, b_n3_delta2_by_sums(n)))
    reports.append(FormulaReport(formula="bn3-delta2", checks=tuple(checks)))

    checks = []
    for n in range(1, nmax + 1):
        factorial_sum = b_n4_delta1(n)
        checks.append(
            _check(f"composition-sum n={n}", factorial_sum, b_n4_delta1_by_compositions(n))
        )
        if n >= 2 and n <= min(nmax, 7):
            checks.append(_check(f"pipeline n={n}", matrices.b_delta(n, 4, 1), factorial_sum))
    reports.append(FormulaReport(formula="bn4-delta1", checks=tuple(checks)))

    reports.append(
        FormulaReport(
            formula="composition-unit-identity",
            checks=(_check("i<=12 all equal 1", True, f_identity_check(12)),),
        )
    )

    checks = [
        _check(f"n={n}", b_n4_delta1(n), floor_e_identity(n)) for n in range(1, 13)
    ]
    reports.append(FormulaReport(formula="floor-e", checks=tuple(checks)))

    reports.append(cor47_check(min(nmax, 12)))

    return tuple(reports)
