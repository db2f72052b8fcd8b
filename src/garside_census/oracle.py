"""
Independent ground truth for the counting pipeline; every cross-check
lives here, so the library modules keep one code path each.

brute_count lists the normal sequences one by one, extending normal
prefixes depth first and testing each new adjacent pair in isolation.
dp_count runs a dynamic program whose state is the exact last factor,
one entry per braid, without partitions or Kostka numbers: _through_M
steps the row vector through M(n) by summing it by right-descent mask
and taking superset sums over the masks, reading only
matrices.descent_masks, so it stays independent of the Mbar pipeline.
A pinned last factor is found by permutations.enumeration_index; both
follow the canonical enumeration's induction and list none of the n!
permutations.
left_right_descent_census tallies the descent masks of all n! braids, and
sweep_Mbar builds Mbar(n) from it.  count_functions checks a / a_hat,
b_of_simple_via counts through Mprime(n) or M(n) instead of Mbar(n) and
builds neither, naive_charpoly checks characteristic polynomials by
cofactors, m_charpoly_nonzero gives the nonzero spectrum of M(n) without
building it, and structural_check_M tests the structural laws of M(n).

full_charpoly takes any square integer matrix, where spectral.charpoly
takes only Mbar(n).  It lifts the polynomial from the Krylov rows v A^k of
v = (1, ..., 1), stepped by matrices.vec_times_matrix, through
spectral._lift_charpoly, which the intertwiner factors of Mbar(n) share:
the Krylov matrix is factored once mod spectral._P entry by entry, and
the solution is lifted P-adically (Dixon, Numer. Math. 40, 1982) until
it satisfies the Cayley-Hamilton identity for v exactly.  When v is not
cyclic for A, or the Krylov matrix is singular mod _P, the
division-free Berkowitz recursion runs instead; both stay in exact
integers.
"""
from __future__ import annotations

import collections
import itertools
import math
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import descents, matrices, spectral
from .matrices import CountMatrix, build_M, descent_masks
from .permutations import Perm, check_on_strands, d_left, enumeration_index, is_normal_pair
from .spectral import IntPoly, poly_mul, poly_trim, strip_x_power

BRUTE_BUDGET = 10**8


def brute_count(n: int, d: int, last: Perm | None = None) -> int:
    """
    Count length-d normal sequences of square-free n-braids one by one,
    optionally with the final factor pinned.  The sequences are listed
    depth first: a normal prefix is extended by every permutation y with
    (prefix[-1], y) a normal pair.  Normality is a condition on each
    adjacent pair, so every prefix of a normal sequence is normal, and
    skipping the extensions of a non-normal prefix loses no normal
    sequence.  Refuses to start when the worst-case number of pair checks
    over all tuples exceeds BRUTE_BUDGET; past that check, n = 1 is answered
    directly, as every pair of S_1's one braid is normal.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if last is not None:
        check_on_strands(last, n)
    tail = () if last is None else (last,)
    free = d - len(tail)
    if free == 0:
        return 1
    checks = math.factorial(n) ** free * max(d - 1, 1)
    if checks > BRUTE_BUDGET:
        raise ValueError(
            f"budget exceeded: {checks} pair checks needed, budget is {BRUTE_BUDGET}"
        )
    if n == 1:
        return 1
    perms = list(itertools.permutations(range(1, n + 1)))
    slots = [perms] * free + [tail] * len(tail)
    # an explicit stack: recursion would pay a Python call for every prefix it extends
    count = 0
    prefix: list[Perm] = []
    pending = [iter(slots[0])]  # pending[k] yields the candidates left for slot k
    while pending:
        y = next(pending[-1], None)
        if y is None:
            pending.pop()
            if prefix:
                prefix.pop()
        elif not prefix or is_normal_pair(prefix[-1], y):
            if len(prefix) + 1 == d:
                count += 1
            else:
                prefix.append(y)
                pending.append(iter(slots[len(prefix)]))
    return count


def _through_M(n: int, steps: int, start: Callable[[int], list[int]]) -> list[int]:
    """
    The row vector start(n!), indexed by simple_enumeration(n), times
    M(n)^steps.  M(n)[x][y] = 1 exactly when D_L(y) is inside D_R(x), so a
    step sums the vector by right-descent mask, takes superset sums over
    the n-1 bits (the fast zeta transform, n! + (n-1) 2^(n-2) additions),
    and gives braid y the sum at its left-descent mask.  Refuses n beyond
    matrices.FACTORIAL_CAP before building anything.
    """
    matrices._checked_size("M", n)
    masks = descent_masks(n)
    v = start(len(masks))
    size = 1 << (n - 1)
    for _ in range(steps):
        w = [0] * size
        for (_, right), value in zip(masks, v):
            w[right] += value
        bit = 1
        while bit < size:
            for s in range(size):
                if not s & bit:
                    w[s] += w[s | bit]
            bit <<= 1
        v = [w[left] for left, _ in masks]
    return v


def _through_Mprime(n: int, steps: int, start: Callable[[int], Sequence[int]]) -> tuple[int, ...]:
    """
    The row vector start(2^(n-1)), indexed by subset mask, times
    Mprime(n)^steps, without building Mprime(n).  Column J of Mprime(n)
    depends on J only through its partition, so a step takes the dot
    product of the whole vector with each of the p(n) distinct columns of
    matrices.mprime_columns(n) and gives subset J the one at J's
    partition.  The vector keeps all 2^(n-1) entries: summing it by
    partition first would turn the step into Mbar(n)'s and end the
    cross-check.  Refuses n beyond matrices.SUBSET_CAP before any
    column is computed.
    """
    columns = matrices.mprime_columns(n)
    by_mask = descents.partitions_by_mask(n)
    v = tuple(start(len(by_mask)))
    for _ in range(steps):
        sums = {mu: sum(map(mul, v, col)) for mu, col in columns.items()}
        v = tuple(sums[mu] for mu in by_mask)
    return v


def dp_count(n: int, d: int, last: Perm | None = None) -> int:
    """
    Count the same sequences by a transfer dynamic program over the exact
    last factor, one state per square-free braid: the vector
    1 M(n)^(d-1).  Each step sums the states by right-descent mask (see
    _through_M) and uses no partition or Kostka reduction.  Refuses n
    beyond matrices.FACTORIAL_CAP.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if last is not None:
        check_on_strands(last, n)
    v = _through_M(n, d - 1, lambda size: [1] * size)
    return sum(v) if last is None else v[enumeration_index(last)]


def left_right_descent_census(n: int) -> dict[tuple[int, int], int]:
    """
    Tally the (left-descent mask, right-descent mask) pairs of all n!
    permutations; bit i-1 encodes element i.  Independent of the counting
    formulas in descents, so it serves as their cross-check.
    """
    return dict(collections.Counter(descent_masks(n)))


def sweep_Mbar(n: int) -> CountMatrix:
    """
    Mbar(n) by sweep: entry (lam, mu) counts the permutations whose left
    descents have partition lam and whose right descents contain mu's subset.
    """
    labels = descents.partitions_in_order(n)
    mu_masks = [descents.mask_of(descents.set_of_composition(mu)) for mu in labels]
    rows = [[0] * len(labels) for _ in labels]
    for (left, right), count in left_right_descent_census(n).items():
        row = rows[labels.index(descents.partition_of(descents.set_of_mask(left), n))]
        for mu_idx, mu_mask in enumerate(mu_masks):
            if mu_mask & ~right == 0:
                row[mu_idx] += count
    return CountMatrix(kind="Mbar", n=n, labels=labels, rows=tuple(tuple(r) for r in rows))


def _multiset_sequences(fibre_sizes: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All arrangements of the multiset {j with multiplicity fibre_sizes[j-1]}."""
    n = sum(fibre_sizes)
    counts = list(fibre_sizes)
    seq: list[int] = []

    def extend() -> Iterable[tuple[int, ...]]:
        if len(seq) == n:
            yield tuple(seq)
            return
        for j, c in enumerate(counts):
            if c:
                counts[j] -= 1
                seq.append(j + 1)
                yield from extend()
                seq.pop()
                counts[j] += 1

    yield from extend()


def count_functions(n: int, I: Iterable[int], J: Iterable[int], exact: bool) -> int:
    """
    Brute-force oracle for a / a_hat: count functions f from {1, ..., n}
    onto blocks 1..len(composition_of(J, n)) with prescribed fibre sizes,
    subject to the descent pattern of I (exact: i in I iff f(i) >= f(i+1);
    relaxed: implication only).
    """
    I = descents._check_subset(I, n)
    total = 0
    for f in _multiset_sequences(descents.composition_of(J, n)):
        weak = frozenset(i for i in range(1, n) if f[i - 1] >= f[i])
        total += weak == I if exact else weak >= I
    return total


def b_of_simple_via(n: int, d: int, x: Perm, via: str) -> int:
    """
    matrices.b_of_simple(n, d, x) through a larger matrix: "Mprime", or
    "M22" and "M23" over the full matrix M(n).  Mprime is the row vector
    1 Mprime(n)^(d-1) by _through_Mprime, within matrices.SUBSET_CAP.  M22
    is the row vector 1 M(n)^(d-1), which is dp_count with x pinned; M23
    is the corner vector e_Delta M(n)^d.  Both step through M(n) by
    _through_M, within matrices.FACTORIAL_CAP.  No path builds its matrix.
    """
    check_on_strands(x, n)
    if d < 1:
        raise ValueError("d must be at least 1")
    if via == "Mprime":
        v = _through_Mprime(n, d - 1, lambda size: (1,) * size)
        return v[descents.mask_of(d_left(x))]
    if via == "M22":
        return dp_count(n, d, last=x)
    if via != "M23":
        raise ValueError(f"unknown path {via!r}")
    v = _through_M(n, d, lambda size: [0] * (size - 1) + [1])  # e_Delta: Delta comes last
    return v[enumeration_index(x)]


def _krylov_rows(rows: Sequence[Sequence[int]], x: Sequence[int]) -> Iterator[Sequence[int]]:
    """
    The rows x A^k, k = 0, 1, ..., of the matrix rows A, each a
    matrices.vec_times_matrix product; none is kept.
    """
    while True:
        yield x
        x = matrices.vec_times_matrix(x, rows)


def _berkowitz(rows: Sequence[Sequence[int]]) -> list[int]:
    """Leading-coefficient-first char poly of det(xI - A), division-free."""
    n = len(rows)
    poly = [1]
    for r in range(1, n + 1):
        a = rows[r - 1][r - 1]
        row = rows[r - 1][: r - 1]
        col = [rows[i][r - 1] for i in range(r - 1)]
        sub = [rows[i][: r - 1] for i in range(r - 1)]
        q = [1, -a]
        vec = col
        for step in range(r - 1):
            q.append(-sum(x * y for x, y in zip(row, vec)))
            if step < r - 2:
                vec = [
                    sum(sub[i][j] * vec[j] for j in range(r - 1))
                    for i in range(r - 1)
                ]
        new = [0] * (r + 1)
        for i in range(r + 1):
            lo = max(0, i - (len(q) - 1))
            new[i] = sum(q[i - j] * poly[j] for j in range(lo, min(i, r - 1) + 1))
        poly = new
    return poly


def full_charpoly(rows: Sequence[Sequence[int]]) -> IntPoly:
    """
    Exact characteristic polynomial det(xI - A) of any square integer
    matrix rows A, monic, constant term first: the Krylov sequence of
    (1, ..., 1) by P-adic lifting, or Berkowitz when that sequence does
    not span (a repeated eigenvalue with a diagonalizable block, say).
    """
    rows = tuple(tuple(r) for r in rows)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    krylov = list(itertools.islice(_krylov_rows(rows, (1,) * len(rows)), len(rows) + 1))
    poly = spectral._lift_charpoly(krylov, rows)  # v's minimal polynomial; of degree len(rows), it is det(xI - A)
    return tuple(reversed(_berkowitz(rows))) if poly is None else poly


def naive_charpoly(rows: Sequence[Sequence[int]]) -> IntPoly:
    """Cofactor-expansion oracle for full_charpoly, usable only at tiny sizes."""
    n = len(rows)
    entries = [
        [
            poly_trim((-rows[i][j], 1) if i == j else (-rows[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(mat: list[list[tuple]]) -> tuple:
        k = len(mat)
        if k == 0:
            return (1,)
        if k == 1:
            return mat[0][0]
        acc = [0] * (k + 1)  # a k x k determinant of linear entries has degree at most k
        for j in range(k):
            minor = [r[:j] + r[j + 1 :] for r in mat[1:]]
            sign = -1 if j % 2 else 1
            for i, c in enumerate(poly_mul(mat[0][j], det(minor))):
                acc[i] += sign * c
        return poly_trim(acc)

    return det(entries)


def m_charpoly_nonzero(n: int) -> IntPoly:
    """
    The nonzero-spectrum part of the characteristic polynomial of the full
    n! x n! normality matrix, without building it.  The matrix factors as
    A B with A indexed by (braid, right-descent-set) indicators and B by
    set containment; A B and B A share their nonzero spectrum, and B A is
    only 2^(n-1) square.  Cross-checked against the direct computation at
    small n in the test suite.
    """
    census = left_right_descent_census(n)
    size = 1 << (n - 1)
    # (B A)[s, s'] counts braids with left descents inside s and right descents exactly s'.
    prod = [[0] * size for _ in range(size)]
    for (left, right), count in census.items():
        for s in range(size):
            if left & ~s == 0:
                prod[s][right] += count
    return strip_x_power(full_charpoly(prod))


class MStructureReport(NamedTuple):
    """Pass/fail record for the three structural laws of M(n)."""

    n: int
    boundary_ok: bool        # first column and last row all ones, first row and last column almost all zeros
    stacked_blocks_ok: bool  # first (n-1)! columns are n stacked copies of M(n-1)
    class_collapse_ok: bool  # equal right-descent rows coincide, equal left-descent columns coincide

    @property
    def all_ok(self) -> bool:
        return self.boundary_ok and self.stacked_blocks_ok and self.class_collapse_ok


def structural_check_M(n: int) -> MStructureReport:
    m = build_M(n)
    size = m.size
    rows = m.rows

    boundary = (
        all(rows[i][0] == 1 for i in range(size))
        and all(rows[size - 1][j] == 1 for j in range(size))
        and all(rows[0][j] == 0 for j in range(1, size))
        and all(rows[i][size - 1] == 0 for i in range(size - 1))
    )

    if n == 1:
        stacked = True
    else:
        prev = build_M(n - 1)
        block = math.factorial(n - 1)
        stacked = all(
            rows[copy * block + i][j] == prev.rows[i][j]
            for copy in range(n)
            for i in range(block)
            for j in range(block)
        )

    # each row equals the first row with its right-descent mask, each
    # column the first column with its left-descent mask
    cols = tuple(zip(*rows))
    first_by_dr: dict[int, int] = {}
    first_by_dl: dict[int, int] = {}
    collapse = all(
        rows[first_by_dr.setdefault(right, k)] == rows[k] and cols[first_by_dl.setdefault(left, k)] == cols[k]
        for k, (left, right) in enumerate(descent_masks(n))
    )

    return MStructureReport(
        n=n,
        boundary_ok=boundary,
        stacked_blocks_ok=stacked,
        class_collapse_ok=collapse,
    )
