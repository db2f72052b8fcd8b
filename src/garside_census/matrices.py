"""
The three incidence matrices controlling the counts of normal sequences,
their caps, the descent-mask table and the exact big-integer counting
pipeline built on them; cli prints them, oracle checks M(n)'s laws.

  M(n)      n! x n!, 0/1, indexed by the canonical enumeration of
            square-free braids; entry 1 when the row braid may precede the
            column braid in a normal sequence.
  Mprime(n) 2^(n-1) square, indexed by subsets of {1, ..., n-1} in binary
            order; entry (I, J) counts braids with left descents exactly I
            and right descents containing J.
  Mbar(n)   p(n) square, indexed by partitions of n in first-occurrence
            order; rows of Mprime summed over subsets sharing a partition,
            columns keyed by the partition (a column of Mprime depends on
            its subset only through it).

Each has its own size cap: FACTORIAL_CAP, SUBSET_CAP and MBAR_CAP.
FACTORIAL_CAP also bounds the n!-sized state of oracle.dp_count and the
M22 / M23 paths of oracle.b_of_simple_via, which step through M(n) on
descent_masks(n) alone; that table follows the canonical enumeration's
induction from descent_masks(n-1) and lists no permutation.  The p(n)
distinct columns of Mprime, mprime_columns(n), come from the subset
level: one superset transform (descents._superset_transform) of the
packed rows of the Kostka Gram table gives them all; build_Mprime and
the Mprime path of oracle.b_of_simple_via read them, and that path
never builds the matrix.  Mbar is built at the partition level from the
same packed rows (descents._packed_a_hat_rows, built once per n) and
descents._refinements, keyed by multiplicity codes, with no subset
table.

b(n, d) counts the positive n-braids of degree at most d; b(n, d, x) those
whose d-th normal factor equals the square-free braid x, by exact integer
row-vector iteration through vec_times_matrix, the one product.  The
reduced matrix is the counting path; the counts through the larger ones
are cross-checks that live in oracle.b_of_simple_via.

Every b(...) function and computed_table read count_series(n, dmax), the
vectors 1 Mbar(n)^(d-1) for d = 1..dmax, and nothing else reads it.
build_Mbar builds each shared Mbar(n) once per process.
"""
from __future__ import annotations

import collections
import functools
import math
from operator import mul
from typing import NamedTuple, Sequence

from . import descents, permutations
from .descents import PartitionN
from .permutations import Perm

FACTORIAL_CAP = 7
SUBSET_CAP = 12
MBAR_CAP = 15


class CountMatrix(NamedTuple("CountMatrix", [
    ("kind", str),  # "M" | "Mprime" | "Mbar"
    ("n", int),
    ("labels", tuple),
    ("rows", tuple[tuple[int, ...], ...]),
])):
    """A square matrix of exact non-negative integers with typed labels."""

    __slots__ = ()

    def __new__(cls, kind, n, labels, rows):
        if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
            raise ValueError(f"{kind} rows are not {len(labels)} x {len(labels)}, one per label")
        return super().__new__(cls, kind, n, labels, rows)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    @property
    def size(self) -> int:
        return len(self.labels)

    def label_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown {self.kind} label {label!r}") from None

    def entry(self, row_label, col_label) -> int:
        return self.rows[self.label_index(row_label)][self.label_index(col_label)]

    def transpose(self) -> "CountMatrix":
        return CountMatrix(
            kind=self.kind,
            n=self.n,
            labels=self.labels,
            rows=tuple(zip(*self.rows)),
        )


def _checked_size(kind: str, n: int) -> int:
    """
    The size of build_<kind>(n), n!, 2^(n-1) or p(n), behind that
    builder's cap; build_M and mprime_columns check their caps here,
    before anything is built, and the size itself needs neither matrix.
    """
    if kind == "Mbar":
        return build_Mbar(n).size
    cap, what = (FACTORIAL_CAP, "factorial-size") if kind == "M" else (SUBSET_CAP, "subset-size")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the {what} cap {cap}")
    return math.factorial(n) if kind == "M" else 1 << (n - 1)


@functools.lru_cache(maxsize=None)
def descent_masks(n: int) -> tuple[tuple[int, int], ...]:
    """
    (left, right) descent bitmasks of simple_enumeration(n), in its order;
    build_M and the oracles, structural_check_M too, read this one table.
    It follows the enumeration's induction from the masks of each p in
    descent_masks(n-1), with no permutation listed.  Appending n keeps
    both.  Raising p's values >= i and appending i < n keeps p's right
    descents and adds n-1 when p's last value is >= i.  Of the left
    descents, those below i-1 stay, i-1 goes (i is now last), i comes
    (i+1 now stands left of i), and those from i on move up by one.
    p's last value is n-1 in the first (n-2)! entries, n-2 in the next
    (n-2)!, and so on.
    """
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n == 1:
        return ((0, 0),)
    prev = descent_masks(n - 1)
    run = math.factorial(n - 2)
    ends = [(n - 1 - b, prev[b * run:(b + 1) * run]) for b in range(n - 1)]
    top = 1 << (n - 2)
    out = list(prev)
    for i in range(n - 1, 0, -1):
        low, bit = (1 << max(i - 2, 0)) - 1, 1 << (i - 1)
        for last, block in ends:
            high = top if last >= i else 0
            out.extend((left & low | bit | left >> (i - 1) << i, right | high) for left, right in block)
    return tuple(out)


def build_M(n: int) -> CountMatrix:
    """
    The full n! x n! 0/1 normality matrix over the canonical enumeration.
    """
    _checked_size("M", n)
    masks = descent_masks(n)
    lefts = [left for left, _ in masks]
    rows = tuple(tuple(1 if left_y & ~right_x == 0 else 0 for left_y in lefts) for _, right_x in masks)
    return CountMatrix(kind="M", n=n, labels=permutations.simple_enumeration(n), rows=rows)


@functools.lru_cache(maxsize=None)
def mprime_columns(n: int) -> dict[PartitionN, tuple[int, ...]]:
    """
    The p(n) distinct columns of Mprime(n): partition mu maps to
    a(n, I, J) for every subset mask I, at any J with partition mu (the
    count depends on J only through it).  Row kappa of the symmetric
    table descents._packed_a_hat_rows(n) packs a_hat(kappa, mu) for every
    column mu, so one superset transform of the packed rows gives every
    column at once, each slot exact (see descents._superset_transform).
    The transformed rows are packed end to end and unpacked in one step
    into an array; column mu is every p(n)-th slot.  The cap is checked
    before any column is computed.  The dict is shared by every caller
    and must not be changed.
    """
    _checked_size("Mprime", n)
    labels = descents.partitions_in_order(n)
    a_hat_rows, width = descents._packed_a_hat_rows(n)
    p = len(labels)
    entries = descents._pack(descents._superset_transform(n, a_hat_rows), p * width)
    slots = descents._slots(entries, p << (n - 1), width)
    return {mu: tuple(slots[j::p]) for j, mu in enumerate(labels)}


def build_Mprime(n: int) -> CountMatrix:
    """
    The 2^(n-1) square matrix of exact-left / contained-right descent
    counts over subsets in binary order: column J is mprime_columns(n)
    at the partition of J.
    """
    columns = mprime_columns(n)
    rows = tuple(zip(*(columns[mu] for mu in descents.partitions_by_mask(n))))
    labels = tuple(descents.subsets_in_binary_order(n))
    return CountMatrix(kind="Mprime", n=n, labels=labels, rows=rows)


def build_Mbar(n: int) -> CountMatrix:
    """
    The p(n) square partition-level matrix from the margin-count formulas;
    the cap is checked on every call, the shared matrix built once per n.
    """
    _check_Mbar(n)
    return _cached_Mbar(n)


def _check_Mbar(n: int) -> None:
    """build_Mbar's check of n, which spectral reads too: ValueError outside 1..MBAR_CAP."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MBAR_CAP:
        raise ValueError(f"n={n} exceeds the Mbar size cap {MBAR_CAP}")


@functools.lru_cache(maxsize=None)
def _cached_Mbar(n: int) -> CountMatrix:
    # Mbar = C·Â at the partition level (Stanley, EC2 §7.23): Â = KᵀK is the
    # Kostka Gram table, and C[lam][kappa] = r(kappa)·_refinements(kappa)[code
    # of lam] is the h-expansion of the summed ribbon Schur functions, the
    # superset transform of the subset level summed over the subsets with
    # partition lam.  Row lam is summed as one integer over the packed rows of
    # Â: C is signed, but the sum is exact, and its slots, entries of Mbar,
    # count at most n! braids each, so they fit the slot width of Â.  The code
    # digits hold MBAR_CAP parts, so one refinement table of each prefix of
    # kappa serves every n.
    labels = descents.partitions_in_order(n)
    index = {descents._multiplicity_code(lam, MBAR_CAP): i for i, lam in enumerate(labels)}
    a_hat_rows, width = descents._packed_a_hat_rows(n)
    packed = [0] * len(labels)
    for kappa, a_hat_row in zip(labels, a_hat_rows):
        orderings = descents._multinomial(collections.Counter(kappa).values())
        for code, count in descents._refinements(kappa, MBAR_CAP).items():
            packed[index[code]] += orderings * count * a_hat_row
    rows = tuple(descents._unpack(row, len(labels), width) for row in packed)
    return CountMatrix(kind="Mbar", n=n, labels=labels, rows=rows)


def vec_times_matrix(v: Sequence[int], m: CountMatrix | Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row vector times matrix (a CountMatrix or its rows), exact integers."""
    rows = m.rows if isinstance(m, CountMatrix) else m
    if len(v) != len(rows):
        raise ValueError(f"vector length {len(v)} does not match matrix size {len(rows)}")
    return tuple(sum(map(mul, v, col)) for col in zip(*rows))


# n -> [v_1, v_2, ...], extended on demand by count_series.
_SERIES: dict[int, list[tuple[int, ...]]] = {}


def count_series(n: int, dmax: int) -> list[tuple[int, ...]]:
    """
    The vectors v_1 = (1, ..., 1), v_d = v_(d-1) Mbar(n) for d <= dmax;
    entry lam of v_d is b(n, d, lam), in the order of build_Mbar(n).labels.
    """
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    m = build_Mbar(n)
    series = _SERIES.setdefault(n, [(1,) * m.size])
    while len(series) < dmax:
        series.append(vec_times_matrix(series[-1], m))
    return series[:dmax]


def b_of_partition(n: int, d: int, lam: PartitionN) -> int:
    """
    The count of degree-at-most-d positive n-braids whose d-th normal
    factor has left-descent partition lam.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    idx = build_Mbar(n).label_index(tuple(lam))
    return count_series(n, d)[d - 1][idx]


def b_of_simple(n: int, d: int, x: Perm) -> int:
    """
    The count of degree-at-most-d positive n-braids whose d-th normal
    factor is exactly x; it depends only on the left-descent partition of
    x.  oracle.b_of_simple_via computes it through the larger matrices.
    """
    permutations.check_on_strands(x, n)
    return b_of_partition(n, d, descents.partition_of(permutations.d_left(x), n))


def b_total(n: int, d: int) -> int:
    """
    The number of positive n-braids of degree at most d (d = 0 gives 1,
    counting only the trivial braid).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return 1
    return b_of_partition(n, d + 1, (1,) * n)


def b_delta(n: int, d: int, r: int) -> int:
    """
    The count with d-th factor the half twist on the first n-r strands.
    """
    return b_of_partition(n, d, descents.delta_partition(n, r))


def computed_table(nmax: int, dmax: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """
    Grid of b(n, d, half twist on rho strands) values: keys (n, rho) with
    1 <= rho < n, values indexed by d = 1..dmax.  rho = 1 is the trivial
    braid column.
    """
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for n in range(2, nmax + 1):
        series = count_series(n, dmax)
        labels = build_Mbar(n).labels
        for rho in range(1, n):
            idx = labels.index(descents.delta_partition(n, n - rho))
            out[(n, rho)] = tuple(v[idx] for v in series)
    return out
