"""
Compositions and partitions attached to descent sets, and the exact
counting of square-free braids with prescribed descent behaviour.

For a subset I of {1, ..., n-1}, its composition is the gap sequence of
the complement of I inside {1, ..., n}: equivalently, the sizes of the
maximal runs of consecutive elements of I, each augmented by one.  Its
partition is the non-increasing rearrangement of the composition.

The two counting numbers implemented here are, for subsets I and J:

  a_hat(n, I, J)  the number of square-free braids x with d_left(x) >= I
                  and d_right(x) >= J;
  a(n, I, J)      the same with d_left(x) == I exactly.

a_hat is the number of non-negative integer matrices with row margins the
composition of I and column margins the composition of J.  That number
depends only on the two partitions, and by RSK it is sum over shapes nu
of K(nu, rows) * K(nu, cols).  _packed_a_hat_rows(n), built once per n,
holds it for every pair of partitions of n as the Gram product K^T K of
the Kostka columns read from _tableaux, which grows each table by one
horizontal strip per part (the strips of each shape and size are
cached).  Each row of K^T K is one integer: the rows of K are packed
into byte-aligned slots wide enough for n! (every entry counts
square-free braids), of 1, 2, 4 or 8 bytes so that _pack and _unpack
convert a row in one step, and row kappa is the sum of K(nu, kappa)
times packed row nu over the nonzero Kostka numbers of column kappa, one
big-integer multiply-add each.  A margin count is one slot, read by
shift and mask.  contingency_count, a dynamic program over the columns,
counts the same matrices directly and is kept as the independent check.

Two levels read these margin counts.  At the subset level, a follows by
inclusion-exclusion over supersets of I, in a_column, the one superset
transform, which unpacks one row of the table; partitions_by_mask is the
one subset-to-partition table, and a and matrices.mprime_columns, the
p(n) distinct columns of Mprime(n), read both.  At the partition level,
_refinements holds the signed refinement counts that sum the same
inclusion-exclusion over every subset with a given partition at once;
matrices.build_Mbar reads it with the packed rows of the same table and
never builds a subset table.  The brute-force oracles, oracle.count_functions
and the census of all n! permutations (oracle.left_right_descent_census),
live with the other oracles.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array
from typing import Iterable, Sequence

Composition = tuple[int, ...]
PartitionN = tuple[int, ...]


def _check_subset(members: Iterable[int], n: int) -> frozenset[int]:
    s = frozenset(members)
    if not all(1 <= i <= n - 1 for i in s):
        raise ValueError(f"descent set {sorted(s)} not inside 1..{n - 1}")
    return s


def composition_of(members: Iterable[int], n: int) -> Composition:
    """
    Gap sequence of the complement of the subset inside {1, ..., n}.

    >>> composition_of({1, 2, 4, 5, 6, 9}, 10)
    (3, 4, 1, 2)
    >>> composition_of(set(), 3)
    (1, 1, 1)
    """
    s = _check_subset(members, n)
    complement = [p for p in range(1, n + 1) if p not in s]
    prev = 0
    parts = []
    for p in complement:
        parts.append(p - prev)
        prev = p
    return tuple(parts)


def partition_of(members: Iterable[int], n: int) -> PartitionN:
    """Non-increasing rearrangement of composition_of(members, n)."""
    return tuple(sorted(composition_of(members, n), reverse=True))


def set_of_composition(parts: Sequence[int]) -> frozenset[int]:
    """
    The unique subset whose composition is the given sequence (read in
    order, so a partition is interpreted as a composition).

    >>> sorted(set_of_composition((2, 1)))
    [1]
    """
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"{parts!r} is not a composition (positive parts required)")
    n = sum(parts)
    sums = set(itertools.accumulate(parts))
    return frozenset(i for i in range(1, n) if i not in sums)


def subsets_in_binary_order(n: int) -> list[frozenset[int]]:
    """Subsets of {1, ..., n-1} ordered by their binary value, bit i-1 for element i."""
    return [set_of_mask(value) for value in range(1 << (n - 1))]


@functools.lru_cache(maxsize=None)
def partitions_by_mask(n: int) -> tuple[PartitionN, ...]:
    """
    The partition of every subset of {1, ..., n-1}, indexed by its bitmask.

    >>> partitions_by_mask(3)
    ((1, 1, 1), (2, 1), (2, 1), (3,))
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(partition_of(set_of_mask(mask), n) for mask in range(1 << (n - 1)))


@functools.lru_cache(maxsize=None)
def partitions_in_order(n: int) -> tuple[PartitionN, ...]:
    """
    The partitions of n, ordered by first occurrence as the partition of a
    subset, subsets taken in binary counting order.  That first subset is
    the one whose composition is the partition read in non-increasing
    order, so the partitions are sorted by mask_of(set_of_composition(lam)).

    >>> partitions_in_order(3)
    ((1, 1, 1), (2, 1), (3,))
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(sorted(_refinements((n,)), key=lambda lam: mask_of(set_of_composition(lam))))


def delta_partition(n: int, r: int) -> PartitionN:
    """
    The left-descent partition of the half twist on the first n-r strands,
    embedded into n strands: (n-r, 1, ..., 1) with r ones, degenerating to
    all ones when n-r <= 1.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r={r} out of range 1..{n}")
    head = [n - r] if n - r >= 1 else []
    return tuple(sorted(head + [1] * r, reverse=True))


def contingency_count(rows: Sequence[int], cols: Sequence[int]) -> int:
    """
    The number of non-negative integer matrices with the given row and
    column sums, by dynamic programming over columns with the multiset of
    remaining row sums as state.  The library counts through the Kostka
    numbers instead; this is the check.

    >>> contingency_count((2, 1), (2, 1))
    2
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if sum(rows) != sum(cols):
        raise ValueError(f"margin sums differ: {sum(rows)} vs {sum(cols)}")
    return _fill_columns(tuple(sorted(rows)), cols)


@functools.lru_cache(maxsize=None)
def _fill_columns(rows_sorted: tuple[int, ...], cols: tuple[int, ...]) -> int:
    if not cols:
        return 1
    q = cols[0]
    rest = cols[1:]
    total = 0
    k = len(rows_sorted)

    def distribute(idx: int, remaining: int, current: list[int]) -> None:
        nonlocal total
        if idx == k - 1:
            if remaining <= rows_sorted[idx]:
                current.append(rows_sorted[idx] - remaining)
                total += _fill_columns(tuple(sorted(current)), rest)
                current.pop()
            return
        for d in range(min(remaining, rows_sorted[idx]) + 1):
            current.append(rows_sorted[idx] - d)
            distribute(idx + 1, remaining - d, current)
            current.pop()

    if k == 0:
        return 1 if q == 0 else 0
    distribute(0, q, [])
    return total


@functools.lru_cache(maxsize=None)
def _horizontal_strips(shape: PartitionN, k: int) -> tuple[PartitionN, ...]:
    """
    Every partition nu containing shape whose skew nu/shape is a horizontal
    strip of k boxes: row i grows by at most shape[i-1] - shape[i].  The
    same (shape, k) recurs for many contents, so the tuple is cached.

    >>> _horizontal_strips((2,), 1)
    ((2, 1), (3,))
    """
    rows = shape + (0,)
    out = []

    def grow(i: int, left: int, grown: tuple[int, ...]) -> None:
        if i == len(rows):
            if left == 0:
                out.append(grown if grown[-1] else grown[:-1])
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, grown + (rows[i] + add,))

    grow(0, k, ())
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _tableaux(content: tuple[int, ...]) -> dict[PartitionN, int]:
    """
    The Kostka numbers K(shape, content): the number of semistandard
    tableaux of each shape with content[i] entries equal to i + 1.  The
    largest entries form a horizontal strip, so the table extends the one
    for content[:-1] by one strip of content[-1] boxes.  The dict is
    shared by every caller and must not be changed.

    >>> _tableaux((2, 1))
    {(2, 1): 1, (3,): 1}
    """
    if not content:
        return {(): 1}
    out: dict[PartitionN, int] = {}
    for shape, count in _tableaux(content[:-1]).items():
        for bigger in _horizontal_strips(shape, content[-1]):
            out[bigger] = out.get(bigger, 0) + count
    return out


# The array typecode of each slot width, in bytes, that a machine type has:
# _pack and _unpack convert such rows in one step, other widths slot by slot.
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _slot_width(top: int) -> int:
    """
    The fewest bytes whose slots hold every integer in [0, top], rounded
    up to 1, 2, 4 or 8 where one of them suffices.

    >>> [_slot_width(t) for t in (255, 256, 2**32, 2**64)]
    [1, 2, 8, 9]
    """
    width = (top.bit_length() + 7) // 8
    return min((w for w in _SLOT_CODES if w >= width), default=width)


def _pack(values: Iterable[int], width: int) -> int:
    """
    One integer holding the non-negative values in slots of width bytes,
    the first value in the lowest slot: the inverse of _unpack.  A value
    that does not fit its slot raises OverflowError.

    >>> _pack((1, 2), 1)
    513
    """
    code = _SLOT_CODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
    slots = array(code, values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(packed: int, count: int, width: int) -> tuple[int, ...]:
    """
    The count slots of width bytes of a packed row.  A sum of packed rows
    with signed weights is exact, and unpacks to the weighted sums of
    their slots as long as each lies in [0, 2**(8 width)); a negative or
    too-wide total raises OverflowError instead of returning wrong slots.

    >>> _unpack(513, 2, 1)
    (1, 2)
    """
    data = packed.to_bytes(count * width, "little")
    code = _SLOT_CODES.get(width)
    if code is None:
        return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width))
    slots = array(code, data)
    if sys.byteorder == "big":
        slots.byteswap()
    return tuple(slots)


@functools.lru_cache(maxsize=None)
def _packed_a_hat_rows(n: int) -> tuple[tuple[int, ...], int]:
    """
    The margin counts of every pair of partitions of n, rows and columns
    in the order of partitions_in_order(n): one packed integer per row,
    and the slot width in bytes.  By RSK a matrix with margins kappa and
    mu is a pair of semistandard tableaux of one shape nu with contents
    kappa and mu, so the table is the Gram product K^T K of the Kostka
    columns K(., kappa) from _tableaux, and it is symmetric.  The width
    holds n!, rounded up to 1, 2, 4 or 8 bytes, which holds it through
    n = 20 (20! < 2**63).  Built once per n: matrices.build_Mbar sums its
    rows, a_column unpacks one, and _count_by_sorted_margins reads one slot.
    """
    labels = partitions_in_order(n)
    width = _slot_width(math.factorial(n))
    kostka_rows: dict[PartitionN, list[int]] = {nu: [0] * len(labels) for nu in labels}
    tables = [_tableaux(kappa) for kappa in labels]
    for j, table in enumerate(tables):
        for nu, count in table.items():
            kostka_rows[nu][j] = count
    packed = {nu: _pack(row, width) for nu, row in kostka_rows.items()}
    return tuple(sum(count * packed[nu] for nu, count in table.items()) for table in tables), width


@functools.lru_cache(maxsize=None)
def _count_by_sorted_margins(rows_desc: tuple[int, ...], cols_desc: tuple[int, ...]) -> int:
    # One slot of _packed_a_hat_rows; benchmark/tracer.py reads this cache's hit ratio.
    n = sum(rows_desc)
    labels = partitions_in_order(n)
    rows, width = _packed_a_hat_rows(n)
    bits = 8 * width
    return rows[labels.index(rows_desc)] >> bits * labels.index(cols_desc) & (1 << bits) - 1


def _multinomial(parts: Sequence[int]) -> int:
    """sum(parts)! / (parts[0]! parts[1]! ...), e.g. 12 for (2, 1, 1)."""
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


@functools.lru_cache(maxsize=None)
def _refinements(kappa: tuple[int, ...]) -> dict[PartitionN, int]:
    """
    Signed refinement counts of kappa, read as a composition: entry lam is
    the sum of (-1)^(len(alpha) - len(kappa)) over the compositions alpha
    that split each part of kappa into a composition and sort to lam.  By
    induction on the first piece j of the last part k, it is the table for
    kappa[:-1] with k added, minus, for j = 1..k-1, the table for
    (*kappa[:-1], k - j) with j added.

    Shrinking a subset I' to I refines its composition this way, with sign
    (-1)^|I' - I|, so r(kappa) times entry lam, r(kappa) the number of
    orderings of kappa, is the signed count of the pairs I within I' with
    partitions lam and kappa.  The dict is shared by every caller and must
    not be changed.
    """
    if not kappa:
        return {(): 1}
    head, k = kappa[:-1], kappa[-1]
    out: dict[PartitionN, int] = {}
    steps = [(head, k, 1)] + [(head + (k - j,), j, -1) for j in range(1, k)]
    for coarser, piece, sign in steps:
        for lam, count in _refinements(coarser).items():
            finer = tuple(sorted(lam + (piece,), reverse=True))
            out[finer] = out.get(finer, 0) + sign * count
    return out


def a_hat(n: int, I: Iterable[int], J: Iterable[int]) -> int:
    """
    Number of square-free n-braids whose left-descent set contains I and
    whose right-descent set contains J.

    >>> a_hat(3, {1}, {1})
    2
    """
    return _count_by_sorted_margins(partition_of(I, n), partition_of(J, n))


def a_column(n: int, mu: PartitionN) -> list[int]:
    """
    a(n, I, J) for every subset mask I at any column J whose partition is
    mu (the count depends on J only through it): the contained-descents
    counts a_hat, unpacked from row mu of _packed_a_hat_rows(n), which is
    column mu as the table is symmetric, then the signed superset
    transform, one bit at a time.
    """
    labels = partitions_in_order(n)
    rows, width = _packed_a_hat_rows(n)
    counts = dict(zip(labels, _unpack(rows[labels.index(mu)], len(labels), width)))
    arr = [counts[lam] for lam in partitions_by_mask(n)]
    for b in range(n - 1):
        bit = 1 << b
        for i_mask in range(len(arr)):
            if not i_mask & bit:
                arr[i_mask] -= arr[i_mask | bit]
    return arr


def a(n: int, I: Iterable[int], J: Iterable[int]) -> int:
    """
    Number of square-free n-braids whose left-descent set equals I exactly
    and whose right-descent set contains J, by inclusion-exclusion over the
    supersets of I.
    """
    i_mask = mask_of(_check_subset(I, n))
    return a_column(n, partition_of(J, n))[i_mask]


def mask_of(members: Iterable[int]) -> int:
    """Bitmask of a descent set, bit i-1 for element i."""
    mask = 0
    for i in members:
        mask |= 1 << (i - 1)
    return mask


def set_of_mask(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def format_parts(parts: Sequence[int]) -> str:
    """Serialization for compositions and partitions, e.g. '(3,4,1,2)'."""
    return "(" + ",".join(str(p) for p in parts) + ")"
