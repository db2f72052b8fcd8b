"""
Independent brute-force ground truth for the counting pipeline.

brute_count enumerates whole tuples of permutations and tests every
adjacent pair in isolation; it deliberately shares nothing with the
matrix machinery beyond the pairwise normality predicate.  dp_count runs
a dynamic program whose state is the exact last factor, one slot per
permutation, so it exercises the transfer recurrence without any of the
descent-class or partition reductions.  sweep_Mbar tallies all n!
permutations into the partition matrix that build_Mbar gets from formulas.
"""
from __future__ import annotations

import functools
import itertools
import math
from multiprocessing import Pool

from . import descents
from .matrices import CountMatrix
from .permutations import Perm, d_left, d_right, is_normal_pair, simple_enumeration

DEFAULT_BUDGET = 10**8
DP_CAP = 7


def _tuple_is_normal(tup: tuple[Perm, ...]) -> bool:
    return all(is_normal_pair(tup[k], tup[k + 1]) for k in range(len(tup) - 1))


def _count_chunk(args: tuple[int, int, Perm | None, tuple[Perm, ...]]) -> int:
    n, d, last, firsts = args
    perms = list(itertools.permutations(range(1, n + 1)))
    total = 0
    free = d - 1 if last is not None else d
    for first in firsts:
        for rest in itertools.product(perms, repeat=free - 1):
            tup = (first,) + rest + ((last,) if last is not None else ())
            if _tuple_is_normal(tup):
                total += 1
    return total


def brute_count(
    n: int,
    d: int,
    last: Perm | None = None,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """
    Count length-d normal sequences of square-free n-braids by exhaustive
    tuple enumeration, optionally with the final factor pinned.  Refuses
    to start when the worst-case number of pair checks exceeds the budget.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if last is not None and len(last) != n:
        raise ValueError(f"constraint permutation {last} does not live on {n} strands")
    free = d - 1 if last is not None else d
    if free == 0:
        return 1
    checks = math.factorial(n) ** free * max(d - 1, 1)
    if checks > budget:
        raise ValueError(
            f"budget exceeded: {checks} pair checks needed, budget is {budget}"
        )
    perms = list(itertools.permutations(range(1, n + 1)))
    if workers > 1 and len(perms) > 1:
        chunk = max(1, len(perms) // workers)
        jobs = [
            (n, d, last, tuple(perms[i : i + chunk]))
            for i in range(0, len(perms), chunk)
        ]
        with Pool(processes=workers) as pool:
            return sum(pool.map(_count_chunk, jobs))
    total = 0
    for tup in itertools.product(perms, repeat=free):
        full = tup + ((last,) if last is not None else ())
        if _tuple_is_normal(full):
            total += 1
    return total


@functools.lru_cache(maxsize=None)
def _predecessors(n: int) -> tuple[tuple[int, ...], ...]:
    enum = simple_enumeration(n)
    size = len(enum)
    dr = [descents.mask_of(d_right(x)) for x in enum]
    dl = [descents.mask_of(d_left(x)) for x in enum]
    return tuple(
        tuple(x for x in range(size) if dl[y] & ~dr[x] == 0) for y in range(size)
    )


def dp_count(n: int, d: int, last: Perm | None = None, cap: int = DP_CAP) -> int:
    """
    Count the same sequences by a transfer dynamic program over the exact
    last factor, one state per square-free braid (no descent-class
    grouping).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the dp cap {cap}")
    if last is not None and len(last) != n:
        raise ValueError(f"constraint permutation {last} does not live on {n} strands")
    enum = simple_enumeration(n)
    size = len(enum)
    predecessors = _predecessors(n)

    v = [1] * size
    for _ in range(d - 1):
        v = [sum(v[x] for x in predecessors[y]) for y in range(size)]
    if last is None:
        return sum(v)
    return v[enum.index(last)]


def sweep_Mbar(n: int) -> CountMatrix:
    """
    Mbar(n) by sweep: entry (lam, mu) counts the permutations whose left
    descents have partition lam and whose right descents contain mu's subset.
    """
    labels = descents.partitions_in_order(n)
    mu_masks = [descents.mask_of(descents.set_of_composition(mu)) for mu in labels]
    rows = [[0] * len(labels) for _ in labels]
    for (left, right), count in descents.left_right_descent_census(n).items():
        row = rows[labels.index(descents.partition_of(descents.set_of_mask(left), n))]
        for mu_idx, mu_mask in enumerate(mu_masks):
            if mu_mask & ~right == 0:
                row[mu_idx] += count
    return CountMatrix(kind="Mbar", n=n, labels=labels, rows=tuple(tuple(r) for r in rows))
