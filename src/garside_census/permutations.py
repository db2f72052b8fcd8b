"""
Permutations of {1, ..., n} in one-line notation, used as the canonical
representation of square-free positive braids (the divisors of the half
twist on n strands).

A permutation is a tuple of length n containing each of 1..n exactly once;
``perm[p - 1]`` is the starting position of the strand that ends at
position p.  Composition is function composition,
``compose(f, g)(p) = f(g(p))``, which makes the map from positive braid
words to permutations a homomorphism: the word ``u v`` maps to
``compose(perm_of_letters(u), perm_of_letters(v))``.

The generator with index i right-divides a square-free braid exactly when
i is a descent of its permutation, and left-divides it exactly when i is a
descent of the inverse permutation.  A pair (x, y) of square-free braids
can stand adjacent in a normal sequence exactly when
``d_right(x) >= d_left(y)``.

All indices in the public interface are 1-based.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

Perm = tuple[int, ...]


def is_one_line(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of 1..n in one-line notation.

    >>> [is_one_line(w) for w in [(), (1,), (2, 1), (1, 1), (0, 1)]]
    [True, True, True, False, False]
    """
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def identity(n: int) -> Perm:
    """The identity permutation, the trivial braid."""
    return tuple(range(1, n + 1))


def flip(n: int) -> Perm:
    """
    The order-reversing permutation [n, n-1, ..., 1], i.e. the half twist.

    >>> flip(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def transposition(n: int, i: int) -> Perm:
    """The adjacent transposition swapping i and i+1, the image of the i-th generator."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return tuple(word)


def compose(f: Perm, g: Perm) -> Perm:
    """
    Function composition (f, g) -> f∘g, i.e. apply g first, then f.

    >>> compose((1, 3, 2), (2, 1, 3))
    (3, 1, 2)
    """
    if len(f) != len(g):
        raise ValueError(f"cannot compose permutations of sizes {len(f)} and {len(g)}")
    return tuple(f[v - 1] for v in g)


def inverse(f: Perm) -> Perm:
    """
    The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(f)
    for pos, v in enumerate(f):
        inv[v - 1] = pos + 1
    return tuple(inv)


def inversion_number(f: Perm) -> int:
    """
    The number of inversions, i.e. the length of the braid with this
    permutation.  O(n^2), fine at the sizes used here.

    >>> inversion_number((3, 2, 1))
    3
    """
    n = len(f)
    return sum(1 for i in range(n) for j in range(i + 1, n) if f[i] > f[j])


def d_right(x: Perm) -> frozenset[int]:
    """
    Indices i with x[i] > x[i+1] (1-based): the generators right-dividing
    the square-free braid of x.
    """
    return frozenset(i + 1 for i in range(len(x) - 1) if x[i] > x[i + 1])


def descent_mask(x: Perm) -> int:
    """
    d_right(x) as a bitmask, bit i-1 for descent i (the descents.mask_of
    convention); descent_mask(inverse(x)) is the mask of d_left(x).

    >>> descent_mask((3, 1, 2)), descent_mask(inverse((3, 1, 2)))
    (1, 2)
    """
    mask = 0
    for i in range(len(x) - 1):
        if x[i] > x[i + 1]:
            mask |= 1 << i
    return mask


def d_left(x: Perm) -> frozenset[int]:
    """Descents of the inverse: the generators left-dividing the braid of x."""
    return d_right(inverse(x))


def is_normal_pair(x: Perm, y: Perm) -> bool:
    """
    Whether (x, y) may stand adjacent in a normal sequence: every generator
    left-dividing y must right-divide x.
    """
    if len(x) != len(y):
        raise ValueError(f"cannot compare permutations of sizes {len(x)} and {len(y)}")
    return descent_mask(inverse(y)) & ~descent_mask(x) == 0


def perm_of_letters(letters: Iterable[int], n: int) -> Perm:
    """Permutation of the positive word given by generator indices, in word order."""
    acc = identity(n)
    for i in letters:
        acc = compose(acc, transposition(n, i))
    return acc


def sigma_in(i: int, n: int) -> Perm:
    """
    Permutation of the ascending run of generators i, i+1, ..., n-1
    (the empty word when i = n).  It sends n to position i and shifts
    i..n-1 up by one.

    >>> sigma_in(1, 3)
    (2, 3, 1)
    >>> sigma_in(3, 3)
    (1, 2, 3)
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    return tuple(range(1, i)) + tuple(range(i + 1, n + 1)) + (i,)


@functools.lru_cache(maxsize=None)
def simple_enumeration(n: int) -> tuple[Perm, ...]:
    """
    The canonical enumeration of all n! square-free braids, built by
    induction on n: the braids on n strands are the braids on n-1 strands
    followed, for i = n-1 down to 1, by the block obtained by prefixing
    sigma_in(i, n).  The first entry is the identity, the last is flip(n).

    Read as a relabelling, block b = 0, ..., n-1 takes each p of
    simple_enumeration(n-1), raises its values >= i = n - b by one and
    appends i; block 0 appends n and raises nothing.  So an entry ending
    in i lies in block n - i.  matrices.descent_masks and
    enumeration_index read this induction without listing the n! tuples.
    """
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n == 1:
        return (identity(1),)
    prev = [p + (n,) for p in simple_enumeration(n - 1)]
    out = list(prev)
    for i in range(n - 1, 0, -1):
        head = sigma_in(i, n)
        out.extend(compose(head, p) for p in prev)
    return tuple(out)


def check_one_line(x: Sequence[int]) -> None:
    """Raise ValueError unless x is a permutation of 1..len(x)."""
    if not is_one_line(x):
        raise ValueError(f"{x} is not a permutation of 1..{len(x)}")


def check_on_strands(x: Sequence[int], n: int) -> None:
    """Raise ValueError unless x is a permutation of 1..n."""
    if len(x) != n:
        raise ValueError(f"permutation {x} does not live on {n} strands")
    check_one_line(x)


def enumeration_index(x: Perm) -> int:
    """
    0-based position of x in simple_enumeration(len(x)), by running its
    induction backwards: x ending in i lies in block n - i, at the
    position within the block of x without its last value and with its
    values above i lowered by one.  O(n^2) work and no n!-sized table;
    a non-permutation raises ValueError.

    >>> enumeration_index((1, 2, 3)), enumeration_index((3, 2, 1))
    (0, 5)
    """
    check_one_line(x)
    if not x:
        raise ValueError("strand count must be at least 1")
    index, rest = 0, list(x)
    for n in range(len(x), 1, -1):
        i = rest.pop()
        index += (n - i) * math.factorial(n - 1)
        rest = [v - (v > i) for v in rest]
    return index


def phi(x: Perm) -> Perm:
    """
    The flip automorphism: conjugation by the half twist, exchanging the
    generators i and n-i.

    >>> phi((2, 1, 3))
    (1, 3, 2)
    """
    w0 = flip(len(x))
    return compose(w0, compose(x, w0))


def dual_left(x: Perm) -> Perm:
    """
    The left complement: the square-free braid that left-multiplies x to
    the half twist.  Its right descents are the complement of the left
    descents of x.
    """
    return compose(flip(len(x)), inverse(x))


def dual_right(x: Perm) -> Perm:
    """The right complement: x times it equals the half twist."""
    return compose(inverse(x), flip(len(x)))


def partial_flip(n: int, m: int) -> Perm:
    """
    The half twist on the first m strands, embedded into n strands:
    [m, m-1, ..., 1, m+1, ..., n].  For m <= 1 this is the identity.
    """
    if not 0 <= m <= n:
        raise ValueError(f"sub-twist width {m} out of range for n={n}")
    return tuple(range(m, 0, -1)) + tuple(range(m + 1, n + 1))


def format_permutation(x: Perm) -> str:
    """One-line serialization, e.g. '[3,4,1,2]'."""
    return "[" + ",".join(str(v) for v in x) + "]"


def parse_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits 0-9 only, not the other digits, underscores or spaces int() reads."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)  # which rejects more than one sign


def parse_permutation(text: str) -> Perm:
    """Inverse of format_permutation; also accepts a bare comma list."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        values = tuple(parse_int(tok.strip()) for tok in body.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}") from exc
    if not is_one_line(values):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(values)}")
    return values


def format_descent_set(members: frozenset[int] | set[int]) -> str:
    """Sorted brace-list serialization, e.g. '{2}' or '{}'."""
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"
