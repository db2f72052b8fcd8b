"""
Positive braid words and their normal form.

A word is a sequence of generator indices in {1, ..., n-1}.  Its normal
form is built in one left-to-right pass, the left-greedy update of
Elrifai and Morton (see Epstein et al., Word Processing in Groups, ch. 9):
each letter, as a square-free factor, is multiplied on the right of the
normal form of the letters before it.  A pair (x, y) that is not normal is
fixed by local moves: the smallest generator that left-divides y but does
not right-divide x is transferred from the front of y to the back of x,
which keeps the braid and lowers the weighted crossing count by one.
After a factor is appended, pairs are fixed leftwards and fixing stops at
the first pair that needs no move; that is safe because every pair to its
left is unchanged from a normal prefix, and fixing a pair leaves the pair
to its right normal (the domino rule).  Trailing trivial factors are
popped, and the result is the unique normal form.

While it is rewritten, each factor of the prefix is carried as four
things: its one-line list p and its inverse list q, both padded with the
values 0 in front and n+1 behind, and the bitmasks R of the descents of p
(the generators right-dividing it) and L of the descents of q (those
left-dividing it), bit i-1 for generator i.  The pair (x, y) is normal
exactly when L_y & ~R_x is 0, and its lowest set bit is the generator to
move.  Multiplying x by s_i on the right swaps places i and i+1 of p_x,
and s_i times y swaps the values i and i+1 of p_y; each is an adjacent
swap in one list and a swap of two entries in the other.  An adjacent
swap changes only the descent bits at i-1, i and i+1, and a swap of two
values changes only the order of those two values, so a descent bit of
the other list flips only when they are consecutive.  A move therefore
updates a few bits instead of rescanning the factor, and a factor is
trivial exactly when its R is 0.
"""
from __future__ import annotations

import dataclasses
import re
from typing import Callable

from .permutations import (
    Perm,
    descent_mask,
    identity,
    inverse,
    inversion_number,
    is_normal_pair,
    transposition,
)


@dataclasses.dataclass(frozen=True)
class PositiveWord:
    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("strand count must be at least 1")
        for i in self.letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"generator index {i} out of range for n={self.n}")


@dataclasses.dataclass(frozen=True)
class NormalSequence:
    n: int
    factors: tuple[Perm, ...]

    def __post_init__(self):
        one = identity(self.n)
        if self.factors and self.factors[-1] == one:
            raise ValueError("normal sequence may not end with a trivial factor")
        for k in range(len(self.factors) - 1):
            if not is_normal_pair(self.factors[k], self.factors[k + 1]):
                raise ValueError(f"factors {k + 1} and {k + 2} are not normal")


def delta_letters(n: int) -> tuple[int, ...]:
    """
    The standard positive word for the half twist: the descending
    concatenation of ascending runs (1..n-1)(1..n-2)...(1), of length
    n(n-1)/2.
    """
    out: list[int] = []
    for m in range(n, 1, -1):
        out.extend(range(1, m))
    return tuple(out)


_TOKEN = re.compile(r"^(?:(D)|s?(\d+))(?:\^(\d+))?$")


def parse_word(text: str, n: int) -> PositiveWord:
    """
    Parse a whitespace-separated word: tokens are 's<k>' or bare integers
    for single generators and 'D' for the half twist, each optionally
    followed by '^<e>' with e >= 1.
    """
    letters: list[int] = []
    for pos, token in enumerate(text.split(), start=1):
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"syntax error at token {pos}: {token!r}")
        is_delta, digits, exponent = m.groups()
        e = int(exponent) if exponent is not None else 1
        if e < 1:
            raise ValueError(f"non-positive exponent at token {pos}: {token!r}")
        if is_delta:
            letters.extend(delta_letters(n) * e)
        else:
            i = int(digits)
            if not 1 <= i <= n - 1:
                raise ValueError(f"index out of range at token {pos}: {token!r}")
            letters.extend([i] * e)
    return PositiveWord(n=n, letters=tuple(letters))


def normalize_factors(
    n: int,
    factors: tuple[Perm, ...] | list[Perm],
    on_step: Callable[[tuple[Perm, ...]], None] | None = None,
) -> NormalSequence:
    """
    The normal form of an arbitrary sequence of square-free factors on n
    strands (permutations of 1..n), in one left-to-right pass.  Each
    factor is appended to a normal prefix, and adjacent pairs are then
    fixed leftwards (smallest transferable generator first) until a pair
    needs no move; trailing trivial factors are popped before the next
    factor.  on_step, if given, receives the whole sequence (fixed prefix,
    then the factors not yet taken) after every move.  An already-normal
    sequence comes back unchanged with no moves made.
    """
    factors = tuple(factors)
    # the prefix, one entry per factor in each list: see the module docstring
    ps: list[list[int]] = []
    qs: list[list[int]] = []
    rs: list[int] = []
    ls: list[int] = []
    for pos, y in enumerate(factors):
        y_inv = inverse(y)
        ps.append([0, *y, n + 1])
        qs.append([0, *y_inv, n + 1])
        rs.append(descent_mask(y))
        ls.append(descent_mask(y_inv))
        k = len(rs) - 1
        while k > 0 and (movable := ls[k] & ~rs[k - 1]):
            px, qx, rx, lx = ps[k - 1], qs[k - 1], rs[k - 1], ls[k - 1]
            py, qy, ry, ly = ps[k], qs[k], rs[k], ls[k]
            while movable:
                bit = movable & -movable
                i = bit.bit_length()
                # x -> x s_i: places i, i+1 of p_x hold a < c and swap
                a, c = px[i], px[i + 1]
                px[i], px[i + 1] = c, a
                qx[a], qx[c] = i + 1, i
                rx |= bit
                rx = rx | bit >> 1 if px[i - 1] > c else rx & ~(bit >> 1)
                rx = rx | bit << 1 if a > px[i + 2] else rx & ~(bit << 1)
                if c == a + 1:
                    lx |= 1 << (a - 1)
                # y -> s_i y: the values i+1, i stand at places v < u and swap
                u, v = qy[i], qy[i + 1]
                qy[i], qy[i + 1] = v, u
                py[v], py[u] = i, i + 1
                ly &= ~bit
                ly = ly | bit >> 1 if qy[i - 1] > v else ly & ~(bit >> 1)
                ly = ly | bit << 1 if u > qy[i + 2] else ly & ~(bit << 1)
                if u == v + 1:
                    ry &= ~(1 << (v - 1))
                if on_step is not None:
                    on_step(tuple(tuple(p[1:-1]) for p in ps) + factors[pos + 1 :])
                movable = ly & ~rx
            rs[k - 1], ls[k - 1], rs[k], ls[k] = rx, lx, ry, ly
            k -= 1
        while rs and rs[-1] == 0:
            del ps[-1], qs[-1], rs[-1], ls[-1]
    return NormalSequence(n=n, factors=tuple(tuple(p[1:-1]) for p in ps))


def normalize(
    word: PositiveWord,
    on_step: Callable[[tuple[Perm, ...]], None] | None = None,
) -> NormalSequence:
    """
    The normal form of a positive word: normalize_factors on one
    square-free factor per letter, so each letter is multiplied on the
    right of the normal form of the letters before it.
    """
    n = word.n
    return normalize_factors(n, [transposition(n, i) for i in word.letters], on_step)


def degree(seq: NormalSequence) -> int:
    """The number of non-trivial factors."""
    return len(seq.factors)


def dth_factor(seq: NormalSequence, d: int) -> Perm:
    """
    The d-th factor, reading the sequence as padded with trivial factors
    on the right.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d <= len(seq.factors):
        return seq.factors[d - 1]
    return identity(seq.n)


def rewrite_potential(factors: tuple[Perm, ...]) -> int:
    """
    The termination measure of the rewriting: the crossing count of each
    factor weighted by its slot.  Each local move decreases it by one.
    """
    return sum((k + 1) * inversion_number(x) for k, x in enumerate(factors))
