"""
Positive braid words and their normal form.

A word is a sequence of generator indices in {1, ..., n-1} and of the
letter 0, which stands for the half twist Δ.  Its normal form is built in
one left-to-right pass, the left-greedy update of Elrifai and Morton (see
Epstein et al., Word Processing in Groups, ch. 9): each letter s_i is
multiplied into the last factor x in place while the result stays
square-free, which x s_i is exactly when i is not a right descent of x;
only a letter that is such a descent starts a new factor.  Each
occurrence of delta_letters(n) is one factor, Δ, like the letter 0, and
each new factor is multiplied on the right of the normal form of the
factors before it.  A pair (x, y) that is not normal is fixed by local
moves: the smallest generator that left-divides y but does not
right-divide x is transferred from the front of y to the back of x, which
keeps the braid and lowers the weighted crossing count by one.  After a
factor is appended or a letter multiplied in, pairs are fixed leftwards
from its slot and fixing stops at the first pair that needs no move; that
is safe because every pair to its left is unchanged from a normal prefix,
and fixing a pair leaves the pair to its right normal (the domino rule).
Trailing trivial factors are popped, and the result is the unique normal
form.

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

The normal form is Δ^k x_1 ... x_r, and the power of the half twist Δ is
held apart from the prefix.  Since x Δ = Δ τ(x), where τ is the Garside
automorphism s_i -> s_(n-i), a Δ that appears inside the prefix would
otherwise walk left through every factor before it, one move per
generator.  Instead the prefix is stored in a frame t in {0, 1}: the
factor actually standing there is τ^t of the stored one, and an incoming
factor y is stored as τ^t(y).  When the factor at the current slot of a
pass becomes Δ (its R is the full mask), it is deleted and counted as one
more leading Δ, t flips, and τ is applied to the stored factors to its
right, the ones the pass has already walked; the pass ends there, since
the result is what walking Δ to the front would give, and τ keeps pairs
normal.  τ on the carried values reverses and complements p and q and
reverses the bits of R and L, so a carry costs O(n) per factor it
restores instead of a move per generator it passes.  A half twist taken
whole from the word stands at the last slot when it arrives, so it is
carried at once and restores nothing; its letters, taken one by one,
would be rewritten through the prefix move by move.  parse_word gives
each D token as the letter 0, reading each distinct token once, and the
occurrences of delta_letters(n) spelled out in letters are found left to
right, without overlap, by str.replace on one code point per letter.
"""
from __future__ import annotations

import re
import sys
from typing import Callable, NamedTuple

from .permutations import (
    Perm,
    check_on_strands,
    descent_mask,
    flip,
    identity,
    inverse,
    inversion_number,
    is_normal_pair,
    phi,
)


class PositiveWord(NamedTuple("PositiveWord", [("n", int), ("letters", tuple[int, ...])])):
    """
    A positive word on n strands: each letter is a generator index in
    {1, ..., n-1} or 0, which stands for the half twist Δ.  At n = 1 the
    half twist is trivial and 0 is out of range.
    """

    __slots__ = ()

    def __new__(cls, n, letters):
        if n < 1:
            raise ValueError("strand count must be at least 1")
        low = 0 if n > 1 else 1
        for i in letters:
            if not low <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for n={n}")
        return super().__new__(cls, n, letters)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too


class NormalSequence(NamedTuple("NormalSequence", [("n", int), ("factors", tuple[Perm, ...])])):
    __slots__ = ()

    def __new__(cls, n, factors):
        one = identity(n)
        if factors and factors[-1] == one:
            raise ValueError("normal sequence may not end with a trivial factor")
        for k in range(len(factors) - 1):
            if not is_normal_pair(factors[k], factors[k + 1]):
                raise ValueError(f"factors {k + 1} and {k + 2} are not normal")
        return super().__new__(cls, n, factors)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too


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


_TOKEN = re.compile(r"^(?:(D)|s?([0-9]+))(?:\^([0-9]+))?$")


def _bounded_value(digits: str) -> int:
    """ASCII digits' value, or sys.maxsize + 1 past 19 significant digits, where int() may meet its digit limit."""
    significant = digits.lstrip("0")
    return int(significant or "0") if len(significant) <= 19 else sys.maxsize + 1


def parse_word(text: str, n: int) -> PositiveWord:
    """
    Parse a whitespace-separated word: tokens are 's<k>' or bare integers
    for single generators and 'D' for the half twist, each optionally
    followed by '^<e>' with e >= 1, all digits ASCII.  D^e gives e letters
    0, none at n = 1, where the half twist is trivial; the index 0 itself
    is out of range.  n and e stay at most sys.maxsize, as no list can be
    longer; leading zeros are allowed, and a number of any length gets its
    token's message.  Each distinct token is read once.
    """
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n > sys.maxsize:
        raise ValueError(f"strand count n={n} exceeds sys.maxsize")
    letters: list[int] = []
    runs: dict[str, list[int]] = {}  # the letters of each good token read so far
    for pos, token in enumerate(text.split(), start=1):
        run = runs.get(token)
        if run is None:
            m = _TOKEN.match(token)
            if m is None:
                raise ValueError(f"syntax error at token {pos}: {token!r}")
            is_delta, digits, exponent = m.groups()
            e = _bounded_value(exponent) if exponent is not None else 1
            if e < 1:
                raise ValueError(f"non-positive exponent at token {pos}: {token!r}")
            if e > sys.maxsize:
                raise ValueError(f"exponent exceeds sys.maxsize at token {pos}: {token!r}")
            if is_delta:
                run = [0] * e if n > 1 else []
            else:
                i = _bounded_value(digits)
                if not 1 <= i <= n - 1:
                    raise ValueError(f"index out of range at token {pos}: {token!r}")
                run = [i] * e
            runs[token] = run
        letters += run
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
    needs no move or a half twist appears, which is carried to the front
    in one step; trailing trivial factors are popped before the next
    factor.  on_step, if given, receives the whole sequence (the leading
    half twists, the rest of the fixed prefix, then the factors not yet
    taken) after every move and after every carry that passes a factor.
    An already-normal sequence comes back unchanged with no moves made.
    ValueError unless n >= 1 and every factor is a permutation of 1..n.
    """
    if n < 1:
        raise ValueError("strand count must be at least 1")
    factors = tuple(factors)
    for x in factors:
        check_on_strands(x, n)
    return _normal_form(n, factors, _seed_factor, on_step)


def normalize(
    word: PositiveWord,
    on_step: Callable[[tuple[Perm, ...]], None] | None = None,
) -> NormalSequence:
    """
    The normal form of a positive word: the rewriting of normalize_factors
    on one square-free factor per letter, the letter 0 being the half
    twist, except that each occurrence of delta_letters(n), found left to
    right without overlap, is one half-twist factor too.  A half twist is
    carried to the front at once where its letters would be rewritten one
    by one.  Letters and half twists are seeded directly, with no
    permutation built for them, and on_step reports the factors not yet
    taken in the same terms.  A letter multiplied into the last factor in
    place leaves the reports as they were when it was a factor of its own:
    they include that trivial factor until it would have been popped.
    """
    return _normal_form(word.n, _half_twist_items(word.n, word.letters), _seed_letter, on_step)


def _half_twist_items(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """
    letters with each occurrence of delta_letters(n), found left to right
    without overlap, replaced by the item 0, which stands for the half
    twist; letters 0 are kept.  The search is str.replace on one code
    point per letter.
    """
    # delta_letters(1) is empty and would match everywhere; a word shorter
    # than the pattern holds none, and a large n never builds it
    if n < 2 or len(letters) < n * (n - 1) // 2:
        return letters
    pattern = "".join(map(chr, delta_letters(n)))
    return tuple(map(ord, "".join(map(chr, letters)).replace(pattern, "\0")))


def _seed_factor(n: int, y: Perm, t: int) -> tuple[list[int], list[int], int, int]:
    """The four carried values of the factor y, stored in frame t."""
    if t:
        y = phi(y)
    y_inv = inverse(y)
    return [0, *y, n + 1], [0, *y_inv, n + 1], descent_mask(y), descent_mask(y_inv)


def _seed_letter(n: int, i: int, t: int) -> tuple[list[int], list[int], int, int]:
    """
    The four carried values of the generator s_i, stored in frame t, or of
    the half twist for i = 0, which τ fixes in either frame.
    """
    if not i:
        p = [0, *range(n, 0, -1), n + 1]
        full = (1 << (n - 1)) - 1
        return p, p[:], full, full
    if t:
        i = n - i
    p = list(range(n + 2))
    p[i], p[i + 1] = i + 1, i
    bit = 1 << (i - 1)
    return p, p[:], bit, bit


def _tau(p: list[int]) -> list[int]:
    """τ on a padded one-line list: reversed and complemented."""
    top = len(p) - 1
    return [top - v for v in reversed(p)]


def _reverse_bits(mask: int, width: int) -> int:
    """mask with bit j moved to bit width-1-j, for a mask below 2**width."""
    return int(bin(mask)[:1:-1], 2) << (width - mask.bit_length())


def _normal_form(n, items, seed, on_step) -> NormalSequence:
    """
    The one rewrite loop behind normalize and normalize_factors: items
    are taken one by one, seed(n, item, t) giving the four carried values
    of an item stored in frame t (see the module docstring).
    """
    full = (1 << (n - 1)) - 1 if n > 1 else -1  # R of the half twist; none at n = 1
    deltas = 0
    t = 0
    # the prefix, one entry per factor in each list: see the module docstring
    ps: list[list[int]] = []
    qs: list[list[int]] = []
    rs: list[int] = []
    ls: list[int] = []
    # the items as factors, for the reports of on_step only
    pending = tuple(tuple(seed(n, y, 0)[0][1:-1]) for y in items) if on_step is not None else ()
    # the trivial factor a letter multiplied in place leaves, until the pop, in the reports
    trivial = (identity(n),) if on_step is not None else ()
    by_letter = seed is _seed_letter
    for pos, y in enumerate(items):
        i = (n - y if t else y) if by_letter and y else 0
        if i and rs and not rs[-1] >> (i - 1) & 1:
            # x s_i is square-free: multiply it into the last factor x in
            # place, as the x half of a pair move below does
            px, qx, rx, lx = ps[-1], qs[-1], rs[-1], ls[-1]
            bit = 1 << (i - 1)
            a, c = px[i], px[i + 1]
            px[i], px[i + 1] = c, a
            qx[a], qx[c] = i + 1, i
            rx |= bit
            rx = rx | bit >> 1 if px[i - 1] > c else rx & ~(bit >> 1)
            rx = rx | bit << 1 if a > px[i + 2] else rx & ~(bit << 1)
            if c == a + 1:
                lx |= 1 << (a - 1)
            rs[-1], ls[-1] = rx, lx
            tail = trivial
            if on_step is not None:
                on_step(_braid(n, deltas, t, ps) + tail + pending[pos + 1 :])
        else:
            p, q, r, l = seed(n, y, t)
            ps.append(p)
            qs.append(q)
            rs.append(r)
            ls.append(l)
            tail = ()
        k = len(rs) - 1
        while True:
            if rs[k] == full:
                # x Δ = Δ τ(x): the half twist joins the leading ones, the
                # frame flips, and the factors to its right, the ones this
                # pass has walked, are restored in the new frame
                del ps[k], qs[k], rs[k], ls[k]
                deltas += 1
                t ^= 1
                for j in range(k, len(rs)):
                    ps[j] = _tau(ps[j])
                    qs[j] = _tau(qs[j])
                    rs[j] = _reverse_bits(rs[j], n - 1)
                    ls[j] = _reverse_bits(ls[j], n - 1)
                if k and on_step is not None:
                    on_step(_braid(n, deltas, t, ps) + tail + pending[pos + 1 :])
                break
            if not k or not (movable := ls[k] & ~rs[k - 1]):
                break
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
                    on_step(_braid(n, deltas, t, ps) + tail + pending[pos + 1 :])
                movable = ly & ~rx
            rs[k - 1], ls[k - 1], rs[k], ls[k] = rx, lx, ry, ly
            k -= 1
        while rs and rs[-1] == 0:
            del ps[-1], qs[-1], rs[-1], ls[-1]
    return NormalSequence(n=n, factors=_braid(n, deltas, t, ps))


def _braid(n: int, deltas: int, t: int, ps: list[list[int]]) -> tuple[Perm, ...]:
    """The factors in actual terms: the leading half twists, then τ^t of the stored ones."""
    return (flip(n),) * deltas + tuple(tuple((_tau(p) if t else p)[1:-1]) for p in ps)


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
    factor weighted by its slot.  Each move decreases it by one, each
    carry of a half twist past at least one factor by more, and taking
    the spelled letters of a half twist as one factor lowers it too, so it
    falls from a word's letters, the letter 0 read as the half twist, to
    each report of normalize's on_step.
    """
    return sum((k + 1) * inversion_number(x) for k, x in enumerate(factors))
