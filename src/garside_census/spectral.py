"""
Exact characteristic polynomials of the partition matrices Mbar(n),
divisibility of consecutive spectra, and the dominant eigenvalue,
returned as the double nearest its exact value.

Polynomials are dense integer-coefficient tuples with the constant term
first.  charpoly(n) and rho_max(n) take n in 1..matrices.MBAR_CAP and
read the shared build_Mbar(n).  charpoly(n) is (x - 1) times one new
factor per k = 2..n, each the characteristic polynomial of Mbar(k) on
the kernel of an explicit integer intertwiner D_k with Mbar(k) D_k =
D_k Mbar(k-1) (see _new_factor), computed once per k.  A factor is
lifted from q + 1 Krylov rows of length q = p(k) - p(k-1), the entries
at the q free labels, each stepped in q**2 products through one q x q
integer operator (_step_operator): the q x q Krylov matrix is factored
once modulo the word-size prime _P, entry by entry, and the solution is
lifted P-adically (Dixon, Numer. Math. 40, 1982) until it satisfies the
Cayley-Hamilton identity exactly.  A k whose identity check fails,
whose step leaves a remainder, or whose Krylov matrix is singular mod
_P raises ExactCheckError, an ArithmeticError.

Division, divisibility and gcd stay in integers too (Knuth, TAOCP vol.
2, 4.6.1): exact division, pseudo-division, and the primitive remainder
sequence for the degree of a gcd over Q, which coprimality and
squarefree tests reach only when a remainder sequence mod _P cannot
already prove the answer.  The cross-checks of this module live in
oracle: full_charpoly, the characteristic polynomial of any square
matrix, naive_charpoly by cofactors, and m_charpoly_nonzero, the
nonzero spectrum of the full matrix M(n).

The dominant eigenvalue is the largest real root of the characteristic
polynomial, which the nested-spectrum check has already built.
Newton's method finds it from above, starting at a Collatz-Wielandt
bound (Horn & Johnson, Matrix Analysis, 8.1); by Perron-Frobenius no
step goes below the root.  The bound is that of x + c, for integer
rows x and y = x Mbar(n) and c >= 1 the least integer that makes x + c
positive, capped at the largest column sum, and it takes no vector
product (_rho_start).  x and y are the last two Krylov rows of the new
factor, which _new_factor keeps: rho(n) is a simple root of that
factor, so those rows approach the left Perron vector, and the bound is
close.  Each iterate is a dyadic rational, rounded up and evaluated by
Horner's rule in integers, and the double it settles on is certified at
the midpoint to the double below, by the sign of the polynomial there
or by an integer Taylor shift.  No count series is read, and floats are
only the correctly rounded images of exact dyadics.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from . import descents, matrices

IntPoly = tuple[int, ...]

# The modulus of the Krylov factorisation and the modular gcd: a prime
# below 2**30, so every residue is a one-digit CPython int.
_P = (1 << 30) - 35


class ExactCheckError(ArithmeticError):
    """A failed exact check: the intertwiner identity, a lift, an integral solve or a Newton guard."""


def poly_trim(p: Sequence) -> tuple:
    """Drop high-order zero coefficients, keeping at least the constant."""
    coeffs = list(p) if p else [0]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_is_zero(p: Sequence) -> bool:
    return all(c == 0 for c in p)


def poly_degree(p: Sequence) -> int:
    """Degree of a nonzero polynomial; the zero polynomial raises."""
    t = poly_trim(p)
    if poly_is_zero(t):
        raise ValueError("the zero polynomial has no degree")
    return len(t) - 1


def poly_mul(p: Sequence, q: Sequence) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_derivative(p: Sequence) -> tuple:
    if len(p) <= 1:
        return (0,)
    return poly_trim(tuple(i * c for i, c in enumerate(p) if i >= 1))


def poly_str(p: Sequence) -> str:
    """Human-readable form, highest degree first, e.g. 'x^3 - 4x^2 + 5x - 2'."""
    t = poly_trim(p)
    if poly_is_zero(t):
        return "0"
    pieces = []
    for i in range(len(t) - 1, -1, -1):
        c = t[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(pieces)


def _lu_mod_p(a: Sequence[Sequence[int]]):
    """
    LU factorisation of a square integer matrix mod _P with row pivoting,
    entry by entry: (perm, lu), row k of lu holding the multipliers of L
    left of the diagonal and U from it on.  None when the matrix is
    singular mod _P.
    """
    lu = [[e % _P for e in row] for row in a]
    perm = list(range(len(lu)))
    for k in range(len(lu)):
        piv = next((i for i in range(k, len(lu)) if lu[i][k]), None)
        if piv is None:
            return None
        lu[k], lu[piv] = lu[piv], lu[k]
        perm[k], perm[piv] = perm[piv], perm[k]
        inv = pow(lu[k][k], -1, _P)
        tail = lu[k][k + 1:]
        for row in lu[k + 1:]:
            f = row[k] * inv % _P
            row[k] = f
            if f:
                row[k + 1:] = [(x - f * y) % _P for x, y in zip(row[k + 1:], tail)]
    return perm, lu


def _solve_mod_p(perm: list[int], lu: list[list[int]], r: Sequence[int]) -> list[int]:
    """The x with a x = r mod _P, for (perm, lu) = _lu_mod_p(a)."""
    y = [r[p] % _P for p in perm]
    for i, row in enumerate(lu):
        y[i] = (y[i] - sum(map(mul, row[:i], y[:i]))) % _P
    for i in range(len(lu) - 1, -1, -1):
        row = lu[i]
        y[i] = (y[i] - sum(map(mul, row[i + 1:], y[i + 1:]))) * pow(row[i], -1, _P) % _P
    return y


def _lift_charpoly(krylov: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]) -> IntPoly | None:
    """
    The monic polynomial of degree m annihilating a Krylov sequence of the
    matrix rows, from its m + 1 rows K_k = w A^k of length m, constant term
    first; None when K = (K_0; ...; K_(m-1)) is singular mod _P.

    Then K is nonsingular over Q, w's minimal polynomial has degree m, and
    its low coefficients c are the unique solution of c K = -K_m.  Dixon
    lifting finds c mod P^i for i = 1, 2, ...; the symmetric residue is c
    itself once P^i > 2 max|c_k|, and the exact identity c K + K_m = 0,
    which holds for c alone, decides when that is.  That polynomial
    divides the characteristic polynomial of A, whose roots have modulus
    at most R, the largest absolute row sum, so every |c_k| <= (1 + R)^m
    and the lifting cannot pass that bound without a bug.
    """
    m = len(krylov) - 1
    # kt[j] = (K_0[j], ..., K_(m-1)[j]): x K is the vector of x . kt[j]
    kt = list(zip(*krylov[:m]))
    factored = _lu_mod_p(kt)
    if factored is None:
        return None
    target = [-e for e in krylov[m]]
    bound = 2 * (1 + max((sum(map(abs, row)) for row in rows), default=0)) ** m
    r, c, scale = target, [0] * m, 1
    while scale <= bound:
        x = _solve_mod_p(*factored, r)
        r = [(rj - sum(map(mul, x, col))) // _P for rj, col in zip(r, kt)]
        c = [ck + scale * xk for ck, xk in zip(c, x)]
        scale *= _P
        cand = [ck - scale if 2 * ck > scale else ck for ck in c]
        if all(sum(map(mul, cand, col)) == t for col, t in zip(kt, target)):
            return (*cand, 1)
    raise ExactCheckError("Krylov lifting passed the coefficient bound")


def charpoly(n: int) -> IntPoly:
    """
    Exact characteristic polynomial det(xI - Mbar(n)) for n in
    1..MBAR_CAP, monic of degree p(n), constant term first: the cached
    _mbar_charpoly(n).  ExactCheckError when an intertwiner check or a
    factor's lift fails.
    """
    matrices._check_Mbar(n)
    return _mbar_charpoly(n)


@functools.lru_cache(maxsize=None)
def _mbar_charpoly(n: int) -> IntPoly:
    """charpoly(n): (x - 1) _new_factor(2) ... _new_factor(n), Mbar(1) being (1)."""
    if n == 1:
        return (-1, 1)
    return poly_mul(_mbar_charpoly(n - 1), _new_factor(n)[0])


# The intertwiner D_n, p(n) x p(n-1) in the labels' order, of Mbar(n) and
# Mbar(n-1): Mbar(n) D_n = D_n Mbar(n-1).  Its entries are
#   D[lam][mu] = k m_(k-1)(mu)    when mu is lam with one part k >= 2 lowered by one,
#   D[lam][mu] = -(l(lam) - 2)    when mu is lam with one part 1 removed,
# and 0 elsewhere, m_j(mu) the number of parts of mu equal to j and l(lam)
# the number of parts.  The formula was read off an LLL-reduced basis of
# the exact intertwiner space at n = 4, 5, 6; _new_factor checks the
# identity exactly at every n before it trusts what follows from it.
# With sigma(mu) = mu with its largest part raised by one, column mu is
# nonzero at row sigma(mu), where it is (mu_1 + 1) m_(mu_1)(mu), and
# otherwise only at rows whose first part is mu_1; sigma is a bijection
# onto the lam with lam_1 > lam_2, so D_n has full column rank.
# Then W_n = {w : w D_n = 0}, of dimension q = p(n) - p(n-1), is invariant
# under v -> v Mbar(n), the quotient by it carries Mbar(n-1), and the
# characteristic polynomial of Mbar(n) on W_n is the new factor:
# charpoly(Mbar(n-1)) divides charpoly(Mbar(n)) by construction.  A vector
# of W_n is fixed by its entries at the q free labels (_free_labels): column mu
# gives the entry at sigma(mu) from entries with a smaller first part, by
# the triangular solve over D_n's columns (_solve_from_free).  So
# v -> v Mbar(n) on W_n is a q x q operator on the free entries, and the
# factor's Krylov rows cost q**2 products a step, not p(n)**2: the operator
# is read off the q vectors of W_n solved from unit free entries
# (_step_operator), and only the last two rows are solved out in full.
@functools.lru_cache(maxsize=None)
def _new_factor(n: int) -> tuple[IntPoly, tuple[int, ...], tuple[int, ...]]:
    """
    (factor, x, y): factor = charpoly(Mbar(n)) / charpoly(Mbar(n-1)) for
    2 <= n <= MBAR_CAP, from _kernel_vector(n) and only once
    Mbar(n) D_n == D_n Mbar(n-1) has been checked, and the last two
    Krylov rows it was lifted from (_factor_on_kernel), y = x Mbar(n)
    exactly, signed as the kernel vector gives them, which _rho_start
    reads.  ExactCheckError when the check fails or the Krylov matrix is
    singular mod _P.
    """
    if not _intertwines(n):
        raise ExactCheckError(f"Mbar({n}) D_{n} != D_{n} Mbar({n - 1})")
    return _factor_on_kernel(n, _kernel_vector(n))


@functools.lru_cache(maxsize=None)
def _intertwiner_columns(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """
    The columns of D_n, one per partition mu of n - 1 in the labels'
    order, as (row index, entry) pairs, the pair of sigma(mu) first.
    """
    index = {lam: i for i, lam in enumerate(descents.partitions_in_order(n))}
    columns = []
    for mu in descents.partitions_in_order(n - 1):
        column = []
        for j, mult in collections.Counter(mu).items():  # largest part first: sigma(mu)
            i = mu.index(j)
            column.append((index[mu[:i] + (j + 1,) + mu[i + 1:]], (j + 1) * mult))
        if len(mu) > 1:
            column.append((index[mu + (1,)], 1 - len(mu)))
        columns.append(tuple(column))
    return tuple(columns)


def _intertwines(n: int) -> bool:
    """Whether Mbar(n) D_n == D_n Mbar(n-1), exactly (_is_intertwiner)."""
    return _is_intertwiner(matrices.build_Mbar(n).rows, matrices.build_Mbar(n - 1).rows, _intertwiner_columns(n))


def _is_intertwiner(big: Sequence[Sequence[int]], small: Sequence[Sequence[int]],
                    columns: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """
    Whether big D == D small, exactly, for the rows of two non-negative
    integer matrices and the columns of an integer matrix D as (row index,
    entry) pairs, as _intertwiner_columns gives them.

    Column k of big D is the sum of e times column i of big, and row i of
    D small the sum of e times row k of small, over the pairs (i, e) of
    column k.  With each column of big and each row of small packed into
    one integer (descents._pack), that is one big-integer multiply-add per
    entry of D on each side.  An entry of either product is at most h s in
    absolute value, h the largest entry of big and small and s the largest
    absolute sum along a row or a column of D.  So with bound = h s added
    to every slot, each slot lies in [0, 2 bound], slots that hold 2 bound
    never carry, and the products, offset alike, compare exactly byte for
    byte.  The columns of big D, laid end to end, hold slot (i, k) at byte
    (k len(big) + i) width, so byte b of every slot of row i is one
    strided slice; no slot becomes a Python int.
    """
    row_sums = [0] * len(big)
    for column in columns:
        for i, e in column:
            row_sums[i] += abs(e)
    column_sums = (sum(abs(e) for _, e in column) for column in columns)
    bound = max(max(map(max, big)), max(map(max, small))) * max(itertools.chain(row_sums, column_sums))
    width = descents._slot_width(2 * bound)
    big_columns = [descents._pack(column, width) for column in zip(*big)]
    offset = descents._pack([bound] * len(big), width)
    left = []  # big D, column by column
    right = [descents._pack([bound] * len(small), width)] * len(big)  # D small, row by row
    for column, small_row in zip(columns, (descents._pack(row, width) for row in small)):
        left.append(sum(e * big_columns[i] for i, e in column) + offset)
        for i, e in column:
            right[i] += e * small_row
    stride = len(big) * width
    data = b"".join(c.to_bytes(stride, "little") for c in left)
    for i, packed in enumerate(right):
        row = packed.to_bytes(len(small) * width, "little")
        if any(data[i * width + b::stride] != row[b::width] for b in range(width)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _free_labels(n: int) -> tuple[int, ...]:
    """The indices of the q = p(n) - p(n-1) labels lam with lam_1 == lam_2, which fix a vector of W_n."""
    return tuple(i for i, lam in enumerate(descents.partitions_in_order(n)) if len(lam) > 1 and lam[0] == lam[1])


@functools.lru_cache(maxsize=None)
def _solve_order(n: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """
    The columns of D_n in increasing order of mu_1, each as (the row index
    of sigma(mu), its entry, the other pairs): the order in which column
    mu gives the entry at sigma(mu) from entries already known.
    """
    by_first_part = sorted(zip(descents.partitions_in_order(n - 1), _intertwiner_columns(n)), key=lambda t: t[0][0])
    return tuple((top, diag, tuple(rest)) for _, ((top, diag), *rest) in by_first_part)


def _solve_from_free(n: int, w: list[int], scale: bool) -> list[int]:
    """
    The vector of W_n with w's entries at the free labels: the entry at
    each sigma(mu) from column mu, in increasing order of mu_1.  A quotient
    that is not integral scales w when scale is set, and raises
    ExactCheckError when not.  Entries of w off the free labels are
    overwritten, never read.
    """
    for top, diag, rest in _solve_order(n):
        s = 0
        for i, e in rest:
            s += w[i] * e
        if s % diag:
            if not scale:
                raise ExactCheckError(f"no integer vector of W_{n} has these free entries")
            factor = diag // math.gcd(s, diag)
            w, s = [x * factor for x in w], s * factor
        w[top] = -s // diag
    return w


def _kernel_vector(n: int) -> tuple[int, ...]:
    """
    A primitive integer w with w D_n = 0: ones at the free labels, then
    _solve_from_free, which overwrites the other ones and scales w
    whenever a quotient is not integral.  Each
    new factor is irreducible over Q for n <= 20, so every nonzero w in
    W_n is cyclic.
    """
    w = _solve_from_free(n, [1] * len(descents.partitions_in_order(n)), scale=True)
    g = math.gcd(*w)
    return tuple(x // g for x in w)


def _step_operator(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """
    (B, D): a q x q integer matrix B and an integer D with
    (x Mbar(n))[F] = x[F] B / D for every x in W_n, F the free labels.
    Row f of B is (D / d_f) (s_f Mbar(n))[F], s_f the vector of W_n that
    _solve_from_free scales from the unit vector at f, d_f = s_f[f] and
    D = lcm(d_f): a vector x of W_n is fixed by its free entries, so
    x = sum_f (x_f / d_f) s_f.  The free columns of each row of Mbar(n)
    are packed into one integer (descents._pack), so s_f Mbar(n) costs one
    multiply-add per nonzero entry of s_f.  Each slot of that signed sum
    lies in [-bound, bound], bound = h max_f |s_f|_1 for h the largest
    entry of Mbar(n), so with bound added to every slot it unpacks
    exactly (descents._slots).
    """
    rows = matrices.build_Mbar(n).rows
    free = _free_labels(n)
    solved = []
    for f in free:
        unit = [0] * len(rows)
        unit[f] = 1
        solved.append(_solve_from_free(n, unit, scale=True))
    scales = [s[f] for s, f in zip(solved, free)]
    lcm = math.lcm(*scales)
    bound = max(map(max, rows)) * max(sum(map(abs, s)) for s in solved)
    width = descents._slot_width(2 * bound)
    packed = [descents._pack([row[j] for j in free], width) for row in rows]
    step = []
    for s, d in zip(solved, scales):
        acc = descents._pack([bound] * len(free), width)
        for e, row in zip(s, packed):
            if e:
                acc += e * row
        step.append(tuple(lcm // d * (a - bound) for a in descents._slots(acc, len(free), width)))
    return tuple(step), lcm


def _free_krylov_rows(n: int, w: Sequence[int]) -> Iterator[list[int]]:
    """
    The free entries of the rows w Mbar(n)^k, k = 0, 1, ..., for an
    integer w in W_n, once _intertwines(n) has held: each step is
    x[F] B / D by _step_operator(n), q**2 products.  W_n is invariant, so
    x Mbar(n) is an integer vector and every division is exact; a
    remainder raises ExactCheckError.
    """
    step, lcm = _step_operator(n)
    columns = list(zip(*step))
    x = [w[i] for i in _free_labels(n)]
    while True:
        yield x
        x = [sum(map(mul, x, column)) for column in columns]
        if any(e % lcm for e in x):
            raise ExactCheckError(f"a step on the free labels of W_{n} is not integral")
        x = [e // lcm for e in x]


def _factor_on_kernel(n: int, w: Sequence[int]) -> tuple[IntPoly, tuple[int, ...], tuple[int, ...]]:
    """
    The characteristic polynomial of v -> v Mbar(n) on W_n, from the free
    entries of the rows w Mbar(n)^k, k = 0..q (_free_krylov_rows), for w
    in W_n, with the whole rows x = w Mbar(n)^(q-1) and y = w Mbar(n)^q,
    signed as w gives them, solved from their free entries at the end;
    ExactCheckError when a step leaves a remainder or the rows are
    singular mod _P (w not cyclic, say).
    """
    free = _free_labels(n)
    krylov = list(itertools.islice(_free_krylov_rows(n, w), len(free) + 1))
    factor = _lift_charpoly(krylov, matrices.build_Mbar(n).rows)
    if factor is None:
        raise ExactCheckError(f"the Krylov rows of W_{n} are singular mod _P")
    kept = []
    for part in krylov[-2:]:
        v = [0] * len(w)
        for i, e in zip(free, part):
            v[i] = e
        kept.append(tuple(_solve_from_free(n, v, scale=False)))
    return (factor, *kept)


def strip_x_power(p: Sequence) -> tuple:
    """Divide out the largest power of x, for nonzero-spectrum comparison."""
    t = poly_trim(p)
    if poly_is_zero(t):
        raise ValueError("cannot strip the zero polynomial")
    k = 0
    while t[k] == 0:
        k += 1
    return t[k:]


def _divide(num: Sequence, den: Sequence, exact: bool):
    """
    Long division in integers.  exact: num / den, or None at the first
    quotient coefficient that is not an integer or on a nonzero remainder.
    Otherwise pseudo-division: the remainder, scaled by den's leading
    coefficient where needed, a nonzero multiple of the one over Q.
    """
    den = poly_trim(den)
    if poly_is_zero(den):
        raise ValueError("division by the zero polynomial")
    rem = list(poly_trim(num))
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(rem) - dd)
    while len(rem) > dd and rem[-1] != 0:
        shift = len(rem) - 1 - dd
        if rem[-1] % lead:
            if exact:
                return None
            scale = lead // math.gcd(rem[-1], lead)
            rem = [c * scale for c in rem]
        factor = rem[-1] // lead
        quot[shift] = factor
        for i in range(dd + 1):
            rem[shift + i] -= factor * den[i]
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    if exact:
        return poly_trim(quot) if rem[-1] == 0 else None
    return tuple(rem)


def _primitive(p: Sequence) -> tuple:
    """p divided by the gcd of its coefficients; the zero polynomial as is."""
    g = math.gcd(*p)
    return tuple(c // g for c in p) if g > 1 else tuple(p)


def exact_quotient(p: Sequence, q: Sequence) -> IntPoly | None:
    """q / p as an integer polynomial, or None when p does not divide q."""
    return _divide(q, p, exact=True)


def divides(p: Sequence, q: Sequence) -> bool:
    """Divisibility of q by p over Q: by Gauss's lemma, in Z[x] by p's primitive part."""
    return exact_quotient(_primitive(p), q) is not None


def _gcd_degree(p: Sequence, q: Sequence) -> int:
    """
    Degree of gcd(p, q) over Q; each remainder is made primitive before it
    divides, which keeps the coefficients small.  gcd(0, 0) has degree 0.
    """
    a, b = poly_trim(p), poly_trim(q)
    while not poly_is_zero(b):
        a, b = b, _primitive(_divide(a, b, exact=False))
    return len(a) - 1


def _gcd_degree_mod_p(p: Sequence, q: Sequence) -> int:
    """Degree of gcd(p mod _P, q mod _P) over GF(_P), by Euclid's remainder sequence."""
    a, b = poly_trim([c % _P for c in p]), poly_trim([c % _P for c in q])
    while any(b):
        inv, db = pow(b[-1], -1, _P), len(b) - 1
        rem = list(a)
        while len(rem) > db and any(rem):
            f, shift = rem[-1] * inv % _P, len(rem) - 1 - db
            rem[shift:-1] = [(x - f * y) % _P for x, y in zip(rem[shift:-1], b)]
            rem.pop()
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
        a, b = b, tuple(rem)
    return len(a) - 1


def is_squarefree(p: Sequence) -> bool:
    return are_coprime(p, poly_derivative(p))


def are_coprime(p: Sequence, q: Sequence) -> bool:
    """
    Whether gcd(p, q) over Q is a constant.  When _P divides neither
    leading coefficient, the resultant of p and q reduces to that of
    their residues, so a constant gcd mod _P proves a nonzero resultant
    and the answer; otherwise the exact remainder sequence decides.
    """
    p, q = poly_trim(p), poly_trim(q)
    if p[-1] % _P and q[-1] % _P and _gcd_degree_mod_p(p, q) == 0:
        return True
    return _gcd_degree(p, q) == 0


class NewFactorReport(NamedTuple):
    """
    The new factor of the partition-matrix characteristic polynomial at n,
    quotient = charpoly(n) / charpoly(n - 1), and its checks.  divides
    holds by construction (see new_factor_simple_roots).
    coprime_with_previous is reported but not part of the verdict: at
    n = 2 the new factor is (x - 1), repeating the eigenvalue of the
    size-1 matrix, while from n = 3 on the new roots are new.
    """

    n: int
    divides: bool
    quotient: IntPoly
    expected_degree: int
    degree_ok: bool
    constant_nonzero: bool
    squarefree: bool
    coprime_with_previous: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.divides
            and self.degree_ok
            and self.constant_nonzero
            and self.squarefree
        )


def new_factor_simple_roots(n: int) -> NewFactorReport:
    """
    Examine the new factor at n, the cached _new_factor(n): its degree
    should be p(n) - p(n-1), its constant term nonzero, and its roots
    simple and new.  n runs up to build_Mbar's cap, matrices.MBAR_CAP.
    Nothing is divided, and divides is true by construction: charpoly(n)
    is charpoly(n - 1) times that factor, and the identity check raises
    ExactCheckError before any factor exists.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    matrices._check_Mbar(n)
    prev = charpoly(n - 1)
    quotient = _new_factor(n)[0]
    expected = len(descents.partitions_in_order(n)) - len(descents.partitions_in_order(n - 1))
    return NewFactorReport(
        n=n,
        divides=True,
        quotient=quotient,
        expected_degree=expected,
        degree_ok=poly_degree(quotient) == expected,
        constant_nonzero=quotient[0] != 0,
        squarefree=is_squarefree(quotient),
        coprime_with_previous=are_coprime(quotient, prev),
    )


def _side_of_rho(p: Sequence, a: int, s: int) -> int:
    """
    Sign of x - rho for x = a / 2**s, where p is the characteristic
    polynomial of a non-negative matrix and rho its spectral radius.

    By Perron-Frobenius rho is an eigenvalue and every eigenvalue has real
    part at most rho, so p(x + t) is a product of factors t + (x - w) and
    t^2 + 2(x - Re w)t + |x - w|^2.  For x > rho each has positive
    coefficients, hence so does p(x + t).  For x = rho the same holds past
    the zero coefficients at the bottom.  For x < rho, t = rho - x > 0 is a
    root, so even past those zeros the coefficients are not all positive.
    The Taylor shift runs on 2**(s*deg) p((a + u) / 2**s), which has the
    same signs, in integers.
    """
    deg = len(p) - 1
    q = [c << (s * (deg - k)) for k, c in enumerate(p)]
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            q[j] += a * q[j + 1]
        # q[i] is now final: coefficient i of the shifted polynomial
        if q[i] < 0 or (q[i] == 0 and any(q[:i])):
            return -1
    return 1 if q[0] else 0


def _scaled_value(p: Sequence[int], a: int, s: int) -> int:
    """2**(s deg p) p(a / 2**s) by Horner's rule in integers: the sign of p(a / 2**s)."""
    acc = 0
    for k, c in enumerate(reversed(p)):
        acc = acc * a + (c << (s * k))
    return acc


# Orders pairs (p, q), q > 0, by p / q, through integer cross-products.
_BY_RATIO = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])

def _rho_start(n: int) -> tuple[int, int]:
    """
    An upper bound num / den on the spectral radius of Mbar(n), by no
    vector product: the smaller of the largest column sum and the
    Collatz-Wielandt bound (Horn & Johnson, Matrix Analysis, 8.1) of
    x + c, max_j (y_j + c s_j) / (x_j + c) for s the column sums, y = x
    Mbar(n) and c = max(1, 1 - min x).  For n >= 2 x and y are the last
    two Krylov rows that _new_factor(n) keeps, negated together when x
    sums below 0.  The bound is close because rho(n), n >= 3, is a simple
    root of the new factor, so the rows approach the left Perron vector
    up to sign.  x is 0 at the label (n), as every vector of W_n is, and
    c = 1 unless x has a negative entry (n = 4 and 5); the cap keeps a
    negative x_j at a large y_j from starting Newton near y_j.
    """
    column_sums = [sum(column) for column in zip(*matrices.build_Mbar(n).rows)]
    top = (max(column_sums), 1)
    if n == 1:
        return top
    _, x, y = _new_factor(n)
    if sum(x) < 0:
        x, y = [-e for e in x], [-e for e in y]
    c = max(1, 1 - min(x))
    bound = max(((yj + c * sj, xj + c) for xj, yj, sj in zip(x, y, column_sums)), key=_BY_RATIO)
    return min(top, bound, key=_BY_RATIO)


def rho_max(n: int) -> float:
    """
    Spectral radius of Mbar(n), n in 1..MBAR_CAP, the double nearest the
    exact value: the largest real root of charpoly(n), the cached
    polynomial that new_factor_simple_roots reads too, stripped of its
    power of x, by _newton_rho from _rho_start(n), which takes no vector
    product.
    """
    return _newton_rho(strip_x_power(charpoly(n)), _rho_start(n))


def _newton_rho(p: Sequence[int], start: tuple[int, int]) -> float:
    """
    The double nearest rho, the largest real root of p, the characteristic
    polynomial of a non-negative integer matrix stripped of its power of
    x, of degree at least 1, by Newton's method from start = (num, den),
    num / den >= rho, certified exactly.

    Every iterate x is a dyadic a / 2**s at or above rho: each Newton step
    is rounded up, by less than 2**-32 of the step.  Once the double
    nearest x stops changing, x is certified: rho <= x, which rounds to
    that double, and rho lies above the midpoint to the double below,
    which p < 0 there shows, or else _side_of_rho (when rho is a root of
    even multiplicity, as in the (x - 1)**2 of Mbar(2)).  Then that double
    is the nearest to rho: a tie would need rho = x, where p(x) = 0
    returns x itself, correctly rounded.  The certificate depends on x
    alone, so a double at which it failed is not tried again: while Newton
    creeps towards a multiple root the double can repeat over many steps.
    """
    dp = poly_derivative(p)
    num, den = start
    a, s, last, failed = -((-num << 64) // den), 64, None, None
    # Why no step goes below rho: by Perron-Frobenius every root w of p has
    # Re w <= rho, so for x > rho every term 1/(x - w) of p'/p(x) has a
    # non-negative real part, the imaginary parts of a conjugate pair cancel,
    # and the term of rho gives p'/p(x) >= 1/(x - rho): x - p/p'(x) >= rho.
    # As also |x - w| >= x - rho, p'/p(x) <= deg/(x - rho), so a step takes
    # at least (x - rho)/deg off x, less its rounding.  Even at that rate the
    # step bound below brings x - rho from the start under 2**-128, far inside
    # half an ulp of rho >= 1 (the nonzero roots multiply to a nonzero integer).
    for _ in range(len(dp) * (a.bit_length() - s + 128)):
        value, x = _scaled_value(p, a, s), a / (1 << s)
        if value == 0:
            return x  # a real root at or above rho is rho
        if value < 0:
            raise ExactCheckError("a Newton iterate fell below rho")
        if x == last and x != failed:
            (lo, lo_den), (hi, hi_den) = math.nextafter(x, 0.0).as_integer_ratio(), x.as_integer_ratio()
            mid, t = lo * hi_den + hi * lo_den, (2 * lo_den * hi_den).bit_length() - 1
            if _scaled_value(p, mid, t) < 0 or _side_of_rho(p, mid, t) < 0:
                return x
            failed = x
        last = x
        slope = _scaled_value(dp, a, s)
        # x - p/p'(x) = (a slope - value) / (slope 2**s), rounded up to a multiple of a 2**-s below 2**-32 of the step
        shift = max(0, 33 + slope.bit_length() - value.bit_length())
        a, s = -(((value - a * slope) << shift) // slope), s + shift
    raise ExactCheckError("Newton's method passed its step bound")


def recurrence_check(seq: Sequence[int], p: Sequence) -> bool:
    """
    Whether the integer sequence satisfies the linear recurrence whose
    coefficients are the x-power-stripped polynomial, on every window.
    """
    c = strip_x_power(p)
    order = len(c) - 1
    if len(seq) <= order:
        raise ValueError(f"sequence of length {len(seq)} too short for order {order}")
    for k in range(len(seq) - order):
        if sum(c[j] * seq[k + j] for j in range(order + 1)) != 0:
            return False
    return True
