import functools
import itertools
import math
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from garside_census import descents, matrices, oracle, reference, spectral
from garside_census.descents import partitions_by_mask, partitions_in_order
from garside_census.matrices import (
    MBAR_CAP,
    b_delta,
    b_total,
    build_M,
    build_Mbar,
    build_Mprime,
    descent_masks,
    vec_times_matrix,
)
from garside_census.oracle import _berkowitz, full_charpoly, m_charpoly_nonzero, naive_charpoly
from garside_census.spectral import (
    _BY_RATIO,
    _P,
    _gcd_degree,
    _gcd_degree_mod_p,
    are_coprime,
    charpoly,
    divides,
    exact_quotient,
    is_squarefree,
    new_factor_simple_roots,
    poly_degree,
    poly_derivative,
    poly_mul,
    poly_str,
    recurrence_check,
    rho_max,
    strip_x_power,
)


def reference_charpoly(n):
    p = (1,)
    for k in range(1, n + 1):
        p = poly_mul(p, reference.CHARPOLY_NEW_FACTORS[k])
    return p


# --- polynomial basics -------------------------------------------------------


def test_poly_helpers():
    assert poly_mul((1, 1), (-2, 1)) == (-2, -1, 1)
    assert exact_quotient((-2, 1), (-2, 5, -4, 1)) is not None  # x = 2 is a root
    assert poly_degree((0, 0, 3)) == 2
    assert strip_x_power((0, 0, -2, 1)) == (-2, 1)
    assert poly_str((-2, 5, -4, 1)) == "x^3 - 4x^2 + 5x - 2"
    assert poly_str((0,)) == "0"
    with pytest.raises(ValueError):
        strip_x_power((0, 0))


# --- characteristic polynomials ----------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_berkowitz_matches_naive_determinant(rows):
    assert full_charpoly(rows) == naive_charpoly(rows)


def test_charpoly_identity_matrix():
    for k in range(1, 6):
        eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        expect = (1,)
        for _ in range(k):
            expect = poly_mul(expect, (-1, 1))
        assert full_charpoly(eye) == expect


def test_charpoly_not_square():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1]] * 2):
        with pytest.raises(ValueError, match="matrix must be square"):
            full_charpoly(rows)


def test_charpoly_empty_matrix():
    assert full_charpoly([]) == (1,)


def test_krylov_prime_is_prime():
    assert _P == 2**30 - 35
    assert all(_P % d for d in range(2, math.isqrt(_P) + 1))


def _rho_by_bisection(p, rows):
    """
    The double nearest the spectral radius of the non-negative matrix rows,
    read off its characteristic polynomial p by a
    bisection over dyadic points x, each decided exactly by _side_of_rho:
    the reference that rho_max is checked against.  The bisection stops
    once both ends round to the same double, or when it lands on rho
    itself.  As a root of a monic integer polynomial rho is an integer,
    which is a bisection point, or irrational, which is never a tie between
    doubles; so it stops.
    """
    if spectral._side_of_rho(p, 0, 0) == 0:
        return 0.0
    # rho <= the largest row sum < hi; a power of two, so every integer below is a bisection point
    lo, hi, s = 0, 1 << max(map(sum, rows)).bit_length(), 0
    while lo / 2**s != hi / 2**s:
        mid, lo, hi, s = lo + hi, 2 * lo, 2 * hi, s + 1
        side = spectral._side_of_rho(p, mid, s)
        if side == 0:
            return mid / 2**s
        if side > 0:
            hi = mid
        else:
            lo = mid
    return lo / 2**s


# Zeros and multiples of _P make matrices singular mod _P and zero pivots.
_lu_entry = st.one_of(
    st.sampled_from((0, 1, -1, _P - 1)),
    st.integers(-3, 3).map(lambda k: k * _P),
    st.integers(-(10**40), 10**40),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 20).flatmap(
        lambda k: st.lists(st.lists(_lu_entry, min_size=k, max_size=k), min_size=k, max_size=k)
    )
)
@example(rows=[[0, 1], [1, 0]])  # a zero pivot: rows swap
@example(rows=[[_P, 1], [2 * _P, 3]])  # a zero column mod _P
@example(rows=[[1, 2], [2, 4 + _P]])  # singular mod _P after one step
def test_lu_mod_p_factors_the_permuted_rows(rows):
    # against the definition: None exactly when det = 0 mod _P, and otherwise
    # the rows in perm's order are L U mod _P, L unit lower and U upper triangular
    factored = spectral._lu_mod_p(rows)
    assert (factored is None) == (_bareiss_determinant(rows) % _P == 0)
    if factored is None:
        return
    perm, lu = factored
    m = len(rows)
    assert sorted(perm) == list(range(m))
    assert all(0 <= e < _P for row in lu for e in row)
    lower = [[lu[i][j] if j < i else int(i == j) for j in range(m)] for i in range(m)]
    upper = [[lu[i][j] if j >= i else 0 for j in range(m)] for i in range(m)]
    assert all(upper[i][i] for i in range(m))
    product = [[e % _P for e in vec_times_matrix(row, upper)] for row in lower]
    assert product == [[e % _P for e in rows[p]] for p in perm]


def _bareiss_determinant(rows):
    """The determinant of a square integer matrix, by fraction-free elimination (Bareiss)."""
    a = [list(row) for row in rows]
    m, sign, prev = len(a), 1, 1
    for k in range(m - 1):
        piv = next((i for i in range(k, m) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _berkowitz_charpoly(rows):
    return tuple(reversed(_berkowitz(rows)))


_entry = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda k: st.lists(st.lists(_entry, min_size=k, max_size=k), min_size=k, max_size=k)
    )
)
def test_charpoly_matches_berkowitz(rows):
    assert full_charpoly(rows) == _berkowitz_charpoly(rows)


def _conjugate(rows, steps):
    """E A E^-1 for each E = I + t e_ij in turn, i != j: an integer similarity."""
    a = [list(r) for r in rows]
    for i, j, t in steps:
        a[i] = [x + t * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= t * row[i]
    return a


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(-50, 50), min_size=k - 1, max_size=k - 1),
            st.lists(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, 3)).filter(
                    lambda s: s[0] != s[1]
                ),
                max_size=6,
            ),
        )
    )
)
def test_charpoly_falls_back_on_a_repeated_diagonalizable_eigenvalue(case):
    # diag(d_0, d_0, d_1, ...) and its integer conjugates: the minimal
    # polynomial has degree below the size, so no Krylov sequence spans
    diag, steps = case
    diag = [diag[0]] + diag
    k = len(diag)
    rows = _conjugate([[diag[i] if i == j else 0 for j in range(k)] for i in range(k)], steps)
    with mock.patch.object(oracle, "_berkowitz", wraps=_berkowitz) as berkowitz:
        assert full_charpoly(rows) == _berkowitz_charpoly(rows)
    berkowitz.assert_called_once()


@pytest.mark.parametrize("n", range(1, 12))
def test_charpoly_of_Mbar_never_falls_back(n, monkeypatch):
    rows = build_Mbar(n).rows
    expected = reference_charpoly(n) if n <= 8 else _berkowitz_charpoly(rows)

    def no_berkowitz(rows):
        raise AssertionError("Berkowitz fallback reached")

    monkeypatch.setattr(oracle, "_berkowitz", no_berkowitz)
    assert full_charpoly(rows) == expected


@pytest.mark.parametrize("n", range(1, 12))
def test_charpoly_of_the_shared_Mbar_equals_that_of_its_rows(n):
    # charpoly(n) is a product of intertwiner factors; the rows of build_Mbar(n) take the full route
    assert charpoly(n) == full_charpoly(build_Mbar(n).rows)


@pytest.mark.parametrize("n", range(1, 13))
def test_an_equal_copy_of_the_shared_Mbar_takes_the_full_route(n, monkeypatch):
    # the library's charpoly takes n alone; an equal copy's rows go to the oracle's full route
    expected = charpoly(n)
    copy = build_Mbar(n)._replace()
    assert copy == build_Mbar(n) and copy is not build_Mbar(n)
    lifted = []
    lift = spectral._lift_charpoly
    monkeypatch.setattr(spectral, "_lift_charpoly", lambda krylov, rows: lifted.append(len(krylov)) or lift(krylov, rows))
    before = spectral._mbar_charpoly.cache_info()
    assert full_charpoly(copy.rows) == expected
    assert spectral._mbar_charpoly.cache_info() == before
    assert lifted == [len(partitions_in_order(n)) + 1]  # the p(n) + 1 Krylov rows of the full route


@pytest.mark.parametrize("n", (1, 5, 9, 12))
def test_the_charpoly_of_Mbar_leaves_the_count_series_alone(n):
    # the nested-spectrum check and rho_max, as conjecture runs them, step no count series
    matrices._SERIES.clear()
    spectral._new_factor.cache_clear()
    spectral._mbar_charpoly.cache_clear()
    charpoly(n)
    for k in range(2, n + 1):
        new_factor_simple_roots(k)
    for k in range(1, n + 1):
        rho_max(k)
    assert matrices._SERIES == {}


# --- the intertwiner D_n and the new factors ------------------------------------


def _dense_intertwiner(n):
    d = [[0] * len(partitions_in_order(n - 1)) for _ in partitions_in_order(n)]
    for j, column in enumerate(spectral._intertwiner_columns(n)):
        for i, e in column:
            d[i][j] = e
    return d


def _matmul(a, b):
    return [list(vec_times_matrix(row, b)) for row in a]


@pytest.mark.parametrize("n", range(2, MBAR_CAP + 1))
def test_the_intertwiner_identity_and_its_triangular_rows(n):
    d = _dense_intertwiner(n)
    assert _matmul(build_Mbar(n).rows, d) == _matmul(d, build_Mbar(n - 1).rows)
    assert spectral._intertwines(n)
    # row sigma(mu), mu with its largest part raised, is nonzero at column mu and
    # otherwise only at columns whose largest part is larger than mu's
    index = {lam: i for i, lam in enumerate(partitions_in_order(n))}
    mus = partitions_in_order(n - 1)
    for j, mu in enumerate(mus):
        row = d[index[(mu[0] + 1,) + mu[1:]]]
        assert row[j] == (mu[0] + 1) * mu.count(mu[0])
        assert all(e == 0 or nu[0] > mu[0] for k, (e, nu) in enumerate(zip(row, mus)) if k != j)


def test_the_intertwiner_entries_by_hand():
    # D_3 in the labels' order (1,1,1), (2,1), (3) by (1,1), (2): raising a part
    # of (1,1) gives 2 m_1 = 4, adding a 1 gives -(3 - 2); (2,1) minus its 1 gives -(2 - 2)
    assert partitions_in_order(3) == ((1, 1, 1), (2, 1), (3,))
    assert _dense_intertwiner(3) == [[-1, 0], [4, 0], [0, 3]]


def _kernel_vector_with(n, entries):
    """The integer vector of W_n with these entries at the free labels, scaled where a quotient is not integral."""
    w = [0] * len(partitions_in_order(n))
    for i, e in zip(spectral._free_labels(n), entries, strict=True):
        w[i] = e
    return tuple(spectral._solve_from_free(n, w, scale=True))


def _free_entries(n):
    """Entries 1..9 at the free labels of n, one per label."""
    q = len(spectral._free_labels(n))
    return st.lists(st.integers(1, 9), min_size=q, max_size=q)


@pytest.mark.parametrize("n", range(2, MBAR_CAP + 1))
def test_the_kernel_vector_is_in_the_kernel(n):
    w = spectral._kernel_vector(n)
    assert any(w) and math.gcd(*w) == 1
    # equal entries at the free labels: ones, scaled with the rest
    assert len({w[i] for i in spectral._free_labels(n)}) == 1
    for seed in (0, 1, 12345):
        rng = random.Random(seed)
        drawn = _kernel_vector_with(n, [rng.randint(1, 9) for _ in spectral._free_labels(n)])
        for v in (w, drawn):
            assert vec_times_matrix(v, _dense_intertwiner(n)) == (0,) * len(partitions_in_order(n - 1))


def test_spectral_takes_no_seed_and_imports_no_random():
    # site imports random on its own on some hosts, so the interpreter starts with -S
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    code = (
        f"import inspect, sys; sys.path.insert(0, {src!r}); from garside_census import spectral; "
        "assert list(inspect.signature(spectral._kernel_vector).parameters) == ['n']; "
        "sys.exit('random' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-S", "-c", code]).returncode == 0


def test_the_solve_from_the_free_labels_by_hand():
    # W_3 is spanned by (4, 1, 0): the entry at (2, 1) is a quarter of the free one at (1, 1, 1)
    assert spectral._free_labels(3) == (0,)
    assert spectral._solve_from_free(3, [1, 0, 0], scale=True) == [4, 1, 0]
    assert spectral._solve_from_free(3, [8, 5, 7], scale=False) == [8, 2, 0]
    with pytest.raises(spectral.ExactCheckError):
        spectral._solve_from_free(3, [1, 0, 0], scale=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_the_free_label_rows_are_the_full_products(n, data):
    # each step computes p(n) q products at the free labels and solves for the rest,
    # so the whole row, not only its free entries, equals the full product
    w = _kernel_vector_with(n, data.draw(_free_entries(n)))
    steps = len(spectral._free_labels(n)) + 1
    stepped = itertools.islice(spectral._kernel_krylov_rows(n, w), steps)
    full = itertools.islice(oracle._krylov_rows(build_Mbar(n).rows, w), steps)
    assert [tuple(x) for x in stepped] == list(full)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_new_factor_equals_the_full_route_quotient(n, data):
    full = exact_quotient(full_charpoly(build_Mbar(n - 1).rows), full_charpoly(build_Mbar(n).rows))
    assert spectral._factor_on_kernel(n, _kernel_vector_with(n, data.draw(_free_entries(n))))[0] == full
    assert spectral._new_factor(n)[0] == full


@pytest.fixture
def fresh_factor_caches():
    def clear():
        spectral._new_factor.cache_clear()
        spectral._mbar_charpoly.cache_clear()

    clear()
    yield
    clear()


@pytest.mark.parametrize("n", (2, 7, 11))
def test_a_kernel_vector_singular_mod_P_raises(n, fresh_factor_caches):
    # w times P is in W_n and cyclic, but its Krylov matrix is zero mod P
    expected = full_charpoly(build_Mbar(n).rows)
    charpoly(n - 1)  # the factors below n, cached
    kernel_vector = spectral._kernel_vector
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_kernel_vector", lambda n: tuple(_P * x for x in kernel_vector(n)))
        with pytest.raises(spectral.ExactCheckError, match=f"W_{n} are singular mod _P"):
            charpoly(n)
    # lru_cache keeps no exception, so the unpatched call computes the factor
    assert charpoly(n) == expected


def test_a_failed_identity_check_raises_before_a_factor(fresh_factor_caches):
    n = 6
    expected = full_charpoly(build_Mbar(n).rows)
    charpoly(n - 1)  # the factors below n, cached
    columns = spectral._intertwiner_columns(n)
    (top, diag), *rest = columns[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_intertwiner_columns", lambda k: (((top, diag + 1), *rest),) + columns[1:])
        patch.setattr(spectral, "_factor_on_kernel", lambda *args: pytest.fail("a factor was computed"))
        assert not spectral._intertwines(n)
        with pytest.raises(spectral.ExactCheckError, match=r"Mbar\(6\) D_6 != D_6 Mbar\(5\)"):
            charpoly(n)
    assert charpoly(n) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.booleans(), st.data())
def test_a_shifted_entry_fails_the_packed_identity_check(n, in_big, data):
    # a shift in Mbar(n-1) changes D_n Mbar(n-1) by a nonzero column of D_n, and one in
    # Mbar(n) changes Mbar(n) D_n by a row of D_n, nonzero from n = 3 on (row (1, 1) of
    # D_2 is zero); a new value up to the largest entry keeps the derived slot width
    big = [list(row) for row in build_Mbar(n).rows]
    small = [list(row) for row in build_Mbar(n - 1).rows]
    columns = spectral._intertwiner_columns(n)
    assert spectral._is_intertwiner(big, small, columns)
    top = max(max(map(max, big)), max(map(max, small)))
    rows = big if in_big else small
    i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
    e = rows[i][j]
    by_one = st.sampled_from((e + 1, e - 1) if e else (e + 1,))
    rows[i][j] = data.draw(by_one | st.integers(0, top).filter(lambda v: v != e))
    assert not spectral._is_intertwiner(big, small, columns)


@pytest.mark.parametrize("width, wider", ((1, 2), (2, 4), (4, 8), (8, 9), (9, 10)))
def test_the_packed_identity_check_at_the_slot_width_boundary(width, wider):
    # with D = diag(2, -2) both products are diag(2h, -2h) for big = small = diag(h, h):
    # the bound is 2h, so the offset slots run from 0 to 4h, which fills the width
    columns = (((0, 2),), ((1, -2),))
    top = 1 << 8 * width - 2
    for h, h_width in ((top - 1, width), (top, wider)):
        assert descents._slot_width(4 * h) == h_width
        diag = [[h, 0], [0, h]]
        assert spectral._is_intertwiner(diag, diag, columns)
        for i, j, shift in ((0, 0, -1), (1, 1, -1), (0, 1, 1), (1, 0, 1)):
            small = [row[:] for row in diag]
            small[i][j] += shift
            assert not spectral._is_intertwiner(diag, small, columns)
            assert not spectral._is_intertwiner(small, diag, columns)


def test_the_packed_identity_check_at_a_carry_and_a_high_byte():
    # D = (1, 1, 1, 1) as one row: big D repeats big's one entry, D small sums small's
    # rows.  Offset slots of one byte would carry 383 = 127 + 256 into the slot of 126 and
    # read (127, 127, 127, 127); the row sum 4 of D sizes the slots for it
    row_of_ones = tuple(((0, 1),) for _ in range(4))
    small = [[127, 126, 127, 127], [127, 0, 0, 0], [127, 0, 0, 0], [2, 0, 0, 0]]
    assert not spectral._is_intertwiner([[127]], small, row_of_ones)
    assert spectral._is_intertwiner([[127]], [[127, 127, 127, 127]] + [[0] * 4] * 3, row_of_ones)
    # the same through the column sum 4 of D = (1, 1, 1, 1)^T
    column_of_ones = (tuple((i, 1) for i in range(4)),)
    assert not spectral._is_intertwiner([list(row) for row in zip(*small)], [[127]], column_of_ones)
    # 256 and 0 differ only in their second byte
    assert not spectral._is_intertwiner([[256]], [[0]], (((0, 1),),))


def test_the_kept_kernel_rows_do_not_depend_on_the_sign_of_w(monkeypatch):
    # the factor keeps its rows as w gives them, and _rho_start signs them
    for n in (4, 5, 6, 12):
        w = spectral._kernel_vector(n)
        factor, x, y = spectral._factor_on_kernel(n, w)
        negated = spectral._factor_on_kernel(n, tuple(-e for e in w))
        assert negated == (factor, tuple(-e for e in x), tuple(-e for e in y))
        starts = []
        for kept in ((factor, x, y), negated):
            monkeypatch.setattr(spectral, "_new_factor", lambda k: kept)
            starts.append(spectral._rho_start(n))
        assert starts[0] == starts[1], n


def test_charpoly_mbar3():
    assert charpoly(3) == poly_mul(poly_mul((-1, 1), (-1, 1)), (-2, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_against_reference_products(n):
    assert charpoly(n) == reference_charpoly(n)


# --- strip equality of the three matrices ------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_strip_equality_direct(n):
    s_m = strip_x_power(full_charpoly(build_M(n).rows))
    s_p = strip_x_power(full_charpoly(build_Mprime(n).rows))
    s_b = strip_x_power(charpoly(n))
    assert s_m == s_p == s_b == m_charpoly_nonzero(n)


@pytest.mark.parametrize("n", (5, 6))
def test_strip_equality_compressed(n):
    # the full matrix is too large to run through the direct algorithm
    # here, so its nonzero spectrum comes from the rank-factorization
    # route, which the direct test above pins down at small sizes
    s_p = strip_x_power(full_charpoly(build_Mprime(n).rows))
    s_b = strip_x_power(charpoly(n))
    assert s_p == s_b == m_charpoly_nonzero(n)


def _product(a, b):
    return tuple(vec_times_matrix(row, b) for row in a)


@pytest.mark.parametrize("n", range(1, 6))
def test_M_factors_through_the_descent_subsets(n):
    # M = Y·F and F·Y = Mprime, so by Sylvester's identity the polynomial
    # of M(n) is that of Mprime(n) times x^(n! - 2^(n-1))
    masks = descent_masks(n)
    subsets = range(1 << (n - 1))
    y = [[int(s & ~right == 0) for s in subsets] for _, right in masks]
    f = [[int(left == s) for left, _ in masks] for s in subsets]
    assert _product(y, f) == build_M(n).rows
    assert _product(f, y) == build_Mprime(n).rows


@pytest.mark.parametrize("n", range(1, 10))
def test_Mprime_factors_through_the_partitions(n):
    # Mprime = X·E and E·X = Mbar, X the p(n) distinct columns of Mprime
    mprime = build_Mprime(n).rows
    columns = tuple(zip(*mprime))
    by_mask = partitions_by_mask(n)
    labels = partitions_in_order(n)
    x = tuple(zip(*(columns[by_mask.index(mu)] for mu in labels)))
    e = [[int(lam == mu) for lam in by_mask] for mu in labels]
    assert _product(x, e) == mprime
    assert _product(e, x) == build_Mbar(n).rows


# --- divisibility ------------------------------------------------------------


def test_divides_examples():
    assert divides((-1, 1), poly_mul((-1, 1), (-2, 1)))
    assert not divides((-3, 1), poly_mul((-1, 1), (-2, 1)))
    assert divides(charpoly(3), charpoly(4))
    with pytest.raises(ValueError):
        divides((0,), (1, 1))


def test_exact_quotient():
    assert exact_quotient((-1, 1), poly_mul((-1, 1), (-2, 1))) == (-2, 1)
    assert exact_quotient((-3, 1), (2, 3, 1)) is None


@pytest.mark.parametrize("n", range(2, 11))
def test_new_factor_reports(n):
    rep = new_factor_simple_roots(n)
    assert rep.divides
    assert rep.degree_ok
    assert rep.constant_nonzero
    assert rep.squarefree
    assert rep.all_ok
    if n >= 3:
        assert rep.coprime_with_previous
    expected = reference.PARTITION_COUNTS[n] - reference.PARTITION_COUNTS[n - 1]
    assert rep.expected_degree == expected
    if n <= 8:
        assert rep.quotient == reference.CHARPOLY_NEW_FACTORS[n]


def test_new_factor_n2_repeats_eigenvalue():
    rep = new_factor_simple_roots(2)
    assert rep.quotient == (-1, 1)
    assert not rep.coprime_with_previous


def test_a_report_past_the_cap_computes_no_factor(fresh_factor_caches):
    # the cap is checked before charpoly(n - 1) would factor every k up to it
    with pytest.raises(ValueError, match=f"^n={MBAR_CAP + 1} exceeds the Mbar size cap {MBAR_CAP}$"):
        new_factor_simple_roots(MBAR_CAP + 1)
    assert spectral._new_factor.cache_info().currsize == 0


def test_a_report_reads_its_cached_factor_and_divides_nothing(monkeypatch):
    # charpoly(n) is charpoly(n - 1) times _new_factor(n)[0], so divides holds by construction
    monkeypatch.setattr(spectral, "exact_quotient", lambda p, q: pytest.fail("a report divided polynomials"))
    for n in range(2, 13):
        rep = new_factor_simple_roots(n)
        factor = spectral._new_factor(n)[0]
        assert rep.quotient is factor
        assert poly_mul(charpoly(n - 1), factor) == charpoly(n)
        degree = len(partitions_in_order(n)) - len(partitions_in_order(n - 1))
        assert rep == spectral.NewFactorReport(n, True, factor, degree, True, True, True, n >= 3)


# --- integer division and gcd, against products built by poly_mul -----------


def _poly(min_degree, lead=st.integers(-5, 5).filter(bool)):
    """Integer polynomials of degree at least min_degree, constant first."""
    return st.tuples(
        st.lists(st.integers(-5, 5), min_size=min_degree, max_size=min_degree + 3), lead
    ).map(lambda t: tuple(t[0]) + (t[1],))


_non_unit = st.integers(-6, 6).filter(lambda c: abs(c) >= 2)


@settings(max_examples=200, deadline=None)
@given(_poly(1, lead=_non_unit), _poly(0))
def test_exact_quotient_of_product(p, q):
    assert exact_quotient(p, poly_mul(p, q)) == q
    assert divides(p, poly_mul(p, q))


@settings(max_examples=200, deadline=None)
@given(_poly(1), _poly(0), _non_unit)
def test_divides_scaled_divisor(p, q, c):
    # Gauss's lemma: c*p divides p*q over Q though the quotient q/c may not be integral
    scaled = poly_mul((c,), p)
    assert divides(scaled, poly_mul(p, q))
    assert (exact_quotient(scaled, poly_mul(p, q)) is None) == any(x % c for x in q)


def test_gauss_lemma_example():
    assert exact_quotient((0, 2), (0, 1)) is None
    assert divides((0, 2), (0, 1))


@settings(max_examples=200, deadline=None)
@given(_poly(1), _poly(0), _poly(1))
def test_common_factor_detected(a, b, c):
    assert not are_coprime(poly_mul(a, c), poly_mul(b, c))
    assert not is_squarefree(poly_mul(a, a))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(7, 12), max_size=3, unique=True),
    st.integers(1, 5),
    _non_unit,
)
def test_distinct_linear_factors(roots, others, k, c):
    p = (c,)
    for r in roots:
        p = poly_mul(p, (-r, 1))
    # x^2 + k has no real root, and the others avoid the roots of p
    q = (k, 0, 1)
    for s in others:
        q = poly_mul(q, (-s, 1))
    assert is_squarefree(p)
    assert are_coprime(p, q)
    assert are_coprime(q, p)


_lead_P = st.sampled_from([1, -1, 3, _P, -_P, 2 * _P, _P + 1])


@settings(max_examples=300, deadline=None)
@given(_poly(0, lead=_lead_P), _poly(0, lead=_lead_P), _poly(1, lead=_lead_P))
def test_modular_gcd_against_exact(a, b, c):
    p, q = poly_mul(a, c), poly_mul(b, c)
    for x, y in ((p, q), (a, b), (a, c), (p, a)):
        exact = _gcd_degree(x, y)
        assert are_coprime(x, y) == (exact == 0)
        if x[-1] % _P and y[-1] % _P:
            # a factor over Q stays a factor mod P when the degrees survive
            assert _gcd_degree_mod_p(x, y) >= exact
    for x in (p, a, poly_mul(a, a)):
        assert is_squarefree(x) == (_gcd_degree(x, poly_derivative(x)) == 0)


def test_modular_gcd_only_proves_coprimality():
    # x + 1 and x + 1 + P are coprime, yet equal mod P
    assert _gcd_degree_mod_p((1, 1), (1 + _P, 1)) == 1
    assert are_coprime((1, 1), (1 + _P, 1))
    # (x + 1)(x + 1 + P) is squarefree though its square factor mod P is not
    assert is_squarefree(poly_mul((1, 1), (1 + _P, 1)))


def test_zero_polynomial_results():
    assert are_coprime((0,), (1,))
    assert not are_coprime((0,), (1, 1))
    assert is_squarefree((0,))
    for q in ((0,), (1,), (-2, 1)):
        with pytest.raises(ValueError):
            exact_quotient((0,), q)


# --- dominant eigenvalues ------------------------------------------------------


def power_iteration_rho(rows, tol=1e-12, max_iter=1_000_000):
    """
    The float power iteration rho_max once was, kept as an independent
    reference; its step tolerance is tighter than the old default 1e-9.
    It stops only once the vector has settled as well as the estimate:
    two consecutive Rayleigh quotients can agree while v is still far
    from the eigenvector.
    """
    rows = [[float(e) for e in row] for row in rows]
    size = len(rows)
    v = [1.0] * size
    prev = None
    for _ in range(max_iter):
        w = [sum(row[j] * v[j] for j in range(size)) for row in rows]
        den = sum(x * x for x in v)
        est = sum(w[i] * v[i] for i in range(size)) / den
        scale = max(abs(x) for x in w)
        if scale == 0.0:
            return 0.0
        nxt = [x / scale for x in w]
        settled = max(abs(a - b) for a, b in zip(nxt, v)) < tol
        if prev is not None and abs(est - prev) < tol and settled:
            return est
        prev, v = est, nxt
    raise RuntimeError(f"power iteration did not converge in {max_iter} steps")


def _below_3_plus_sqrt6(num, den):
    """num/den < 3 + sqrt(6), in integers (den > 0)."""
    return num < 3 * den or (num - 3 * den) ** 2 < 6 * den * den


def _midpoint(x, y):
    """(x + y) / 2 of two doubles, exactly, as (numerator, denominator)."""
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * d + c * b, 2 * b * d


def _column_sum_start(rows):
    """The largest column sum of a non-negative matrix, as a start (num, den) above rho."""
    return max(map(sum, zip(*rows))), 1


def _drawn_rho(rows):
    """
    The spectral radius of any non-negative integer matrix, the way rho_max
    takes that of Mbar(n): spectral._newton_rho on the full-route
    polynomial stripped of its power of x, here from the largest column
    sum; 0 when that polynomial is 1, a nilpotent or empty matrix.
    """
    p = strip_x_power(full_charpoly(rows))
    return 0.0 if len(p) == 1 else spectral._newton_rho(p, _column_sum_start(rows))


@functools.cache
def _bisected_Mbar(n):
    return _rho_by_bisection(charpoly(n), build_Mbar(n).rows)


def test_rho_max_values():
    assert rho_max(1) == 1.0
    assert rho_max(2) == 1.0  # a Jordan block: (x - 1)^2
    assert rho_max(3) == 2.0
    rho = rho_max(4)
    # the double nearest 3 + sqrt(6): the root lies between the midpoints to its neighbours
    assert _below_3_plus_sqrt6(*_midpoint(math.nextafter(rho, 0.0), rho))
    assert not _below_3_plus_sqrt6(*_midpoint(rho, math.nextafter(rho, math.inf)))


def test_rho_max_transpose_invariant():
    for n in range(1, 7):
        m = build_Mbar(n)
        assert rho_max(n) == _drawn_rho(m.rows) == _drawn_rho(m.transpose().rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(*[st.tuples(*[st.integers(1, 50)] * k)] * k)
    )
)
# the first two Rayleigh quotients from (1, 1, 1) are both exactly 50
@example(rows=((17, 1, 42), (17, 1, 27), (17, 1, 27)))
def test_rho_max_against_power_iteration(rows):
    assert _drawn_rho(rows) == pytest.approx(power_iteration_rho(rows), rel=1e-9)


def test_rho_max_special_spectra():
    # nilpotent: rho = 0; a permutation matrix: every eigenvalue on the unit circle
    assert _drawn_rho(((0, 1), (0, 0))) == 0.0
    assert _drawn_rho(((0, 0), (0, 0))) == 0.0
    assert _drawn_rho(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 1.0
    assert _drawn_rho(((2, 0), (0, 7))) == 7.0
    assert _drawn_rho(()) == 0.0  # the empty matrix: charpoly is 1


_entry_or_zero = st.one_of(st.just(0), st.integers(0, 50))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(*[st.tuples(*[_entry_or_zero] * k)] * k)
    )
)
@example(rows=((0, 1), (0, 0)))  # nilpotent: p is a power of x
@example(rows=((0, 1, 0), (0, 0, 1), (1, 0, 0)))  # a permutation: every eigenvalue on the unit circle
@example(rows=((2, 0), (0, 7)))  # reducible
@example(rows=((1, 1), (0, 1)))  # a Jordan block: (x - 1)^2, certified by _side_of_rho
@example(rows=((1, 2, 0, 0), (3, 1, 0, 0), (0, 0, 1, 2), (0, 0, 3, 1)))  # two equal blocks: a double rho = 1 + sqrt(6)
@example(rows=((0, 4, 1), (0, 2, 3), (0, 5, 1)))  # a zero column: the start is the largest column sum
@example(rows=((3, 1), (1, 3)))  # rho = 4, a Newton iterate exactly
def test_rho_max_equals_the_bisection(rows):
    expected = _rho_by_bisection(full_charpoly(rows), rows)
    assert _drawn_rho(rows) == expected
    num, den = _column_sum_start(rows)
    assert num / den >= expected


def test_rho_max_certifies_each_double_once(monkeypatch):
    # a double rho = 1 + sqrt(6): Newton nears it only linearly, so the double of its
    # iterate repeats over several steps before the certificate holds
    rows = ((1, 2, 0, 0), (3, 1, 0, 0), (0, 0, 1, 2), (0, 0, 3, 1))
    expected = _rho_by_bisection(full_charpoly(rows), rows)
    shifts = []
    side = spectral._side_of_rho
    monkeypatch.setattr(spectral, "_side_of_rho", lambda p, a, s: shifts.append((a, s)) or side(p, a, s))
    assert _drawn_rho(rows) == expected
    assert len(shifts) == len(set(shifts)) == 2


@pytest.mark.parametrize("n", range(2, 13))
def test_rho_max_of_Mbar_closes_by_the_brackets(n):
    # the brackets are the Newton iterate above rho and the certified midpoint below it
    assert rho_max(n) == _bisected_Mbar(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_kept_kernel_rows_step_by_Mbar_and_bound_rho_from_above(n):
    m = build_Mbar(n)
    if n >= 2:
        _, x, y = spectral._new_factor(n)
        assert y == vec_times_matrix(x, m)
        signed = x if sum(x) >= 0 else [-e for e in x]  # as _rho_start reads it
        assert (min(signed) < 0) == (n in (4, 5))  # the n whose start is shifted by c > 1
    num, den = spectral._rho_start(n)
    assert num / den >= _bisected_Mbar(n)  # both correctly rounded, so the order holds


def _count_products(monkeypatch):
    calls = []
    product = matrices.vec_times_matrix
    monkeypatch.setattr(matrices, "vec_times_matrix", lambda v, m: calls.append(len(v)) or product(v, m))
    return calls


@pytest.mark.parametrize("n", range(1, 13))
def test_rho_max_of_Mbar_starts_from_the_kernel_rows_without_a_product(n, monkeypatch, fresh_factor_caches):
    calls = _count_products(monkeypatch)
    rho = rho_max(n)
    assert calls == []
    assert rho == _bisected_Mbar(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_an_equal_copy_of_the_shared_Mbar_starts_at_its_column_sums(n, monkeypatch):
    # the drawn-matrix route on an equal copy: Newton from its largest column sum, which
    # caps _rho_start(n), reaches rho_max(n) with no vector product
    expected = rho_max(n)
    copy = build_Mbar(n)._replace()
    top = _column_sum_start(copy.rows)
    assert _BY_RATIO(spectral._rho_start(n)) <= _BY_RATIO(top)
    p = strip_x_power(full_charpoly(copy.rows))
    calls = _count_products(monkeypatch)
    assert spectral._newton_rho(p, top) == expected
    assert calls == []


def _plant(n, entries):
    """
    The kept (factor, x, y) of _new_factor(n) with x, signed as _rho_start
    reads it, set to e at each (j, e) of entries and y = x Mbar(n) stepped
    in full.
    """
    factor, x, _ = spectral._new_factor(n)
    x = list(x if sum(x) >= 0 else [-e for e in x])
    for j, e in entries:
        x[j] = e
    return factor, tuple(x), vec_times_matrix(x, build_Mbar(n))


@pytest.mark.parametrize("n", (8, 12))
def test_a_negative_entry_of_x_shifts_the_start(n, monkeypatch):
    # as at n = 4 and 5: x + c is positive for c = 1 - min x = 2.  Every vector of W_n
    # is 0 at the label (n); -1 there leaves x out of W_n, and y = x Mbar(n) is stepped in full
    expected = rho_max(n)
    j = partitions_in_order(n).index((n,))
    assert spectral._new_factor(n)[1][j] == 0
    planted = _plant(n, [(j, -1)])
    monkeypatch.setattr(spectral, "_new_factor", lambda k: planted)
    calls = _count_products(monkeypatch)
    num, den = spectral._rho_start(n)
    assert num / den >= _bisected_Mbar(n)
    assert rho_max(n) == expected
    assert calls == []


def test_the_start_is_capped_at_the_largest_column_sum(monkeypatch):
    # the largest entry of x planted at -1 leaves x_j + c = 1 where y_j is about 4e149:
    # uncapped, Newton took 50 362 Horner evaluations from there, and about 700 capped
    n = 12
    expected = rho_max(n)
    x = _plant(n, [])[1]
    planted = _plant(n, [(max(range(len(x)), key=x.__getitem__), -1)])
    top = _column_sum_start(build_Mbar(n).rows)
    monkeypatch.setattr(spectral, "_new_factor", lambda k: planted)
    assert _BY_RATIO(spectral._rho_start(n)) <= _BY_RATIO(top)
    evaluations = []
    scaled_value = spectral._scaled_value
    monkeypatch.setattr(spectral, "_scaled_value", lambda p, a, s: evaluations.append(s) or scaled_value(p, a, s))
    assert rho_max(n) == expected
    assert len(evaluations) <= 2000


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, len(partitions_in_order(n)) - 1), st.integers(1, 1000)),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@example(case=(3, [(0, 1)]))  # the bound of x + c falls below rho unless s is scaled by c too
@example(case=(10, [(0, 1000)]))  # the largest entry of x at -max|x| - 1: uncapped, a start near 10**67
def test_the_shifted_start_is_sound_for_any_negative_entries(case):
    # entries of x set below 0, down to -max|x| - 1, y = x Mbar(n) stepped in full:
    # the bound of x + c stays above rho, the column sums cap it, and rho_max does not change
    n, lowered = case
    expected = _bisected_Mbar(n)
    factor, x, _ = spectral._new_factor(n)
    x = list(x)
    top = max(map(abs, x))
    for j, k in lowered:
        x[j] = -(k * top) // 1000 - 1
    y = vec_times_matrix(x, build_Mbar(n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_new_factor", lambda k: (factor, tuple(x), y))
        num, den = spectral._rho_start(n)
        assert num / den >= expected
        assert _BY_RATIO((num, den)) <= _BY_RATIO(_column_sum_start(build_Mbar(n).rows))
        assert rho_max(n) == expected


@pytest.mark.parametrize("n", (1, 7, 12))
def test_charpoly_of_the_shared_Mbar_on_warm_caches_calls_no_build_Mbar(n, monkeypatch):
    expected = charpoly(n)
    build = mock.Mock(wraps=matrices.build_Mbar)
    monkeypatch.setattr(matrices, "build_Mbar", build)
    assert charpoly(n) == expected
    build.assert_not_called()


def test_charpoly_cache_holds_at_most_one_entry_per_Mbar():
    shared = range(1, 9)
    for n in shared:
        charpoly(n)
    before = spectral._mbar_charpoly.cache_info()
    for n in shared:
        charpoly(n)
    after = spectral._mbar_charpoly.cache_info()
    assert (after.hits - before.hits, after.misses, after.currsize) == (len(shared), before.misses, before.currsize)
    assert after.currsize <= MBAR_CAP


@pytest.mark.parametrize("n", (0, -1, MBAR_CAP + 1))
def test_charpoly_and_rho_max_take_n_in_1_to_the_cap(n):
    # before any factor: _mbar_charpoly(0) would recurse without end
    cached = spectral._mbar_charpoly.cache_info().currsize
    for f in (charpoly, rho_max):
        with pytest.raises(ValueError, match="n must be at least 1|exceeds the Mbar size cap"):
            f(n)
    assert spectral._mbar_charpoly.cache_info().currsize == cached


def test_reference_rho_digits_exact():
    prev = None
    for n in range(1, 9):
        rho = rho_max(n)
        # RHO is truncated to three decimals, RHO_RATIO rounded
        assert math.floor(1000 * rho) == round(1000 * reference.RHO[n])
        if n >= 2:
            assert round(rho / (n * prev), 3) == reference.RHO_RATIO[n]
        prev = rho


def test_spectral_radius_table_against_reference():
    # Table 2: rho(n) and the ratio rho(n) / (n rho(n - 1))
    prev = None
    for n in range(1, 9):
        rho = rho_max(n)
        assert rho == pytest.approx(reference.RHO[n], abs=5e-3)
        if n >= 2:
            assert rho / (n * prev) == pytest.approx(reference.RHO_RATIO[n], abs=5e-3)
        prev = rho


# --- recurrences ----------------------------------------------------------------


def test_recurrence_check_examples():
    p3 = charpoly(3)
    seq = [b_total(3, d) for d in range(1, 21)]
    assert recurrence_check(seq, p3)
    assert recurrence_check([7] * 10, (-1, 1))
    seq4 = [b_delta(4, d, 1) for d in range(1, 21)]
    assert recurrence_check(seq4, charpoly(4))
    assert not recurrence_check([1, 2, 4, 9], (-2, 1))
    with pytest.raises(ValueError):
        recurrence_check([1, 2], (-1, -1, -1, 1))


def test_squarefree():
    assert is_squarefree((-2, 1))
    assert not is_squarefree(poly_mul((-1, 1), (-1, 1)))
