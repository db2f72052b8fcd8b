import math

import pytest
from hypothesis import given, settings, strategies as st

from garside_census.descents import mask_of
from garside_census.permutations import (
    compose,
    d_left,
    d_right,
    descent_mask,
    dual_left,
    dual_right,
    enumeration_index,
    flip,
    format_descent_set,
    format_permutation,
    identity,
    inverse,
    inversion_number,
    is_normal_pair,
    parse_int,
    parse_permutation,
    partial_flip,
    perm_of_letters,
    phi,
    sigma_in,
    simple_enumeration,
    transposition,
)


def perms(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def any_perm(max_n=6):
    return st.integers(1, max_n).flatmap(perms)


# --- composition and inversion -------------------------------------------


def test_compose_identity():
    assert compose(identity(3), (3, 1, 2)) == (3, 1, 2)
    assert compose((3, 1, 2), identity(3)) == (3, 1, 2)


def test_compose_word_examples():
    # s2 s1 s3 s2 on four strands: left and right descents both {2}
    w = perm_of_letters([2, 1, 3, 2], 4)
    assert w == (3, 4, 1, 2)
    assert d_left(w) == d_right(w) == frozenset({2})
    assert perm_of_letters([2, 1], 3) == (3, 1, 2)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_examples():
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert inverse(identity(5)) == identity(5)
    assert inverse(flip(5)) == flip(5)


@given(any_perm())
def test_inverse_round_trip(x):
    n = len(x)
    assert compose(x, inverse(x)) == identity(n)
    assert compose(inverse(x), x) == identity(n)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_compose_associative(triple):
    x, y, z = triple
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(perms(n), st.integers(1, n - 1))))
def test_inversion_number_step(data):
    x, i = data
    n = len(x)
    before = inversion_number(x)
    after = inversion_number(compose(x, transposition(n, i)))
    if i in d_right(x):
        assert after == before - 1
    else:
        assert after == before + 1


def test_inversion_number_extremes():
    assert inversion_number(identity(7)) == 0
    assert inversion_number(flip(7)) == 7 * 6 // 2


# --- descents and normality ----------------------------------------------


def test_descent_examples():
    assert d_right(identity(4)) == frozenset()
    assert d_left(identity(4)) == frozenset()
    x = perm_of_letters([2, 1], 3)
    assert d_right(x) == frozenset({1})
    assert d_left(x) == frozenset({2})


@pytest.mark.parametrize("n", range(1, 7))
def test_descent_mask_equals_the_frozenset_descents(n):
    for x in simple_enumeration(n):
        assert descent_mask(x) == mask_of(d_right(x)), x
        assert descent_mask(inverse(x)) == mask_of(d_left(x)), x


def test_normal_pair_examples():
    s1 = transposition(3, 1)
    s1s2 = perm_of_letters([1, 2], 3)
    s2 = transposition(3, 2)
    assert is_normal_pair(s1, s1s2)
    assert not is_normal_pair(s1, s2)
    for x in simple_enumeration(3):
        assert is_normal_pair(x, identity(3))
        assert is_normal_pair(identity(3), x) == (x == identity(3))


def test_normal_pair_size_mismatch():
    with pytest.raises(ValueError):
        is_normal_pair(identity(2), identity(3))


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_normality_matches_divisibility_oracle(pair):
    # independent route: i left-divides y exactly when prefixing the
    # transposition lowers the crossing count, and symmetrically for
    # right division.
    x, y = pair
    n = len(x)
    left_y = {
        i
        for i in range(1, n)
        if inversion_number(compose(transposition(n, i), y)) < inversion_number(y)
    }
    right_x = {
        i
        for i in range(1, n)
        if inversion_number(compose(x, transposition(n, i))) < inversion_number(x)
    }
    assert left_y == set(d_left(y))
    assert right_x == set(d_right(x))
    assert is_normal_pair(x, y) == (right_x >= left_y)


# --- the canonical enumeration -------------------------------------------


def test_sigma_in_examples():
    assert sigma_in(3, 3) == identity(3)
    assert sigma_in(1, 3) == perm_of_letters([1, 2], 3)
    assert sigma_in(2, 3)[2] == 2
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert sigma_in(i, n) == perm_of_letters(range(i, n), n)
            assert sigma_in(i, n)[n - 1] == i
    with pytest.raises(ValueError):
        sigma_in(0, 3)
    with pytest.raises(ValueError):
        sigma_in(5, 4)


def test_enumeration_first_entries():
    first7 = [
        identity(4),
        perm_of_letters([1], 4),
        perm_of_letters([2], 4),
        perm_of_letters([2, 1], 4),
        perm_of_letters([1, 2], 4),
        perm_of_letters([1, 2, 1], 4),
        perm_of_letters([3], 4),
    ]
    assert list(simple_enumeration(4)[:7]) == first7


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_size_and_last(n):
    enum = simple_enumeration(n)
    assert len(enum) == math.factorial(n)
    assert len(set(enum)) == math.factorial(n)
    assert enum[0] == identity(n)
    assert enum[-1] == flip(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_order_key(n):
    # x precedes y exactly when, at the largest position where their
    # one-line arrays disagree, x has the larger value
    enum = simple_enumeration(n)
    assert sorted(enum, key=lambda x: tuple(-v for v in reversed(x))) == list(enum)


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_block_structure(n):
    # entry k + (n-i)(n-1)! is sigma_in(i, n) times entry k
    enum = simple_enumeration(n)
    prev = [p + (n,) for p in simple_enumeration(n - 1)]
    block = math.factorial(n - 1)
    for i in range(1, n + 1):
        offset = (n - i) * block
        for k, y in enumerate(prev):
            assert enum[offset + k] == compose(sigma_in(i, n), y)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_index_round_trip(n):
    assert [enumeration_index(x) for x in simple_enumeration(n)] == list(range(math.factorial(n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_enumeration_index_past_the_listed_range(pair):
    # the index follows the order key of test_enumeration_order_key
    x, y = pair
    ix, iy = enumeration_index(x), enumeration_index(y)
    assert 0 <= ix < math.factorial(len(x)) and 0 <= iy < math.factorial(len(y))
    key = lambda p: tuple(-v for v in reversed(p))
    assert (ix < iy) == (key(x) < key(y))
    assert (ix == iy) == (x == y)


@pytest.mark.parametrize("word", [(), (1, 1, 3), (0, 1), (2, 3), (1, 2, 4)])
def test_enumeration_index_refuses_non_permutations(word):
    with pytest.raises(ValueError):
        enumeration_index(word)


# --- flip, conjugation, duality -------------------------------------------


def test_flip_and_phi():
    assert flip(4) == (4, 3, 2, 1)
    assert d_left(flip(4)) == d_right(flip(4)) == frozenset({1, 2, 3})
    assert phi(transposition(3, 1)) == transposition(3, 2)
    assert phi(flip(5)) == flip(5)


@given(any_perm())
def test_phi_relabels_descents(x):
    n = len(x)
    assert d_left(phi(x)) == frozenset(n - i for i in d_left(x))
    assert d_right(phi(x)) == frozenset(n - i for i in d_right(x))


def test_dual_examples():
    assert dual_left(identity(4)) == flip(4)
    assert dual_left(flip(4)) == identity(4)
    x = transposition(3, 1)
    assert d_right(dual_left(x)) == frozenset({2})


@settings(max_examples=200)
@given(any_perm())
def test_duality_laws(x):
    n = len(x)
    full = frozenset(range(1, n))
    assert compose(dual_left(x), x) == flip(n)
    assert compose(x, dual_right(x)) == flip(n)
    assert d_right(dual_left(x)) == full - d_left(x)
    assert d_left(dual_right(x)) == full - d_right(x)
    # the two complements are mutually inverse, and each squares to the
    # flip conjugation
    assert dual_left(dual_right(x)) == x
    assert dual_right(dual_left(x)) == x
    assert dual_left(dual_left(x)) == phi(x)
    assert dual_right(dual_right(x)) == phi(x)


def test_partial_flip():
    assert partial_flip(6, 5) == (5, 4, 3, 2, 1, 6)
    assert partial_flip(4, 0) == identity(4)
    assert partial_flip(4, 1) == identity(4)
    assert partial_flip(4, 4) == flip(4)


# --- serialization ---------------------------------------------------------


def test_serialization_round_trip():
    assert format_permutation((3, 4, 1, 2)) == "[3,4,1,2]"
    assert parse_permutation("[3,4,1,2]") == (3, 4, 1, 2)
    assert parse_permutation("3,1,2") == (3, 1, 2)
    assert format_descent_set(frozenset({2})) == "{2}"
    assert format_descent_set(frozenset()) == "{}"
    with pytest.raises(ValueError):
        parse_permutation("[1,1,2]")
    with pytest.raises(ValueError):
        parse_permutation("[a]")
    assert parse_permutation("[ 2, 1 ,3]") == (2, 1, 3)


@pytest.mark.parametrize("text", ["[٢,١,3]", "[2,1_0,3]", "[2,1,３]", "[0x1]"])
def test_parse_permutation_reads_ascii_digits_only(text):
    # int() reads other scripts' digits and underscores; each used to parse
    with pytest.raises(ValueError, match="cannot parse permutation"):
        parse_permutation(text)


def test_parse_int_reads_a_sign_and_ascii_digits_only():
    assert [parse_int(t) for t in ("0", "007", "-2", "+3", "9" * 30)] == [0, 7, -2, 3, int("9" * 30)]
    for text in ("", "+", "-", "٣", "1_0", " 1", "1 ", "1.0", "0x1", "３"):
        with pytest.raises(ValueError, match="invalid int value"):
            parse_int(text)
    for text in ("+-1", "--1"):  # int() rejects these itself
        with pytest.raises(ValueError):
            parse_int(text)
