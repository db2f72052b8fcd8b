import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from garside_census import matrices, oracle, permutations
from garside_census.matrices import (
    b_delta,
    b_of_simple,
    b_total,
    build_M,
    build_Mprime,
    descent_masks,
    vec_times_matrix,
)
from garside_census.oracle import b_of_simple_via, brute_count, dp_count
from garside_census.permutations import flip, identity, partial_flip
from garside_census.words import normalize_factors


@pytest.mark.parametrize(
    "call",
    [
        lambda x: b_of_simple(3, 2, x),
        lambda x: brute_count(3, 2, last=x),
        lambda x: dp_count(3, 2, last=x),
        lambda x: b_of_simple_via(3, 2, x, "Mprime"),
        lambda x: b_of_simple_via(3, 2, x, "M22"),
        lambda x: b_of_simple_via(3, 2, x, "M23"),
        lambda x: normalize_factors(3, [(2, 1, 3), x]),
    ],
    ids=["b_of_simple", "brute_count", "dp_count", "via-Mprime", "via-M22", "via-M23", "normalize_factors"],
)
def test_a_last_factor_must_be_a_permutation(call):
    with pytest.raises(ValueError, match=r"^\(1, 1, 3\) is not a permutation of 1\.\.3$"):
        call((1, 1, 3))
    # one check, one wording, wherever a permutation meets its strand count
    for x in ((2, 1), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=rf"^permutation {re.escape(str(x))} does not live on 3 strands$"):
            call(x)


def test_the_oracles_never_list_the_enumeration(monkeypatch):
    def forbidden(n):
        raise AssertionError("simple_enumeration called")

    monkeypatch.setattr(permutations, "simple_enumeration", forbidden)
    descent_masks.cache_clear()
    assert len(descent_masks(7)) == math.factorial(7)
    x = (7, 6, 5, 4, 3, 1, 2)
    value = b_of_simple(7, 4, x)
    assert dp_count(7, 4, last=x) == value
    for via in ("Mprime", "M22", "M23"):
        assert b_of_simple_via(7, 4, x, via) == value, via


def test_brute_examples():
    assert brute_count(3, 2) == 19
    assert brute_count(2, 5, last=identity(2)) == 5
    assert brute_count(4, 3, last=partial_flip(4, 2)) == 83


def test_brute_degenerate():
    assert brute_count(1, 4) == 1
    # S_1 is answered directly, without a stack level per factor
    assert brute_count(1, 10**6) == brute_count(1, 10**6, last=(1,)) == 1
    assert brute_count(3, 1) == 6
    assert brute_count(3, 1, last=identity(3)) == 1


def test_brute_budget():
    # the budget is the module constant, not a parameter
    with pytest.raises(ValueError, match=f"budget is {oracle.BRUTE_BUDGET}$"):
        brute_count(4, 6)
    with pytest.raises(TypeError):
        brute_count(4, 5, budget=10**9)


def test_brute_validation():
    with pytest.raises(ValueError):
        brute_count(3, 2, last=identity(4))
    with pytest.raises(ValueError):
        brute_count(0, 1)


@st.composite
def brute_cases(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    last = draw(
        st.one_of(
            st.none(),
            st.integers(1, n).map(lambda r: partial_flip(n, n - r)),
            st.permutations(range(1, n + 1)).map(tuple),
        )
    )
    return n, d, last


@settings(max_examples=60, deadline=None)
@given(brute_cases())
def test_brute_matches_dp(case):
    n, d, last = case
    assert brute_count(n, d, last=last) == dp_count(n, d, last=last)


def test_brute_at_sizes_beyond_plain_enumeration():
    # 24^5 tuples at (4, 5), but only normal prefixes are extended: a second or two each
    assert brute_count(4, 5) == b_total(4, 5) == 45252
    assert brute_count(5, 3) == b_total(5, 3)
    for r in range(1, 5):
        assert brute_count(4, 5, last=partial_flip(4, 4 - r)) == b_delta(4, 5, r)


@pytest.mark.parametrize("n, d", [(4, 6), (5, 4), (6, 3)])
def test_brute_refuses_beyond_the_budget(n, d):
    with pytest.raises(ValueError, match="budget exceeded"):
        brute_count(n, d)


def test_dp_examples():
    assert dp_count(6, 6, last=identity(6)) == 49477263360
    for n in (1, 2, 3, 4):
        assert dp_count(n, 1) == b_total(n, 1)
    # the contested table cell: the dp agrees with the matrix pipeline
    assert dp_count(6, 4, last=partial_flip(6, 5)) == 1956


@pytest.mark.parametrize("n", range(1, 6))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_through_M_matches_dense_M(n, data):
    rows = build_M(n).rows
    v = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(rows), max_size=len(rows)))
    steps = data.draw(st.integers(0, 3))
    expected = v
    for _ in range(steps):
        expected = [sum(expected[x] * rows[x][y] for x in range(len(rows))) for y in range(len(rows))]
    assert oracle._through_M(n, steps, lambda size: list(v)) == expected


def _times_M_by_predecessors(v, n):
    """
    The retained slow step v M(n): column y of M(n) as the tuple of the x
    with D_L(y) inside D_R(x), one tuple per left-descent mask, summed
    entry by entry (3 081 513 entries at n = 7).
    """
    masks = descent_masks(n)
    by_left = {
        left: tuple(x for x, (_, right) in enumerate(masks) if left & ~right == 0)
        for left in {left for left, _ in masks}
    }
    return [sum(v[x] for x in by_left[left]) for left, _ in masks]


@pytest.mark.parametrize("n", (6, 7))
def test_through_M_matches_predecessor_lists(n):
    size = math.factorial(n)
    for start in ([1] * size, [0] * (size - 1) + [1]):
        expected = start
        for steps in range(4):
            assert oracle._through_M(n, steps, lambda size: list(start)) == expected, steps
            expected = _times_M_by_predecessors(expected, n)


def test_dp_cap_and_validation():
    with pytest.raises(ValueError, match="exceeds the factorial-size cap 7"):
        dp_count(8, 2)
    # refused before any n!-entry vector is built
    with pytest.raises(ValueError, match="n=20 exceeds the factorial-size cap 7"):
        dp_count(20, 2)
    with pytest.raises(ValueError):
        dp_count(3, 0)
    with pytest.raises(ValueError):
        dp_count(3, 2, last=identity(5))


@pytest.mark.parametrize("n", (2, 3))
def test_brute_matches_pipeline(n):
    for d in range(1, 6):
        assert brute_count(n, d) == b_total(n, d)
        for r in range(1, n + 1):
            last = partial_flip(n, n - r)
            assert brute_count(n, d, last=last) == b_delta(n, d, r)


def test_brute_matches_pipeline_n4():
    for d in range(1, 4):
        assert brute_count(4, d) == b_total(4, d)
        for r in range(1, 5):
            assert brute_count(4, d, last=partial_flip(4, 4 - r)) == b_delta(4, d, r)


@pytest.mark.parametrize("n", range(1, 8))
def test_dp_matches_pipeline(n):
    for d in range(1, 7):
        assert dp_count(n, d) == b_total(n, d)
        for r in range(1, n + 1):
            assert dp_count(n, d, last=partial_flip(n, n - r)) == b_delta(n, d, r)


@pytest.mark.parametrize("d", (7, 12, 20))
def test_dp_matches_pipeline_at_n7_beyond_d6(d):
    assert dp_count(7, d) == b_total(7, d)


def test_dp_matches_arbitrary_last_factor():
    from garside_census.permutations import simple_enumeration

    for x in simple_enumeration(4):
        for d in (1, 2, 3, 4):
            assert dp_count(4, d, last=x) == b_of_simple(4, d, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.integers(1, 6), st.permutations(range(1, n + 1)))))
def test_b_of_simple_matches_every_via(case):
    d, x = case
    x = tuple(x)
    n = len(x)
    value = b_of_simple(n, d, x)
    for via in ("Mprime", "M22", "M23"):
        assert b_of_simple_via(n, d, x, via) == value, via


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.integers(0, 3),
            st.lists(st.integers(-(10**6), 10**6), min_size=1 << (n - 1), max_size=1 << (n - 1)),
        )
    )
)
def test_the_distinct_column_step_is_the_dense_Mprime_product(case):
    # the dense product through the built Mprime(n) is the slow reference
    steps, v = case
    n = len(v).bit_length()
    expected = tuple(v)
    for _ in range(steps):
        expected = vec_times_matrix(expected, build_Mprime(n))
    assert oracle._through_Mprime(n, steps, lambda size: v) == expected


@pytest.mark.parametrize(
    "n, d, x",
    [
        (6, 1, identity(6)),
        (6, 7, partial_flip(6, 2)),
        (7, 4, flip(7)),
        (7, 9, (7, 6, 5, 4, 3, 1, 2)),
        (8, 2, partial_flip(8, 5)),
        (8, 6, (8, 6, 7, 4, 5, 2, 3, 1)),
        (9, 3, identity(9)),
        (9, 11, (9, 8, 7, 6, 5, 4, 3, 1, 2)),  # also compared end to end in CI
    ],
)
def test_Mprime_path_at_n_6_to_9(n, d, x):
    assert b_of_simple_via(n, d, x, "Mprime") == b_of_simple(n, d, x)


@pytest.mark.parametrize("via", ["M22", "M23"])
@pytest.mark.parametrize(
    "n, d, x",
    [
        (6, 2, identity(6)),
        (6, 5, partial_flip(6, 3)),
        (6, 8, (6, 5, 4, 3, 1, 2)),
        (7, 3, identity(7)),
        (7, 3, flip(7)),
        (7, 6, (7, 6, 5, 4, 3, 1, 2)),  # 1336762651, also compared end to end in CI
    ],
)
def test_full_matrix_paths_at_n_6_and_7(n, d, x, via):
    assert b_of_simple_via(n, d, x, via) == b_of_simple(n, d, x)


@pytest.mark.parametrize("via", ["M22", "M23"])
def test_full_matrix_paths_share_the_dp_cap(via):
    with pytest.raises(ValueError, match="exceeds the factorial-size cap 7"):
        b_of_simple_via(8, 3, flip(8), via)


def test_the_dp_reads_the_cap_from_matrices(monkeypatch):
    monkeypatch.setattr(matrices, "FACTORIAL_CAP", 5)
    with pytest.raises(ValueError, match="^n=6 exceeds the factorial-size cap 5$"):
        dp_count(6, 2)
    with pytest.raises(ValueError, match="^n=6 exceeds the factorial-size cap 5$"):
        b_of_simple_via(6, 2, flip(6), "M23")
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        oracle._through_M(0, 1, lambda size: [1] * size)
    assert dp_count(5, 3) == b_total(5, 3)


def test_b_of_simple_via_validation():
    with pytest.raises(ValueError, match="unknown path"):
        b_of_simple_via(3, 2, identity(3), "Mbar")
    with pytest.raises(ValueError):
        b_of_simple_via(3, 0, identity(3), "M22")
    with pytest.raises(ValueError):
        b_of_simple_via(3, 2, identity(4), "Mprime")
