import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from garside_census import cli, descents, matrices, reference
from garside_census.descents import partition_of, partitions_in_order, subsets_in_binary_order
from garside_census.matrices import (
    b_delta,
    b_of_partition,
    b_of_simple,
    b_total,
    build_M,
    build_Mbar,
    build_Mprime,
    computed_table,
    count_series,
    vec_times_matrix,
)
from garside_census.oracle import b_of_simple_via, structural_check_M, sweep_Mbar
from garside_census.permutations import (
    d_left,
    d_right,
    identity,
    partial_flip,
    simple_enumeration,
    transposition,
)


# --- builders against the published displays --------------------------------


def test_build_M_small():
    assert build_M(1).rows == reference.M1
    assert build_M(2).rows == reference.M2
    assert build_M(3).rows == reference.M3


@pytest.mark.parametrize("n", range(1, 9))
def test_descent_masks_equal_the_frozenset_masks(n):
    # the masks read off each permutation check the induction that builds the table
    assert matrices.descent_masks(n) == tuple(
        (descents.mask_of(d_left(x)), descents.mask_of(d_right(x))) for x in simple_enumeration(n)
    )


def test_build_M_cap():
    # refused before anything is allocated: M(8) would hold 40320^2 entries
    with pytest.raises(ValueError, match="cap 7"):
        build_M(8)


@pytest.mark.parametrize("n", range(1, 7))
def test_structural_laws(n):
    report = structural_check_M(n)
    assert report.boundary_ok
    assert report.stacked_blocks_ok
    assert report.class_collapse_ok
    assert report.all_ok


def test_build_Mprime_small():
    assert build_Mprime(1).rows == ((1,),)
    assert build_Mprime(3).rows == reference.MPRIME3
    assert build_Mprime(3).labels == tuple(subsets_in_binary_order(3))


@pytest.mark.parametrize("n", range(1, 8))
def test_Mprime_empty_column_totals(n):
    m = build_Mprime(n)
    empty_col = m.label_index(frozenset())
    assert sum(row[empty_col] for row in m.rows) == math.factorial(n)


def test_build_Mbar_small():
    m3 = build_Mbar(3)
    assert m3.labels == reference.MBAR3_LABELS
    assert m3.rows == reference.MBAR3

    m5 = build_Mbar(5)
    assert m5.labels == reference.MBAR5_LABELS
    assert m5.rows == reference.MBAR5

    # the published 5x5 display permutes its two middle partitions against
    # the enumeration rule; entries agree under label alignment
    m4 = build_Mbar(4)
    assert m4.labels == partitions_in_order(4)
    assert m4.labels != reference.MBAR4_LABELS
    for i, lam in enumerate(m4.labels):
        for j, mu in enumerate(m4.labels):
            di = reference.MBAR4_LABELS.index(lam)
            dj = reference.MBAR4_LABELS.index(mu)
            assert m4.rows[i][j] == reference.MBAR4[di][dj], (lam, mu)


@pytest.mark.parametrize("n", range(1, 9))
def test_Mbar_methods_agree(n):
    # the margin-count build against the oracle's sweep over all n! permutations
    assert build_Mbar(n) == sweep_Mbar(n)


def _Mbar_from_subsets(n):
    """Mbar by regrouping every a_column(n, mu) over the rows' subset partitions."""
    labels = partitions_in_order(n)
    index = {lam: i for i, lam in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for j, mu in enumerate(labels):
        for lam, count in zip(descents.partitions_by_mask(n), descents.a_column(n, mu)):
            rows[index[lam]][j] += count
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n", range(1, 13))
def test_Mbar_equals_the_subset_level_regrouping(n):
    assert matrices._cached_Mbar(n).rows == _Mbar_from_subsets(n)


@pytest.mark.parametrize("n", range(1, matrices.MBAR_CAP + 1))
def test_Mbar_entries_fit_the_slot_width(n):
    # _cached_Mbar unpacks its rows in slots sized for n!, which bounds every entry
    bound = math.factorial(n)
    assert all(0 <= e <= bound for row in build_Mbar(n).rows for e in row)


def test_Mbar_build_never_touches_the_subset_level(monkeypatch):
    def forbidden(n, mu):
        raise AssertionError("a_column called on the Mbar path")

    for cached in (matrices._cached_Mbar, descents.partitions_in_order, descents.partitions_by_mask):
        cached.cache_clear()
    monkeypatch.setattr(descents, "a_column", forbidden)
    build_Mbar(11)
    assert descents.partitions_by_mask.cache_info().misses == 0


def test_Mbar_cap_checked_on_cached_calls():
    m = build_Mbar(9)
    assert build_Mbar(9) is m
    misses = matrices._cached_Mbar.cache_info().misses
    with pytest.raises(ValueError, match=f"cap {matrices.MBAR_CAP}"):
        build_Mbar(matrices.MBAR_CAP + 1)
    assert matrices._cached_Mbar.cache_info().misses == misses


@pytest.mark.parametrize("n", range(1, 9))
def test_Mprime_collapses_to_Mbar(n):
    # columns with equal partition are equal; summing rows over partition
    # classes at one representative column per partition gives Mbar
    mprime = build_Mprime(n)
    mbar = build_Mbar(n)
    classes = {}
    for idx, subset in enumerate(mprime.labels):
        classes.setdefault(partition_of(subset, n), []).append(idx)
    for lam, members in classes.items():
        rep = members[0]
        for other in members[1:]:
            assert all(
                mprime.rows[i][rep] == mprime.rows[i][other]
                for i in range(mprime.size)
            ), lam
    for lam, row_members in classes.items():
        for mu, col_members in classes.items():
            collapsed = sum(mprime.rows[i][col_members[0]] for i in row_members)
            assert collapsed == mbar.entry(lam, mu), (lam, mu)


# --- counting pipeline -------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_count_series_empty(n):
    assert count_series(n, 0) == []


def test_count_series_lengths():
    assert count_series(3, 1) == [(1, 1, 1)]
    assert [len(count_series(4, d)) for d in (5, 2, 7)] == [5, 2, 7]
    assert count_series(4, 7)[:2] == count_series(4, 2)
    with pytest.raises(ValueError):
        count_series(3, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(1, 10), st.permutations(range(1, n + 1)))))
def test_count_series_matches_Mprime(case):
    d, x = case
    x = tuple(x)
    n = len(x)
    lam = partition_of(d_left(x), n)
    value = count_series(n, d)[d - 1][build_Mbar(n).label_index(lam)]
    assert value == b_of_simple_via(n, d, x, "Mprime")


def _naive_vec_times_matrix(v, rows):
    return tuple(sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(len(rows)))


_square_int_matrices = st.integers(1, 8).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(-50, 50), min_size=k, max_size=k),
        st.lists(st.lists(st.integers(-50, 50), min_size=k, max_size=k), min_size=k, max_size=k),
    )
)


@settings(max_examples=100, deadline=None)
@given(_square_int_matrices, st.integers(-50, 50))
def test_vec_times_matrix_matches_the_index_loop(case, extra):
    v, rows = case
    rows = tuple(tuple(r) for r in rows)
    m = matrices.CountMatrix(kind="Mbar", n=len(rows), labels=tuple(range(len(rows))), rows=rows)
    expected = _naive_vec_times_matrix(v, rows)
    assert vec_times_matrix(v, m) == vec_times_matrix(v, rows) == expected
    for bad in (v[:-1], v + [extra]):
        with pytest.raises(ValueError):
            vec_times_matrix(bad, m)
        with pytest.raises(ValueError):
            vec_times_matrix(bad, rows)


def test_b_of_partition_examples():
    assert [b_of_partition(3, d, (2, 1)) for d in range(1, 7)] == [1, 3, 7, 15, 31, 63]
    for lam in partitions_in_order(5):
        assert b_of_partition(5, 1, lam) == 1
    assert b_of_partition(6, 6, (1,) * 6) == 49477263360


def test_b_of_partition_unknown_label():
    with pytest.raises(KeyError):
        b_of_partition(4, 2, (5, 1))


def test_b_of_simple_examples():
    s1 = transposition(2, 1)
    for d in range(1, 8):
        assert b_of_simple(2, d, identity(2)) == d
        assert b_of_simple(2, d, s1) == 1
    for x in simple_enumeration(3):
        assert b_of_simple(3, 1, x) == 1
    assert b_of_simple(4, 5, partial_flip(4, 3)) == 309


@pytest.mark.parametrize("n", range(1, 6))
def test_pipeline_agreement(n):
    # the four routes (full matrix in both vector forms, subset matrix,
    # partition matrix) agree for every braid and degree
    enum = simple_enumeration(n)
    m = build_M(n)
    mprime = build_Mprime(n)
    mbar = build_Mbar(n)
    ones_m = (1,) * m.size
    corner = (0,) * (m.size - 1) + (1,)
    ones_p = (1,) * mprime.size
    ones_b = (1,) * mbar.size
    corner = vec_times_matrix(corner, m)
    for d in range(1, 7):
        for idx, x in enumerate(enum):
            j = mprime.label_index(d_left(x))
            lam = mbar.label_index(partition_of(d_left(x), n))
            assert ones_m[idx] == corner[idx] == ones_p[j] == ones_b[lam], (n, d, x)
        ones_m = vec_times_matrix(ones_m, m)
        corner = vec_times_matrix(corner, m)
        ones_p = vec_times_matrix(ones_p, mprime)
        ones_b = vec_times_matrix(ones_b, mbar)


def test_b_total_examples():
    for n in range(1, 7):
        assert b_total(n, 0) == 1
        assert b_total(n, 1) == math.factorial(n)
    assert b_total(3, 3) == 48
    assert b_total(4, 5) == 45252
    with pytest.raises(ValueError, match="n must be at least 1"):
        b_total(0, 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_prop_identities(n):
    # the total equals the sum over last factors and the next count at the
    # trivial braid, and is bounded by (n!)^d
    for d in range(1, 6):
        total = b_total(n, d)
        assert total == sum(b_of_simple(n, d, x) for x in simple_enumeration(n))
        assert total == b_of_simple(n, d + 1, identity(n))
        assert total <= math.factorial(n) ** d


def test_b_delta_examples():
    assert b_delta(5, 4, 2) == 5260
    assert b_delta(6, 3, 1) == 63
    for n in range(2, 7):
        for d in range(1, 5):
            assert b_delta(n, d, n) == b_total(n, d - 1)
    with pytest.raises(ValueError, match=r"^r=6 out of range 1\.\.5$"):
        b_delta(5, 2, 6)


_PAST_CAP = matrices.MBAR_CAP + 1
_PAST_CAP_MESSAGE = f"n={_PAST_CAP} exceeds the Mbar size cap {matrices.MBAR_CAP}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: b_of_simple(3, 0, (2, 1)), r"permutation \(2, 1\) does not live on 3 strands"),
        (lambda: b_of_simple(3, 0, (2, 1, 3)), "d must be at least 1"),
        (lambda: b_of_simple(_PAST_CAP, 0, identity(_PAST_CAP)), "d must be at least 1"),
        (lambda: b_of_simple(_PAST_CAP, 1, identity(_PAST_CAP)), _PAST_CAP_MESSAGE),
        (lambda: b_delta(5, 0, 6), r"r=6 out of range 1\.\.5"),
        (lambda: b_delta(0, 1, 1), r"r=1 out of range 1\.\.0"),
        (lambda: b_delta(5, 0, 2), "d must be at least 1"),
        (lambda: b_delta(_PAST_CAP, 0, 2), "d must be at least 1"),
        (lambda: b_delta(_PAST_CAP, 1, 2), _PAST_CAP_MESSAGE),
    ],
)
def test_count_errors_come_in_argument_order(call, message):
    # b_of_simple and b_delta leave the d and r checks to b_of_partition and
    # descents.delta_partition; the first bad argument still names itself
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n", range(2, 6))
def test_partition_invariance_through_full_matrix(n):
    # equal left-descent partitions give equal counts, checked through the
    # full-matrix route so the reduction is genuinely exercised
    enum = simple_enumeration(n)
    m = build_M(n)
    v = (1,) * m.size
    for d in range(1, 6):
        by_class = {}
        for idx, x in enumerate(enum):
            lam = partition_of(d_left(x), n)
            assert by_class.setdefault(lam, v[idx]) == v[idx], (d, x)
        v = vec_times_matrix(v, m)


def test_computed_table_matches_reference_outside_flags():
    table = computed_table(6, 6)
    for (n, rho), values in reference.TABLE1.items():
        for d in range(1, 7):
            computed = table[(n, rho)][d - 1]
            if (n, rho, d) in reference.TABLE1_FLAGGED_CELLS:
                assert computed != values[d - 1]
            else:
                assert computed == values[d - 1], (n, rho, d)


# --- serialization -----------------------------------------------------------


def test_matrix_serialization(capsys):
    # the matrix command owns the JSON and CSV forms of a CountMatrix
    def out(*argv):
        assert cli.main(["matrix", *argv]) == 0
        return capsys.readouterr().out

    obj = json.loads(out("Mbar", "3", "--format", "json"))
    assert obj["kind"] == "Mbar"
    assert obj["labels"] == ["(1,1,1)", "(2,1)", "(3)"]
    assert obj["rows"][1] == ["4", "2", "0"]

    csv_lines = out("Mbar", "3", "--format", "csv").splitlines()
    assert csv_lines[0] == 'label,"(1,1,1)","(2,1)",(3)'
    assert csv_lines[2] == '"(2,1)",4,2,0'

    assert json.loads(out("Mprime", "2", "--format", "json"))["labels"] == ["{}", "{1}"]
    assert json.loads(out("M", "2", "--format", "json"))["labels"] == ["[1,2]", "[2,1]"]


def test_entry_lookup_and_transpose():
    m = build_Mbar(4)
    assert m.entry((2, 1, 1), (1, 1, 1, 1)) == 11
    assert m.transpose().entry((1, 1, 1, 1), (2, 1, 1)) == 11
    with pytest.raises(KeyError):
        m.entry((9,), (1, 1, 1, 1))
