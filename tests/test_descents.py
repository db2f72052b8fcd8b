import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from garside_census import descents, matrices
from garside_census.descents import (
    a,
    a_hat,
    composition_of,
    contingency_count,
    delta_partition,
    format_parts,
    mask_of,
    partition_of,
    partitions_in_order,
    set_of_composition,
    set_of_mask,
    subsets_in_binary_order,
)
from garside_census.oracle import count_functions, left_right_descent_census
from garside_census.permutations import d_left, partial_flip

from composition_enumerator import compositions


def subset_strategy(n):
    if n == 1:
        return st.just(frozenset())
    return st.sets(st.integers(1, n - 1)).map(frozenset)


# --- compositions and partitions -------------------------------------------


def test_composition_examples():
    assert composition_of({1, 2, 4, 5, 6, 9}, 10) == (3, 4, 1, 2)
    assert composition_of(set(), 5) == (1, 1, 1, 1, 1)
    assert composition_of({1, 2, 3}, 5) == (4, 1)


def test_partition_examples():
    assert partition_of({1, 2, 4, 5, 6, 9}, 10) == (4, 3, 2, 1)
    assert partition_of(set(range(1, 5)), 5) == (5,)
    assert partition_of({2, 3}, 5) == (3, 1, 1)


def test_set_of_composition_examples():
    assert set_of_composition((2, 1)) == frozenset({1})
    assert set_of_composition((1,) * 6) == frozenset()
    # leading part n-r followed by r ones marks the first n-r-1 indices
    assert set_of_composition((4, 1, 1)) == frozenset({1, 2, 3})


def test_set_of_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        set_of_composition((2, 0, 1))
    with pytest.raises(ValueError):
        set_of_composition(())


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), subset_strategy(n))))
def test_composition_set_round_trip(data):
    n, subset = data
    comp = composition_of(subset, n)
    assert sum(comp) == n
    assert all(p >= 1 for p in comp)
    assert set_of_composition(comp) == subset
    assert partition_of(subset, n) == tuple(sorted(comp, reverse=True))


def test_partitions_in_order_small():
    assert partitions_in_order(1) == ((1,),)
    assert partitions_in_order(3) == ((1, 1, 1), (2, 1), (3,))
    assert partitions_in_order(5) == (
        (1, 1, 1, 1, 1),
        (2, 1, 1, 1),
        (3, 1, 1),
        (2, 2, 1),
        (4, 1),
        (3, 2),
        (5,),
    )


@pytest.mark.parametrize("n", range(1, 16))
def test_partitions_in_order_is_first_occurrence_over_subsets(n):
    assert partitions_in_order(n) == tuple(dict.fromkeys(descents.partitions_by_mask(n)))


def test_partitions_in_order_rejects_n_below_one():
    with pytest.raises(ValueError):
        partitions_in_order(0)


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15), (8, 22), (9, 30), (10, 42)]
)
def test_partition_counts(n, count):
    parts = partitions_in_order(n)
    assert len(parts) == count
    assert len(set(parts)) == count
    assert all(sum(p) == n for p in parts)


def test_delta_partition():
    assert delta_partition(6, 1) == (5, 1)
    assert delta_partition(6, 6) == (1,) * 6
    assert delta_partition(6, 5) == (1,) * 6
    for n in range(2, 8):
        for r in range(1, n + 1):
            x = partial_flip(n, n - r)
            assert delta_partition(n, r) == partition_of(d_left(x), n)


# --- contingency counting ---------------------------------------------------


def _contingency_brute(rows, cols):
    """Every table row by row: each row is a vector with the row's sum and
    entry j at most cols[j]; count the choices whose columns sum right."""
    choices = [
        [v for v in itertools.product(*(range(c + 1) for c in cols)) if sum(v) == r]
        for r in rows
    ]
    return sum(
        all(sum(column) == c for column, c in zip(zip(*grid), cols))
        for grid in itertools.product(*choices)
    )


def test_contingency_examples():
    assert contingency_count((1, 1), (1, 1)) == 2
    assert contingency_count((2, 1), (2, 1)) == 2
    assert contingency_count((5,), (1,) * 5) == 1
    assert contingency_count((1,) * 4, (1,) * 4) == math.factorial(4)


def test_contingency_margin_mismatch():
    with pytest.raises(ValueError):
        contingency_count((2, 1), (1, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
def test_contingency_against_brute(rows, cols):
    diff = sum(rows) - sum(cols)
    if diff > 0:
        cols = cols + [diff]
    elif diff < 0:
        rows = rows + [-diff]
    assert contingency_count(tuple(rows), tuple(cols)) == _contingency_brute(rows, cols)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
def test_contingency_transpose_symmetry(rows, cols):
    diff = sum(rows) - sum(cols)
    if diff > 0:
        cols = cols + [diff]
    elif diff < 0:
        rows = rows + [-diff]
    assert contingency_count(tuple(rows), tuple(cols)) == contingency_count(tuple(cols), tuple(rows))


# --- Kostka numbers against the retained DP ---------------------------------


def _ssyt_brute(shape, content):
    """Fill the cells row by row with every arrangement of the content's
    letters; count the fillings whose rows rise weakly and columns strictly."""
    letters = [v for v, m in enumerate(content) for _ in range(m)]
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    count = 0
    for word in set(itertools.permutations(letters)):
        at = dict(zip(cells, word))
        if all(at[r, c - 1] <= v for (r, c), v in at.items() if c) and all(
            at[r - 1, c] < v for (r, c), v in at.items() if r
        ):
            count += 1
    return count


@pytest.mark.parametrize("n", range(1, 7))
def test_tableaux_against_brute(n):
    shapes = partitions_in_order(n)
    for content in shapes:
        brute = {shape: _ssyt_brute(shape, content) for shape in shapes}
        assert descents._tableaux(content) == {s: k for s, k in brute.items() if k}, content


@pytest.mark.parametrize("n", range(1, 13))
def test_kostka_columns_are_unitriangular_in_lex_order(n):
    # K is unitriangular in decreasing lexicographic order
    for kappa in partitions_in_order(n):
        table = descents._tableaux(kappa)
        assert table[kappa] == 1, kappa
        assert all(nu >= kappa for nu in table), kappa


def _reference_a_hat_table(n):
    """The dense Gram product K^T K, one sum over every shape per entry."""
    labels = partitions_in_order(n)
    tables = [descents._tableaux(kappa) for kappa in labels]
    return tuple(
        tuple(sum(t1.get(nu, 0) * t2.get(nu, 0) for nu in labels) for t2 in tables) for t1 in tables
    )


def _unpacked_a_hat_table(n):
    rows, width = descents._packed_a_hat_rows(n)
    return tuple(descents._unpack(row, len(rows), width) for row in rows)


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_a_hat_table_equals_the_dense_gram_product(n):
    assert _unpacked_a_hat_table(n) == _reference_a_hat_table(n)


@pytest.mark.parametrize("n", range(4, 11))
def test_the_a_hat_table_is_built_once_for_every_reader(n):
    # build_Mbar, a_hat, a and mprime_columns all read the one packed table of n
    for cached in (descents._packed_a_hat_rows, descents._count_by_sorted_margins,
                   matrices._cached_Mbar, matrices.mprime_columns):
        cached.cache_clear()
    matrices.build_Mbar(n)
    assert descents._packed_a_hat_rows.cache_info().misses == 1
    I, J = {1, 3}, {2, n - 1}
    index = {lam: k for k, lam in enumerate(partitions_in_order(n))}
    reference = _reference_a_hat_table(n)
    assert a_hat(n, I, J) == reference[index[partition_of(I, n)]][index[partition_of(J, n)]]
    assert a(n, I, J) == matrices.mprime_columns(n)[partition_of(J, n)][mask_of(I)]
    assert descents._packed_a_hat_rows.cache_info().misses == 1


@pytest.mark.parametrize("n", range(1, matrices.MBAR_CAP + 1))
def test_a_hat_entries_fit_the_slot_width(n):
    # _packed_a_hat_rows sizes its slots for n!, which bounds every entry, in the fewest of 1, 2, 4 or 8 bytes
    bound = math.factorial(n)
    assert all(0 <= e <= bound for row in _unpacked_a_hat_table(n) for e in row)
    width = descents._packed_a_hat_rows(n)[1]
    assert width in (1, 2, 4, 8) and bound < 1 << 8 * width
    assert width == 1 or bound >= 1 << 4 * width


def test_pack_round_trip_and_unpack_overflow():
    row = (0, 255, 1, 254)
    assert descents._unpack(descents._pack(row, 1), 4, 1) == row
    assert descents._unpack(descents._pack(row, 3), 4, 3) == row
    assert descents._unpack(0, 0, 2) == ()
    # a signed sum with slots in range unpacks exactly
    assert descents._unpack(3 * descents._pack((5, 7), 2) - descents._pack((4, 2), 2), 2, 2) == (11, 19)
    with pytest.raises(OverflowError):
        descents._unpack(-1, 4, 1)
    with pytest.raises(OverflowError):
        descents._unpack(descents._pack((5, 7), 2) - 2 * descents._pack((0, 4), 2), 2, 2)
    with pytest.raises(OverflowError):
        descents._unpack(1 << 32, 4, 1)
    with pytest.raises(OverflowError):
        descents._unpack(descents._pack((1, 256), 2), 2, 1)


@st.composite
def _slot_row(draw):
    width = draw(st.sampled_from((1, 2, 3, 4, 8, 17)))
    return draw(st.lists(st.integers(0, (1 << 8 * width) - 1), max_size=40)), width


@settings(max_examples=300, deadline=None)
@given(_slot_row())
def test_pack_round_trips_at_every_width(case):
    # widths 1, 2, 4 and 8 convert a row through one array, 3 and 17 slot by slot
    row, width = case
    packed = descents._pack(row, width)
    assert packed == sum(v << 8 * width * i for i, v in enumerate(row))
    assert descents._unpack(packed, len(row), width) == tuple(row)
    with pytest.raises(OverflowError):
        descents._pack(row + [1 << 8 * width], width)
    with pytest.raises(OverflowError):
        descents._pack(row + [-1], width)
    with pytest.raises(OverflowError):
        descents._unpack(packed - (1 << 8 * width * len(row)), len(row), width)
    with pytest.raises(OverflowError):
        descents._unpack(packed + (1 << 8 * width * len(row)), len(row), width)


@pytest.mark.parametrize("n", range(1, 11))
def test_kostka_sum_equals_contingency_count(n):
    parts = partitions_in_order(n)
    for rows in parts:
        for cols in parts:
            assert descents._count_by_sorted_margins(rows, cols) == contingency_count(rows, cols), (rows, cols)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(11, 13)
    .map(partitions_in_order)
    .flatmap(lambda parts: st.tuples(st.sampled_from(parts), st.sampled_from(parts)))
)
def test_kostka_sum_equals_contingency_count_large(pair):
    rows, cols = pair
    assert descents._count_by_sorted_margins(rows, cols) == contingency_count(rows, cols)


def test_library_counts_never_run_the_dp():
    for cached in (
        descents._fill_columns,
        descents._count_by_sorted_margins,
        descents._packed_a_hat_rows,
        descents._tableaux,
        matrices._cached_Mbar,
        matrices.mprime_columns,
    ):
        cached.cache_clear()
    matrices.build_Mbar(9)
    matrices.build_Mprime(7)
    a_hat(8, {1, 3, 4}, {2, 6, 7})
    assert descents._tableaux.cache_info().misses > 0
    assert descents._fill_columns.cache_info().misses == 0


@functools.lru_cache(maxsize=None)
def _signed_subset_pairs(n):
    """
    (lam, kappa) -> the sum of (-1)^|I' - I| over the subset pairs I <= I'
    with partitions lam and kappa: the partition-level inclusion-exclusion.
    """
    parts = descents.partitions_by_mask(n)
    out = {}
    for outer in range(1 << (n - 1)):
        inner = outer
        while True:
            key = (parts[inner], parts[outer])
            out[key] = out.get(key, 0) + (-1) ** bin(outer ^ inner).count("1")
            if inner == 0:
                break
            inner = (inner - 1) & outer
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(partitions_in_order(n)))))
def test_refinements_times_orderings_sum_the_signed_subset_pairs(case):
    n, kappa = case
    pairs = _signed_subset_pairs(n)
    orderings = descents._multinomial([kappa.count(p) for p in set(kappa)])
    table = descents._refinements(kappa)
    for lam in partitions_in_order(n):
        assert orderings * table.get(lam, 0) == pairs.get((lam, kappa), 0), (lam, kappa)


def _refinements_by_pieces(kappa):
    """The signed refinement table, splitting each part into every composition of it."""
    table = {(): 1}
    for k in kappa:
        pieces = [(beta, (-1) ** (len(beta) - 1)) for beta in compositions(k)]
        finer = {}
        for lam, count in table.items():
            for beta, sign in pieces:
                key = tuple(sorted(lam + beta, reverse=True))
                finer[key] = finer.get(key, 0) + sign * count
        table = finer
    return table


@pytest.mark.parametrize("n", range(1, 13))
def test_refinements_match_the_pieces_of_each_part(n):
    for kappa in partitions_in_order(n):
        table = descents._refinements(kappa)
        expected = _refinements_by_pieces(kappa)
        assert {lam: c for lam, c in table.items() if c} == {lam: c for lam, c in expected.items() if c}, kappa


# --- the counting numbers ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _census_counts(n):
    """Exact and contained counts straight off the permutation sweep."""
    return left_right_descent_census(n)


def _a_sweep(n, I, J, exact_left=True):
    im, jm = mask_of(I), mask_of(J)
    total = 0
    for (left, right), count in _census_counts(n).items():
        left_ok = left == im if exact_left else im & ~left == 0
        if left_ok and jm & ~right == 0:
            total += count
    return total


def test_a_hat_examples():
    assert a_hat(10, {1, 2, 4, 5, 6, 9}, set()) == 12600
    assert a_hat(3, {1}, {1}) == 2
    for n in range(1, 7):
        assert a_hat(n, set(), set()) == math.factorial(n)


def test_a_examples():
    assert a(3, {1}, set()) == 2
    assert a(3, {1}, {1}) == 1
    for n in range(2, 7):
        assert a(n, set(), set()) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_counts_match_permutation_sweep(n):
    for I in subsets_in_binary_order(n):
        for J in subsets_in_binary_order(n):
            assert a_hat(n, I, J) == _a_sweep(n, I, J, exact_left=False), (I, J)
            assert a(n, I, J) == _a_sweep(n, I, J, exact_left=True), (I, J)


@pytest.mark.parametrize("n", range(2, 9))
def test_multinomial_identities(n):
    # contained-descent counts against one empty side reduce to multinomials
    fact = math.factorial(n)
    for I in subsets_in_binary_order(n):
        comp = composition_of(I, n)
        multinomial = fact
        for p in comp:
            multinomial //= math.factorial(p)
        assert a_hat(n, I, set()) == multinomial
        assert a_hat(n, set(), I) == multinomial


@pytest.mark.parametrize("n", range(2, 7))
def test_partition_dependence(n):
    # contained-contained counts depend only on the two partitions; the
    # exact-left counts depend only on the column partition for fixed I
    subsets = subsets_in_binary_order(n)
    by_pair = {}
    for I in subsets:
        for J in subsets:
            key = (partition_of(I, n), partition_of(J, n))
            val = a_hat(n, I, J)
            assert by_pair.setdefault(key, val) == val, (I, J)
    for I in subsets:
        by_col = {}
        for J in subsets:
            key = partition_of(J, n)
            val = a(n, I, J)
            assert by_col.setdefault(key, val) == val, (I, J)


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_left_counts_total(n):
    total = sum(a(n, I, set()) for I in subsets_in_binary_order(n))
    assert total == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_count_functions_oracle(n):
    for I in subsets_in_binary_order(n):
        for J in subsets_in_binary_order(n):
            assert count_functions(n, I, J, exact=False) == a_hat(n, I, J), (I, J)
            assert count_functions(n, I, J, exact=True) == a(n, I, J), (I, J)


def test_count_functions_trivial():
    assert count_functions(3, set(), set(), exact=True) == 1


def test_mask_helpers_and_format():
    assert mask_of({1, 3}) == 0b101
    assert set_of_mask(0b101) == frozenset({1, 3})
    assert format_parts((3, 4, 1, 2)) == "(3,4,1,2)"
