"""
Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Known reference-data discrepancies (asserted as such, never silently
corrected): one table cell (six strands, near-full twist, degree 4) prints
1955 where every computational path gives 1956; one table row label prints
braid index 4 among the five-strand rows; the published 5x5 partition
matrix orders its two middle partitions against the enumeration rule that
the 3x3 and 7x7 displays follow, so it is compared under label alignment.
"""
import functools
import math
import time

from garside_census import reference
from garside_census.descents import (
    a,
    a_hat,
    partition_of,
    partitions_in_order,
    subsets_in_binary_order,
)
from garside_census.formulas import (
    b3_closed,
    b3_total_closed,
    b4_recurrence_check,
    b_n2_delta,
    b_n2_recurrence,
    b_n3_delta1,
    b_n3_delta2,
    b_n3_delta2_by_sums,
    b_n4_delta1,
    b_n4_delta1_by_compositions,
    f_identity_check,
    floor_e_identity,
    gf_identity_check,
)
from garside_census.matrices import (
    b_delta,
    b_of_partition,
    b_of_simple,
    b_total,
    build_M,
    build_Mbar,
    build_Mprime,
    vec_times_matrix,
)
from garside_census.oracle import brute_count, dp_count, full_charpoly, m_charpoly_nonzero, structural_check_M
from garside_census.permutations import (
    compose,
    d_left,
    d_right,
    dual_left,
    dual_right,
    identity,
    inversion_number,
    is_normal_pair,
    partial_flip,
    perm_of_letters,
    simple_enumeration,
    transposition,
)
from garside_census.spectral import (
    charpoly,
    new_factor_simple_roots,
    poly_mul,
    rho_max,
    strip_x_power,
)
from garside_census.words import (
    PositiveWord,
    degree,
    normalize,
    normalize_factors,
    parse_word,
    rewrite_potential,
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_matrices_bit_exact():
    t0 = time.perf_counter()
    ok = build_M(2).rows == reference.M2
    ok = ok and build_M(3).rows == reference.M3
    ok = ok and build_Mprime(3).rows == reference.MPRIME3
    m3 = build_Mbar(3)
    ok = ok and m3.labels == reference.MBAR3_LABELS and m3.rows == reference.MBAR3
    m5 = build_Mbar(5)
    ok = ok and m5.labels == reference.MBAR5_LABELS and m5.rows == reference.MBAR5
    # the published 5x5 display permutes (2,2) and (3,1) against the
    # enumeration rule; entries must agree under that relabeling
    m4 = build_Mbar(4)
    aligned = all(
        m4.rows[i][j]
        == reference.MBAR4[reference.MBAR4_LABELS.index(lam)][reference.MBAR4_LABELS.index(mu)]
        for i, lam in enumerate(m4.labels)
        for j, mu in enumerate(m4.labels)
    )
    ok = ok and aligned and m4.labels == partitions_in_order(4)
    order_flagged = m4.labels != reference.MBAR4_LABELS
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"matrix displays bit-exact (5x5 aligned, order flagged={order_flagged}) in {elapsed:.3f}s",
    )


def test_criterion_2_table1_reproduction():
    t0 = time.perf_counter()
    mismatches = []
    for (n, rho), printed in reference.TABLE1.items():
        for d in range(1, 7):
            computed = b_delta(n, d, n - rho)
            if (n, rho, d) in reference.TABLE1_FLAGGED_CELLS:
                # flagged cell: the reduced-matrix pipeline and the
                # dp oracle must agree with each other, not with print
                oracle_value = dp_count(n, d, last=partial_flip(n, rho))
                if computed != oracle_value:
                    mismatches.append((n, rho, d, "pipeline vs oracle"))
                if computed == printed[d - 1]:
                    mismatches.append((n, rho, d, "flag is stale"))
            elif computed != printed[d - 1]:
                mismatches.append((n, rho, d, f"{computed} != {printed[d - 1]}"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    _report(2, ok, f"table n<=6 d<=6 reproduced, flagged cell = 1956 both paths, {elapsed:.2f}s ({mismatches})")


def test_criterion_3_table2_charpolys():
    t0 = time.perf_counter()
    expected = (1,)
    ok = True
    for n in range(1, 9):
        expected = poly_mul(expected, reference.CHARPOLY_NEW_FACTORS[n])
        if n >= 2 and charpoly(n) != expected:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, f"characteristic polynomials 2<=n<=8 exact in {elapsed:.2f}s")


def test_criterion_4_table2_eigenvalues():
    ok = True
    prev = None
    for n in range(1, 9):
        rho = rho_max(n)
        if abs(rho - reference.RHO[n]) >= 5e-3:
            ok = False
        if n >= 2 and abs(rho / (n * prev) - reference.RHO_RATIO[n]) >= 5e-3:
            ok = False
        prev = rho
    _report(4, ok, "dominant eigenvalues and ratio row within 5e-3")


def test_criterion_5_conjecture_n_le_10():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 11):
        rep = new_factor_simple_roots(n)
        good = (
            rep.divides
            and rep.degree_ok
            and rep.constant_nonzero
            and rep.squarefree
        )
        if not good:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(5, ok, f"nested spectra with simple squarefree new factors up to n=10 in {elapsed:.2f}s")


def test_criterion_6_oracle_equivalence():
    ok = True
    for n in (1, 2, 3):
        for d in range(1, 6):
            if brute_count(n, d) != b_total(n, d):
                ok = False
            for r in range(1, n + 1):
                if brute_count(n, d, last=partial_flip(n, n - r)) != b_delta(n, d, r):
                    ok = False
    for d in (1, 2, 3):
        if brute_count(4, d) != b_total(4, d):
            ok = False
        for r in range(1, 5):
            if brute_count(4, d, last=partial_flip(4, 4 - r)) != b_delta(4, d, r):
                ok = False
    for n in range(1, 7):
        for d in range(1, 7):
            if dp_count(n, d) != b_total(n, d):
                ok = False
            for r in range(1, n + 1):
                if dp_count(n, d, last=partial_flip(n, n - r)) != b_delta(n, d, r):
                    ok = False
    _report(6, ok, "brute force (n<=3 d<=5, n=4 d<=3) and dp (n<=6 d<=6) match the pipeline")


def test_criterion_7_closed_forms():
    ok = True
    for d in range(1, 21):
        for lam in ((1, 1, 1), (2, 1), (3,)):
            ok = ok and b3_closed(d, lam) == b_of_partition(3, d, lam)
        ok = ok and b3_total_closed(d) == b_total(3, d)
    ok = ok and b4_recurrence_check(20).ok
    spot = {2: 3, 3: 19, 4: 211, 5: 3651, 6: 90921}
    vals = b_n2_recurrence(8)
    for n in range(1, 9):
        ok = ok and vals[n] == b_total(n, 2)
        if n in spot:
            ok = ok and vals[n] == spot[n]
    for n in range(1, 9):
        for r in range(1, n + 1):
            ok = ok and b_n2_delta(n, r) == b_delta(n, 2, r)
    for n in range(2, 9):
        ok = ok and b_n3_delta1(n) == 2**n - 1 == b_delta(n, 3, 1)
    for n in range(3, 9):
        target = b_delta(n, 3, 2)
        ok = ok and b_n3_delta2(n) == target == b_n3_delta2_by_sums(n)
    for n in range(1, 8):
        ok = (
            ok
            and b_n4_delta1(n) == b_n4_delta1_by_compositions(n) == b_delta(n, 4, 1)
        )
    ok = ok and f_identity_check(12)
    ok = ok and gf_identity_check(12)
    for n in range(1, 13):
        ok = ok and floor_e_identity(n) == b_n4_delta1(n)
    _report(7, ok, "every closed form equals the pipeline on its stated range")


def test_criterion_8_structural_and_algebraic_invariants():
    ok = True
    for n in range(1, 7):
        if not structural_check_M(n).all_ok:
            ok = False
    for n in range(1, 6):
        for d in range(1, 6):
            total = b_total(n, d)
            if total != sum(b_of_simple(n, d, x) for x in simple_enumeration(n)):
                ok = False
            if total != b_of_simple(n, d + 1, identity(n)):
                ok = False
            if total > math.factorial(n) ** d:
                ok = False
    for n in range(1, 8):
        full = frozenset(range(1, n))
        for x in simple_enumeration(n):
            if compose(dual_left(x), x) != partial_flip(n, n):
                ok = False
            if d_right(dual_left(x)) != full - d_left(x):
                ok = False
            if d_left(dual_right(x)) != full - d_right(x):
                ok = False
    for n in range(2, 6):
        m = build_M(n)
        enum = simple_enumeration(n)
        v = (1,) * m.size
        for d in range(1, 6):
            by_class = {}
            for idx, x in enumerate(enum):
                lam = partition_of(d_left(x), n)
                if by_class.setdefault(lam, v[idx]) != v[idx]:
                    ok = False
            v = vec_times_matrix(v, m)
    for n in range(2, 7):
        subsets = subsets_in_binary_order(n)
        by_pair = {}
        for I in subsets:
            by_col = {}
            for J in subsets:
                key = (partition_of(I, n), partition_of(J, n))
                val = a_hat(n, I, J)
                if by_pair.setdefault(key, val) != val:
                    ok = False
                exact = a(n, I, J)
                if by_col.setdefault(partition_of(J, n), exact) != exact:
                    ok = False
    for n in range(1, 7):
        target = m_charpoly_nonzero(n)
        if n <= 4 and strip_x_power(full_charpoly(build_M(n).rows)) != target:
            ok = False
        if strip_x_power(full_charpoly(build_Mprime(n).rows)) != target:
            ok = False
        if strip_x_power(charpoly(n)) != target:
            ok = False
    _report(8, ok, "boundary/block/class laws, sum identities, duality, partition invariance, strip equality")


def test_criterion_9_normal_form():
    ok = True
    words_to_try = [
        (3, (1, 2, 1)),
        (3, (2, 1)),
        (2, (1, 1)),
        (4, (1, 3, 2, 2, 1, 3)),
        (4, (3, 3, 1, 2, 1)),
        (5, (4, 1, 2, 3, 4, 1)),
    ]
    for n, letters in words_to_try:
        potentials = []
        seq = normalize(
            PositiveWord(n=n, letters=letters),
            on_step=lambda fs: potentials.append(rewrite_potential(fs)),
        )
        start = rewrite_potential(tuple(transposition(n, i) for i in letters))
        trail = [start] + potentials
        if not all(b < a for a, b in zip(trail, trail[1:])):
            ok = False
        product = functools.reduce(compose, seq.factors, identity(n))
        if product != perm_of_letters(letters, n):
            ok = False
        if sum(inversion_number(x) for x in seq.factors) != len(letters):
            ok = False
        for k in range(len(seq.factors) - 1):
            if not is_normal_pair(seq.factors[k], seq.factors[k + 1]):
                ok = False
        moves = []
        again = normalize_factors(n, seq.factors, on_step=lambda fs: moves.append(1))
        if again != seq or moves:
            ok = False
    if normalize(parse_word("s1 s2 s1", 3)).factors != (partial_flip(3, 3),):
        ok = False
    for n in range(2, 6):
        for d in range(1, 5):
            seq = normalize(parse_word(f"D^{d}", n))
            if degree(seq) != d or seq.factors != (partial_flip(n, n),) * d:
                ok = False
    _report(9, ok, "termination measure, conservation laws, normality, idempotence, half-twist powers")
