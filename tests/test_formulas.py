import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside_census import formulas, matrices
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
    cor47_check,
    f_identity_check,
    floor_e_identity,
    gf_identity_check,
    verify_all,
)
from garside_census.matrices import b_delta, b_of_partition, b_total

from composition_enumerator import compositions


def test_b3_closed_examples():
    assert b3_closed(2, (1, 1, 1)) == 6
    assert b3_closed(5, (2, 1)) == 31
    assert b3_closed(4, (3,)) == 1
    assert b3_total_closed(1) == 6
    with pytest.raises(ValueError):
        b3_closed(2, (4,))


def test_b3_closed_matches_pipeline():
    for d in range(1, 21):
        for lam in ((1, 1, 1), (2, 1), (3,)):
            assert b3_closed(d, lam) == b_of_partition(3, d, lam)
        assert b3_total_closed(d) == b_total(3, d)


def test_b4_recurrence():
    report = b4_recurrence_check(20)
    assert report.ok
    # seeded values reproduce the first totals directly
    u_prev2, u_prev1 = 0, 1
    vals = []
    for d in range(1, 6):
        u = 6 * u_prev1 - 3 * u_prev2 + 32 * 2**d - 12 * d - 34
        vals.append(u)
        u_prev2, u_prev1 = u_prev1, u
    assert vals == [24, 211, 1380, 8077, 45252]


def test_b_n2_recurrence_values():
    vals = b_n2_recurrence(6)
    assert vals == [1, 1, 3, 19, 211, 3651, 90921]
    for n in range(1, 9):
        assert b_n2_recurrence(n)[n] == b_total(n, 2)


def _gf_coefficient_as_fraction(b, m):
    # The series product's x^m coefficient with exact rationals, as the
    # identity was first checked.
    return sum(
        Fraction(b[i], math.factorial(i) ** 2) * Fraction((-1) ** (m - i), math.factorial(m - i) ** 2)
        for i in range(m + 1)
    )


def test_gf_identity():
    assert gf_identity_check(12)


def test_gf_coefficients_are_the_rational_ones_times_m_factorial_squared():
    b = b_n2_recurrence(13)
    for m in range(14):
        scaled = math.factorial(m) ** 2 * _gf_coefficient_as_fraction(b, m)
        assert formulas._gf_coefficient(b, m) == scaled == (1 if m == 0 else 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), min_size=14, max_size=14))
def test_gf_coefficient_scaling_on_any_sequence(b):
    for m in range(14):
        assert formulas._gf_coefficient(b, m) == math.factorial(m) ** 2 * _gf_coefficient_as_fraction(b, m)


def test_gf_identity_sees_one_wrong_value(monkeypatch):
    real = formulas.b_n2_recurrence

    def perturbed(nmax):
        vals = real(nmax)
        vals[12] += 1
        return vals

    monkeypatch.setattr(formulas, "b_n2_recurrence", perturbed)
    assert not gf_identity_check(12)


def test_b_n2_delta():
    assert b_n2_delta(4, 2) == 12
    assert b_n2_delta(5, 2) == 20
    for n in range(1, 9):
        for r in range(1, n + 1):
            assert b_n2_delta(n, r) == b_delta(n, 2, r)
    with pytest.raises(ValueError):
        b_n2_delta(4, 5)


def test_b_n3_delta1():
    assert b_n3_delta1(3) == 7
    assert b_n3_delta1(2) == 3
    assert b_n3_delta1(6) == 63
    for n in range(2, 9):
        assert b_n3_delta1(n) == b_delta(n, 3, 1)
        # the printed closed form is off by a factor of two minus one
        assert b_n3_delta1(n) != 2 ** (n - 1)


def test_b_n3_delta2():
    assert b_n3_delta2(4) == 83
    assert b_n3_delta2(5) == 311
    assert b_n3_delta2(6) == 1075
    for n in range(3, matrices.MBAR_CAP + 1):
        assert b_n3_delta2(n) == b_n3_delta2_by_sums(n) == _b_n3_delta2_by_filtering(n), n
    for n in range(3, 9):
        assert b_n3_delta2(n) == b_delta(n, 3, 2)


def _b_n3_delta2_by_filtering(n):
    # The case sum with the two- and three-block compositions picked out of
    # the list of all compositions.
    total = b_n3_delta1(n)
    for parts in compositions(n):
        if len(parts) == 3:
            total += formulas._multinomial(parts) * (2 if parts[1] >= 2 else 1)
        elif len(parts) == 2:
            total += formulas._multinomial(parts) * (2 if min(parts) >= 2 else 1)
    return total


def test_b_n4_delta1():
    assert b_n4_delta1(3) == 15
    assert b_n4_delta1(4) == 64
    assert b_n4_delta1(5) == 325
    for n in range(1, 11):
        assert b_n4_delta1(n) == b_n4_delta1_by_compositions(n)
    # past n = 7, where verify_all stops comparing this row with the pipeline
    for n in range(1, matrices.MBAR_CAP + 1):
        assert b_n4_delta1(n) == b_delta(n, 4, 1), n


def _composition_sum_by_listing(m, shift):
    # _composition_sum term by term over the list of all compositions of m.
    total = 0
    for parts in compositions(m):
        weight = parts[0] if len(parts) == 1 else (parts[0] - shift) * parts[-1]
        for p in parts[1:-1]:
            weight *= p - 1
        total += formulas._multinomial(parts) * weight
    return total


@pytest.mark.parametrize("shift", [0, 1])
def test_composition_sum_matches_the_listed_compositions(shift):
    for m in range(1, 15):
        assert formulas._composition_sum(m, shift) == _composition_sum_by_listing(m, shift), m


def _unit_sum_as_fraction(m):
    # The composition unit identity's sum with exact rationals, as it was
    # first checked.
    acc = Fraction(0)
    for parts in compositions(m):
        term = Fraction(parts[-1], math.factorial(parts[-1]))
        for p in parts[:-1]:
            term *= Fraction(p - 1, math.factorial(p))
        acc += term
    return acc


def test_f_identity():
    assert f_identity_check(12)


def test_unit_sum_is_the_rational_one_times_m_factorial():
    for m in range(1, 14):
        fraction_sum = _unit_sum_as_fraction(m)
        assert fraction_sum == 1
        assert formulas._unit_composition_sum(m) == math.factorial(m) * fraction_sum


def test_multinomial():
    assert formulas._multinomial((2, 1, 1)) == 12
    assert formulas._multinomial((5,)) == 1
    assert formulas._multinomial((3, 4, 1, 2)) == math.factorial(10) // (6 * 24 * 1 * 2)
    assert formulas._multinomial(()) == 1


def test_f_identity_sees_one_missing_composition(monkeypatch):
    real = formulas._unit_composition_sum
    # Only the top index is off, by one.
    monkeypatch.setattr(formulas, "_unit_composition_sum", lambda m: real(m) - (m == 13))
    assert not f_identity_check(12)
    assert f_identity_check(11)


def test_floor_e_identity():
    assert floor_e_identity(3) == 15
    assert floor_e_identity(1) == 1
    assert floor_e_identity(4) == 64
    for n in range(1, 61):
        assert floor_e_identity(n) == b_n4_delta1(n)


def test_cor47():
    report = cor47_check(10)
    assert report.ok
    derived = [c for c in report.checks if c.label.startswith("derived")]
    printed = [c for c in report.checks if c.label.startswith("printed")]
    assert all(c.match for c in derived)
    # the printed increment 2n - 1 overshoots from the first step on
    assert all(not c.match for c in printed)
    assert all(c.flag == "paper-discrepancy" for c in printed)
    assert printed[0].computed == "5"
    assert printed[0].expected == "4"


def test_verify_all_green():
    reports = verify_all()
    assert all(r.ok for r in reports), [r.formula for r in reports if not r.ok]
    names = {r.formula for r in reports}
    assert {"b3-closed", "b4-recurrence", "bn2-recurrence", "bn3-delta1", "floor-e"} <= names
