"""Exact truncated series, trig kernels and the EGF catalogue."""

from fractions import Fraction

import pytest

from weylruns.errors import DomainError, IntegrityError
from weylruns.series import (
    ALT_FAMILIES,
    SNAKE_FAMILIES,
    Series,
    egf_alt,
    egf_alt_bmd_pm_corrected,
    egf_snakes,
    sec,
    tan,
)


def test_series_sized_from_n():
    # E_20, past the default order of 16.
    assert egf_alt("A", 21).egf_coeff(20) == 370371188237525
    assert Series.x(1) == Series([0])
    for n in range(16):
        for fam in ALT_FAMILIES:
            assert egf_alt(fam, n + 1).egf_coeff_exact(n) == egf_alt(fam).egf_coeff_exact(n)
        for fam in SNAKE_FAMILIES:
            assert egf_snakes(fam, n + 1).egf_coeff(n) == egf_snakes(fam).egf_coeff(n)
        for sign in "+-":
            assert (egf_alt_bmd_pm_corrected(sign, n + 1).egf_coeff(n)
                    == egf_alt_bmd_pm_corrected(sign).egf_coeff(n))


def test_cos_maclaurin():
    assert Series.cos(5).coeffs == (1, 0, Fraction(-1, 2), 0, Fraction(1, 24))


def test_sin_maclaurin():
    assert Series.sin(4).coeffs == (0, 1, 0, Fraction(-1, 6))


def test_division_and_scale():
    assert sec(8).coeff(0) == 1
    assert Series.sin(8).scale_arg(2).coeff(1) == 2
    with pytest.raises(DomainError):
        Series.const(1, 8) / Series.sin(8)


def test_pythagorean_identity_exact():
    s, c = Series.sin(16), Series.cos(16)
    assert s * s + c * c == Series.const(1, 16)


def test_sec_times_cos_is_one():
    assert sec(16) * Series.cos(16) == Series.const(1, 16)


def test_egf_coeff_basics():
    f = Series([Fraction(5), Fraction(1, 2)])
    assert f.egf_coeff(0) == 5
    with pytest.raises(DomainError):
        f.egf_coeff(5)


def test_egf_coeff_matches_brute_force_counts():
    from weylruns.oracle import count_alternating, count_snakes

    st = sec(8) + tan(8)
    assert st.egf_coeff(4) == 5 == count_alternating("A", 4)
    springer = Series.const(1, 8) / (Series.cos(8) - Series.sin(8))
    assert springer.egf_coeff(2) == 3 == count_snakes("B", 2)


def test_alternating_families_small_values():
    a = egf_alt("A")
    assert [a.egf_coeff(n) for n in range(5)] == [1, 1, 1, 2, 5]
    assert egf_alt("A+").egf_coeff(4) == 3
    assert egf_alt("A-").egf_coeff(4) == 2
    assert egf_alt("B").egf_coeff(1) == 2
    assert egf_alt("D+").egf_coeff(0) == 1


def test_snake_families_small_values():
    b = egf_snakes("B")
    assert [b.egf_coeff(n) for n in range(4)] == [1, 1, 3, 11]
    assert egf_snakes("B+").egf_coeff(2) - egf_snakes("B-").egf_coeff(2) == -1
    assert egf_snakes("D").egf_coeff(2) == 1


def test_family_splits_add_up():
    assert egf_alt("A+") + egf_alt("A-") == egf_alt("A")
    assert egf_snakes("B+") + egf_snakes("B-") == egf_snakes("B")
    assert egf_snakes("D+") + egf_snakes("D-") == egf_snakes("D")
    assert egf_alt("B+") + egf_alt("B-") == egf_alt("B")
    assert egf_alt("D") + egf_alt("B-D") == egf_alt("B")


def test_bmd_pm_printed_formula_is_non_integer():
    # the printed closed form halves the wrong constant; its n = 1 EGF
    # coefficient is 3/2, which egf_coeff must refuse
    printed = egf_alt("B-D+")
    assert printed.egf_coeff_exact(1) == Fraction(3, 2)
    with pytest.raises(IntegrityError):
        printed.egf_coeff(1)
    corrected = egf_alt_bmd_pm_corrected("+")
    assert [corrected.egf_coeff(n) for n in range(3)] == [0, 1, 1]


def test_all_other_families_are_integral():
    for fam in ALT_FAMILIES:
        if fam in ("B-D+", "B-D-"):
            continue
        s = egf_alt(fam)
        for n in range(9):
            s.egf_coeff(n)
    for fam in SNAKE_FAMILIES:
        s = egf_snakes(fam)
        for n in range(9):
            s.egf_coeff(n)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        egf_alt("C")
    with pytest.raises(DomainError):
        egf_snakes("A")
