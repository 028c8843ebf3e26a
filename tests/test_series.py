"""Exact truncated series, trig kernels and the EGF catalogue."""

from fractions import Fraction

import pytest
from fraction_series import FractionSeries
from hypothesis import given, settings
from hypothesis import strategies as st

from weylruns import series as series_mod
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


# ------------------------------------------- cross-check against Fractions

def _in_fractions(monkeypatch):
    """Make the catalogue build its series over the Fraction reference."""
    monkeypatch.setattr(series_mod, "Series", FractionSeries)


def test_catalogue_matches_the_fraction_reference(monkeypatch):
    builders = ([(series_mod.egf_alt, fam) for fam in ALT_FAMILIES]
                + [(series_mod.egf_snakes, fam) for fam in SNAKE_FAMILIES]
                + [(series_mod.egf_alt_bmd_pm_corrected, sign) for sign in "+-"])
    ints = {(build, arg, order): build(arg, order) for build, arg in builders for order in range(1, 22)}
    _in_fractions(monkeypatch)
    for (build, arg, order), got in ints.items():
        want = build(arg, order)
        assert isinstance(got, Series) and isinstance(want, FractionSeries)
        assert [got.egf_coeff_exact(n) for n in range(order)] == [
            want.egf_coeff_exact(n) for n in range(order)], (build.__name__, arg, order)
        assert got.coeffs == want.coeffs


def test_integral_coefficients_are_ints():
    printed = egf_alt("B-D-", 21)
    assert printed.egf[1] == Fraction(1, 2)
    assert all(type(h) is int for h in printed.egf[:1] + printed.egf[2:])
    for fam in SNAKE_FAMILIES:
        assert all(type(h) is int for h in egf_snakes(fam, 21).egf)


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _series_pair(draw, nonzero_const=False):
    order = draw(st.integers(1, 9))
    a = draw(st.lists(_rationals, min_size=order, max_size=order))
    b = draw(st.lists(_rationals, min_size=order, max_size=order))
    if nonzero_const and b[0] == 0:
        b[0] = draw(st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(7, 5)]))
    return a, b


def _same(got, want):
    assert isinstance(got, Series)
    assert got.coeffs == want.coeffs
    assert [got.egf_coeff_exact(n) for n in range(got.order)] == [
        want.egf_coeff_exact(n) for n in range(want.order)]


@settings(max_examples=100, deadline=None)
@given(_series_pair())
def test_ring_operations_match_the_fraction_reference(pair):
    a, b = pair
    x, y, rx, ry = Series(a), Series(b), FractionSeries(a), FractionSeries(b)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(-x, -rx)
    _same(x * y, rx * ry)
    assert (x * y == y * x) and (x == Series(a))


@settings(max_examples=100, deadline=None)
@given(_series_pair(nonzero_const=True))
def test_division_matches_the_fraction_reference(pair):
    a, b = pair
    _same(Series(a) / Series(b), FractionSeries(a) / FractionSeries(b))
    assert Series(a) / Series(b) * Series(b) == Series(a)


@settings(max_examples=100, deadline=None)
@given(_series_pair(), st.integers(-3, 3), _rationals.filter(bool))
def test_scalars_and_scale_arg_match_the_fraction_reference(pair, c, r):
    a, _ = pair
    x, rx = Series(a), FractionSeries(a)
    _same(x.scale_arg(c), rx.scale_arg(c))
    _same(x * r, rx * r)
    _same(r * x, r * rx)
    _same(c * x, c * rx)
    _same(x / r, rx / r)
