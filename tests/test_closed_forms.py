"""Closed-form evaluators: printed spot values and recurrence consistency."""

import pytest

from weylruns.closed_forms import (
    cor_b_uni,
    cor_class_uni,
    cor_d_uni,
    cor_sgn_altrun_uni,
    divisibility_claim,
    g_coeff,
    gao_sun_differences,
    r_pm_coeff,
    recurrence_class_biv,
    thm_b_formulas,
    thm_class_biv,
    thm_d_formulas,
    thm_sgn_altrun_biv,
)
from weylruns.errors import DomainError
from weylruns.poly import BiPoly, UniPoly

ONE = BiPoly.const(1)
P = BiPoly.monomial(1, 1, 0)
Q = BiPoly.monomial(1, 0, 1)
PQ = BiPoly.monomial(1, 1, 1)
T = UniPoly.term(1, 1)
U1 = UniPoly.one()


def test_thm_sgn_altrun_biv_branches():
    assert thm_sgn_altrun_biv(4) == 2 * (ONE - P) * (ONE - Q)
    assert thm_sgn_altrun_biv(5) == thm_sgn_altrun_biv(4)
    assert thm_sgn_altrun_biv(6).is_zero()
    assert thm_sgn_altrun_biv(1) == ONE
    assert thm_sgn_altrun_biv(8) == 2 * (ONE - P) * (ONE - Q) * (ONE - PQ) ** 2


def test_thm_class_biv_values():
    assert thm_class_biv(4, "dd") == ONE + PQ
    assert thm_class_biv(4, "ad") == -2 * P
    assert thm_class_biv(6, "aa") == (ONE - PQ) ** 2
    assert thm_class_biv(6, "ad").is_zero()
    assert thm_class_biv(2, "aa") == ONE
    assert thm_class_biv(3, "dd") == -ONE
    with pytest.raises(DomainError):
        thm_class_biv(1, "aa")


def test_recurrence_reproduces_closed_forms():
    for n in range(2, 10):
        for cls in ("aa", "ad", "da", "dd"):
            assert recurrence_class_biv(n, cls) == thm_class_biv(n, cls)


def test_class_sum_matches_total():
    for n in range(2, 10):
        total = BiPoly.zero()
        for cls in ("aa", "ad", "da", "dd"):
            total = total + thm_class_biv(n, cls)
        assert total == thm_sgn_altrun_biv(n)


def test_cor_sgn_altrun_uni():
    assert cor_sgn_altrun_uni(4) == 2 * T * (U1 - T) ** 2
    assert cor_sgn_altrun_uni(7).is_zero()
    assert cor_sgn_altrun_uni(8) == 2 * T * (U1 - T) ** 4 * (U1 + T) ** 2
    assert cor_sgn_altrun_uni(1) == T
    for n in range(2, 10):
        diag = T * thm_sgn_altrun_biv(n).substitute_diag()
        assert diag == cor_sgn_altrun_uni(n)


def test_cor_class_uni_consistency():
    for n in range(2, 10):
        for cls in ("aa", "ad", "da", "dd"):
            assert cor_class_uni(n, cls) == T * thm_class_biv(n, cls).substitute_diag()


def test_g_coefficients():
    assert g_coeff(8, 2) == -4
    assert g_coeff(8, 3) == -2
    assert all(g_coeff(6, ell) == 0 for ell in range(1, 6))
    assert r_pm_coeff(8, 2, "+", 252) == 124
    assert r_pm_coeff(8, 2, "-", 252) == 128
    assert r_pm_coeff(8, 3, "+", 2766) == 1382
    with pytest.raises(DomainError):
        g_coeff(8, 0)


def test_type_b_formulas():
    a2, d2, t2 = thm_b_formulas(2)
    assert t2 == BiPoly.const(2) - P - Q
    assert a2 == ONE - Q and d2 == ONE - P
    a3, d3, t3 = thm_b_formulas(3)
    assert a3 == ONE - PQ and d3 == -(ONE - PQ) and t3.is_zero()
    a1, d1, _ = thm_b_formulas(1)
    assert a1 == ONE and d1 == -ONE
    assert cor_b_uni(4) == 2 * T * (U1 - T) * (U1 - T * T)
    assert cor_b_uni(5).is_zero()


def test_type_d_formulas():
    a3, d3, t3 = thm_d_formulas(3)
    assert d3.is_zero()
    assert a3 == t3 == ONE - PQ
    assert cor_d_uni(3) == T * (U1 - T * T)
    _, d2, _ = thm_d_formulas(2)
    assert d2 == ONE - P
    assert cor_d_uni(2) == cor_b_uni(2)


def test_gao_sun_differences():
    first4, total4 = gao_sun_differences(4)
    assert total4 == 2 * T * (U1 - T) * (U1 - T * T)
    assert total4 == 2 * first4
    _, total5 = gao_sun_differences(5)
    assert total5.is_zero()
    first3, _ = gao_sun_differences(3)
    assert first3 == T * (U1 - T * T)


def test_the_constant_one_is_read_only():
    """thm_sgn_altrun_biv(1) hands out the module's constant one, which
    refuses a write, so the type B formulas built from it keep their value."""
    want = thm_b_formulas(2)
    one = thm_sgn_altrun_biv(1)
    assert one == ONE
    with pytest.raises(TypeError):
        one.terms[(0, 0)] = 5
    assert thm_sgn_altrun_biv(1) == ONE and thm_b_formulas(2) == want


def test_the_recurrence_memo_is_read_only():
    """A polynomial of the recurrence memo refuses a new term, so a later
    call, and the next n built from it, is unchanged."""
    want = [recurrence_class_biv(n, cls) for n in (5, 6) for cls in ("aa", "ad", "da", "dd")]
    with pytest.raises(TypeError):
        recurrence_class_biv(5, "aa").terms[(7, 7)] = 1
    assert [recurrence_class_biv(n, cls) for n in (5, 6) for cls in ("aa", "ad", "da", "dd")] == want
    assert recurrence_class_biv(5, "aa").coeff(7, 7) == 0


def test_divisibility_claims():
    assert divisibility_claim("R", 8) == 3
    assert divisibility_claim("Rpm", 8) == 2
    assert divisibility_claim("Rpm", 6) == 2
    assert divisibility_claim("RB", 7) == 3
    assert divisibility_claim("RDpm", 8) == 3
    with pytest.raises(DomainError):
        divisibility_claim("R", 3)
    with pytest.raises(DomainError):
        divisibility_claim("nope", 5)
