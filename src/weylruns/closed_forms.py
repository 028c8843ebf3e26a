"""Direct evaluators for the closed formulas and recurrences.

Every function here computes what a theorem asserts, by the printed formula
or recurrence alone; none of them enumerate, so comparing them against the
oracle module is a genuine two-route check.  Where a formula's stated range
excludes small n, the documented small-n values are supplied as constants
(they are the enumeration values, noted case by case) rather than by
extrapolating the formula.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import DomainError, IntegrityError
from .poly import BiPoly, UniPoly

_ONE = BiPoly.const(1)
_P = BiPoly.monomial(1, 1, 0)
_Q = BiPoly.monomial(1, 0, 1)
_PQ = BiPoly.monomial(1, 1, 1)

_T = UniPoly.term(1, 1)
_U_ONE = UniPoly.one()


def _check_positive(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")


def thm_sgn_altrun_biv(n: int) -> BiPoly:
    """Signed bivariate peak/valley sum over S_n.

    2(1-p)(1-q)(1-pq)^(2(k-1)) for n = 4k, 4k+1; zero for n = 4k+2, 4k+3.
    n = 1 sits outside the theorem; its value (the constant 1) is the
    enumeration of the single permutation.
    """
    _check_positive(n)
    if n == 1:
        return _ONE
    if n % 4 in (2, 3):
        return BiPoly.zero()
    k = n // 4
    return 2 * (_ONE - _P) * (_ONE - _Q) * (_ONE - _PQ) ** (2 * (k - 1))


def thm_class_biv(n: int, cls: str) -> BiPoly:
    """Per-class signed bivariate formulas.

    For n = 4k, 4k+1: aa = dd = (1+pq)(1-pq)^(2(k-1)), ad = -2p(...),
    da = -2q(...).  For n = 4k+2, 4k+3: ad = da = 0 and aa = -dd =
    (1-pq)^(2m) with m read off the proof of the n = 4k case.
    """
    if cls not in ("aa", "ad", "da", "dd"):
        raise DomainError(f"unknown class {cls!r}")
    if n < 2:
        raise DomainError("the four end classes need n >= 2")
    r = n % 4
    if r in (0, 1):
        k = n // 4
        u = (_ONE - _PQ) ** (2 * (k - 1))
        if cls in ("aa", "dd"):
            return (_ONE + _PQ) * u
        return (-2 * _P if cls == "ad" else -2 * _Q) * u
    m = (n - 2) // 4 if r == 2 else (n - 3) // 4
    if cls in ("ad", "da"):
        return BiPoly.zero()
    aa = (_ONE - _PQ) ** (2 * m)
    return aa if cls == "aa" else -aa


@lru_cache(maxsize=None)
def _recurrence_table(n: int) -> dict[str, BiPoly]:
    """All four class polynomials at n, computed purely by recurrence.

    The n = 2 base {aa: 1, ad: 0, da: 0, dd: -1} is the hand enumeration of
    the two words 12 and 21.  At each step the printed recurrences produce
    ad and aa; da and dd follow from the complementation relations when
    n = 0, 1 (mod 4) and from the reversal relations when n = 2, 3 (mod 4).
    """
    if n == 2:
        return {"aa": _ONE, "ad": BiPoly.zero(), "da": BiPoly.zero(), "dd": -_ONE}
    prev = _recurrence_table(n - 1)
    if n % 2 == 1:
        ad = -_PQ * prev["ad"] - _P * prev["aa"] - _P * prev["dd"]
        aa = _Q * prev["ad"] - _P * prev["da"] + prev["aa"]
    else:
        ad = -_P * prev["aa"] + _P * prev["dd"]
        aa = (_ONE + _PQ) * prev["aa"] + _Q * prev["ad"] + _P * prev["da"]
    if n % 4 in (0, 1):
        da, dd = ad.swap_vars(), aa
    else:
        da, dd = BiPoly.zero(), -aa
    return {"aa": aa, "ad": ad, "da": da, "dd": dd}


def recurrence_class_biv(n: int, cls: str) -> BiPoly:
    """Class polynomial by the insertion recurrences alone (no enumeration)."""
    if cls not in ("aa", "ad", "da", "dd"):
        raise DomainError(f"unknown class {cls!r}")
    if n < 2:
        raise DomainError("recurrence starts at the n = 2 base")
    return _recurrence_table(n)[cls]


def cor_sgn_altrun_uni(n: int) -> UniPoly:
    """Signed univariate run polynomial of S_n: 2t(1-t)^(2k)(1+t)^(2k-2) or 0.

    n = 1 is again outside the theorem; t is its enumeration value.
    """
    _check_positive(n)
    if n == 1:
        return _T
    if n % 4 in (2, 3):
        return UniPoly.zero()
    k = n // 4
    return 2 * _T * (_U_ONE - _T) ** (2 * k) * (_U_ONE + _T) ** (2 * k - 2)


def cor_class_uni(n: int, cls: str) -> UniPoly:
    """Univariate per-class signed sums (t times the diagonal of the bivariate)."""
    if cls not in ("aa", "ad", "da", "dd"):
        raise DomainError(f"unknown class {cls!r}")
    if n < 2:
        raise DomainError("the four end classes need n >= 2")
    t2 = _T * _T
    r = n % 4
    if r in (0, 1):
        k = n // 4
        u = (_U_ONE - t2) ** (2 * k - 2)
        if cls in ("aa", "dd"):
            return _T * (_U_ONE + t2) * u
        return -2 * t2 * u
    if cls in ("ad", "da"):
        return UniPoly.zero()
    m = (n - 2) // 4 if r == 2 else (n - 3) // 4
    aa = _T * (_U_ONE - t2) ** (2 * m)
    return aa if cls == "aa" else -aa


def g_coeff(n: int, ell: int) -> int:
    """The printed coefficient of t^ell in the signed run polynomial of S_n."""
    if not 1 <= ell <= n - 1:
        raise DomainError(f"need 1 <= ell <= n-1, got ell={ell}, n={n}")
    if n % 4 in (2, 3):
        return 0
    k = n // 4

    def c(m: int) -> int:
        return comb(2 * k - 2, m) if m >= 0 else 0

    if ell % 2 == 0:
        return -4 * (-1) ** ((ell - 2) // 2) * c((ell - 2) // 2)
    return 2 * (-1) ** ((ell - 1) // 2) * c((ell - 1) // 2) + 2 * (-1) ** ((ell - 3) // 2) * c((ell - 3) // 2)


def r_pm_coeff(n: int, ell: int, sign: str, oracle_coeff: int) -> int:
    """(F ± G)/2 where F = oracle_coeff is the coefficient R_(n,l) of the
    unsigned polynomial, which the caller takes from the oracle."""
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    g = g_coeff(n, ell)
    num = oracle_coeff + g if sign == "+" else oracle_coeff - g
    if num % 2:
        raise IntegrityError(f"(F {sign} G) odd at n={n}, ell={ell}: {num}")
    return num // 2


def thm_b_formulas(n: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(end-ascent, end-descent, total) signed bivariate sums over B_n."""
    _check_positive(n)
    if n % 2 == 0:
        k = n // 2
        u = (_ONE - _PQ) ** (k - 1)
        return (_ONE - _Q) * u, (_ONE - _P) * u, (BiPoly.const(2) - _P - _Q) * u
    k = n // 2
    u = (_ONE - _PQ) ** k
    return u, -u, BiPoly.zero()


def cor_b_uni(n: int) -> UniPoly:
    """Signed univariate type B polynomial: 2t(1-t)(1-t^2)^(k-1) or 0."""
    _check_positive(n)
    if n % 2 == 1:
        return UniPoly.zero()
    k = n // 2
    return 2 * _T * (_U_ONE - _T) * (_U_ONE - _T * _T) ** (k - 1)


def thm_d_formulas(n: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(end-ascent, end-descent, total) signed bivariate sums over D_n."""
    _check_positive(n)
    if n % 2 == 0:
        k = n // 2
        u = (_ONE - _PQ) ** (k - 1)
        return (_ONE - _Q) * u, (_ONE - _P) * u, (BiPoly.const(2) - _P - _Q) * u
    k = n // 2
    u = (_ONE - _PQ) ** k
    return u, BiPoly.zero(), u


def cor_d_uni(n: int) -> UniPoly:
    """Signed univariate type D polynomial: even n as in type B, odd n t(1-t^2)^k."""
    _check_positive(n)
    if n % 2 == 0:
        return cor_b_uni(n)
    k = n // 2
    return _T * (_U_ONE - _T * _T) ** k


def gao_sun_differences(n: int) -> tuple[UniPoly, UniPoly]:
    """(first-letter-positive difference, total difference) of the D and B-D runs.

    R_n^{D,>} - R_n^{B-D,>} and R_n^D - R_n^{B-D}, by the printed branches.
    """
    _check_positive(n)
    t2 = _T * _T
    if n % 2 == 0:
        k = n // 2
        first = _T * (_U_ONE - _T) * (_U_ONE - t2) ** (k - 1)
        return first, 2 * first
    k = n // 2
    return _T * (_U_ONE - t2) ** k, UniPoly.zero()


DIVISIBILITY_FAMILIES = ("R", "Rpm", "RB", "RBgt", "RBpm", "RD", "RBmD", "RDpm", "RBmDpm")


def divisibility_claim(family: str, n: int) -> int:
    """The guaranteed minimum (1+t)-multiplicity for the family at size n."""
    if family not in DIVISIBILITY_FAMILIES:
        raise DomainError(f"unknown divisibility family {family!r}")
    if family in ("R", "Rpm"):
        if n < 4:
            raise DomainError(f"family {family} is stated for n >= 4")
        m = (n - 2) // 2
        if family == "R":
            return m
        return m - 1 if n % 4 in (0, 1) else m
    _check_positive(n)
    return (n - 1) // 2
