"""Truncated power series over exact rationals, and the EGF catalogue.

Every generating function here is an exponential generating function whose
coefficients must be integers after multiplying by n!; `egf_coeff` enforces
that and raises `IntegrityError` otherwise (a failed formula, not a caller
error).  Floating point is deliberately absent.

The alternating B-D± family reproduces the printed closed form
(sec 2x + tan 2x - 1 ± x)/2 even though its n = 1 EGF coefficient is not an
integer; the verification harness documents the discrepancy against the
brute-force counts instead of silently repairing the formula.  The repaired
form, determined by the oracle, is available as `egf_alt_bmd_pm_corrected`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DomainError, IntegrityError
from .perm_core import SNAKE_FAMILIES

DEFAULT_ORDER = 16

ALT_FAMILIES = ("A", "A+", "A-", "B", "B+", "B-", "D", "B-D", "D+", "D-", "B-D+", "B-D-")


class Series:
    """Truncated Maclaurin series: coefficients c_0 .. c_{order-1}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs: tuple[Fraction, ...] = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise DomainError("series order must be positive")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls([0] * order)

    @classmethod
    def const(cls, c, order: int = DEFAULT_ORDER) -> "Series":
        return cls([c] + [0] * (order - 1))

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls([0, 1][:order] + [0] * (order - 2))

    @classmethod
    def sin(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls([0 if n % 2 == 0 else Fraction((-1) ** (n // 2), factorial(n)) for n in range(order)])

    @classmethod
    def cos(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls([Fraction((-1) ** (n // 2), factorial(n)) if n % 2 == 0 else 0 for n in range(order)])

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series([-a for a in self.coeffs])

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series([a * other for a in self.coeffs])
        self._match(other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series([a / other for a in self.coeffs])
        self._match(other)
        if other.coeffs[0] == 0:
            raise DomainError("division by a series with zero constant term")
        n = self.order
        inv0 = Fraction(1) / other.coeffs[0]
        out = [Fraction(0)] * n
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out[k] = acc * inv0
        return Series(out)

    def scale_arg(self, c: int) -> "Series":
        """Substitute x -> c*x."""
        return Series([a * Fraction(c) ** k for k, a in enumerate(self.coeffs)])

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n < self.order:
            raise DomainError(f"coefficient index {n} outside order {self.order}")
        return self.coeffs[n]

    def egf_coeff_exact(self, n: int) -> Fraction:
        """n! * c_n as an exact rational (may be a non-integer for bad formulas)."""
        return self.coeff(n) * factorial(n)

    def egf_coeff(self, n: int) -> int:
        v = self.egf_coeff_exact(n)
        if v.denominator != 1:
            raise IntegrityError(f"EGF coefficient at n={n} is {v}, not an integer")
        return int(v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Series({[str(c) for c in self.coeffs]})"

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise DomainError(f"order mismatch: {self.order} vs {other.order}")


def sec(order: int = DEFAULT_ORDER) -> Series:
    return Series.const(1, order) / Series.cos(order)


def tan(order: int = DEFAULT_ORDER) -> Series:
    return Series.sin(order) / Series.cos(order)


def _sec_tan_2x(order: int) -> Series:
    return (sec(order) + tan(order)).scale_arg(2)


def egf_alt(family: str, order: int = DEFAULT_ORDER) -> Series:
    """EGF of alternating-permutation counts for the requested family.

    A is counted in S_n, B in B_n; +/- splits by the parity of the group's
    own length statistic (inv_A for A, inv_B for B, inv_D for D and B-D).
    """
    if family not in ALT_FAMILIES:
        raise DomainError(f"unknown alternating family {family!r}")
    one = Series.const(1, order)
    half = Fraction(1, 2)
    if family == "A":
        return sec(order) + tan(order)
    if family in ("A+", "A-"):
        sign = 1 if family == "A+" else -1
        return (sec(order) + tan(order) + sign * (Series.cos(order) + Series.x(order))) * half
    st2 = _sec_tan_2x(order)
    if family == "B":
        return st2
    if family in ("B+", "B-"):
        sign = 1 if family == "B+" else -1
        return (st2 + sign * one) * half
    if family == "D":
        return (st2 + one) * half
    if family == "B-D":
        return (st2 - one) * half
    if family in ("D+", "D-"):
        sign, delta = (1, 3) if family == "D+" else (-1, -1)
        return (st2 + sign * 2 * Series.x(order) + Series.const(delta, order)) * Fraction(1, 4)
    # B-D±: the printed closed form, kept verbatim (see module docstring).
    sign = 1 if family == "B-D+" else -1
    return (st2 - one + sign * Series.x(order)) * half


def egf_alt_bmd_pm_corrected(sign: str, order: int = DEFAULT_ORDER) -> Series:
    """Oracle-consistent replacement for the alternating B-D± EGF."""
    s = 1 if sign == "+" else -1
    return (_sec_tan_2x(order) - Series.const(1, order) + s * 2 * Series.x(order)) * Fraction(1, 4)


def egf_snakes(family: str, order: int = DEFAULT_ORDER) -> Series:
    """EGF of snake counts (Springer numbers and their refinements)."""
    if family not in SNAKE_FAMILIES:
        raise DomainError(f"unknown snake family {family!r}")
    cosx, sinx = Series.cos(order), Series.sin(order)
    denom = cosx - sinx
    if family == "B":
        return Series.const(1, order) / denom
    if family in ("B+", "D"):
        return cosx * cosx / denom
    if family in ("B-", "B-D"):
        return sinx * sinx / denom
    if family == "D+":
        return (2 * (cosx * cosx) - sinx * sinx) / (2 * denom)
    # D-, B-D+ and B-D- share one closed form.
    return (sinx * sinx) / (2 * denom)
