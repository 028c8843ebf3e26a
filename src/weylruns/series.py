"""Truncated exponential generating functions in exact integers, and the EGF catalogue.

Every generating function here is an exponential generating function whose
coefficients must be integers after multiplying by n!; `egf_coeff` enforces
that and raises `IntegrityError` otherwise (a failed formula, not a caller
error).  Floating point is deliberately absent.

A `Series` stores the EGF coefficients h_k = k! * c_k of its Maclaurin
coefficients c_k, so the catalogue's arithmetic runs on Python ints:
products are binomial convolutions, quotients follow the matching
recurrence, and x -> c*x multiplies h_k by c^k.  A coefficient is a
`Fraction` only when a rational scalar leaves it non-integral, as the
printed B-D± form's ½ does at n = 1; it turns back into an int as soon as
it is integral again.  The constructor and `coeffs` / `coeff` still speak
Maclaurin coefficients, converting on the way in and out.

The alternating B-D± family reproduces the printed closed form
(sec 2x + tan 2x - 1 ± x)/2 even though its n = 1 EGF coefficient is not an
integer; the verification harness documents the discrepancy against the
brute-force counts instead of silently repairing the formula.  The repaired
form, determined by the oracle, is available as `egf_alt_bmd_pm_corrected`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError, IntegrityError
from .perm_core import SNAKE_FAMILIES

DEFAULT_ORDER = 16

ALT_FAMILIES = ("A", "A+", "A-", "B", "B+", "B-", "D", "B-D", "D+", "D-", "B-D+", "B-D-")


class Series:
    """Truncated EGF: h_k = k! * c_k for k = 0 .. order-1 (see the module docstring)."""

    __slots__ = ("egf",)

    def __init__(self, coeffs):
        """From the Maclaurin coefficients c_0 .. c_{order-1}."""
        self._set([Fraction(c) * factorial(k) for k, c in enumerate(coeffs)])

    @classmethod
    def _of(cls, egf) -> "Series":
        """From the EGF coefficients h_0 .. h_{order-1}."""
        out = object.__new__(cls)
        out._set(egf)
        return out

    def _set(self, egf) -> None:
        # an integral Fraction becomes its int, so that int arithmetic goes on
        self.egf: tuple = tuple(
            h.numerator if type(h) is Fraction and h.denominator == 1 else h for h in egf)
        if not self.egf:
            raise DomainError("series order must be positive")

    @staticmethod
    def _ratio(a, b):
        """a / b exactly: an int when it is integral, else a Fraction."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        a = Fraction(a) / b
        return a.numerator if a.denominator == 1 else a

    @property
    def order(self) -> int:
        return len(self.egf)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Maclaurin coefficients c_k = h_k / k!."""
        return tuple(Fraction(h) / factorial(k) for k, h in enumerate(self.egf))

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls._of([0] * order)

    @classmethod
    def const(cls, c, order: int = DEFAULT_ORDER) -> "Series":
        return cls._of([Fraction(c)] + [0] * (order - 1))

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls._of([0, 1][:order] + [0] * (order - 2))

    @classmethod
    def sin(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls._of([0 if n % 2 == 0 else (-1) ** (n // 2) for n in range(order)])

    @classmethod
    def cos(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls._of([(-1) ** (n // 2) if n % 2 == 0 else 0 for n in range(order)])

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series._of([a + b for a, b in zip(self.egf, other.egf)])

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series._of([a - b for a, b in zip(self.egf, other.egf)])

    def __neg__(self) -> "Series":
        return Series._of([-a for a in self.egf])

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series._of([a * other for a in self.egf])
        self._match(other)
        # h_n = sum_k C(n, k) a_k b_(n-k), over the nonzero a_k
        a, b = self.egf, other.egf
        nonzero = [k for k, v in enumerate(a) if v]
        out = []
        for n in range(len(a)):
            acc = 0
            for k in nonzero:
                if k > n:
                    break
                acc += comb(n, k) * a[k] * b[n - k]
            out.append(acc)
        return Series._of(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series._of([self._ratio(a, other) for a in self.egf])
        self._match(other)
        b = other.egf
        if b[0] == 0:
            raise DomainError("division by a series with zero constant term")
        # q_n = (a_n - sum_(k >= 1) C(n, k) b_k q_(n-k)) / b_0, over the nonzero b_k
        nonzero = [k for k, v in enumerate(b) if v and k]
        out = []
        for n, acc in enumerate(self.egf):
            for k in nonzero:
                if k > n:
                    break
                acc -= comb(n, k) * b[k] * out[n - k]
            out.append(self._ratio(acc, b[0]))
        return Series._of(out)

    def scale_arg(self, c: int) -> "Series":
        """Substitute x -> c*x."""
        c = Fraction(c)
        c = c.numerator if c.denominator == 1 else c
        return Series._of([a * c ** k for k, a in enumerate(self.egf)])

    def coeff(self, n: int) -> Fraction:
        self._index(n)
        return Fraction(self.egf[n]) / factorial(n)

    def egf_coeff_exact(self, n: int) -> Fraction:
        """n! * c_n as an exact rational (may be a non-integer for bad formulas)."""
        self._index(n)
        return Fraction(self.egf[n])

    def egf_coeff(self, n: int) -> int:
        self._index(n)
        v = self.egf[n]
        if type(v) is not int:
            raise IntegrityError(f"EGF coefficient at n={n} is {v}, not an integer")
        return v

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.egf == other.egf

    def __repr__(self):
        return f"Series({[str(c) for c in self.coeffs]})"

    def _index(self, n: int) -> None:
        if not 0 <= n < self.order:
            raise DomainError(f"coefficient index {n} outside order {self.order}")

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
