"""Fraction-based truncated series, kept as a cross-check of `weylruns.series`.

`weylruns.series.Series` stores n!-scaled EGF coefficients and multiplies by
binomial convolution.  This class is the plain Maclaurin arithmetic it
replaced: every coefficient a `Fraction`, products by the Cauchy
convolution, quotients by the Maclaurin recurrence, and n! applied only when
an EGF coefficient is read.  Its methods and their errors match
`Series`, so the catalogue formulas in `weylruns.series` evaluate over it
unchanged when its module global `Series` is swapped for this class.
"""

from fractions import Fraction
from math import factorial

from weylruns.errors import DomainError, IntegrityError

DEFAULT_ORDER = 16


class FractionSeries:
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
    def zero(cls, order: int = DEFAULT_ORDER) -> "FractionSeries":
        return cls([0] * order)

    @classmethod
    def const(cls, c, order: int = DEFAULT_ORDER) -> "FractionSeries":
        return cls([c] + [0] * (order - 1))

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> "FractionSeries":
        return cls([0, 1][:order] + [0] * (order - 2))

    @classmethod
    def sin(cls, order: int = DEFAULT_ORDER) -> "FractionSeries":
        return cls([0 if n % 2 == 0 else Fraction((-1) ** (n // 2), factorial(n)) for n in range(order)])

    @classmethod
    def cos(cls, order: int = DEFAULT_ORDER) -> "FractionSeries":
        return cls([Fraction((-1) ** (n // 2), factorial(n)) if n % 2 == 0 else 0 for n in range(order)])

    def __add__(self, other: "FractionSeries") -> "FractionSeries":
        self._match(other)
        return FractionSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FractionSeries") -> "FractionSeries":
        self._match(other)
        return FractionSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FractionSeries":
        return FractionSeries([-a for a in self.coeffs])

    def __mul__(self, other) -> "FractionSeries":
        if isinstance(other, (int, Fraction)):
            return FractionSeries([a * other for a in self.coeffs])
        self._match(other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return FractionSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FractionSeries":
        if isinstance(other, (int, Fraction)):
            return FractionSeries([a / other for a in self.coeffs])
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
        return FractionSeries(out)

    def scale_arg(self, c: int) -> "FractionSeries":
        """Substitute x -> c*x."""
        return FractionSeries([a * Fraction(c) ** k for k, a in enumerate(self.coeffs)])

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
        return isinstance(other, FractionSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"FractionSeries({[str(c) for c in self.coeffs]})"

    def _match(self, other: "FractionSeries") -> None:
        if self.order != other.order:
            raise DomainError(f"order mismatch: {self.order} vs {other.order}")
