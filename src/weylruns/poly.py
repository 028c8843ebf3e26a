"""Exact integer polynomial arithmetic.

`UniPoly` is dense (the univariate run polynomials have full support up to
degree ~n), `BiPoly` is sparse (the bivariate peak/valley support is a thin
band).  Coefficients are Python ints, so nothing here ever overflows or
rounds; signed sums are expected to cancel exactly.

Both are read-only values (`coeffs` a tuple, `terms` a read-only view of a
private dict that arithmetic reads), so a cache hands out the one it stores.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DomainError

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


def _power(base, k: int, one):
    """base**k by square-and-multiply, starting from the identity `one`."""
    if k < 0:
        raise DomainError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


class UniPoly:
    """Univariate polynomial; coefficient of t^k at index k."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[int, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def term(cls, coeff: int, exp: int) -> "UniPoly":
        return cls((0,) * exp + (coeff,))

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "UniPoly":
        if not d:
            return cls()
        cs = [0] * (max(d) + 1)
        for e, c in d.items():
            cs[e] = c
        return cls(cs)

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, exp: int) -> int:
        return self._coeffs[exp] if 0 <= exp < len(self._coeffs) else 0

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self._coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly([other * c for c in self._coeffs])
        if not self._coeffs or not other._coeffs:
            return UniPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        return _power(self, k, UniPoly.one())

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"UniPoly({list(self._coeffs)})"

    def _monomials(self):
        return ((c, (("t", e),)) for e, c in enumerate(self._coeffs))

    def __str__(self):
        return _print_terms(self._monomials(), latex=False)

    def latex(self) -> str:
        return _print_terms(self._monomials(), latex=True)


class BiPoly:
    """Sparse polynomial in p, q; keys are exponent pairs (i, j)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()):
        self._terms: dict[tuple[int, int], int] = {k: v for k, v in dict(terms).items() if v != 0}

    @property
    def terms(self) -> Mapping[tuple[int, int], int]:
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, coeff: int, i: int, j: int) -> "BiPoly":
        return cls({(i, j): coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) + v
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, int):
            return BiPoly({k: other * v for k, v in self._terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), a in self._terms.items():
            for (i2, j2), b in other._terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BiPoly":
        return _power(self, k, BiPoly.const(1))

    def swap_vars(self) -> "BiPoly":
        """p <-> q."""
        return BiPoly({(j, i): v for (i, j), v in self._terms.items()})

    def substitute_diag(self) -> UniPoly:
        """Set p = q = t: the t^m coefficient collects all (i, j) with i+j = m."""
        out: dict[int, int] = {}
        for (i, j), v in self._terms.items():
            out[i + j] = out.get(i + j, 0) + v
        return UniPoly.from_dict(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"BiPoly({dict(sorted(self._terms.items()))})"

    def _monomials(self):
        return ((c, (("p", i), ("q", j))) for (i, j), c in sorted(self._terms.items()))

    def __str__(self):
        return _print_terms(self._monomials(), latex=False)

    def latex(self) -> str:
        return _print_terms(self._monomials(), latex=True)


# ------------------------------------------------------ printing

def _print_terms(terms, latex: bool) -> str:
    """Join (coefficient, ((variable, exponent), ...)) terms in order.

    Zero terms are skipped and a unit coefficient is left off a monomial.
    Plain text writes 3*p^2q - t; LaTeX writes 3p^{2}q - t.
    """
    out = []
    for c, powers in terms:
        if c == 0:
            continue
        mono = "".join(v if e == 1 else (f"{v}^{{{e}}}" if latex else f"{v}^{e}") for v, e in powers if e)
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        elif mono and not latex:
            body = f"{mag}*{mono}"
        else:
            body = f"{mag}{mono}"
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


# ------------------------------------------------------ derived operations

def one_plus_t_multiplicity(f: UniPoly) -> int:
    """Largest m with (1+t)^m | f, by repeated exact synthetic division at -1.

    The zero polynomial has no finite multiplicity and is rejected.
    """
    if f.is_zero():
        raise DomainError("multiplicity of (1+t) in the zero polynomial is undefined")
    m = 0
    coeffs = list(f.coeffs)
    while True:
        if sum(c if e % 2 == 0 else -c for e, c in enumerate(coeffs)) != 0:
            return m
        # divide by (1+t): c_k = q_k + q_{k-1} with q of degree one less
        q = [0] * (len(coeffs) - 1)
        carry = 0
        for e in range(len(coeffs) - 1):
            q[e] = coeffs[e] - carry
            carry = q[e]
        coeffs = q
        m += 1
        if not any(coeffs):
            # f was a multiple of a power of (1+t) times 0; cannot happen for f != 0
            raise DomainError("division collapsed to zero")


def moment_check(f: UniPoly, k: int) -> bool:
    """True iff sum over odd s of s^k f_s equals the same sum over even s >= 2."""
    if k < 1:
        raise DomainError("moment order k must be >= 1")
    odd = sum(s**k * c for s, c in enumerate(f.coeffs) if s % 2 == 1)
    even = sum(s**k * c for s, c in enumerate(f.coeffs) if s % 2 == 0 and s >= 2)
    return odd == even


# ------------------------------------------------------ canonical JSON form
#
# Coefficients travel as decimal strings so arbitrary precision survives any
# JSON consumer; terms are sorted lexicographically by exponent vector.

def poly_to_json(f) -> dict:
    if isinstance(f, UniPoly):
        return {
            "vars": ["t"],
            "terms": [{"exp": [e], "coef": str(c)} for e, c in enumerate(f.coeffs) if c != 0],
        }
    if isinstance(f, BiPoly):
        return {
            "vars": ["p", "q"],
            "terms": [{"exp": [i, j], "coef": str(c)} for (i, j), c in sorted(f.terms.items())],
        }
    raise DomainError(f"not a polynomial: {f!r}")


def poly_from_json(d: Mapping):
    vars_ = list(d["vars"])
    if vars_ == ["t"]:
        return UniPoly.from_dict({t["exp"][0]: int(t["coef"]) for t in d["terms"]})
    if vars_ == ["p", "q"]:
        return BiPoly({(t["exp"][0], t["exp"][1]): int(t["coef"]) for t in d["terms"]})
    raise DomainError(f"unknown variable set {vars_}")
