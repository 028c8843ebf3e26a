"""Exact polynomial arithmetic, divisibility and moment identities."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylruns.errors import DomainError
from weylruns.poly import (
    NEG_INF,
    BiPoly,
    UniPoly,
    moment_check,
    one_plus_t_multiplicity,
    poly_from_json,
    poly_to_json,
)

ONE = BiPoly.const(1)
P = BiPoly.monomial(1, 1, 0)
Q = BiPoly.monomial(1, 0, 1)

# coefficients printed in the worked example of the source material
R8 = UniPoly([0, 2, 252, 2766, 9576, 14622, 10332, 2770])
R8_PLUS = UniPoly([0, 2, 124, 1382, 4792, 7310, 5164, 1386])
R4_PLUS = UniPoly([0, 2, 4, 6])


def test_product_expansion():
    assert (ONE - P) * (ONE - Q) == BiPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    t = UniPoly.term(1, 1)
    sq = (UniPoly.one() - t * t) ** 2
    assert sq == UniPoly([1, 0, -2, 0, 1])


def test_additive_identity_and_negation():
    f = UniPoly([3, 0, -5])
    assert f + UniPoly.zero() == f
    assert f - f == UniPoly.zero()
    g = BiPoly({(2, 1): 7})
    assert g + BiPoly.zero() == g
    assert (-g) + g == BiPoly.zero()


def test_substitute_diag():
    assert (2 * (ONE - P) * (ONE - Q)).substitute_diag() == UniPoly([2, -4, 2])
    assert BiPoly.const(9).substitute_diag() == UniPoly([9])
    assert (P - Q).substitute_diag() == UniPoly.zero()


def test_diag_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        f = _random_bipoly(rng)
        g = _random_bipoly(rng)
        assert (f * g).substitute_diag() == f.substitute_diag() * g.substitute_diag()


def test_one_plus_t_multiplicity_golden():
    assert one_plus_t_multiplicity(R8) == 3
    assert one_plus_t_multiplicity(R8_PLUS) == 2
    assert one_plus_t_multiplicity(R4_PLUS) == 0
    sq = (UniPoly.one() + UniPoly.term(1, 1)) ** 2
    assert one_plus_t_multiplicity(sq) == 2
    with pytest.raises(DomainError):
        one_plus_t_multiplicity(UniPoly.zero())


def test_multiplicity_grows_by_one():
    rng = random.Random(11)
    one_plus_t = UniPoly([1, 1])
    for _ in range(30):
        f = _random_unipoly(rng)
        if f.is_zero():
            continue
        assert one_plus_t_multiplicity(f * one_plus_t) == one_plus_t_multiplicity(f) + 1


def test_moment_check_golden():
    odd = sum(s**2 * R8.coeff(s) for s in range(1, 8, 2))
    even = sum(s**2 * R8.coeff(s) for s in range(2, 8, 2))
    assert odd == even == 526176
    assert moment_check(R8, 2)
    assert not moment_check(UniPoly([0, 1, 2]), 1)


def test_moment_check_brute_forced_r10():
    from weylruns.oracle import family_poly

    assert moment_check(family_poly("R", 10), 3)


def test_moment_follows_from_multiplicity():
    rng = random.Random(3)
    for k in (1, 2, 3):
        factor = (UniPoly([1, 1])) ** (k + 1)
        for _ in range(10):
            f = _random_unipoly(rng)
            assert moment_check(f * factor, k)


def test_coeff_degree_eval():
    assert R8.coeff(2) == 252
    assert R8.coeff(99) == 0
    assert UniPoly.zero().degree == NEG_INF
    assert UniPoly([1, 1]).eval_int(-1) == 0
    assert R8.eval_int(1) == 40320


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(20):
        a, b, c = (_random_unipoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        x, y, z = (_random_bipoly(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x


def test_big_coefficients_survive_json():
    f = UniPoly([0, 10**40, -(3**100)])
    assert poly_from_json(poly_to_json(f)) == f
    g = BiPoly({(2, 3): 2**200, (0, 0): -1})
    assert poly_from_json(poly_to_json(g)) == g


def test_json_term_order():
    d = poly_to_json(BiPoly({(1, 0): 2, (0, 1): 3, (0, 0): 1}))
    assert [t["exp"] for t in d["terms"]] == [[0, 0], [0, 1], [1, 0]]
    assert all(isinstance(t["coef"], str) for t in d["terms"])


COEFFS = st.integers(-3, 3) | st.integers(-(2**200), 2**200)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(COEFFS, max_size=12),
       terms=st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), COEFFS, max_size=12))
def test_json_round_trip_property(coeffs, terms):
    for f in (UniPoly(coeffs), BiPoly(terms)):
        assert poly_from_json(poly_to_json(f)) == f
        assert poly_from_json(json.loads(json.dumps(poly_to_json(f)))) == f


def test_printers_pin_zero_unit_and_negative_terms():
    f = UniPoly([-1, 0, 1, -7, 0, 12])
    assert str(f) == "-1 + t^2 - 7*t^3 + 12*t^5"
    assert f.latex() == "-1 + t^{2} - 7t^{3} + 12t^{5}"
    g = BiPoly({(0, 0): 1, (1, 0): -1, (0, 2): -3, (2, 1): 1, (1, 1): 0, (3, 3): 10**30})
    assert str(g) == "1 - 3*q^2 - p + p^2q + 1000000000000000000000000000000*p^3q^3"
    assert g.latex() == "1 - 3q^{2} - p + p^{2}q + 1000000000000000000000000000000p^{3}q^{3}"
    assert str(UniPoly.zero()) == UniPoly.zero().latex() == str(BiPoly.zero()) == BiPoly.zero().latex() == "0"


def _random_unipoly(rng):
    return UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 6))])


def _random_bipoly(rng):
    return BiPoly(
        {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5) for _ in range(rng.randint(0, 5))}
    )


def test_polynomials_are_read_only():
    """Neither the coefficients nor the terms can be replaced or rewritten,
    and the terms are a live view: what it shows is what arithmetic reads."""
    f, g = UniPoly([1, -2, 3]), BiPoly({(0, 0): 1, (2, 1): -4})
    for write in (lambda: setattr(f, "coeffs", (9,)), lambda: f.coeffs.__setitem__(0, 9),
                  lambda: setattr(g, "terms", {}), lambda: g.terms.__setitem__((0, 0), 9),
                  lambda: g.terms.pop((0, 0)), lambda: g.terms.clear()):
        with pytest.raises((AttributeError, TypeError)):
            write()
    assert f.coeffs == (1, -2, 3) and dict(g.terms) == {(0, 0): 1, (2, 1): -4}
    assert g.coeff(2, 1) == g.terms[(2, 1)] == -4


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(COEFFS, max_size=8),
       terms=st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), COEFFS, max_size=8))
def test_pickle_and_deepcopy_round_trip(coeffs, terms):
    for f in (UniPoly(coeffs), BiPoly(terms)):
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert type(twin) is type(f) and twin == f and hash(twin) == hash(f)
            assert str(twin) == str(f)
