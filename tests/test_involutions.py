"""The cancellation maps: unit examples plus the exhaustive suite."""

import pytest

from weylruns import involutions
from weylruns.errors import DomainError
from weylruns.involutions import (
    cross_resign_12,
    flip_smallest,
    resign_large_pair,
    reverse_last_pair,
    run_involution_suite,
    swap_adjacent_pair,
    swap_far_pair,
)
from weylruns.perm_core import inv_b, inv_d, is_alternating, peaks_valleys_b, pos_abs


def test_swap_far_pair_same_sign():
    w = (4, 1, 2, 3, 5)
    img = swap_far_pair(w)
    assert img == (5, 1, 2, 3, 4)
    assert swap_far_pair(img) == w
    assert peaks_valleys_b(img) == peaks_valleys_b(w)
    assert (inv_b(w) - inv_b(img)) % 2 == 1


def test_swap_far_pair_mixed_sign():
    w = (-4, 1, 2, 5, 3)
    assert swap_far_pair(w) == (-5, 1, 2, 4, 3)
    with pytest.raises(DomainError):
        swap_far_pair((1, 2, 4, 5, 3))  # adjacent pair


def test_swap_adjacent_pair():
    w = (1, 4, 5, 2, 3)
    img = swap_adjacent_pair(w)
    assert img == (1, 5, 4, 2, 3)
    assert swap_adjacent_pair(img) == w
    with pytest.raises(DomainError):
        swap_adjacent_pair((4, 1, 2, 3, 5))


def test_reverse_last_pair():
    assert reverse_last_pair((1, 2, 4, 5)) == (1, 2, -5, -4)
    assert reverse_last_pair((1, 2, -5, -4)) == (1, 2, 4, 5)


def test_resign_large_pair():
    w = (1, 5, 2, -4, 3)
    img = resign_large_pair(w)
    assert img == (1, 4, 2, -5, 3)
    assert resign_large_pair(img) == w
    assert (inv_d(w) - inv_d(img)) % 2 == 1
    with pytest.raises(DomainError):
        resign_large_pair((1, 5, 2, 4, 3))


def test_flip_smallest():
    w = (3, -1, 2)
    assert flip_smallest(w) == (3, 1, 2)
    assert flip_smallest(flip_smallest(w)) == w


def test_cross_resign_12():
    w = (3, 1, -2)
    img = cross_resign_12(w)
    assert img == (3, 2, -1)
    assert cross_resign_12(img) == w
    assert is_alternating(img) == is_alternating(w)


@pytest.mark.parametrize("n", range(1, 6))
def test_involution_suite_small(n):
    assert run_involution_suite(n) == []


def _swap_large(word):
    """The two large letters exchanged as they stand, signs included: the
    far and adjacent exchanges without re-signing, and a re-sign that also
    swaps the signs."""
    i, j = involutions._large_positions(word)
    out = list(word)
    out[i], out[j] = word[j], word[i]
    return tuple(out)


def _flip_two(word):
    k = pos_abs(word, 2) - 1
    return word[:k] + (-word[k],) + word[k + 1:]


def _cross_unsigned(word):
    p1, p2 = pos_abs(word, 1) - 1, pos_abs(word, 2) - 1
    out = list(word)
    out[p1], out[p2] = word[p2], word[p1]
    return tuple(out)


# name -> (a map, a broken version of it, the tag its failures must carry)
MUTANTS = {
    "far-unsigned": (swap_far_pair, _swap_large, "far-pair"),
    "adjacent-unsigned": (swap_adjacent_pair, _swap_large, "adjacent-pair"),
    "last-pair-unnegated": (reverse_last_pair, lambda w: w[:-2] + (w[-1], w[-2]), "last-pair"),
    "last-pair-identity": (reverse_last_pair, lambda w: w, "last-pair"),
    "resign-swaps-signs": (resign_large_pair, _swap_large, "resign"),
    "flip-letter-2": (flip_smallest, _flip_two, "flip-smallest"),
    "cross-resign-unsigned": (cross_resign_12, _cross_unsigned, "cross-resign"),
}


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_suite_reports_a_broken_map(monkeypatch, mutant, n):
    """Every row that uses the broken map reads it in place of the map, and
    the suite reports failures, all tagged with that map."""
    original, broken, tag = MUTANTS[mutant]
    rows = tuple((row[0], broken if row[1] is original else row[1], *row[2:]) for row in involutions.ROWS)
    monkeypatch.setattr(involutions, "ROWS", rows)
    fails = run_involution_suite(n)
    assert fails
    assert all(fail.startswith(tag) for fail in fails), fails[:5]
