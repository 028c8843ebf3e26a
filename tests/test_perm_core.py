"""Statistics, bijections and iteration on the group elements."""

import itertools
from math import comb, factorial

import numpy as np
import pytest

from weylruns import perm_core
from weylruns.errors import DomainError
from weylruns.perm_core import (
    Permutation,
    SignedPermutation,
    altruns_a,
    altruns_b,
    check_integer,
    classify_end_b,
    classify_ends_a,
    compl,
    flip_sgn,
    inv_a,
    inv_b,
    inv_d,
    is_alternating,
    is_snake_b,
    iter_group,
    negatives,
    peaks_valleys_a,
    peaks_valleys_b,
    pos_abs,
    split_family,
    rev,
    set_enumeration_caps,
)

RUNNING_EXAMPLE = (2, 3, 1, 4, 6, 7, 5)
SIGNED_EXAMPLE = (5, 1, 4, -3, -6, 2)


def test_peaks_valleys_a_running_example():
    peaks, valleys = peaks_valleys_a(RUNNING_EXAMPLE)
    assert peaks == {2, 6}
    assert valleys == {3}
    assert altruns_a(RUNNING_EXAMPLE) == 4


def test_peaks_valleys_a_edges():
    assert peaks_valleys_a((1, 2, 3)) == (set(), set())
    assert peaks_valleys_a((2, 1, 3)) == (set(), {2})
    assert altruns_a((2, 1, 3)) == 2
    for n in (1, 2, 5):
        assert altruns_a(tuple(range(1, n + 1))) == 1


def test_inv_a():
    assert inv_a((1, 2, 3, 4)) == 0
    for n in (2, 3, 6):
        assert inv_a(tuple(range(n, 0, -1))) == n * (n - 1) // 2
    assert inv_a((2, 3, 1, 4)) == 2


def test_peaks_valleys_b_running_example():
    peaks, valleys = peaks_valleys_b(SIGNED_EXAMPLE)
    assert (len(peaks), len(valleys)) == (2, 2)
    assert altruns_b(SIGNED_EXAMPLE) == 5


def test_peaks_valleys_b_edges():
    assert peaks_valleys_b(tuple(range(1, 6))) == (set(), set())
    assert altruns_b(tuple(range(1, 6))) == 1
    assert peaks_valleys_b((-1,)) == (set(), set())
    assert altruns_b((-2, 1)) == 2


def test_inv_b():
    assert inv_b((1, 2, 3)) == 0
    assert inv_b((-2, 1)) == 2
    assert inv_b((-1,)) == 1


def test_inv_d():
    assert inv_d((1, 2, 3)) == 0
    assert inv_d((-2, 1)) == 1
    for w in iter_group("B", 4):
        assert inv_b(w) - inv_d(w) == negatives(w)


def test_classify_ends():
    assert classify_ends_a(RUNNING_EXAMPLE) == ("a", "d")
    assert classify_ends_a((2, 1)) == ("d", "d")
    assert classify_end_b((1,)) == "a"
    assert classify_end_b((-1,)) == "d"
    with pytest.raises(DomainError):
        classify_ends_a((1,))


def test_bijections():
    assert compl((1, 2, 3)) == (3, 2, 1)
    assert rev(rev(RUNNING_EXAMPLE)) == RUNNING_EXAMPLE
    assert flip_sgn((1, -2)) == (-1, 2)


def test_alternating_and_snakes():
    assert is_alternating((2, 1, 4, 3))
    assert not is_alternating((1, 2))
    assert is_alternating((7,))
    assert is_snake_b((1, -2))
    assert not is_snake_b((-1,))
    assert sum(1 for w in iter_group("B", 2) if is_snake_b(w)) == 3


def test_positions_and_deletion():
    assert pos_abs(SIGNED_EXAMPLE, 6) == 5
    with pytest.raises(DomainError):
        pos_abs((1, 2), 5)


def test_wrapper_validation():
    assert Permutation((2, 1, 3)).n == 3
    assert SignedPermutation((-2, 1)).negatives == 1
    assert SignedPermutation((-2, -1)).in_d
    with pytest.raises(DomainError):
        Permutation((1, 1, 2))
    with pytest.raises(DomainError):
        SignedPermutation((2, 3))


# ------------------------------------------------------------ invariants

def test_altruns_decomposition_and_band():
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            peaks, valleys = peaks_valleys_a(w)
            assert altruns_a(w) == len(peaks) + len(valleys) + 1
            assert abs(len(peaks) - len(valleys)) <= 1


@pytest.mark.parametrize("n", range(2, 9))
def test_compl_and_rev_properties(n):
    flip_expected = n % 4 in (2, 3)
    for w in itertools.permutations(range(1, n + 1)):
        peaks, valleys = peaks_valleys_a(w)
        c = compl(w)
        cp, cv = peaks_valleys_a(c)
        assert (cp, cv) == (valleys, peaks)
        assert inv_a(w) + inv_a(c) == comb(n, 2)
        r = rev(w)
        rp, rv = peaks_valleys_a(r)
        assert (len(rp), len(rv)) == (len(peaks), len(valleys))
        assert ((inv_a(w) - inv_a(r)) % 2 == 1) == flip_expected


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_sgn_parity(n):
    for w in iter_group("B", n):
        flipped = (inv_b(w) - inv_b(flip_sgn(w))) % 2 == 1
        assert flipped == (n % 2 == 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_insertion_at_peaks(n):
    """Inserting the top letter just before/after a peak keeps the profile
    and flips the sign."""
    for w in itertools.permutations(range(1, n)):
        peaks, _ = peaks_valleys_a(w)
        for k in peaks:
            before = w[: k - 1] + (n,) + w[k - 1:]
            after = w[:k] + (n,) + w[k:]
            pv_before, pv_after = peaks_valleys_a(before), peaks_valleys_a(after)
            assert [len(s) for s in pv_before] == [len(s) for s in pv_after]
            assert (inv_a(before) - inv_a(after)) % 2 == 1


@pytest.mark.parametrize("n", range(3, 8))
def test_insertion_cannot_flip_both_ends(n):
    forbidden = {"da": "ad", "ad": "da", "aa": "dd", "dd": "aa"}
    for w in itertools.permutations(range(1, n)):
        cls = "".join(classify_ends_a(w))
        for gap in range(n):
            new = w[:gap] + (n,) + w[gap:]
            assert "".join(classify_ends_a(new)) != forbidden[cls]


# ------------------------------------------------------------- iteration

def test_iter_group_counts():
    assert sum(1 for _ in iter_group("A", 3)) == 6
    assert sum(1 for _ in iter_group("B", 2)) == 8
    assert sum(1 for _ in iter_group("D", 3)) == 24
    assert sum(1 for _ in iter_group("B-D", 3)) == 24
    assert sum(1 for _ in iter_group("B", 4)) == 384


def test_iter_group_membership_and_uniqueness():
    seen = set(iter_group("D", 3))
    assert len(seen) == 24
    assert all(negatives(w) % 2 == 0 for w in seen)
    bmd = set(iter_group("B-D", 3))
    assert seen | bmd == set(iter_group("B", 3))
    assert not seen & bmd


def test_iter_group_errors():
    with pytest.raises(DomainError):
        list(iter_group("A", 0))
    with pytest.raises(DomainError):
        list(iter_group("B", 99))
    with pytest.raises(DomainError):
        list(iter_group("X", 3))
    for not_a_name in (None, 3, ["B"]):
        with pytest.raises(DomainError, match="unknown group"):
            list(iter_group(not_a_name, 3))


@pytest.mark.parametrize("bad", ["9", 3.5, True, 0, -2], ids=repr)
def test_a_bad_cap_is_refused_and_neither_cap_changes(monkeypatch, bad):
    caps = perm_core.CAP_A, perm_core.CAP_B
    monkeypatch.setattr(perm_core, "CAP_A", caps[0])
    monkeypatch.setattr(perm_core, "CAP_B", caps[1])
    for kwargs in ({"cap_a": bad}, {"cap_b": bad}, {"cap_a": 5, "cap_b": bad}, {"cap_a": bad, "cap_b": 5},
                   {"cap_a": 21}, {"cap_b": 17}, {"cap_a": 21, "cap_b": 5}, {"cap_a": 5, "cap_b": 17}):
        with pytest.raises(DomainError, match="cap_[ab] must be"):
            set_enumeration_caps(**kwargs)
        assert (perm_core.CAP_A, perm_core.CAP_B) == caps


def test_the_caps_stop_at_the_int64_limits(monkeypatch):
    """20! < 2^63 < 21! and 2^16 16! < 2^63 < 2^17 17!, so caps 20 and 16
    are accepted (no fill runs at them); 21 and 17 are refused above."""
    monkeypatch.setattr(perm_core, "CAP_A", perm_core.CAP_A)
    monkeypatch.setattr(perm_core, "CAP_B", perm_core.CAP_B)
    assert factorial(20) < 2 ** 63 < factorial(21) and 2 ** 16 * factorial(16) < 2 ** 63 < 2 ** 17 * factorial(17)
    set_enumeration_caps(20, 16)
    assert (perm_core.CAP_A, perm_core.CAP_B) == (20, 16)


@pytest.mark.parametrize("lo,hi,chunk", [(0, 9, 4), (-2, 2, 4), (4, 3, 4), (0, 6, 0), (0, 6, -1)])
def test_perm_blocks_refuses_a_bad_range_or_chunk(lo, hi, chunk):
    """A range past 3! (which would wrap and repeat [1, 2, 3]), a negative
    start (which would start at [3, 1, 2]), an inverted range, or a chunk
    below 1 (which would yield empty blocks forever) is refused."""
    with pytest.raises(DomainError, match="perm_blocks needs"):
        next(perm_core.perm_blocks(3, lo, hi, chunk))


def test_check_integer_takes_integer_scalars_only():
    for good in (3, 0, -2, np.int64(3), np.uint8(3)):
        check_integer(good)
    for bad in (3.0, True, np.bool_(True), "3", None, np.array(3), np.array([3, 4]), [3]):
        with pytest.raises(DomainError, match="k must be an integer"):
            check_integer(bad, "k")


def test_family_tokens_split_into_group_and_parity():
    assert split_family("A") == ("A", "all")
    assert split_family("B+") == ("B", "plus")
    assert split_family("D-") == ("D", "minus")
    assert split_family("B-D") == ("B-D", "all")
    assert split_family("B-D+") == ("B-D", "plus")
    assert split_family("B-D-") == ("B-D", "minus")
    for bad in ("B+-", "D--", "A++"):
        with pytest.raises(DomainError):
            split_family(bad)
