"""Words, statistics and bijections on the classical Weyl groups.

Elements are stored in one-line notation as tuples of nonzero integers:

* type A (symmetric group S_n): a rearrangement of 1..n;
* type B (hyperoctahedral group B_n): a word over ±1..±n whose absolute
  values rearrange 1..n; type D is the subset with an even number of
  negative letters, and "B-D" its complement inside B_n.

Type B peak/valley statistics read the word behind a sentinel 0, so a
leading descent (a negative first letter) counts as a direction change.
All statistics functions accept plain sequences; the `Permutation` /
`SignedPermutation` wrappers only add validation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

from .errors import DomainError

GROUPS = ("A", "B", "D", "B-D")
SNAKE_FAMILIES = ("B", "B+", "B-", "D", "B-D", "D+", "D-", "B-D+", "B-D-")

# Enumeration refuses above these caps instead of silently truncating.
CAP_A = 11
CAP_B = 9


def set_enumeration_caps(cap_a: int | None = None, cap_b: int | None = None) -> None:
    global CAP_A, CAP_B
    if cap_a is not None:
        CAP_A = cap_a
    if cap_b is not None:
        CAP_B = cap_b


def normalize_group(group: str) -> str:
    g = {"BMINUSD": "B-D", "B_MINUS_D": "B-D", "BMD": "B-D"}.get(group.upper(), group.upper())
    if g not in GROUPS:
        raise DomainError(f"unknown group {group!r}; expected one of {GROUPS}")
    return g


@dataclass(frozen=True)
class Permutation:
    """A word of the distinct values 1..n."""

    word: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise DomainError(f"not a permutation of 1..{len(self.word)}: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class SignedPermutation:
    """A word over ±1..±n with distinct absolute values (positive window)."""

    word: tuple[int, ...]

    def __post_init__(self):
        if sorted(abs(x) for x in self.word) != list(range(1, len(self.word) + 1)) or 0 in self.word:
            raise DomainError(f"not a signed permutation of ±1..±{len(self.word)}: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def negatives(self) -> int:
        return sum(1 for x in self.word if x < 0)

    @property
    def in_d(self) -> bool:
        return self.negatives % 2 == 0


@dataclass(frozen=True)
class StatVector:
    pk: int
    val: int
    altruns: int
    inv: int


def _word(w) -> Sequence[int]:
    return w.word if isinstance(w, (Permutation, SignedPermutation)) else w


# ---------------------------------------------------------------- statistics

def peaks_valleys_a(w) -> tuple[set[int], set[int]]:
    """Peak and valley index sets (1-based, interior positions 2..n-1)."""
    w = _word(w)
    n = len(w)
    peaks, valleys = set(), set()
    for i in range(1, n - 1):
        if w[i - 1] < w[i] > w[i + 1]:
            peaks.add(i + 1)
        elif w[i - 1] > w[i] < w[i + 1]:
            valleys.add(i + 1)
    return peaks, valleys


def altruns_a(w) -> int:
    peaks, valleys = peaks_valleys_a(w)
    return len(peaks) + len(valleys) + 1


def inv_a(w) -> int:
    """Classical inversions |{i<j : w_i > w_j}| (usual order on Z)."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(_word(w), 2)))


def peaks_valleys_b(w) -> tuple[set[int], set[int]]:
    """Type B peak/valley sets: positions 1..n-1 of the word behind a 0 sentinel."""
    w = _word(w)
    n = len(w)
    ext = (0,) + tuple(w)
    peaks, valleys = set(), set()
    for i in range(1, n):
        if ext[i - 1] < ext[i] > ext[i + 1]:
            peaks.add(i)
        elif ext[i - 1] > ext[i] < ext[i + 1]:
            valleys.add(i)
    return peaks, valleys


def altruns_b(w) -> int:
    peaks, valleys = peaks_valleys_b(w)
    return len(peaks) + len(valleys) + 1


def negatives(w) -> int:
    return sum(1 for x in _word(w) if x < 0)


def _cross_inversions(w) -> int:
    """|{i<j : -w_i > w_j}|."""
    return sum(1 for a, b in itertools.combinations(w, 2) if -a > b)


def inv_b(w) -> int:
    """Type B length: inversions + cross inversions + number of negatives."""
    w = _word(w)
    return inv_a(w) + _cross_inversions(w) + negatives(w)


def inv_d(w) -> int:
    """Type D length: inversions + cross inversions (applies to all of B_n)."""
    w = _word(w)
    return inv_a(w) + _cross_inversions(w)


def stats_a(w) -> StatVector:
    peaks, valleys = peaks_valleys_a(w)
    return StatVector(len(peaks), len(valleys), len(peaks) + len(valleys) + 1, inv_a(w))


def stats_b(w) -> StatVector:
    peaks, valleys = peaks_valleys_b(w)
    return StatVector(len(peaks), len(valleys), len(peaks) + len(valleys) + 1, inv_b(w))


# ------------------------------------------------------------ end classes

def classify_ends_a(w) -> tuple[str, str]:
    """First/last adjacent-pair classes ('a' ascent / 'd' descent).

    For n = 2 the single pair plays both roles.
    """
    w = _word(w)
    n = len(w)
    if n < 2:
        raise DomainError("type A end classes need n >= 2")
    first = "a" if w[0] < w[1] else "d"
    last = "a" if w[n - 2] < w[n - 1] else "d"
    return first, last


def classify_end_b(w) -> str:
    """Last-pair class of a signed word; the sentinel 0 covers n = 1."""
    w = _word(w)
    n = len(w)
    if n < 1:
        raise DomainError("empty word has no end class")
    prev = w[n - 2] if n >= 2 else 0
    return "a" if prev < w[n - 1] else "d"


def classify_ends(w, kind: str):
    kind = kind.upper()
    if kind == "A":
        return classify_ends_a(w)
    if kind == "B":
        return classify_end_b(w)
    raise DomainError(f"unknown type {kind!r}")


# ------------------------------------------------------------- bijections

def compl(w) -> tuple[int, ...]:
    """Complementation x -> n+1-x."""
    w = _word(w)
    n = len(w)
    return tuple(n + 1 - x for x in w)


def rev(w) -> tuple[int, ...]:
    return tuple(reversed(_word(w)))


def flip_sgn(w) -> tuple[int, ...]:
    return tuple(-x for x in _word(w))


# ------------------------------------------------------ alternation, snakes

def is_alternating(w, kind: str = "A") -> bool:
    """Down-up test w_1 > w_2 < w_3 > ...; single letters are alternating."""
    if kind.upper() not in ("A", "B"):
        raise DomainError(f"unknown type {kind!r}")
    w = _word(w)
    for i in range(len(w) - 1):
        if i % 2 == 0:
            if not w[i] > w[i + 1]:
                return False
        elif not w[i] < w[i + 1]:
            return False
    return True


def is_snake_b(w) -> bool:
    """Snake: 0 < w_1 > w_2 < w_3 > ... (a positive-start alternating word)."""
    w = _word(w)
    return len(w) > 0 and w[0] > 0 and is_alternating(w)


# ------------------------------------------------------------- positions

def pos_abs(w, r: int) -> int:
    """1-based position of the letter with absolute value r."""
    w = _word(w)
    for i, x in enumerate(w):
        if abs(x) == r:
            return i + 1
    raise DomainError(f"no letter of absolute value {r} in {w}")


def delete_abs(w, values: Sequence[int]) -> tuple[int, ...]:
    """The word with the letters of the given absolute values removed."""
    drop = set(values)
    return tuple(x for x in _word(w) if abs(x) not in drop)


# ------------------------------------------------------------- iteration
#
# Deterministic order is part of the contract: S_n in lexicographic order;
# B_n as lexicographic permutations of absolute values crossed with sign
# masks in binary counting order (bit i of the mask negates position i).
# D / B-D filter that stream by the parity of the mask popcount.

def group_order(group: str, n: int) -> int:
    group = normalize_group(group)
    if group == "A":
        return factorial(n)
    if group == "B":
        return factorial(n) << n
    return factorial(n) << (n - 1)


def _check_n(group: str, n: int) -> None:
    """Refuse n outside 1..cap, reading the group's cap at call time."""
    cap = CAP_A if group == "A" else CAP_B
    if n < 1 or n > cap:
        raise DomainError(f"n={n} outside enumeration range 1..{cap} for group {group}")


def iter_group(group: str, n: int) -> Iterator[tuple[int, ...]]:
    """Yield each element of the group exactly once, in the contract order."""
    group = normalize_group(group)
    _check_n(group, n)
    if group == "A":
        yield from itertools.permutations(range(1, n + 1))
        return
    want = None if group == "B" else (0 if group == "D" else 1)
    signs = [tuple(-1 if (mask >> i) & 1 else 1 for i in range(n)) for mask in range(1 << n)
             if want is None or bin(mask).count("1") % 2 == want]
    for perm in itertools.permutations(range(1, n + 1)):
        for sign in signs:
            yield tuple(map(operator.mul, perm, sign))

