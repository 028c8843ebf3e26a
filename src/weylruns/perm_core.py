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

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

GROUPS = ("A", "B", "D", "B-D")
SNAKE_FAMILIES = ("B", "B+", "B-", "D", "B-D", "D+", "D-", "B-D+", "B-D-")


def split_family(token: str) -> tuple[str, str]:
    """The group and the parity ("all", "plus" or "minus") of an alternating
    or snake family token such as "B-D+"; the group is not validated."""
    if not isinstance(token, str):
        raise DomainError(f"unknown family token {token!r}")
    group = token.rstrip("+-")
    parity = {"": "all", "+": "plus", "-": "minus"}.get(token[len(group):])
    if parity is None:
        raise DomainError(f"unknown family token {token!r}")
    return group, parity

# Enumeration refuses above these caps instead of silently truncating.
CAP_A = 11
CAP_B = 9


def set_enumeration_caps(cap_a: int | None = None, cap_b: int | None = None) -> None:
    """Set the S_n and B_n caps; None keeps a cap.  A cap that is not an
    integer in 1..20 (cap_a) or 1..16 (cap_b) raises DomainError, and then
    neither cap changes.  Those are the int64 limits of the tallies:
    20! < 2^63 < 21! and 2^16 16! < 2^63 < 2^17 17!."""
    global CAP_A, CAP_B
    for name, cap, top in (("cap_a", cap_a, 20), ("cap_b", cap_b, 16)):
        if cap is not None:
            check_integer(cap, name)
            if not 1 <= cap <= top:
                raise DomainError(f"{name} must be in 1..{top}, got {cap}")
    CAP_A = CAP_A if cap_a is None else operator.index(cap_a)
    CAP_B = CAP_B if cap_b is None else operator.index(cap_b)


def normalize_group(group: str) -> str:
    g = group.upper() if isinstance(group, str) else ""
    g = {"BMINUSD": "B-D", "B_MINUS_D": "B-D", "BMD": "B-D"}.get(g, g)
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
    if not isinstance(kind, str) or kind.upper() not in ("A", "B"):
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


# ------------------------------------------------------------- iteration
#
# Deterministic order is part of the contract: S_n in lexicographic order;
# B_n as lexicographic permutations of absolute values crossed with sign
# masks in binary counting order (bit i of the mask negates position i).
# D / B-D filter that stream by the parity of the mask popcount.
#
# `iter_group` is the pure-Python reference walk.  The numpy walk is
# `perm_blocks`, which yields the S_n words of a lexicographic rank range
# [lo, hi) as int8 blocks, rank lo first; it seeks to lo directly, so a
# range costs only its own rows.  `cross_signs` turns a block of S_n into
# the B_n words over it, each permutation with its masks 0 .. 2^n - 1, so
# the B blocks of consecutive ranges follow the contract order too.

def check_integer(value, name: str = "n") -> None:
    """Refuse a value that is not an integer: a float, string, None, bool or
    array.  A numpy integer scalar is an integer.

    A float or bool equal to an integer would otherwise hit the cache entry
    of that integer, and an array would be compared elementwise.
    """
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_n(group: str, n: int) -> None:
    """Refuse an n that is not an integer in 1..cap, reading the group's cap
    at call time."""
    check_integer(n)
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


# The m of the S_m table that each S_n rank's suffix is read from.
SUFFIX_LETTERS = 7


@functools.cache
def suffix_table(m: int) -> np.ndarray:
    """The lexicographic table of S_m on the letters 0..m-1, column-major: an
    (m, m!) int8 array whose column s is the word of rank s."""
    return np.array(list(itertools.permutations(range(m))), dtype=np.int8).T.copy()


def _unrank_prefix(n: int, k: int, p: int) -> tuple[list[int], np.ndarray]:
    """The first k letters of the S_n words of ranks p*(n-k)! .. (p+1)*(n-k)! - 1,
    and the sorted letters left for their suffixes.

    p is read as a Lehmer code in mixed radix n, n-1, .., n-k+1 (Knuth, TAOCP
    4A, 7.2.1.2): digit i picks the letter of that rank among those unused.
    """
    digits = []
    for radix in range(n - k + 1, n + 1):
        p, digit = divmod(p, radix)
        digits.append(digit)
    letters = list(range(1, n + 1))
    prefix = [letters.pop(d) for d in reversed(digits)]
    return prefix, np.array(letters, dtype=np.int8)


def perm_blocks(n: int, lo: int, hi: int, chunk: int):
    """int8 blocks of at most `chunk` rows: the S_n words of ranks [lo, hi),
    in lexicographic order.

    Rank r = p*m! + s with m = min(n, SUFFIX_LETTERS), read at call time: the
    length-(n-m) prefix is the Lehmer unrank of p, and the suffix is column s
    of the S_m table relabelled through the letters the prefix leaves.  A
    block is split into runs of rows that share one prefix.  Each block is
    filled as an (n, rows) array, one letter position per row, and yielded as
    its (rows, n) transpose, so a reader of letter positions takes each in
    place.  A range outside 0 <= lo <= hi <= n!, or a chunk below 1, raises
    DomainError.
    """
    if not 0 <= lo <= hi <= math.factorial(n) or chunk < 1:
        raise DomainError(f"perm_blocks needs 0 <= lo <= hi <= {n}! and chunk >= 1, got {lo}, {hi}, {chunk}")
    table = suffix_table(min(n, SUFFIX_LETTERS))
    k, size = n - len(table), table.shape[1]
    while lo < hi:
        rows = min(chunk, hi - lo)
        block = np.empty((n, rows), dtype=np.int8)
        at = 0
        while at < rows:
            p, s = divmod(lo + at, size)
            take = min(size - s, rows - at)
            prefix, rest = _unrank_prefix(n, k, p)
            block[:k, at:at + take] = np.reshape(prefix, (k, 1))
            block[k:, at:at + take] = rest[table[:, s:s + take]]
            at += take
        yield block.T
        lo += rows


@functools.cache
def sign_table(n: int) -> np.ndarray:
    """The (n, 2^n) int8 table of +-1 whose column m negates the letters of
    sign mask m: bit i of m negates letter i."""
    return (1 - 2 * ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1)).astype(np.int8)


def cross_signs(words: np.ndarray) -> np.ndarray:
    """The (M * 2^n, n) int8 block of signed words over an (M, n) block of
    S_n: each permutation with its sign masks 0 .. 2^n - 1 in turn, which is
    the contract order of B_n.  One broadcast multiply over the masks fills
    it column-major, one letter position per row."""
    n = words.shape[1]
    return (words.T[:, :, None] * sign_table(n)[:, None, :]).reshape(n, -1).T
