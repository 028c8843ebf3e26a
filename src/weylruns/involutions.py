"""The sign-reversing maps behind the cancellation lemmas.

Each map acts on words of B_n (tuples); the two "large letters" of a word are
the ones of absolute value n and n-1.  `run_involution_suite` checks every map
exhaustively, one row of ROWS per map and domain: it must be an involution,
keep the row's statistics (the first fixes the domain) and flip its parities.
"""

from __future__ import annotations

from . import perm_core
from .errors import DomainError
from .oracle import _large_positions, snake_subset_l, subset_index_b, subset_index_d
from .perm_core import negatives, pos_abs


def swap_far_pair(word) -> tuple[int, ...]:
    """Swap the two large letters (negating both when their signs differ).

    Cancels the subsets where the large letters are more than one position
    apart: it fixes every peak and valley and flips the length parity.
    """
    i, j = _large_positions(word)
    if j - i <= 1:
        raise DomainError("large letters are adjacent; use swap_adjacent_pair")
    return _exchange(word, i, j)


def swap_adjacent_pair(word) -> tuple[int, ...]:
    """Same exchange for adjacent large letters (B^3,4, and L^2,3 of the snakes)."""
    i, j = _large_positions(word)
    if j - i != 1:
        raise DomainError("large letters are not adjacent")
    return _exchange(word, i, j)


def _exchange(word, i, j):
    sign = 1 if (word[i] > 0) == (word[j] > 0) else -1
    out = list(word)
    out[i], out[j] = sign * word[j], sign * word[i]
    return tuple(out)


def reverse_last_pair(word) -> tuple[int, ...]:
    """Replace the final pair (x, y) by (-y, -x).

    Used when both large letters sit at the end; keeps the end class and,
    away from the surviving subset, the peak/valley counts, while flipping
    the length parity.
    """
    if len(word) < 2:
        raise DomainError("need at least two letters")
    return word[:-2] + (-word[-1], -word[-2])


def resign_large_pair(word) -> tuple[int, ...]:
    """Exchange absolute values of the two large letters, keeping signs in place.

    Defined where exactly one of them is negative (the type D subset whose
    deleted word escapes D): n <-> n-1 under each letter's own sign, which
    preserves peaks and valleys and flips the type D parity.
    """
    i, j = _large_positions(word)
    if (word[i] > 0) == (word[j] > 0):
        raise DomainError("large letters must carry opposite signs")
    out = list(word)
    for k in (i, j):
        out[k] = (2 * len(word) - 1 - abs(word[k])) * (1 if word[k] > 0 else -1)
    return tuple(out)


def flip_smallest(word) -> tuple[int, ...]:
    """Negate the letter of absolute value 1.

    On alternating words this preserves alternation and flips the type B
    parity (and moves between D and B-D).
    """
    k = pos_abs(word, 1) - 1
    return word[:k] + (-word[k],) + word[k + 1:]


def cross_resign_12(word) -> tuple[int, ...]:
    """Send the ±1 letter to minus the ±2 letter and vice versa.

    Preserves alternation and the number of negative letters mod 2, while
    flipping the type D parity; pairs off D_n^+ with D_n^- inside the
    alternating sets.
    """
    p1, p2 = pos_abs(word, 1) - 1, pos_abs(word, 2) - 1
    out = list(word)
    out[p1], out[p2] = -word[p2], -word[p1]
    return tuple(out)


# ------------------------------------------------------------ property suite
#
# The statistics by name; "D subset" and "snake subset" (the L^k of a snake)
# are 0 off D_n.  A parity is 0 or 1: it flips when a word and its image differ.
STATS = {
    "B subset": subset_index_b,
    "D subset": lambda w: 0 if negatives(w) % 2 else subset_index_d(w),
    "end": perm_core.classify_end_b,
    "peak/valley sets": perm_core.peaks_valleys_b,
    "peak/valley counts": lambda w: tuple(map(len, perm_core.peaks_valleys_b(w))),
    "negatives": negatives,
    "negative parity": lambda w: negatives(w) % 2,
    "inv_B parity": lambda w: perm_core.inv_b(w) % 2,
    "inv_D parity": lambda w: perm_core.inv_d(w) % 2,
    "alternation": perm_core.is_alternating,
    "snake subset": lambda w: snake_subset_l(w) if perm_core.is_snake_b(w) and negatives(w) % 2 == 0 else 0,
}

# (tag, map, least n, values, kept, flipped): the map acts on the words of
# B_n whose statistic kept[0] takes one of the values.
_B, _INV_B, _INV_D = ("B subset", "end", "negative parity"), ("inv_B parity",), ("inv_D parity",)
ROWS = (
    ("far-pair on B^1,2", swap_far_pair, 3, {1, 2}, _B + ("negatives", "peak/valley sets"), _INV_B),
    ("adjacent-pair on B^3,4", swap_adjacent_pair, 3, {3, 4}, _B + ("negatives", "peak/valley counts"), _INV_B),
    ("last-pair on B^5,6,7", reverse_last_pair, 3, {5, 6, 7}, _B + ("peak/valley counts",), _INV_B),
    ("far-pair on D^1,2", swap_far_pair, 3, {1, 2}, ("D subset",), _INV_D),
    ("adjacent-pair on D^3,4", swap_adjacent_pair, 3, {3, 4}, ("D subset",), _INV_D),
    ("last-pair on D^5,6,7", reverse_last_pair, 3, {5, 6, 7}, ("D subset",), _INV_D),
    ("resign on D^9", resign_large_pair, 3, {9}, ("D subset", "end", "peak/valley sets"), _INV_D),
    ("flip-smallest on alternating words", flip_smallest, 1, {True}, ("alternation",), _INV_B + ("negative parity",)),
    ("cross-resign on alternating words", cross_resign_12, 2, {True}, ("alternation", "negative parity"), _INV_D),
    ("far-pair on L^1", swap_far_pair, 2, {1}, ("snake subset",), _INV_D),
    ("adjacent-pair on L^2,3", swap_adjacent_pair, 2, {2, 3}, ("snake subset",), _INV_D),
)


class _Stats(dict):
    """The statistics of one word by name, each computed on first use."""

    def __init__(self, word):
        self.word = word

    def __missing__(self, name):
        value = self[name] = STATS[name](self.word)
        return value


def run_involution_suite(n: int) -> list[str]:
    """Check every row of ROWS on its whole domain in B_n.  Returns the
    failures, each led by its row's tag; none means every map passes."""
    fails: list[str] = []
    for w in perm_core.iter_group("B", n):
        stat = _Stats(w)
        for tag, mapper, min_n, values, kept, flipped in ROWS:
            if n < min_n or stat[kept[0]] not in values:
                continue
            img = mapper(w)
            try:
                back = mapper(img)
            except DomainError:  # the image left the map's domain
                back = None
            if back != w:
                fails.append(f"{tag}: not an involution at {w} -> {img}")
                continue
            at = _Stats(img)
            # img lies in the domain and maps back to w, so its own turn compares the pair
            if img < w and at[kept[0]] in values:
                continue
            fails += [f"{tag}: {name} moves at {w} -> {img}" for name in kept if stat[name] != at[name]]
            fails += [f"{tag}: {name} not flipped at {w} -> {img}" for name in flipped if stat[name] == at[name]]
    return fails
