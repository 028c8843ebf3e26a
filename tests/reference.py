"""Pure-Python reference walk: the oracle's tallies recomputed word by word.

Built only on `perm_core.iter_group`, perm_core's per-word statistics and the
per-word subset indices, so it shares no block generation, kernel, bincount
or decoding with the scans it checks.  Keys and values follow the oracle's
tallies exactly (see `scan_joint_a`, `scan_joint_b` and `scan_subsets`).
Results are cached per n; callers must not mutate them.
"""

from functools import lru_cache

from weylruns.oracle import snake_subset_l, subset_index_b, subset_index_d
from weylruns.perm_core import (
    classify_end_b,
    inv_a,
    inv_b,
    inv_d,
    is_alternating,
    is_snake_b,
    iter_group,
    negatives,
    peaks_valleys_a,
    peaks_valleys_b,
)


def _add(tally: dict, key, value: int = 1) -> None:
    tally[key] = tally.get(key, 0) + value


@lru_cache(maxsize=None)
def joint_a(n: int) -> dict:
    tally: dict = {}
    for w in iter_group("A", n):
        peaks, valleys = peaks_valleys_a(w)
        first = 1 if n < 2 or w[0] < w[1] else 0
        last = 1 if n < 2 or w[-2] < w[-1] else 0
        _add(tally, (len(peaks), len(valleys), inv_a(w) & 1, first, last, int(is_alternating(w))))
    return tally


@lru_cache(maxsize=None)
def joint_b(n: int) -> dict:
    tally: dict = {}
    for w in iter_group("B", n):
        peaks, valleys = peaks_valleys_b(w)
        key = (
            len(peaks), len(valleys), inv_b(w) & 1, inv_d(w) & 1, negatives(w) & 1,
            int(classify_end_b(w) == "a"), int(w[0] > 0), int(is_alternating(w)),
        )
        _add(tally, key)
    return tally


@lru_cache(maxsize=None)
def subsets(n: int) -> dict:
    """Signed subset cells of B_n and D_n (n >= 3) and snake L-counts of D_n."""
    tally: dict = {}
    for w in iter_group("B", n):
        in_d = negatives(w) % 2 == 0
        if in_d and is_snake_b(w):
            _add(tally, ("L", snake_subset_l(w), inv_d(w) & 1))
        if n < 3:
            continue
        peaks, valleys = peaks_valleys_b(w)
        end, pk, val = classify_end_b(w), len(peaks), len(valleys)
        _add(tally, ("B", end, subset_index_b(w), pk, val), -1 if inv_b(w) & 1 else 1)
        if in_d:
            _add(tally, ("D", end, subset_index_d(w), pk, val), -1 if inv_d(w) & 1 else 1)
    return tally


@lru_cache(maxsize=None)
def snake_words(n: int) -> list:
    return [w for w in iter_group("B", n) if is_snake_b(w)]
