"""Pure-Python reference walk: the oracle's tallies and marginals recomputed
word by word.

Built only on `perm_core.iter_group`, perm_core's per-word statistics and the
per-word subset indices, so it shares no block generation, kernel, code
table or parity shortcut with the scans it checks.  Each tally is the count
array of the matching scan (`scan_joint_a`, `scan_joint_b` and
`scan_subsets`), filled one word at a time: a word's ascent code is read
from its letters, its parity bits from perm_core's lengths, and its subset
label from its subset index and the signs of its two large letters.
`answer` computes a public marginal of the oracle as a sum over the
group's words.
Results are cached per n; callers must not mutate them.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from weylruns.oracle import snake_subset_l, subset_index_b, subset_index_d
from weylruns.perm_core import (
    altruns_a,
    altruns_b,
    classify_end_b,
    classify_ends_a,
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
from weylruns.poly import BiPoly, UniPoly


def ascent_code(w, signed: bool) -> int:
    """Bit i is set when the i-th adjacent pair rises; a signed word is read
    behind a 0 sentinel."""
    ext = (0, *w) if signed else tuple(w)
    return sum(1 << i for i in range(len(ext) - 1) if ext[i] < ext[i + 1])


@lru_cache(maxsize=None)
def joint_a(n: int) -> np.ndarray:
    """counts[code, inv mod 2] over S_n."""
    counts = np.zeros((1 << (n - 1), 2), dtype=np.int64)
    for w in iter_group("A", n):
        counts[ascent_code(w, False), inv_a(w) & 1] += 1
    return counts


@lru_cache(maxsize=None)
def joint_b(n: int) -> np.ndarray:
    """counts[code, inv_D mod 2, neg mod 2] over B_n; inv_D(w) = inv(|w|) mod 2."""
    counts = np.zeros((1 << n, 2, 2), dtype=np.int64)
    for w in iter_group("B", n):
        counts[ascent_code(w, True), inv_d(w) & 1, negatives(w) & 1] += 1
    return counts


@lru_cache(maxsize=None)
def subsets(n: int) -> np.ndarray:
    """counts[2(k - 1) + d9, code, inv_D mod 2, neg mod 2] over B_n (n >= 2),
    k the word's subset_index_b and d9 whether its two large letters differ
    in sign.  At n = 2 no word has a deleted end class, and k is 2L - 1, or
    8 at L = 4, of its snake_subset_l L."""
    counts = np.zeros((16, 1 << n, 2, 2), dtype=np.int64)
    for w in iter_group("B", n):
        big = [x for x in w if abs(x) >= n - 1]
        d9 = (big[0] < 0) != (big[1] < 0)
        k = subset_index_b(w) if n >= 3 else 8 if snake_subset_l(w) == 4 else 2 * snake_subset_l(w) - 1
        counts[2 * k - 2 + d9, ascent_code(w, True), inv_d(w) & 1, negatives(w) & 1] += 1
    return counts


@lru_cache(maxsize=None)
def snake_words(n: int) -> list:
    return [w for w in iter_group("B", n) if is_snake_b(w)]


# ----------------------------------------------------- marginals by brute force

OWN_LENGTH = {"A": "inv_a", "B": "inv_b", "D": "inv_d", "B-D": "inv_d"}
PARITY_MARKS = {"": None, "+": "plus", "-": "minus"}


class Word(NamedTuple):
    pk: int
    val: int
    runs: int
    lengths: dict
    end: str | None  # "aa" .. "dd" in type A (n >= 2), "a" / "d" otherwise
    first: str | None  # sign of the first letter of a signed word
    alternating: bool
    snake: bool
    subset: int | None  # subset_index_b on B, subset_index_d on D (n >= 3)
    snake_l: int | None


@lru_cache(maxsize=None)
def words(group: str, n: int) -> list[Word]:
    """perm_core's statistics of every word of the group, in iteration order."""
    out = []
    for w in iter_group(group, n):
        if group == "A":
            peaks, valleys = peaks_valleys_a(w)
            runs, end, first = altruns_a(w), "".join(classify_ends_a(w)) if n >= 2 else None, None
        else:
            peaks, valleys = peaks_valleys_b(w)
            runs, end, first = altruns_b(w), classify_end_b(w), "positive" if w[0] > 0 else "negative"
        lengths = {"inv_a": inv_a(w), "inv_b": inv_b(w), "inv_d": inv_d(w)}
        subset = None
        if n >= 3 and group in ("B", "D"):
            subset = subset_index_b(w) if group == "B" else subset_index_d(w)
        snake = group != "A" and is_snake_b(w)
        out.append(Word(len(peaks), len(valleys), runs, lengths, end, first, is_alternating(w), snake,
                        subset, snake_subset_l(w) if snake and n >= 2 else None))
    return out


def _select(group, n, *, end=None, first=None, parity=None, alternating=None, snake=None,
            subset=None, snake_l=None):
    """The words of the group that pass every given filter; parity is read
    on the group's own length."""
    wanted = {"end": end, "first": first, "alternating": alternating, "snake": snake,
              "subset": subset, "snake_l": snake_l}
    for word in words(group, n):
        if parity is not None and word.lengths[OWN_LENGTH[group]] % 2 != (parity == "minus"):
            continue
        if all(v is None or getattr(word, k) == v for k, v in wanted.items()):
            yield word


def _poly(group, n, biv, sign=None, **filters):
    acc: dict = {}
    for word in _select(group, n, **filters):
        key = (word.pk, word.val) if biv else word.runs
        acc[key] = acc.get(key, 0) + (-1 if sign and word.lengths[sign] % 2 else 1)
    return BiPoly(acc) if biv else UniPoly.from_dict(acc)


def _count(group, n, **filters) -> int:
    return sum(1 for _ in _select(group, n, **filters))


def answer(fn, args):
    """What the oracle function fn returns on args, summed over the words."""
    name = fn.__name__
    if name == "dist_runs":
        req, var = args
        sign = None if req.sign_statistic == "none" else req.sign_statistic
        return _poly(req.group, req.n, var == "pq", sign, end=req.end_restriction, first=req.first_letter_sign)
    if name == "dist_runs_parity_split":
        group, n = args
        return tuple(_poly(group, n, False, parity=parity) for parity in ("plus", "minus"))
    if name == "class_poly_a":
        n, cls, signed = args
        return _poly("A", n, True, "inv_a" if signed else None, end=cls)
    if name == "count_alternating":
        group, n, parity = args
        return _count(group, n, alternating=True, parity=None if parity == "all" else parity)
    if name == "count_snakes":
        family, n = args
        group = family.rstrip("+-")
        return _count(group, n, snake=True, parity=PARITY_MARKS[family[len(group):]])
    if name == "family_poly":
        token, n = args
        group = token[1:].rstrip("+-<>")
        mark = token[1 + len(group):]
        first = {">": "positive", "<": "negative"}.get(mark)
        return _poly(group or "A", n, False, parity=PARITY_MARKS.get(mark), first=first)
    if name == "signed_uni":
        group, n = args
        return _poly(group, n, False, OWN_LENGTH[group])
    if name in ("subset_contribution_b", "subset_contribution_d"):
        n, k, end = args
        group = name[-1].upper()
        return _poly(group, n, True, OWN_LENGTH[group], end=end, subset=k)
    if name == "snake_subset_contribution":
        n, k, parity = args
        return _count("D", n, snake=True, snake_l=k, parity=None if parity == "all" else parity)
    raise ValueError(f"no reference for {name}")
