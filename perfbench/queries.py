"""Oracle queries as plain tuples: drawing them, running them, answering them by reference.

A query is a hashable tuple whose first item is its kind:

    ("dist", group, n, sign, end, first, variable)   dist_runs
    ("parity", group, n)                             dist_runs_parity_split
    ("class", n, cls, signed)                        class_poly_a
    ("alt", group, n, parity)                        count_alternating
    ("snakes", family, n)                            count_snakes
    ("subset_b", n, k, end)                          subset_contribution_b
    ("subset_d", n, k, end)                          subset_contribution_d

`Reference` answers the same queries from its own walk of each group with
`perm_core.iter_group` and perm_core's per-word statistics, so it shares no
scan, tally or marginal code with the oracle.
"""

from __future__ import annotations

from collections import Counter

from weylruns import oracle
from weylruns.oracle import SignedDistributionRequest
from weylruns.perm_core import (
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

SIGNS = {"A": ("none", "inv_a"), "B": ("none", "inv_b", "inv_d"), "D": ("none", "inv_d"), "B-D": ("none", "inv_d")}
SNAKE_FAMILIES = ("B", "B+", "B-", "D", "B-D", "D+", "D-", "B-D+", "B-D-")


def kinds(group: str, n: int, with_b_extras: bool) -> tuple[str, ...]:
    """Query kinds that apply to one group and size."""
    if group == "A":
        return ("dist", "parity", "class", "alt") if n >= 2 else ("dist", "parity", "alt")
    out = ("dist", "parity", "alt")
    if with_b_extras:
        out += ("snakes",) + (("subset_b", "subset_d") if n >= 3 else ())
    return out


def variants(kind: str, group: str, n: int) -> list[tuple]:
    """Every query of the given kind on one group and size."""
    if kind == "dist":
        if group == "A":
            ends, firsts = ((None, "aa", "ad", "da", "dd") if n >= 2 else (None,)), (None,)
        else:
            ends, firsts = (None, "a", "d"), (None, "positive", "negative")
        return [("dist", group, n, sign, end, first, var)
                for sign in SIGNS[group] for end in ends for first in firsts for var in ("t", "pq")]
    if kind == "parity":
        return [("parity", group, n)]
    if kind == "class":
        return [("class", n, cls, signed) for cls in ("aa", "ad", "da", "dd") for signed in (True, False)]
    if kind == "alt":
        return [("alt", group, n, parity) for parity in ("all", "plus", "minus")]
    if kind == "snakes":
        return [("snakes", family, n) for family in SNAKE_FAMILIES]
    if kind == "subset_b":
        return [("subset_b", n, k, end) for k in range(1, 9) for end in ("a", "d")]
    if kind == "subset_d":
        return [("subset_d", n, k, end) for k in range(1, 10) for end in ("a", "d")]
    raise ValueError(f"unknown query kind {kind!r}")


def draw(kind: str, group: str, n: int, rng) -> tuple:
    """One query of the given kind with parameters drawn from rng."""
    return rng.choice(variants(kind, group, n))


def run(q: tuple, workers: int | None = None):
    """Answer q through the oracle's public API."""
    kind = q[0]
    if kind == "dist":
        _, group, n, sign, end, first, var = q
        req = SignedDistributionRequest(group, n, sign_statistic=sign, end_restriction=end, first_letter_sign=first)
        return oracle.dist_runs(req, var, workers=workers)
    if kind == "parity":
        return oracle.dist_runs_parity_split(q[1], q[2], workers=workers)
    if kind == "class":
        return oracle.class_poly_a(q[1], q[2], q[3], workers=workers)
    if kind == "alt":
        return oracle.count_alternating(q[1], q[2], q[3], workers=workers)
    if kind == "snakes":
        return oracle.count_snakes(q[1], q[2], workers=workers)
    if kind == "subset_b":
        return oracle.subset_contribution_b(q[1], q[2], q[3], workers=workers)
    if kind == "subset_d":
        return oracle.subset_contribution_d(q[1], q[2], q[3], workers=workers)
    raise ValueError(f"unknown query kind {kind!r}")


# ------------------------------------------------------------- reference

def _features_a(w):
    peaks, valleys = peaks_valleys_a(w)
    first, last = classify_ends_a(w) if len(w) >= 2 else ("a", "a")
    return len(peaks), len(valleys), inv_a(w) & 1, first, last, is_alternating(w)


def _features_b(w):
    peaks, valleys = peaks_valleys_b(w)
    n = len(w)
    sub_b = oracle.subset_index_b(w) if n >= 3 else 0
    sub_d = oracle.subset_index_d(w) if n >= 3 and negatives(w) % 2 == 0 else 0
    return (len(peaks), len(valleys), inv_b(w) & 1, inv_d(w) & 1, negatives(w) & 1,
            classify_end_b(w), w[0] > 0, is_alternating(w), is_snake_b(w), sub_b, sub_d)


def _poly(items, biv: bool):
    """items: iterable of (pk, val, signed count)."""
    acc: dict = {}
    for pk, val, c in items:
        key = (pk, val) if biv else pk + val + 1
        acc[key] = acc.get(key, 0) + c
    return BiPoly(acc) if biv else UniPoly.from_dict(acc)


class Reference:
    """Answers queries from per-word statistics of a perm_core group walk."""

    def __init__(self):
        self._tallies: dict[tuple[str, int], Counter] = {}

    def tally(self, group: str, n: int) -> Counter:
        key = (group, n)
        if key not in self._tallies:
            feat = _features_a if group == "A" else _features_b
            self._tallies[key] = Counter(feat(w) for w in iter_group(group, n))
        return self._tallies[key]

    def answer(self, q: tuple):
        kind = q[0]
        if kind == "dist":
            _, group, n, sign, end, first, var = q
            return self._dist(group, n, sign, end, first, var == "pq")
        if kind == "parity":
            _, group, n = q
            bit = 2 if group in ("A", "B") else 3
            items = [(f, c) for f, c in self.tally(group, n).items()]
            return tuple(_poly(((f[0], f[1], c) for f, c in items if f[bit] == par), False) for par in (0, 1))
        if kind == "class":
            _, n, cls, signed = q
            return self._dist("A", n, "inv_a" if signed else "none", cls, None, True)
        if kind == "alt":
            _, group, n, parity = q
            bit = 2 if group in ("A", "B") else 3
            alt = 5 if group == "A" else 7
            want = {"all": None, "plus": 0, "minus": 1}[parity]
            return sum(c for f, c in self.tally(group, n).items()
                       if f[alt] and (want is None or f[bit] == want))
        if kind == "snakes":
            _, family, n = q
            base = family.rstrip("+-")
            parity = None if family in ("B", "D", "B-D") else (0 if family.endswith("+") else 1)
            bit = 2 if base == "B" else 3
            return sum(c for f, c in self.tally(base, n).items()
                       if f[8] and (parity is None or f[bit] == parity))
        if kind in ("subset_b", "subset_d"):
            _, n, k, end = q
            group, idx, bit = ("B", 9, 2) if kind == "subset_b" else ("D", 10, 3)
            return _poly(((f[0], f[1], -c if f[bit] else c) for f, c in self.tally(group, n).items()
                          if f[idx] == k and f[5] == end), True)
        raise ValueError(f"unknown query kind {kind!r}")

    def _dist(self, group, n, sign, end, first, biv):
        items = []
        for f, c in self.tally(group, n).items():
            if group == "A":
                if end is not None and (f[3], f[4]) != (end[0], end[1]):
                    continue
                neg = sign == "inv_a" and f[2]
            else:
                if end is not None and f[5] != end:
                    continue
                if first is not None and f[6] != (first == "positive"):
                    continue
                neg = (sign == "inv_b" and f[2]) or (sign == "inv_d" and f[3])
            items.append((f[0], f[1], -c if neg else c))
        return _poly(items, biv)
