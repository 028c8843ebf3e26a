"""Brute-force oracles: every distribution in the package, by exhaustion.

Everything here is an exact integer tally of a whole group, counted by
insertion from the tally of a smaller one; closed-form
evaluators never feed back into this module, so oracle-vs-formula
comparisons stay two independent routes.

Every tally is counted by insertion, the argument behind the run
recurrences (Bona, Combinatorics of Permutations, ch. 1): a word of S_n or
B_n is one of S_(n-1) or B_(n-1) with n or +-n inserted, which fixes how
its code and parities change.  So the tally at n is the stored one at n - 1
crossed with the insertions (`_top_insertions`, indexed by `_top_index`) in
one segment sum (`_insert_top`); the A step is the +n rows of the B step.
The A chain starts from the one word of S_1 and the B chain from the
one-cell tally of the empty word (`_EMPTY_WORD`), so neither makes a word.
A segment sum (`_segment_sum`) is one gather and one np.add.reduceat
through a plan built once per table (`_segments`): the source positions
sorted by target cell, the segment starts and each segment's cell.  The
same kernel crosses the subset tally (`_subset_plan`) and sums each
marginal over the classes of the codes its filters keep (`_class_plan`).
Every count is int64, never floating point.  A word's
peaks, valleys, end classes and alternation depend only on its ascent code:
its adjacent-pair ascent bits, behind a 0 sentinel for signed words, packed
into an integer, with a cached table per code length (`_code_table`).
Inversion parity is never counted pair by pair: inserting n at position i
adds n-1-i (inv_D = inv(|w|), inv_B = inv(|w|) + neg (mod 2)).  So each
tally is an int64 count array over codes and parity bits, cached as it is,
with no decode step:

* the A tally counts[c, inv mod 2] over S_n, c the unsigned code;
* the B tally counts[c, inv(|w|) mod 2, neg mod 2] over B_n, c the signed code;
* the subset tally counts[2(k - 1) + d9, c, inv(|w|) mod 2, neg mod 2], the
  B tally of B_n split into 16 labels by the word's type B cancellation
  subset k (1..8) and d9, 1 when its two large letters differ in sign (see
  `scan_subsets`).  It walks no group of its own.  A word w of B_n is a
  word w' of B_(n-2) with +-(n-1) inserted and then +-n, so w's code and
  parities are the top step of n - 1 composed with that of n (`_top_index`
  twice), and its label is fixed by the two rows (`_subset_labels`: the
  staircase subset L of the large letters and their signs) and by whether
  w' ends as w does.  So the subset tally is the stored B_(n-2) tally
  crossed with those 4n(n-1) row pairs, by the same insertion argument.

Every distribution is a marginal of one of them, summed by `_sum_a` or
`_sum_b`: code filters pick the codes a class plan reads, and parity filters
and signs weight the parity axes.  A subset query first sums its labels: the
type B subset k reads labels 2k - 2 and 2k - 1, the type D subset k <= 8
label 2k - 2 and the D subset 9 every odd label, and the snakes of D_n in
staircase subset L the labels 4L - 4 .. 4L - 1.

Every fill runs in the calling thread: S_1..S_11 take under 1 ms, and
B_1..B_9 about as long, so a public call's worker count splits nothing and
the result is bitwise identical for any count.  `_stored` (on a hit) and
`_answer` (on a miss) check an explicit count once (`resolve_workers`);
nothing below them carries one, and a missing count is never read from
WEYLRUNS_THREADS here, only by the CLI.  One store, `_TALLIES`, keeps each
tally by (kind, n), kind "A", "B" or "subsets", beside the answers read
from it, keyed by the public call.  `_tally` alone scans a tally, and
`_answer` alone sums a new answer; a repeated query is one dict read
(`_stored`) of the read-only answer itself.  `clear_caches` empties every
store made by `new_cache`, `verify`'s check outcomes and EGF series
included, so a run after it fills, builds and checks everything again.
The one result memo it keeps is `closed_forms._recurrence_table`, a
pure-formula memo that each n also hits for n - 1 within a run; it also
keeps the `functools.cache` table and plans (`_code_table`, `_top_plan`,
`_subset_plan`, `_class_plan`), which depend on n (and a marginal's
filters) alone and hold no result.
The test suite keeps a pure-Python walk over perm_core's statistics as the
reference for all three tallies and for every marginal.  Its `direct_walk`
module keeps word-by-word numpy walks of S_n and of B_n, over perm_core's
seekable block generator (`perm_blocks`, `cross_signs`), as second
references for the A chain, the B chain and the subset tally.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import perm_core
from .errors import DomainError
from .perm_core import (
    SNAKE_FAMILIES,
    _check_n,
    check_integer,
    inv_b,
    inv_d,
    negatives,
    normalize_group,
    peaks_valleys_b,
    pos_abs,
    split_family,
)
from .poly import BiPoly, UniPoly

SIGN_STATISTICS = ("none", "inv_a", "inv_b", "inv_d")

# Upper bound on the worker count of a call; larger requests are clamped.
MAX_WORKERS = 32

_STORES: list[dict] = []


def new_cache() -> dict:
    """A new empty dict that clear_caches() empties along with the tallies."""
    store: dict = {}
    _STORES.append(store)
    return store


# (kind, n) -> (count array, answers already read from it); see _answer
_TALLIES: dict[tuple[str, int], tuple[np.ndarray, dict]] = new_cache()


def clear_caches() -> None:
    """Empty every store made by new_cache: the tallies, their marginals, and
    the check outcomes and EGF series that `verify` keeps."""
    for store in _STORES:
        store.clear()


def resolve_workers(workers: int | None) -> int:
    """The worker count: the argument, else WEYLRUNS_THREADS, else 1.

    A non-integer (a bool too) or a count below 1 raises DomainError;
    counts above MAX_WORKERS are clamped to it.
    """
    raw = workers if workers is not None else (os.environ.get("WEYLRUNS_THREADS") or 1)
    try:
        if type(raw) is bool:  # operator.index would read True as 1
            raise TypeError
        count = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise DomainError(f"worker count must be an integer, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"worker count must be at least 1, got {count}")
    return min(count, MAX_WORKERS)


# =====================================================================
# Joint statistic tallies: counts[c, inv mod 2] over S_n and
# counts[c, inv(|w|) mod 2, neg mod 2] over B_n (see the module docstring)
#
# Every statistic of a word comes from two table reads; no word is compared
# letter against letter.  Peaks, valleys, end classes and alternation depend
# only on the word's ascent code (_code_table).  For w in B_n with |w| its
# permutation of absolute values, inv_D(w) = inv(|w|) and inv_B(w) =
# inv(|w|) + neg(w) (mod 2) (Bjorner-Brenti, Combinatorics of Coxeter
# Groups, Prop. 8.1.1 and 8.2.1), so a tally keeps the parities of inv(|w|)
# and neg, and an insertion carries each cell of the tally below to its
# cell at n (_top_index).
# =====================================================================

@functools.cache
def _code_table(n: int, signed: bool) -> tuple[np.ndarray, ...]:
    """(pk, val, first, last, alt) of an n-letter word, indexed by its ascent code.

    Bit i of the code is 1 when the i-th adjacent pair rises.  A signed word
    is read behind a 0 sentinel, so it has n bits and bit 0 says its first
    letter is positive; an unsigned word has n - 1.  A peak is a rise before
    a fall, a valley a fall before a rise; first and last are the end bits (1
    for the one-letter S_1 word); alt is 1 when the word's own pairs fall,
    rise, fall, ...
    """
    nbits = n if signed else n - 1
    bits = (np.arange(1 << nbits)[:, None] >> np.arange(nbits)) & 1
    pk = (bits[:, :-1] > bits[:, 1:]).sum(1)
    val = (bits[:, :-1] < bits[:, 1:]).sum(1)
    first, last = (bits[:, 0], bits[:, -1]) if nbits else (np.ones(1, dtype=np.int64),) * 2
    own = bits[:, 1:] if signed else bits
    alt = (own == np.arange(own.shape[1]) % 2).all(1).astype(np.int64)
    return pk, val, first, last, alt


def _top_insertions(n: int) -> dict[str, np.ndarray]:
    """The 2n ways to insert +-n into a word w' of B_(n-1), one row per
    insertion: the position i of the letter in the new word w, and neg, 1
    when the letter is -n.

    move[:, q] is 1 << p when bit q of the signed code c' of w' becomes bit p
    of w's code c: the bits below i stay, the pair the letter splits drops
    out, and the bits above it move up by one.  rise holds the bits of the
    pairs with the letter: (x, +n) rises at bit i, and (-n, x) at bit i + 1
    unless -n is last.  inv(|w|) gains n-1-i and neg gains [-n], mod 2.
    """
    i, neg = np.divmod(np.arange(2 * n), 2)
    q = np.arange(n - 1)
    move = np.where(q < i[:, None], 1 << q, np.where(q > i[:, None], 1 << (q + 1), 0))
    rise = np.where(neg == 1, (i < n - 1) << (i + 1), 1 << i)
    return {"i": i, "move": move, "rise": rise, "inv": (n - 1 - i) & 1, "neg": neg}


def _top_index(n: int, signed: bool) -> np.ndarray:
    """index[c', row, parity bits of w'] is the flat cell of w in the tally
    of n letters, for each cell of w' in the tally of n - 1 and each row of
    _top_insertions(n).  Unsigned, w' is in S_(n-1), a signed word whose
    letters are all positive: only the +n rows apply, to the signed code
    c' << 1 | 1, and w's code is the signed one shifted right by one.  It
    is not cached: its two readers, _top_plan and _subset_plan, are."""
    rows = _top_insertions(n)
    if not signed:
        rows = {field: col[rows["neg"] == 0] for field, col in rows.items()}
    codes = np.arange(1 << (n - 1)) if signed else np.arange(1 << (n - 2)) << 1 | 1
    c = ((codes[:, None] >> np.arange(n - 1)) & 1) @ rows["move"].T | rows["rise"]  # c[c', row]
    inv = rows["inv"][:, None] ^ np.arange(2)  # [row, inv(|w'|)]: inv(|w|) mod 2
    if not signed:
        return (c >> 1 << 1)[..., None] | inv
    return (c << 2)[..., None, None] | (inv << 1)[..., None] | rows["neg"][:, None, None] ^ np.arange(2)


# The B tally of B_0: its one word, the empty word, has code 0 and even
# inv and neg.  The B chain starts from it, as does the subset tally at n = 2.
_EMPTY_WORD = np.array([[[1, 0], [0, 0]]])
_EMPTY_WORD.setflags(write=False)


def _segments(target: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plan of a segment sum that adds the value at source[p] into cell
    target[p] for each p: the source positions sorted by target, the start
    of each run of equal targets among them, and that run's target cell."""
    key = target.astype(np.uint16) if target.max(initial=0) < 1 << 16 else target  # every plan within the caps
    order = np.argsort(key, axis=None, kind="stable" if key.dtype == np.uint16 else None)  # uint16: a radix sort
    ordered = target.ravel()[order]
    starts = np.flatnonzero(np.concatenate((ordered[:1] >= 0, ordered[1:] != ordered[:-1])))  # [] when empty
    return source.ravel()[order], starts, ordered[starts]


def _segment_sum(plan: tuple[np.ndarray, ...], values: np.ndarray, size: int) -> np.ndarray:
    """The int64 sums of values.ravel() into `size` cells by a _segments
    plan: one gather and one reduceat.  A cell that no source reaches is 0."""
    gather, starts, cells = plan
    acc = np.zeros(size, dtype=np.int64)
    acc[cells] = np.add.reduceat(values.ravel()[gather], starts)
    return acc


@functools.cache
def _top_plan(n: int, signed: bool) -> tuple[np.ndarray, ...]:
    """The _segments plan of the step at n: each entry of _top_index(n,
    signed) reads the cell of w' in the tally of n - 1."""
    index = _top_index(n, signed)
    below = np.arange(index.size // index.shape[1]).reshape(index.shape[0], 1, *index.shape[2:])
    return _segments(index, np.broadcast_to(below, index.shape))


def _insert_top(kind: str, n: int) -> np.ndarray:
    """The kind's tally at n: the stored one at n - 1, read through _tally,
    or at B_1 the empty word's, summed into its cells at n (_top_plan)."""
    small = _tally(kind, n - 1)[0] if n > 1 else _EMPTY_WORD
    acc = _segment_sum(_top_plan(n, kind == "B"), small, 2 * small.size)
    return acc.reshape(-1, *small.shape[1:])


def scan_joint_a(n: int) -> np.ndarray:
    """Uncached A tally counts[c, inv mod 2] over S_n: the S_(n-1) tally with
    n inserted (_insert_top), from the one word of S_1."""
    _check_n("A", n)
    return _insert_top("A", n) if n > 1 else np.array([[1, 0]])


def scan_joint_b(n: int) -> np.ndarray:
    """Uncached B tally counts[c, inv(|w|) mod 2, neg mod 2] over B_n: the
    B_(n-1) tally with +-n inserted (_insert_top), from the empty word."""
    _check_n("B", n)
    return _insert_top("B", n)


def _stored(kind: str, n, key: tuple, workers: int | None):
    """The answer stored under `key` (a public call's arguments but n and
    workers) itself, or None, which sends the call down its full path
    (_answer).  kind is "A", "subsets", or a group as the caller got it (the
    B tally).  Only the checks an answered call can still fail run here: n an
    int within the cap, read now, and an explicit worker count.  An
    unhashable argument or an array group also takes the full path."""
    if type(n) is not int:
        return None
    try:
        type_a = kind == "A"
        if n > (perm_core.CAP_A if type_a else perm_core.CAP_B):
            return None
        hit = _TALLIES["A" if type_a else "subsets" if kind == "subsets" else "B", n][1].get(key)
    except (KeyError, TypeError, ValueError):  # no tally yet, an unhashable argument, or an array group
        return None
    if hit is not None and workers is not None:
        resolve_workers(workers)
    return hit


def _tally(kind: str, n: int) -> tuple[np.ndarray, dict]:
    """The store's entry for the kind's tally at a checked n: the count array
    and the answers already read from it.  A missing tally is scanned and
    stored whole; the kind's scan is looked up on each fill, so one patched
    by name runs.  Each store read and write is one dict operation, atomic
    under the GIL; threads that fill one tally at once store equal arrays."""
    if (entry := _TALLIES.get((kind, n))) is None:
        scan = {"A": scan_joint_a, "B": scan_joint_b, "subsets": scan_subsets}[kind]
        entry = _TALLIES[kind, n] = scan(n), {}
    return entry


def _answer(kind: str, n: int, key: tuple, workers: int | None, marginal):
    """marginal(tally) of the kind's tally at a checked n (_tally), stored
    under `key`, an accepted call's canonical form, once an explicit worker
    count is checked.  Threads that ask for one new key at once store equal
    values.  Every answer is a read-only value, so the stored one is returned."""
    if workers is not None:
        resolve_workers(workers)
    tally, answers = _tally(kind, n)
    if (hit := answers.get(key)) is None:
        hit = answers[key] = marginal(tally)
    return hit


# =====================================================================
# Marginal sums
# =====================================================================

@functools.cache
def _class_plan(n: int, signed: bool, filters: tuple, biv: bool) -> tuple[tuple[np.ndarray, ...], list]:
    """The _segments plan that sums per-code values of the n-letter words the
    filters keep (the first, last and alt bits kept, None for either) over
    their classes, and each class's key: the (pk, val) pairs that occur, in
    order, when biv, else every exponent e = pk + val + 1 <= n (_code_table)."""
    pk, val, *cols = _code_table(n, signed)
    codes = np.arange(len(pk))
    for col, bit in zip(cols, filters):
        codes = codes if bit is None else codes[col[codes] == bit]
    if not biv:
        return _segments((pk + val + 1)[codes], codes), list(range(n + 1))
    gather, starts, cells = _segments((pk * (n + 1) + val)[codes], codes)
    return (gather, starts, np.arange(len(cells))), [divmod(cell, n + 1) for cell in cells.tolist()]


def _marginal(counts: np.ndarray, n: int, signed: bool, weight: list[int], filters, biv: bool):
    """The polynomial of a joint tally: each code's counts summed under
    `weight`, one int per parity cell in C order, then over its class
    (_class_plan).  filters holds a (value, one) pair per first, last and alt
    column: a code is kept when its bit is value == one, or value is None."""
    plan, keys = _class_plan(n, signed, tuple(None if v is None else v == one for v, one in filters), biv)
    sums = _segment_sum(plan, counts.reshape(len(counts), -1) @ weight, len(keys)).tolist()
    return BiPoly(zip(keys, sums)) if biv else UniPoly(sums)


def _sum_a(counts, n, *, biv, signed=False, first=None, last=None, alternating=None, parity=None):
    """A marginal of the A tally; the weight runs over inv mod 2."""
    weight = [1, -1 if signed else 1]
    if parity is not None:
        weight[1 if parity == "plus" else 0] = 0
    filters = (first, "a"), (last, "a"), (alternating, True)
    return _marginal(counts, n, False, weight, filters, biv)


def _sum_b(counts, n, *, biv, group="B", signed=None, end=None, first=None, alternating=None, parity=None):
    """A marginal of the B tally over group B, D or B-D; the weight runs over
    (inv(|w|), neg) mod 2.

    D / B-D keep an even / odd neg; parity filters by the group's own
    length, inv_B over B and inv_D over D and B-D.
    """
    weight = []
    for inv_d, neg in ((0, 0), (0, 1), (1, 0), (1, 1)):
        inv_b = inv_d ^ neg
        kept = ((group == "B" or neg == (group == "B-D"))
                and (parity is None or (inv_b if group == "B" else inv_d) == (parity == "minus")))
        sign = -1 if signed is not None and (inv_b if signed == "inv_b" else inv_d) else 1
        weight.append(sign if kept else 0)
    filters = (first, "positive"), (end, "a"), (alternating, True)
    return _marginal(counts, n, True, weight, filters, biv)


# =====================================================================
# Public distribution API
# =====================================================================

def _one_of(value, options) -> bool:
    """Whether value is a string among options.  Anything else, such as a
    numpy array, whose == is elementwise, is never compared with them."""
    return isinstance(value, str) and value in options


# The sign statistics each group allows.
_GROUP_SIGNS = {
    "A": ("none", "inv_a"),
    "B": ("none", "inv_b", "inv_d"),
    "D": ("none", "inv_d"),
    "B-D": ("none", "inv_d"),
}

# Every canonical (group, sign, end, first) of a request, accepted with one lookup.
_REQUESTS = frozenset(
    (group, sign, end, first) for group, signs in _GROUP_SIGNS.items() for sign in signs
    for end in (None, *(("aa", "ad", "da", "dd") if group == "A" else ("a", "d")))
    for first in ((None,) if group == "A" else (None, "positive", "negative")))


@dataclass(frozen=True, init=False)
class SignedDistributionRequest:
    """Selector for one enumeration: group, size, sign, end and first-letter filters.

    The fields are written straight into the instance dict, which costs less
    than the generated frozen __init__'s one object.__setattr__ per field.
    Canonical fields are accepted with one lookup in _REQUESTS; anything else
    is validated in full, with an alias group such as "b" normalised.
    """

    group: str
    n: int
    sign_statistic: str = "none"
    end_restriction: str | None = None
    first_letter_sign: str | None = None

    def __init__(self, group: str, n: int, sign_statistic: str = "none",
                 end_restriction: str | None = None, first_letter_sign: str | None = None):
        fields = self.__dict__
        fields.update(group=group, n=n, sign_statistic=sign_statistic, end_restriction=end_restriction,
                      first_letter_sign=first_letter_sign)
        try:
            if (type(n) is int and (group, sign_statistic, end_restriction, first_letter_sign) in _REQUESTS
                    and (n > 1 or end_restriction is None or group != "A")):
                return
        except TypeError:  # an unhashable field, refused below
            pass
        group = fields["group"] = normalize_group(group)
        check_integer(n)
        if not _one_of(sign_statistic, SIGN_STATISTICS):
            raise DomainError(f"unknown sign statistic {sign_statistic!r}")
        if sign_statistic not in _GROUP_SIGNS[group]:
            raise DomainError(f"sign statistic {sign_statistic} incompatible with group {group}")
        if end_restriction is not None:
            if group == "A":
                if not _one_of(end_restriction, ("aa", "ad", "da", "dd")):
                    raise DomainError("type A end restriction must be one of aa/ad/da/dd")
                if n < 2:
                    raise DomainError("type A end classes need n >= 2")
            elif not _one_of(end_restriction, ("a", "d")):
                raise DomainError("type B/D end restriction must be 'a' or 'd'")
        if first_letter_sign is not None:
            if group == "A":
                raise DomainError("first-letter sign filter applies to signed groups only")
            if not _one_of(first_letter_sign, ("positive", "negative")):
                raise DomainError("first letter sign must be 'positive' or 'negative'")


def dist_runs(req: SignedDistributionRequest, variable: str = "t", workers: int | None = None):
    """Exact (optionally signed) run distribution for the request.

    variable "t" gives the univariate sum of t^altruns, "pq" the bivariate
    sum of p^pk q^val.
    """
    key = ("dist", variable, req.group, req.sign_statistic, req.end_restriction, req.first_letter_sign)
    if (hit := _stored(req.group, req.n, key, workers)) is not None:
        return hit
    if not _one_of(variable, ("t", "pq")):
        raise DomainError(f"unknown variable selector {variable!r}")
    _check_n(req.group, req.n)
    biv = variable == "pq"
    if req.group == "A":
        first, last = req.end_restriction or (None, None)
        return _answer("A", req.n, key, workers, lambda counts: _sum_a(
            counts, req.n, biv=biv, signed=req.sign_statistic == "inv_a", first=first, last=last))
    signed = req.sign_statistic if req.sign_statistic != "none" else None
    return _answer("B", req.n, key, workers, lambda counts: _sum_b(counts, req.n, biv=biv, group=req.group,
                 signed=signed, end=req.end_restriction, first=req.first_letter_sign))


def dist_runs_parity_split(group: str, n: int, workers: int | None = None) -> tuple[UniPoly, UniPoly]:
    """Unsigned run polynomials over the even- and odd-length halves.

    The split statistic is the group's own length: inv_A for A, inv_B for B,
    inv_D for D and B-D.
    """
    if (hit := _stored(group, n, ("parity", group), workers)) is not None:
        return hit
    group = normalize_group(group)
    _check_n(group, n)
    if group == "A":
        return _answer("A", n, ("parity", group), workers, lambda counts: tuple(
            _sum_a(counts, n, biv=False, parity=half) for half in ("plus", "minus")))
    return _answer("B", n, ("parity", group), workers, lambda counts: tuple(
        _sum_b(counts, n, biv=False, group=group, parity=half) for half in ("plus", "minus")))


def class_poly_a(n: int, cls: str, signed: bool = True, workers: int | None = None) -> BiPoly:
    """Bivariate peak/valley sum over one of the four first/last classes of S_n.

    `signed` must be a bool or a numpy bool; 1, which hashes like True, is
    refused as well."""
    if type(signed) is bool and (hit := _stored("A", n, ("class", cls, signed), workers)) is not None:
        return hit
    _check_n("A", n)
    if n < 2:
        raise DomainError("the four end classes are undefined for n = 1")
    if not _one_of(cls, ("aa", "ad", "da", "dd")):
        raise DomainError(f"unknown class {cls!r}")
    if not isinstance(signed, (bool, np.bool_)):
        raise DomainError(f"signed must be a bool, got {signed!r}")
    return _answer("A", n, ("class", cls, bool(signed)), workers,
                   lambda counts: _sum_a(counts, n, biv=True, signed=signed, first=cls[0], last=cls[1]))


def count_alternating(group: str, n: int, parity: str = "all", workers: int | None = None) -> int:
    """Number of alternating (down-up) elements; parity filters by group length."""
    if (hit := _stored(group, n, ("alt", group, parity), workers)) is not None:
        return hit
    group = normalize_group(group)
    _check_n(group, n)
    if not _one_of(parity, ("all", "plus", "minus")):
        raise DomainError(f"unknown parity selector {parity!r}")
    selector = None if parity == "all" else parity
    if group == "A":
        return _answer("A", n, ("alt", group, parity), workers, lambda counts: _sum_a(
            counts, n, biv=False, alternating=True, parity=selector).eval_int(1))
    return _answer("B", n, ("alt", group, parity), workers, lambda counts: _sum_b(
        counts, n, biv=False, group=group, alternating=True, parity=selector).eval_int(1))


def count_snakes(family: str, n: int, workers: int | None = None) -> int:
    """Snake counts; +/- refinements use inv_B for B and inv_D for D and B-D."""
    if (hit := _stored("B", n, ("snakes", family), workers)) is not None:
        return hit
    if not _one_of(family, SNAKE_FAMILIES):
        raise DomainError(f"unknown snake family {family!r}")
    _check_n("B", n)
    group, parity = split_family(family)
    # a snake is an alternating word with a positive first letter
    return _answer("B", n, ("snakes", family), workers, lambda counts: _sum_b(counts, n, biv=False, group=group,
                 first="positive", alternating=True, parity=None if parity == "all" else parity).eval_int(1))


# =====================================================================
# Named univariate families (used by the verifier and the CLI tables)
# =====================================================================

# Each family token's group and part: a parity half ("plus", "minus"), a
# first-letter sign ("positive", "negative"), or None for the whole group.
_FAMILY_TOKENS = {
    prefix + mark: (group, part)
    for prefix, group in (("R", "A"), ("RB", "B"), ("RD", "D"), ("RB-D", "B-D"))
    for mark, part in (("", None), ("+", "plus"), ("-", "minus"), (">", "positive"), ("<", "negative"))
    if group != "A" or mark in ("", "+", "-")
}


def family_poly(token: str, n: int, workers: int | None = None) -> UniPoly:
    """The univariate run polynomial named by a family token (_FAMILY_TOKENS)."""
    if not _one_of(token, _FAMILY_TOKENS):
        raise DomainError(f"unknown family token {token!r}")
    group, part = _FAMILY_TOKENS[token]
    if part in ("plus", "minus"):
        return dist_runs_parity_split(group, n, workers)[part == "minus"]
    return dist_runs(SignedDistributionRequest(group, n, first_letter_sign=part), "t", workers)


def signed_uni(group: str, n: int, workers: int | None = None) -> UniPoly:
    """The signed univariate run polynomial of the group (its own length)."""
    group = group if _one_of(group, perm_core.GROUPS) else normalize_group(group)
    stat = {"A": "inv_a", "B": "inv_b", "D": "inv_d"}.get(group)
    if stat is None:
        raise DomainError("signed univariate polynomial defined for A, B, D")
    return dist_runs(SignedDistributionRequest(group, n, sign_statistic=stat), "t", workers)


# =====================================================================
# The eight / nine cancellation subsets and the T sets
# =====================================================================

def _large_positions(word) -> tuple[int, int]:
    """The 0-based positions i < j of the letters of absolute value n and n-1
    in a word of B_n, found in one pass; a word that lacks one is refused."""
    letters = list(map(abs, word))
    try:
        i, j = letters.index(len(word)), letters.index(len(word) - 1)
    except ValueError:
        pos_abs(word, len(word)), pos_abs(word, len(word) - 1)  # the refusal names the missing letter
        raise
    return (i, j) if i < j else (j, i)


def _staircase(word, i: int, j: int) -> int:
    """snake_subset_l of a word whose large letters sit at positions i < j."""
    return 1 if j - i > 1 else 2 if j < len(word) - 1 else 3 if (word[i] > 0) != (word[j] > 0) else 4


def _subset_k(word, i: int, j: int) -> int:
    """subset_index_b of a word of n >= 3 letters whose large letters sit at
    positions i < j, by the rule of scan_subsets: 2L - 1 when the deleted
    word, behind the sentinel 0, keeps the end class, else 2L, with L = 4 the
    other way round (8, 7)."""
    rest = [0] + [x for p, x in enumerate(word) if p != i and p != j]
    match = (rest[-2] < rest[-1]) == (word[-2] < word[-1])
    l_idx = _staircase(word, i, j)
    return 2 * l_idx - (match ^ (l_idx == 4))


def subset_index_b(word) -> int:
    """Index 1..8 of the word's cancellation subset (within its end side).

    The printed conditions: distance of the two largest letters, whether the
    last letter is one of them, sign agreement of the final pair, and the
    end class of the two-letter-deleted word (sentinel rules apply).  Subsets
    {1,3,5,8} are those whose deleted word matches the word's own end class.
    """
    if len(word) < 3:
        raise DomainError("cancellation subsets need n >= 3")
    return _subset_k(word, *_large_positions(word))


def subset_index_d(word) -> int:
    """Index 1..9; 9 collects the words whose deleted word leaves D."""
    if len(word) < 3:
        raise DomainError("cancellation subsets need n >= 3")
    i, j = _large_positions(word)
    return 9 if (word[i] < 0) != (word[j] < 0) else _subset_k(word, i, j)


def _subset_labels(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l, flip, d9)[r1, r2] for the word w of B_n made from one of B_(n-2)
    by row r1 of _top_insertions(n - 1), then row r2 of _top_insertions(n):
    l is the staircase subset L of the positions i < j of the large letters,
    flip is [L = 4], whose k pair is numbered the other way round, and d9
    says the large signs differ.  n - 1 ends at position i1 + [i1 >= i2]."""
    one, two = _top_insertions(n - 1), _top_insertions(n)
    moved = one["i"][:, None] + (one["i"][:, None] >= two["i"])
    i, j = np.minimum(moved, two["i"]), np.maximum(moved, two["i"])
    d9 = one["neg"][:, None] != two["neg"]
    l_idx = np.where(j > i + 1, 1, np.where(j < n - 1, 2, np.where(d9, 3, 4)))
    return l_idx, (l_idx == 4) * 1, d9


def scan_subsets(n: int) -> np.ndarray:
    """Uncached subset tally of B_n, counts[2(k - 1) + d9, c, inv(|w|) mod 2,
    neg mod 2]: the B tally split into 16 labels by the word's type B
    cancellation subset k (1..8) and d9, 1 when its two large letters differ
    in sign.  It is the B tally of B_(n-2), read from the store, crossed with
    the top steps of n - 1 and n in one segment sum (_subset_plan), so
    counts.sum(0) is the B tally of B_n.

    k refines the staircase subset L of the large letters: 2L - 1 when the
    deleted word w' ends, behind the sentinel 0, as w does, else 2L, with
    L = 4 the other way round (8, 7).  The type D subset k <= 8 is label
    2k - 2 and subset 9 the odd labels, both over D_n; L^L is labels 4L - 4
    .. 4L - 1.  At n = 2, w' is the empty word, which has no end class:
    every word reads as a match, so k = 2L - 1, or 8 at L = 4.  The
    cancellation subsets themselves need n >= 3 (subset_contribution_b).
    """
    _check_n("B", n)
    if n < 2:
        raise DomainError("subset classification needs n >= 2")
    small = _tally("B", n - 2)[0] if n > 2 else _EMPTY_WORD
    return _segment_sum(_subset_plan(n), small, 64 << n).reshape(16, -1, 2, 2)


@functools.cache
def _subset_plan(n: int) -> tuple[np.ndarray, ...]:
    """The _segments plan of the subset crossing at n (scan_subsets), shaped
    like _top_plan: each (c', r1, r2, parity bits of w') reads the cell of w'
    in the B_(n-2) tally into w's labelled cell, the top step of n - 1 (row
    r1) composed with that of n (row r2) plus w's label offset.  The label
    is fixed by the two rows (_subset_labels) and by whether w' ends as w
    does; at n = 2, w' is the empty word and every word reads as a match."""
    step = np.moveaxis(_top_index(n, True), 1, -1).reshape(-1, 2 * n)  # step[cell of B_(n-1), r2]
    cell = np.moveaxis(step[_top_index(n - 1, True)], -1, 2)  # cell[c', r1, r2, inv(|w'|), neg(w')]: w's B_n cell
    l_idx, flip, d9 = _subset_labels(n)
    # w' ends in its code bit n - 3, w in its bit n - 1, bit n + 1 of its flat cell
    ends = cell[..., 0, 0] >> (n + 1) & 1
    match = (np.arange(len(cell))[:, None, None] >> (n - 3) & 1) == ends if n > 2 else True
    label = 2 * (2 * l_idx - (match ^ flip) - 1) + d9
    below = np.arange(4 * len(cell)).reshape(-1, 1, 1, 2, 2)
    return _segments((label << (n + 2))[..., None, None] + cell, np.broadcast_to(below, cell.shape))


def _subset_cell(side: str, n: int, k: int, end: str, workers: int | None) -> BiPoly:
    if type(k) is int and (hit := _stored("subsets", n, (side, k, end), workers)) is not None:
        return hit
    check_integer(k, "k")
    top = 8 if side == "B" else 9
    if not 1 <= k <= top:
        raise DomainError(f"type {side} subset index must be 1..{top}")
    _check_n("B", n)
    if n < 3:
        raise DomainError("cancellation subsets need n >= 3")
    if not _one_of(end, ("a", "d")):
        raise DomainError("end must be 'a' or 'd'")
    # B: both d9 labels of k; D: the d9 = 0 label of k <= 8, and every d9 = 1 label for 9
    labels = slice(1, None, 2) if k == 9 else slice(2 * k - 2, 2 * k - (side == "D"))
    return _answer("subsets", n, (side, k, end), workers, lambda counts: _sum_b(
        counts[labels].sum(0), n, biv=True, group=side, signed="inv_b" if side == "B" else "inv_d", end=end))


def subset_contribution_b(n: int, k: int, end: str, workers: int | None = None) -> BiPoly:
    """Signed bivariate contribution of subset k of B_{n,-,end} (inv_B sign)."""
    return _subset_cell("B", n, k, end, workers)


def subset_contribution_d(n: int, k: int, end: str, workers: int | None = None) -> BiPoly:
    """Signed bivariate contribution of subset k of D_{n,-,end} (inv_D sign)."""
    return _subset_cell("D", n, k, end, workers)


def build_T(n: int, end: str) -> list[tuple[int, ...]]:
    """The recursively built words carrying the whole signed end-class sum.

    Ascent side appends (n-1, n) or (-n, -(n-1)); descent side (n, n-1) or
    (-(n-1), -n); bases are the printed one- and two-letter sets.
    """
    if not _one_of(end, ("a", "d")):
        raise DomainError("end must be 'a' or 'd'")
    check_integer(n)
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return [(1,)] if end == "a" else [(-1,)]
    if n == 2:
        return [(1, 2), (-2, -1)] if end == "a" else [(2, 1), (-1, -2)]
    tails = ((n - 1, n), (-n, -(n - 1))) if end == "a" else ((n, n - 1), (-(n - 1), -n))
    return [w + t for w in build_T(n - 2, end) for t in tails]


def t_contribution(words, kind: str = "B") -> BiPoly:
    """Signed bivariate sum over a T set, the words of build_T (kind "D"
    restricts to D_n, inv_D sign)."""
    if not _one_of(kind, ("B", "D")):
        raise DomainError(f"T-set sums are of kind 'B' or 'D', got {kind!r}")
    terms: dict[tuple[int, int], int] = {}
    for w in words:
        if kind == "D" and negatives(w) % 2 != 0:
            continue
        peaks, valleys = peaks_valleys_b(w)
        length = inv_b(w) if kind == "B" else inv_d(w)
        key = (len(peaks), len(valleys))
        terms[key] = terms.get(key, 0) + (-1 if length & 1 else 1)
    return BiPoly(terms)


# =====================================================================
# Snakes: the staircase partition of Snake(D_n)
# =====================================================================

def snake_subset_l(word) -> int:
    """Index 1..4 in the snake partition (positions and signs of the top pair)."""
    if len(word) < 2:
        raise DomainError("snake subsets need n >= 2")
    return _staircase(word, *_large_positions(word))


def snake_subset_contribution(n: int, k: int, parity: str = "all", workers: int | None = None) -> int:
    """|L^k ∩ D_n^parity|: snakes of D_n in subset k with the given inv_D parity.

    A marginal of the subset tally; no scan runs once it is cached.
    """
    if type(k) is int and (hit := _stored("subsets", n, ("L", k, parity), workers)) is not None:
        return hit
    _check_n("B", n)
    check_integer(k, "k")
    if not 1 <= k <= 4:
        raise DomainError("snake subset index must be 1..4")
    if not _one_of(parity, ("all", "plus", "minus")):
        raise DomainError(f"unknown parity selector {parity!r}")
    return _answer("subsets", n, ("L", k, parity), workers, lambda counts: _sum_b(
        counts[4 * k - 4:4 * k].sum(0), n, biv=False, group="D", first="positive", alternating=True,
        parity=None if parity == "all" else parity).eval_int(1))
