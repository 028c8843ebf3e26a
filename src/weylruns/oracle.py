"""Brute-force oracles: every distribution in the package, by exhaustion.

Everything here is obtained by walking a whole group and tallying exact
integer statistics; closed-form evaluators never feed back into this module,
so oracle-vs-formula comparisons stay two independent routes.

There is one walk per group: `_perm_blocks` / `_signed_blocks` yield the
elements in the contract order as int8 blocks, and vectorized kernels tally
bounded statistics through int64 bincounts (counting only, no floating
point).  Three tallies come out of it:

* the joint A and B tallies, of which every distribution is a marginal sum;
* the subset tally, which classifies B_n into the cancellation subsets and
  the snakes of D_n into the staircase subsets L^1..L^4.

Work is split over contiguous lexicographic rank ranges of the underlying
permutation index space, none shorter than one of the scan's blocks.  Each
range is seeked, not stepped: `_perm_blocks` unranks the range's start
directly, so a worker walks only its own ranks.  Partial bincounts merge by
integer addition and are decoded once, so the result is bitwise identical
for any worker count.
Successful full-group scans are cached per n.  The test suite keeps a
pure-Python walk over perm_core's statistics as the reference for all three.
"""

from __future__ import annotations

import itertools
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError
from .perm_core import (
    SNAKE_FAMILIES,
    _check_n,
    classify_end_b,
    delete_abs,
    inv_b,
    inv_d,
    negatives,
    normalize_group,
    peaks_valleys_b,
    pos_abs,
)
from .poly import BiPoly, UniPoly

SIGN_STATISTICS = ("none", "inv_a", "inv_b", "inv_d")

# Upper bound on the worker threads of one scan; larger requests are clamped.
MAX_WORKERS = 32

_CACHE_LOCK = threading.Lock()
_JOINT_A_CACHE: dict[int, dict] = {}
_JOINT_B_CACHE: dict[int, dict] = {}
_SUBSET_CACHE: dict[int, dict] = {}


def clear_caches() -> None:
    with _CACHE_LOCK:
        _JOINT_A_CACHE.clear()
        _JOINT_B_CACHE.clear()
        _SUBSET_CACHE.clear()


def resolve_workers(workers: int | None) -> int:
    """The worker count: the argument, else WEYLRUNS_THREADS, else 1.

    A non-integer or a count below 1 raises DomainError; counts above
    MAX_WORKERS are clamped to it.
    """
    raw = workers if workers is not None else (os.environ.get("WEYLRUNS_THREADS") or 1)
    try:
        count = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise DomainError(f"worker count must be an integer, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"worker count must be at least 1, got {count}")
    return min(count, MAX_WORKERS)


def _ranges(total: int, workers: int, block: int = 1) -> list[tuple[int, int]]:
    """Contiguous parts of [0, total): one per worker, but no more than the
    whole blocks of `block` indices in total, so no part is below one block."""
    workers = max(1, min(workers, total // block))
    step, rem = divmod(total, workers)
    out, start = [], 0
    for w in range(workers):
        end = start + step + (1 if w < rem else 0)
        out.append((start, end))
        start = end
    return out


def _run_split(fn, total: int, workers: int | None, block: int):
    """Apply fn(lo, hi) over a contiguous partition and return partials in order.

    `block` is the scan's own block size in indices; a scan of fewer than two
    blocks runs in the calling thread.
    """
    parts = _ranges(total, resolve_workers(workers), block)
    if len(parts) == 1:
        return [fn(*parts[0])]
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        return list(pool.map(lambda r: fn(*r), parts))


# =====================================================================
# Joint statistic tallies
#
# A-key: (pk, val, inv mod 2, first ascent, last ascent, alternating)
# B-key: (pk_B, val_B, inv_B mod 2, inv_D mod 2, negatives mod 2,
#         last ascent, first letter positive, alternating)
# with flags stored as 0/1.  Every distribution below is a marginal sum.
# =====================================================================

_ALT_TARGET = {}  # n -> ascent pattern of an alternating word


def _alt_target(n: int) -> np.ndarray:
    if n not in _ALT_TARGET:
        _ALT_TARGET[n] = np.arange(n - 1) % 2 == 1
    return _ALT_TARGET[n]


# Words of S_n are an unranked prefix plus a suffix read from the cached S_m
# table, m = min(n, _SUFFIX_LETTERS).  At 7 the table is 35 KB and each
# prefix unrank is spread over 5040 rows.
_SUFFIX_LETTERS = 7
_SUFFIX_TABLES: dict[int, np.ndarray] = {}


def _suffix_table(m: int) -> np.ndarray:
    """The (m!, m) lexicographic table of S_m on the letters 0..m-1, as int8."""
    if m not in _SUFFIX_TABLES:
        _SUFFIX_TABLES[m] = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
    return _SUFFIX_TABLES[m]


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


def _perm_blocks(n: int, lo: int, hi: int, chunk: int):
    """int8 blocks of at most `chunk` rows: the S_n words of ranks [lo, hi).

    Rank r = p*m! + s with m = min(n, _SUFFIX_LETTERS): the length-(n-m)
    prefix is the Lehmer unrank of p, and the suffix is row s of the S_m table
    relabelled through the letters the prefix leaves.  The walk seeks to lo
    directly, so a range costs only its own rows, and the rows come out in
    lexicographic order.
    """
    table = _suffix_table(min(n, _SUFFIX_LETTERS))
    size, m = table.shape
    k = n - m
    while lo < hi:
        rows = min(chunk, hi - lo)
        block = np.empty((rows, n), dtype=np.int8)
        at = 0
        while at < rows:
            p, s = divmod(lo + at, size)
            take = min(size - s, rows - at)
            prefix, rest = _unrank_prefix(n, k, p)
            block[at:at + take, :k] = prefix
            block[at:at + take, k:] = rest[table[s:s + take]]
            at += take
        yield block
        lo += rows


def _stats_word_block(w: np.ndarray):
    """Shared vectorized statistics for a (M, n) block of signed words."""
    m, n = w.shape
    ext = np.concatenate([np.zeros((m, 1), dtype=np.int8), w], axis=1)
    asc = ext[:, :-1] < ext[:, 1:]
    pk = (asc[:, :-1] & ~asc[:, 1:]).sum(1)
    val = (~asc[:, :-1] & asc[:, 1:]).sum(1)
    last = asc[:, -1]
    iu, ju = np.triu_indices(n, 1)
    hi, lo = w[:, iu], w[:, ju]
    inv_plain = (hi > lo).sum(1)
    cross = ((-hi) > lo).sum(1)
    negs = (w < 0).sum(1)
    if n >= 2:
        alt = ((w[:, :-1] < w[:, 1:]) == _alt_target(n)).all(1)
    else:
        alt = np.ones(m, dtype=bool)
    return pk, val, inv_plain, cross, negs, last, alt


def _scan_a_numpy(n: int, lo: int, hi: int) -> np.ndarray:
    k_states = (n + 1) * (n + 1) * 16
    acc = np.zeros(k_states, dtype=np.int64)
    for words in _perm_blocks(n, lo, hi, chunk=4096):
        m = words.shape[0]
        if n >= 2:
            asc = words[:, :-1] < words[:, 1:]
            first, last = asc[:, 0], asc[:, -1]
            alt = (asc == _alt_target(n)).all(1)
        else:
            first = last = alt = np.ones(m, dtype=bool)
        if n >= 3:
            pk = (asc[:, :-1] & ~asc[:, 1:]).sum(1)
            val = (~asc[:, :-1] & asc[:, 1:]).sum(1)
        else:
            pk = val = np.zeros(m, dtype=np.int64)
        iu, ju = np.triu_indices(n, 1)
        inv = (words[:, iu] > words[:, ju]).sum(1)
        key = ((((pk * (n + 1) + val) * 2 + (inv & 1)) * 2 + first) * 2 + last) * 2 + alt
        acc += np.bincount(key, minlength=k_states)
    return acc


def _decode_a(acc: np.ndarray, n: int) -> dict:
    tally = {}
    for code in np.nonzero(acc)[0]:
        c, rem = int(acc[code]), int(code)
        flags = []
        for _ in range(4):
            flags.append(rem & 1)
            rem >>= 1
        alt, last, first, inv2 = flags
        pk, val = divmod(rem, n + 1)
        tally[(pk, val, inv2, first, last, alt)] = c
    return tally


_SIGNS_CACHE: dict[int, np.ndarray] = {}


def _sign_matrix(n: int) -> np.ndarray:
    if n not in _SIGNS_CACHE:
        masks = np.arange(1 << n, dtype=np.int32)
        _SIGNS_CACHE[n] = (1 - 2 * ((masks[:, None] >> np.arange(n)[None, :]) & 1)).astype(np.int8)
    return _SIGNS_CACHE[n]


def _signed_chunk(n: int) -> int:
    """Permutations per signed block: each block holds about 131072 words."""
    return max(1, 131072 >> n)


def _signed_blocks(n: int, lo: int, hi: int):
    """(M, n) blocks of signed words covering ambient indices [lo, hi)."""
    signs = _sign_matrix(n)
    nmasks = 1 << n
    chunk = _signed_chunk(n)
    rank_lo, rank_hi = lo >> n, (hi + nmasks - 1) >> n
    for words in _perm_blocks(n, rank_lo, rank_hi, chunk):
        full = (words[:, None, :] * signs[None, :, :]).reshape(-1, n)
        base = rank_lo << n
        total = full.shape[0]
        s, e = max(lo - base, 0), min(hi - base, total)
        yield full[s:e]
        rank_lo += words.shape[0]
        lo = rank_lo << n


def _split_b(fn, n: int, workers: int | None):
    """_run_split over the ambient indices of B_n, in parts of whole signed blocks."""
    return _run_split(fn, factorial(n) << n, workers, _signed_chunk(n) << n)


def _scan_b_numpy(n: int, lo: int, hi: int) -> np.ndarray:
    k_states = (n + 1) * (n + 1) * 64
    acc = np.zeros(k_states, dtype=np.int64)
    for w in _signed_blocks(n, lo, hi):
        if w.shape[0] == 0:
            continue
        pk, val, inv_plain, cross, negs, last, alt = _stats_word_block(w)
        invb2 = (inv_plain + cross + negs) & 1
        invd2 = (inv_plain + cross) & 1
        key = (pk * (n + 1) + val) * 2 + invb2
        key = (key * 2 + invd2) * 2 + (negs & 1)
        key = ((key * 2 + last) * 2 + (w[:, 0] > 0)) * 2 + alt
        acc += np.bincount(key, minlength=k_states)
    return acc


def _decode_b(acc: np.ndarray, n: int) -> dict:
    tally = {}
    for code in np.nonzero(acc)[0]:
        c, rem = int(acc[code]), int(code)
        flags = []
        for _ in range(6):
            flags.append(rem & 1)
            rem >>= 1
        alt, first, last, negs2, invd2, invb2 = flags
        pk, val = divmod(rem, n + 1)
        tally[(pk, val, invb2, invd2, negs2, last, first, alt)] = c
    return tally


def scan_joint_a(n: int, workers: int | None = 1) -> dict:
    """Uncached joint tally over S_n (used directly by determinism tests)."""
    _check_n("A", n)
    block = factorial(min(n, _SUFFIX_LETTERS))
    parts = _run_split(lambda a, b: _scan_a_numpy(n, a, b), factorial(n), workers, block)
    return _decode_a(sum(parts), n)


def scan_joint_b(n: int, workers: int | None = 1) -> dict:
    """Uncached joint tally over B_n."""
    _check_n("B", n)
    parts = _split_b(lambda a, b: _scan_b_numpy(n, a, b), n, workers)
    return _decode_b(sum(parts), n)


def _cached(cache: dict, n: int, scan, workers: int | None) -> dict:
    with _CACHE_LOCK:
        hit = cache.get(n)
    if hit is not None:
        return hit
    tally = scan(n, workers)
    with _CACHE_LOCK:
        cache[n] = tally
    return tally


def joint_a(n: int, workers: int | None = None) -> dict:
    return _cached(_JOINT_A_CACHE, n, scan_joint_a, workers)


def joint_b(n: int, workers: int | None = None) -> dict:
    return _cached(_JOINT_B_CACHE, n, scan_joint_b, workers)


# =====================================================================
# Marginal sums
# =====================================================================

def _sum_a(n, workers, *, biv, signed=False, first=None, last=None, alternating=None):
    uni: dict[int, int] = {}
    bivd: dict[tuple[int, int], int] = {}
    for (pk, val, inv2, fa, la, alt), cnt in joint_a(n, workers).items():
        if first is not None and fa != (1 if first == "a" else 0):
            continue
        if last is not None and la != (1 if last == "a" else 0):
            continue
        if alternating is not None and alt != (1 if alternating else 0):
            continue
        v = -cnt if (signed and inv2) else cnt
        if biv:
            bivd[(pk, val)] = bivd.get((pk, val), 0) + v
        else:
            e = pk + val + 1
            uni[e] = uni.get(e, 0) + v
    return BiPoly(bivd) if biv else UniPoly.from_dict(uni)


def _sum_b(n, workers, *, biv, signed=None, membership=None, end=None, first=None,
           alternating=None, snake=None, parity=None, parity_stat=None):
    uni: dict[int, int] = {}
    bivd: dict[tuple[int, int], int] = {}
    for (pk, val, b2, d2, g2, la, fp, alt), cnt in joint_b(n, workers).items():
        if membership == "D" and g2 != 0:
            continue
        if membership == "B-D" and g2 != 1:
            continue
        if end is not None and la != (1 if end == "a" else 0):
            continue
        if first == "positive" and not fp:
            continue
        if first == "negative" and fp:
            continue
        if alternating is not None and alt != (1 if alternating else 0):
            continue
        if snake is not None and (alt and fp) != snake:
            continue
        if parity is not None:
            bit = b2 if parity_stat == "inv_b" else d2
            if bit != (0 if parity == "plus" else 1):
                continue
        v = cnt
        if signed == "inv_b" and b2:
            v = -cnt
        elif signed == "inv_d" and d2:
            v = -cnt
        if biv:
            bivd[(pk, val)] = bivd.get((pk, val), 0) + v
        else:
            e = pk + val + 1
            uni[e] = uni.get(e, 0) + v
    return BiPoly(bivd) if biv else UniPoly.from_dict(uni)


# =====================================================================
# Public distribution API
# =====================================================================

@dataclass(frozen=True)
class SignedDistributionRequest:
    """Selector for one enumeration: group, size, sign, end and first-letter filters."""

    group: str
    n: int
    sign_statistic: str = "none"
    end_restriction: str | None = None
    first_letter_sign: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "group", normalize_group(self.group))
        if self.sign_statistic not in SIGN_STATISTICS:
            raise DomainError(f"unknown sign statistic {self.sign_statistic!r}")
        ok = {
            "A": ("none", "inv_a"),
            "B": ("none", "inv_b", "inv_d"),
            "D": ("none", "inv_d"),
            "B-D": ("none", "inv_d"),
        }[self.group]
        if self.sign_statistic not in ok:
            raise DomainError(f"sign statistic {self.sign_statistic} incompatible with group {self.group}")
        if self.end_restriction is not None:
            if self.group == "A":
                if self.end_restriction not in ("aa", "ad", "da", "dd"):
                    raise DomainError("type A end restriction must be one of aa/ad/da/dd")
                if self.n < 2:
                    raise DomainError("type A end classes need n >= 2")
            elif self.end_restriction not in ("a", "d"):
                raise DomainError("type B/D end restriction must be 'a' or 'd'")
        if self.first_letter_sign is not None:
            if self.group == "A":
                raise DomainError("first-letter sign filter applies to signed groups only")
            if self.first_letter_sign not in ("positive", "negative"):
                raise DomainError("first letter sign must be 'positive' or 'negative'")


def dist_runs(req: SignedDistributionRequest, variable: str = "t", workers: int | None = None):
    """Exact (optionally signed) run distribution for the request.

    variable "t" gives the univariate sum of t^altruns, "pq" the bivariate
    sum of p^pk q^val.
    """
    if variable not in ("t", "pq"):
        raise DomainError(f"unknown variable selector {variable!r}")
    _check_n(req.group, req.n)
    biv = variable == "pq"
    if req.group == "A":
        first = last = None
        if req.end_restriction:
            first, last = req.end_restriction[0], req.end_restriction[1]
        return _sum_a(req.n, workers, biv=biv, signed=req.sign_statistic == "inv_a",
                      first=first, last=last)
    membership = None if req.group == "B" else req.group
    signed = req.sign_statistic if req.sign_statistic != "none" else None
    return _sum_b(req.n, workers, biv=biv, signed=signed, membership=membership,
                  end=req.end_restriction, first=req.first_letter_sign)


def dist_runs_parity_split(group: str, n: int, workers: int | None = None) -> tuple[UniPoly, UniPoly]:
    """Unsigned run polynomials over the even- and odd-length halves.

    The split statistic is the group's own length: inv_A for A, inv_B for B,
    inv_D for D and B-D.
    """
    group = normalize_group(group)
    _check_n(group, n)
    if group == "A":
        plus: dict[int, int] = {}
        minus: dict[int, int] = {}
        for (pk, val, inv2, _f, _l, _alt), cnt in joint_a(n, workers).items():
            d = minus if inv2 else plus
            e = pk + val + 1
            d[e] = d.get(e, 0) + cnt
        return UniPoly.from_dict(plus), UniPoly.from_dict(minus)
    stat = "inv_b" if group == "B" else "inv_d"
    membership = None if group == "B" else group
    return (
        _sum_b(n, workers, biv=False, membership=membership, parity="plus", parity_stat=stat),
        _sum_b(n, workers, biv=False, membership=membership, parity="minus", parity_stat=stat),
    )


def class_poly_a(n: int, cls: str, signed: bool = True, workers: int | None = None) -> BiPoly:
    """Bivariate peak/valley sum over one of the four first/last classes of S_n."""
    if n < 2:
        raise DomainError("the four end classes are undefined for n = 1")
    if cls not in ("aa", "ad", "da", "dd"):
        raise DomainError(f"unknown class {cls!r}")
    _check_n("A", n)
    return _sum_a(n, workers, biv=True, signed=signed, first=cls[0], last=cls[1])


def count_alternating(group: str, n: int, parity: str = "all", workers: int | None = None) -> int:
    """Number of alternating (down-up) elements; parity filters by group length."""
    group = normalize_group(group)
    _check_n(group, n)
    if parity not in ("all", "plus", "minus"):
        raise DomainError(f"unknown parity selector {parity!r}")
    if group == "A":
        total = 0
        for (pk, val, inv2, _f, _l, alt), cnt in joint_a(n, workers).items():
            if alt and (parity == "all" or inv2 == (0 if parity == "plus" else 1)):
                total += cnt
        return total
    stat = "inv_b" if group == "B" else "inv_d"
    membership = None if group == "B" else group
    p = _sum_b(n, workers, biv=False, membership=membership, alternating=True,
               parity=None if parity == "all" else parity, parity_stat=stat)
    return p.eval_int(1)


def count_snakes(family: str, n: int, workers: int | None = None) -> int:
    """Snake counts; +/- refinements use inv_B for B and inv_D for D and B-D."""
    if family not in SNAKE_FAMILIES:
        raise DomainError(f"unknown snake family {family!r}")
    _check_n("B", n)
    base = family.rstrip("+-")
    parity = "plus" if family.endswith("+") else ("minus" if family.endswith("-") and family != "B-D" else None)
    membership = None if base == "B" else base
    stat = "inv_b" if base == "B" else "inv_d"
    p = _sum_b(n, workers, biv=False, membership=membership, snake=True,
               parity=parity, parity_stat=stat)
    return p.eval_int(1)


# =====================================================================
# Named univariate families (used by the verifier and the CLI tables)
# =====================================================================

def family_poly(token: str, n: int, workers: int | None = None) -> UniPoly:
    req: SignedDistributionRequest
    if token in ("R", "R+", "R-"):
        if token == "R":
            return dist_runs(SignedDistributionRequest("A", n), "t", workers)
        plus, minus = dist_runs_parity_split("A", n, workers)
        return plus if token == "R+" else minus
    base_map = {"RB": "B", "RD": "D", "RB-D": "B-D"}
    for prefix, group in base_map.items():
        if token == prefix:
            return dist_runs(SignedDistributionRequest(group, n), "t", workers)
        if token in (prefix + "+", prefix + "-"):
            plus, minus = dist_runs_parity_split(group, n, workers)
            return plus if token.endswith("+") else minus
        if token in (prefix + ">", prefix + "<"):
            sign = "positive" if token.endswith(">") else "negative"
            req = SignedDistributionRequest(group, n, first_letter_sign=sign)
            return dist_runs(req, "t", workers)
    raise DomainError(f"unknown family token {token!r}")


def signed_uni(group: str, n: int, workers: int | None = None) -> UniPoly:
    """The signed univariate run polynomial of the group (its own length)."""
    group = normalize_group(group)
    stat = {"A": "inv_a", "B": "inv_b", "D": "inv_d"}.get(group)
    if stat is None:
        raise DomainError("signed univariate polynomial defined for A, B, D")
    return dist_runs(SignedDistributionRequest(group, n, sign_statistic=stat), "t", workers)


# =====================================================================
# The eight / nine cancellation subsets and the T sets
# =====================================================================

def subset_index_b(word) -> int:
    """Index 1..8 of the word's cancellation subset (within its end side).

    The printed conditions: distance of the two largest letters, whether the
    last letter is one of them, sign agreement of the final pair, and the
    end class of the two-letter-deleted word (sentinel rules apply).  Subsets
    {1,3,5,8} are those whose deleted word matches the word's own end class.
    """
    n = len(word)
    if n < 3:
        raise DomainError("cancellation subsets need n >= 3")
    i, j = sorted((pos_abs(word, n), pos_abs(word, n - 1)))
    match = classify_end_b(delete_abs(word, (n, n - 1))) == classify_end_b(word)
    if j - i > 1:
        return 1 if match else 2
    if abs(word[-1]) < n - 1:
        return 3 if match else 4
    if (word[-2] > 0) != (word[-1] > 0):
        return 5 if match else 6
    return 8 if match else 7


def subset_index_d(word) -> int:
    """Index 1..9; 9 collects the words whose deleted word leaves D."""
    n = len(word)
    i, j = pos_abs(word, n), pos_abs(word, n - 1)
    if (word[i - 1] < 0) != (word[j - 1] < 0):
        return 9
    return subset_index_b(word)


def _subset_side(n: int) -> int:
    """Size of one side's code space: (k 0..9, end, pk, val, sign bit)."""
    return 10 * 2 * (n + 1) * (n + 1) * 2


def _subset_scan_numpy(n: int, lo: int, hi: int) -> np.ndarray:
    """Subset bincounts over ambient indices [lo, hi).

    Codes below one side hold the type B cell (k, end, pk, val) with the
    inv_B parity bit; the next side holds the type D cell over D_n with the
    inv_D bit; after both, 2 * L + (inv_D mod 2) counts the snakes of D_n in
    staircase subset L.
    """
    base, side = n + 1, _subset_side(n)
    acc = np.zeros(2 * side + 10, dtype=np.int64)
    for w in _signed_blocks(n, lo, hi):
        m = w.shape[0]
        if m == 0:
            continue
        pk, val, inv_plain, cross, negs, last, alt = _stats_word_block(w)
        absw = np.abs(w)
        big = absw >= n - 1
        bigpos = np.argsort(~big, axis=1, kind="stable")[:, :2]
        i, j = bigpos[:, 0], bigpos[:, 1]
        sgn_same = (w[:, -2] > 0) == (w[:, -1] > 0)
        l_idx = np.where(j - i > 1, 1, np.where(absw[:, -1] < n - 1, 2, np.where(sgn_same, 4, 3)))
        in_d = (negs & 1) == 0
        invd2 = (inv_plain + cross) & 1
        snake = in_d & alt & (w[:, 0] > 0)
        codes = [2 * side + (l_idx * 2 + invd2)[snake]]
        if n >= 3:
            rows = np.arange(m)
            smallpos = np.argsort(big, axis=1, kind="stable")[:, : n - 2]
            w2_last = w[rows, smallpos[:, -1]]
            w2_prev = w[rows, smallpos[:, -2]] if n >= 4 else np.zeros(m, dtype=np.int8)
            match = (w2_prev < w2_last) == last
            # k_B refines L: 2L - 1 when the deleted word keeps the end class,
            # else 2L; the L = 4 pair is numbered the other way round (8, 7).
            k = 2 * l_idx - np.where(l_idx == 4, ~match, match)
            kd = np.where((w[rows, i] < 0) != (w[rows, j] < 0), 9, k)
            code_b = (((k * 2 + last) * base + pk) * base + val) * 2 + ((inv_plain + cross + negs) & 1)
            code_d = (((kd * 2 + last) * base + pk) * base + val) * 2 + invd2
            codes += [code_b, side + code_d[in_d]]
        acc += np.bincount(np.concatenate(codes), minlength=acc.size)
    return acc


def _decode_subsets(acc: np.ndarray, n: int) -> dict:
    base, side = n + 1, _subset_side(n)
    tally: dict = {}
    for code in np.nonzero(acc)[0]:
        c, rem = int(acc[code]), int(code)
        part, rem = divmod(rem, side)
        if part == 2:
            tally[("L", rem >> 1, rem & 1)] = c
            continue
        rem, sign = divmod(rem, 2)
        rem, val = divmod(rem, base)
        rem, pk = divmod(rem, base)
        k, last = divmod(rem, 2)
        key = ("BD"[part], "a" if last else "d", k, pk, val)
        tally[key] = tally.get(key, 0) + (-c if sign else c)
    return tally


def scan_subsets(n: int, workers: int | None = 1) -> dict:
    """Uncached one-pass classification of B_n into cancellation subsets.

    Returns a tally keyed by ("B"|"D", end, k, pk, val) holding the signed
    count (inv_B sign on the B side, inv_D on the D side over D_n), and by
    ("L", l, inv_D mod 2) holding the number of snakes of D_n in staircase
    subset l.  The cancellation subsets need n >= 3, so for n = 2 the tally
    has only the snake keys.
    """
    _check_n("B", n)
    if n < 2:
        raise DomainError("subset classification needs n >= 2")
    parts = _split_b(lambda a, b: _subset_scan_numpy(n, a, b), n, workers)
    return _decode_subsets(sum(parts), n)


def _subset_scan(n: int, workers: int | None = None) -> dict:
    return _cached(_SUBSET_CACHE, n, scan_subsets, workers)


def _subset_cell(side: str, n: int, k: int, end: str, workers: int | None) -> BiPoly:
    if n < 3:
        raise DomainError("cancellation subsets need n >= 3")
    return BiPoly({key[3:]: c for key, c in _subset_scan(n, workers).items() if key[:3] == (side, end, k)})


def subset_contribution_b(n: int, k: int, end: str, workers: int | None = None) -> BiPoly:
    """Signed bivariate contribution of subset k of B_{n,-,end} (inv_B sign)."""
    if not 1 <= k <= 8:
        raise DomainError("type B subset index must be 1..8")
    return _subset_cell("B", n, k, end, workers)


def subset_contribution_d(n: int, k: int, end: str, workers: int | None = None) -> BiPoly:
    """Signed bivariate contribution of subset k of D_{n,-,end} (inv_D sign)."""
    if not 1 <= k <= 9:
        raise DomainError("type D subset index must be 1..9")
    return _subset_cell("D", n, k, end, workers)


def build_T(n: int, end: str) -> list[tuple[int, ...]]:
    """The recursively built words carrying the whole signed end-class sum.

    Ascent side appends (n-1, n) or (-n, -(n-1)); descent side (n, n-1) or
    (-(n-1), -n); bases are the printed one- and two-letter sets.
    """
    if end not in ("a", "d"):
        raise DomainError("end must be 'a' or 'd'")
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return [(1,)] if end == "a" else [(-1,)]
    if n == 2:
        return [(1, 2), (-2, -1)] if end == "a" else [(2, 1), (-1, -2)]
    tails = ((n - 1, n), (-n, -(n - 1))) if end == "a" else ((n, n - 1), (-(n - 1), -n))
    return [w + t for w in build_T(n - 2, end) for t in tails]


def t_contribution(n: int, end: str, kind: str = "B") -> BiPoly:
    """Signed bivariate sum over the T set (kind "D" restricts to D_n, inv_D sign)."""
    terms: dict[tuple[int, int], int] = {}
    for w in build_T(n, end):
        if kind == "D" and negatives(w) % 2 != 0:
            continue
        peaks, valleys = peaks_valleys_b(w)
        length = inv_b(w) if kind == "B" else inv_d(w)
        key = (len(peaks), len(valleys))
        terms[key] = terms.get(key, 0) + (-1 if length & 1 else 1)
    return BiPoly(terms)


# =====================================================================
# Snakes: word lists and the staircase partition of Snake(D_n)
# =====================================================================

def snake_words_b(n: int, workers: int | None = None) -> list[tuple[int, ...]]:
    """All snakes of B_n in the contract enumeration order."""
    _check_n("B", n)

    def scan(lo: int, hi: int) -> list[tuple[int, ...]]:
        out = []
        for w in _signed_blocks(n, lo, hi):
            if w.shape[0] == 0:
                continue
            snake = (w[:, 0] > 0)
            if n >= 2:
                snake &= ((w[:, :-1] < w[:, 1:]) == _alt_target(n)).all(1)
            out.extend(map(tuple, w[snake].tolist()))
        return out

    parts = _split_b(scan, n, workers)
    return [w for part in parts for w in part]


def snake_subset_l(word) -> int:
    """Index 1..4 in the snake partition (positions and signs of the top pair)."""
    n = len(word)
    if n < 2:
        raise DomainError("snake subsets need n >= 2")
    i, j = sorted((pos_abs(word, n), pos_abs(word, n - 1)))
    if j - i > 1:
        return 1
    if abs(word[-1]) < n - 1:
        return 2
    if (word[-2] > 0) != (word[-1] > 0):
        return 3
    return 4


def snake_subset_contribution(n: int, k: int, parity: str = "all", workers: int | None = None) -> int:
    """|L^k ∩ D_n^parity|: snakes of D_n in subset k with the given inv_D parity.

    A marginal of the subset tally; no scan runs once it is cached.
    """
    if not 1 <= k <= 4:
        raise DomainError("snake subset index must be 1..4")
    bits = {"all": (0, 1), "plus": (0,), "minus": (1,)}.get(parity)
    if bits is None:
        raise DomainError(f"unknown parity selector {parity!r}")
    tally = _subset_scan(n, workers)
    return sum(tally.get(("L", k, bit), 0) for bit in bits)
