"""Direct numpy walks of S_n and B_n, kept as cross-checks.

`perm_blocks` is a seekable block generator: it yields the S_n words of a
rank range in lexicographic order as int8 blocks, each rank an unranked
prefix and a column of the oracle's S_m table (`oracle._suffix_table`), and
`inv_parity` reads their inversion parities from the same split.  Both
read `oracle._SUFFIX_LETTERS` on each call, so a test that patches it
walks through the patched table.

`walk_a` is the A tally of a rank range read word by word: each word gets
its ascent code from its letters and its inversion parity from its rank.
It checks `oracle.scan_joint_a`, which inserts n into the stored S_(n-1)
tally without generating a word.  `walk_b` is the B tally the same way:
each permutation of a rank range crossed with its 2^n sign masks
(`signed_blocks`).  It checks `oracle.scan_joint_b` above B_7, where the
walked B_7 tally has +-n inserted into it one letter at a time
(`oracle._top_insertions`).

`subsets` checks `oracle.scan_subsets`, which crosses the stored B tally
of B_(n-2) with the top insertion of +-(n-1) and then that of +-n
(`oracle._top_index` twice, labelled by `oracle._subset_labels`).
It visits every signed word of B_n and locates the letters n-1 and n with
argsorts.  It shares with the oracle only the sign crossing
(`oracle._cross_signs`), `_ascent_codes`, the code tables and the suffix
table's parities; of these the crossing reads the code tables itself, and
the rest only through the B_(n-2) tally.  It returns the same code array
as `oracle.scan_subsets`, so the two compare exactly.
"""

from math import factorial

import numpy as np

from weylruns import oracle


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


def _prefix_runs(n: int, lo: int, rows: int):
    """Split the S_n ranks [lo, lo + rows) into runs that share one prefix.

    Yields (at, p, s, take): rows at .. at+take-1 of the range are the words
    of prefix p whose suffixes are columns s .. s+take-1 of the S_m table.
    """
    size = factorial(min(n, oracle._SUFFIX_LETTERS))
    at = 0
    while at < rows:
        p, s = divmod(lo + at, size)
        take = min(size - s, rows - at)
        yield at, p, s, take
        at += take


def perm_blocks(n: int, lo: int, hi: int, chunk: int):
    """int8 blocks of at most `chunk` rows: the S_n words of ranks [lo, hi).

    Rank r = p*m! + s with m = min(n, _SUFFIX_LETTERS): the length-(n-m)
    prefix is the Lehmer unrank of p, and the suffix is column s of the S_m
    table relabelled through the letters the prefix leaves.  Each block is
    filled as an (n, rows) array, one letter position per row, and yielded as
    its (rows, n) transpose, so `_ascent_codes` reads each position in place.
    The walk seeks to lo directly, so a range costs only its own rows, and the
    rows come out in lexicographic order.
    """
    table, *_ = oracle._suffix_table(min(n, oracle._SUFFIX_LETTERS))
    k = n - len(table)
    while lo < hi:
        rows = min(chunk, hi - lo)
        block = np.empty((n, rows), dtype=np.int8)
        for at, p, s, take in _prefix_runs(n, lo, rows):
            prefix, rest = _unrank_prefix(n, k, p)
            block[:k, at:at + take] = np.reshape(prefix, (k, 1))
            block[k:, at:at + take] = rest[table[:, s:s + take]]
        yield block.T
        lo += rows


def inv_parity(n: int, lo: int, rows: int) -> np.ndarray:
    """inv mod 2 of the S_n words of ranks [lo, lo + rows), as uint8.

    The parity of each suffix-table word, xored with one constant per prefix.
    """
    m = min(n, oracle._SUFFIX_LETTERS)
    row_parity = oracle._suffix_table(m)[1]
    out = np.empty(rows, dtype=np.uint8)
    for at, p, s, take in _prefix_runs(n, lo, rows):
        out[at:at + take] = row_parity[s:s + take] ^ oracle._digit_parity(p, range(m + 1, n + 1))
    return out


def parity_table(n: int) -> np.ndarray:
    """The (2, 2^n) grid 2 * (inv(|w|) mod 2) + (neg(w) mod 2) over the sign
    masks, as uint8."""
    neg2 = oracle._digit_parity(np.arange(1 << n), [2] * n)
    return (np.arange(2)[:, None] * 2 + neg2).astype(np.uint8)


def walk_a(n: int, lo: int, hi: int) -> np.ndarray:
    """The A tally counts[c, inv mod 2] of the S_n ranks [lo, hi), word by word."""
    acc = np.zeros(1 << n, dtype=np.int64)
    for words in perm_blocks(n, lo, hi, 1 << 16):
        rows = words.shape[0]
        key = np.left_shift(oracle._ascent_codes(words, signed=False), 1, dtype=np.int16)
        key |= inv_parity(n, lo, rows)
        acc += np.bincount(key, minlength=acc.size)
        lo += rows
    return acc.reshape(-1, 2)


def signed_blocks(n: int, lo: int, hi: int):
    """Yield (words, bits) per block: the B_n words whose |w| has an S_n rank
    in [lo, hi), in contract order, and 2 * (inv(|w|) mod 2) + (neg mod 2) of
    each, one parity per permutation broadcast over its sign masks."""
    parities = parity_table(n)
    for perms in perm_blocks(n, lo, hi, max(1, (1 << 17) >> n)):
        yield oracle._cross_signs(perms), parities[inv_parity(n, lo, len(perms))].reshape(-1)
        lo += len(perms)


def walk_b(n: int, lo: int, hi: int) -> np.ndarray:
    """The B tally counts[c, inv(|w|) mod 2, neg mod 2] of the B_n words whose
    |w| has an S_n rank in [lo, hi), word by word."""
    acc = np.zeros(4 << n, dtype=np.int64)
    for words, bits in signed_blocks(n, lo, hi):
        acc += np.bincount(oracle._ascent_codes(words, signed=True).astype(np.int64) << 2 | bits,
                           minlength=acc.size)
    return acc.reshape(-1, 2, 2)


def subsets(n: int) -> np.ndarray:
    """The subset codes of B_n (n >= 2), as `oracle.scan_subsets` returns them."""
    base, side = n + 1, oracle._subset_side(n)
    pk, val, first, last, alt = oracle._code_table(n, True)
    cells = (last * base + pk) * base + val
    snakes = (first & alt).astype(bool)
    acc = np.zeros(2 * side + 10, dtype=np.int64)
    for w, parity in signed_blocks(n, 0, factorial(n)):
        m = w.shape[0]
        asc = oracle._ascent_codes(w, signed=True)
        invd2, neg2 = parity >> 1, parity & 1
        in_d = neg2 == 0
        absw = np.abs(w)
        big = absw >= n - 1
        bigpos = np.argsort(~big, axis=1, kind="stable")[:, :2]
        i, j = bigpos[:, 0], bigpos[:, 1]
        sgn_same = (w[:, -2] > 0) == (w[:, -1] > 0)
        l_idx = np.where(j - i > 1, 1, np.where(absw[:, -1] < n - 1, 2, np.where(sgn_same, 4, 3)))
        snake = in_d & snakes[asc]
        codes = [2 * side + (l_idx * 2 + invd2)[snake]]
        if n >= 3:
            rows = np.arange(m)
            smallpos = np.argsort(big, axis=1, kind="stable")[:, : n - 2]
            w2_last = w[rows, smallpos[:, -1]]
            w2_prev = w[rows, smallpos[:, -2]] if n >= 4 else np.zeros(m, dtype=np.int8)
            match = (w2_prev < w2_last) == last[asc]
            k = 2 * l_idx - np.where(l_idx == 4, ~match, match)
            kd = np.where((w[rows, i] < 0) != (w[rows, j] < 0), 9, k)
            cell = cells[asc]
            code_b = (k * 2 * base * base + cell) * 2 + (invd2 ^ neg2)
            code_d = (kd * 2 * base * base + cell) * 2 + invd2
            codes += [code_b, side + code_d[in_d]]
        acc += np.bincount(np.concatenate(codes), minlength=acc.size)
    return acc
