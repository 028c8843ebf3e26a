"""Direct numpy walks of S_n and B_n, kept as cross-checks.

`walk_a` is the A tally of a rank range read word by word: each word of
`oracle._perm_blocks` gets its ascent code from its letters and its
inversion parity from its rank.  It checks `oracle._scan_a_numpy`, which
counts the range without generating a word.

`subsets` checks `oracle.scan_subsets`, which crosses the stored B tally
of B_(n-2) with the insertions of +-(n-1) and +-n (`oracle._insertions`).
It visits every signed word of B_n and locates the letters n-1 and n with
argsorts.  It shares with the oracle only the block generator and its sign
crossing (`signed_blocks`), `_ascent_codes`, the code tables and the
inversion parities; of these the crossing reads the code tables itself, and
the rest only through the B_(n-2) tally.  It returns the same code array as
`oracle.scan_subsets`, so the two compare exactly.
"""

from math import factorial

import numpy as np

from weylruns import oracle


def walk_a(n: int, lo: int, hi: int) -> np.ndarray:
    """The A tally counts[c, inv mod 2] of the S_n ranks [lo, hi), word by word."""
    acc = np.zeros(1 << n, dtype=np.int64)
    for words in oracle._perm_blocks(n, lo, hi, 1 << 16):
        rows = words.shape[0]
        key = np.left_shift(oracle._ascent_codes(words, signed=False), 1, dtype=np.int16)
        key |= oracle._inv_parity(n, lo, rows)
        acc += np.bincount(key, minlength=acc.size)
        lo += rows
    return acc.reshape(-1, 2)


def signed_blocks(n: int, lo: int, hi: int):
    """Yield (words, bits) per block: the B_n words whose |w| has an S_n rank
    in [lo, hi), in contract order, and 2 * (inv(|w|) mod 2) + (neg mod 2) of
    each, one parity per permutation as the B kernel reads it."""
    parities = oracle._parity_table(n)
    for perms in oracle._perm_blocks(n, lo, hi, max(1, (1 << 17) >> n)):
        yield oracle._cross_signs(perms), parities[oracle._inv_parity(n, lo, len(perms))].reshape(-1)
        lo += len(perms)


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

