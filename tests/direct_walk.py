"""Direct numpy walk of B_n for the subset tally, kept as a cross-check.

`oracle.scan_subsets` reads the subset tally from S_n: a key per
permutation of absolute values, crossed with every sign mask.  This walk
instead visits every signed word of B_n and locates the letters n-1 and n
with argsorts, so the two routes share only the S_n block generator,
`_ascent_codes`, the code tables and the inversion parities.  It returns
the same code array as `oracle._expand_subsets`, so the two compare
exactly.
"""

from math import factorial

import numpy as np

from weylruns import oracle


def subset_codes(n: int, lo: int, hi: int) -> np.ndarray:
    """Subset codes (see `oracle._expand_subsets`) of B_n over ambient indices [lo, hi)."""
    base, side = n + 1, oracle._subset_side(n)
    pk, val, first, last, alt = oracle._code_table(n, signed=True)
    cells = (last * base + pk) * base + val
    snakes = (first & alt).astype(bool)
    parities = oracle._parity_table(n)
    acc = np.zeros(2 * side + 10, dtype=np.int64)
    for w in oracle._signed_blocks(n, lo, hi, 1 << 17):
        m = w.shape[0]
        asc = oracle._ascent_codes(w, signed=True)
        parity = oracle._by_sign_parity(n, lo, m, parities)
        lo += m
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


def subsets(n: int) -> np.ndarray:
    """The subset codes of B_n (n >= 2), as `oracle.scan_subsets` returns them."""
    return subset_codes(n, 0, factorial(n) << n)
