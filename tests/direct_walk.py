"""Direct numpy walks of S_n and B_n, kept as the test-side second
reference for the oracle's insertion counts.

The words come from `perm_core.perm_blocks`, the package's seekable block
generator, and for B_n from `perm_core.cross_signs`; both are read through
`perm_core` on each call, so a test that patches them there reaches these
walks.  The generator yields words only, so each S_n rank's inversion
parity is read here from the rank's factorial digits (`digit_parity`).

`walk_a` is the A tally of a rank range read word by word: each word gets
its ascent code from its letters (`ascent_codes`) and its inversion parity
from its rank.  It checks `oracle.scan_joint_a`, which inserts n into the
stored S_(n-1) tally without generating a word.  `walk_b` is the B tally
the same way: each permutation of a rank range crossed with its 2^n sign
masks (`signed_blocks`).  It checks `oracle.scan_joint_b`, which inserts
+-n into the stored B_(n-1) tally, one letter at a time from the empty
word (`oracle._top_insertions`).

`subsets` checks `oracle.scan_subsets`, which crosses the stored B tally
of B_(n-2) with the top insertion of +-(n-1) and then that of +-n
(`oracle._top_index` twice, labelled by `oracle._subset_labels`).
It visits every signed word of B_n, locates the letters n-1 and n with
argsorts, and reads the end class of the word left without them.  It
shares with the oracle only the subset layout, and returns the same
labelled tally as `oracle.scan_subsets`, so the two compare exactly.
"""

from math import factorial

import numpy as np

from weylruns import perm_core


def digit_parity(p, radices):
    """Parity of the digit sum of p (an int or an int array) in a mixed radix.

    `radices` runs from the least significant digit up.  In the radices
    1, 2, .., n the digits of a lexicographic rank of S_n are its word's
    Lehmer code, whose sum is the word's inversion count (Knuth, TAOCP 4A,
    7.2.1.2); in radix 2 the digit sum is the popcount.
    """
    total = 0
    for radix in radices:
        p, digit = divmod(p, radix)
        total = total + digit
    return total & 1


def ascent_codes(words: np.ndarray, signed: bool) -> np.ndarray:
    """The ascent code (see oracle._code_table) of each row of an (M, n) word
    block, read one letter position at a time; a column-major block is not
    copied."""
    cols = np.ascontiguousarray(words.T)
    nbits = len(cols) - 1 + signed
    dtype = np.uint8 if nbits <= 8 else np.uint16
    bits = np.empty((nbits, len(words)), dtype=dtype)
    if signed:
        np.greater(cols[0], 0, out=bits[0])
    np.less(cols[:-1], cols[1:], out=bits[signed:])
    bits <<= np.arange(nbits, dtype=dtype)[:, None]
    return bits.sum(0, dtype=dtype)


def parity_table(n: int) -> np.ndarray:
    """The (2, 2^n) grid 2 * (inv(|w|) mod 2) + (neg(w) mod 2) over the sign
    masks, as uint8."""
    neg2 = digit_parity(np.arange(1 << n), [2] * n)
    return (np.arange(2)[:, None] * 2 + neg2).astype(np.uint8)


def walk_a(n: int, lo: int, hi: int) -> np.ndarray:
    """The A tally counts[c, inv mod 2] of the S_n ranks [lo, hi), word by word."""
    acc = np.zeros(1 << n, dtype=np.int64)
    for words in perm_core.perm_blocks(n, lo, hi, 1 << 16):
        rows = words.shape[0]
        key = np.left_shift(ascent_codes(words, signed=False), 1, dtype=np.int16)
        key |= digit_parity(np.arange(lo, lo + rows), range(1, n + 1))
        acc += np.bincount(key, minlength=acc.size)
        lo += rows
    return acc.reshape(-1, 2)


def signed_blocks(n: int, lo: int, hi: int):
    """Yield (words, bits) per block: the B_n words whose |w| has an S_n rank
    in [lo, hi), in contract order, and 2 * (inv(|w|) mod 2) + (neg mod 2) of
    each, one parity per permutation broadcast over its sign masks."""
    parities = parity_table(n)
    for perms in perm_core.perm_blocks(n, lo, hi, max(1, (1 << 17) >> n)):
        ranks = np.arange(lo, lo + len(perms))
        yield perm_core.cross_signs(perms), parities[digit_parity(ranks, range(1, n + 1))].reshape(-1)
        lo += len(perms)


def walk_b(n: int, lo: int, hi: int) -> np.ndarray:
    """The B tally counts[c, inv(|w|) mod 2, neg mod 2] of the B_n words whose
    |w| has an S_n rank in [lo, hi), word by word."""
    acc = np.zeros(4 << n, dtype=np.int64)
    for words, bits in signed_blocks(n, lo, hi):
        acc += np.bincount(ascent_codes(words, signed=True).astype(np.int64) << 2 | bits,
                           minlength=acc.size)
    return acc.reshape(-1, 2, 2)


def subsets(n: int) -> np.ndarray:
    """The subset tally of B_n (n >= 2), as `oracle.scan_subsets` returns it."""
    acc = np.zeros(64 << n, dtype=np.int64)
    for w, parity in signed_blocks(n, 0, factorial(n)):
        rows = np.arange(w.shape[0])
        asc = ascent_codes(w, signed=True).astype(np.int64)
        big = np.abs(w) >= n - 1
        i, j = np.argsort(~big, axis=1, kind="stable")[:, :2].T
        d9 = (w[rows, i] < 0) != (w[rows, j] < 0)
        l_idx = np.where(j - i > 1, 1, np.where(j < n - 1, 2, np.where(d9, 3, 4)))
        match = True  # the empty deleted word of n = 2
        if n >= 3:
            small = np.argsort(big, axis=1, kind="stable")[:, max(n - 4, 0):n - 2]
            w2_prev = w[rows, small[:, 0]] if n >= 4 else 0
            match = (w2_prev < w[rows, small[:, -1]]) == (asc >> (n - 1) & 1 == 1)
        k = 2 * l_idx - (match ^ (l_idx == 4))
        acc += np.bincount((2 * k - 2 + d9) << (n + 2) | asc << 2 | parity, minlength=acc.size)
    return acc.reshape(16, -1, 2, 2)
