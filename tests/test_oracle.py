"""The brute-force enumeration oracles and their internal consistency."""

import ast
from itertools import islice, permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylruns import oracle
from weylruns.errors import DomainError
from weylruns.oracle import (
    MAX_WORKERS,
    SignedDistributionRequest,
    build_T,
    class_poly_a,
    count_alternating,
    count_snakes,
    dist_runs,
    dist_runs_parity_split,
    family_poly,
    resolve_workers,
    scan_joint_a,
    scan_joint_b,
    scan_subsets,
    snake_subset_contribution,
    snake_subset_l,
    snake_words_b,
    subset_contribution_b,
    subset_contribution_d,
    subset_index_b,
    subset_index_d,
    t_contribution,
)
from weylruns.perm_core import (
    Permutation,
    SignedPermutation,
    classify_end_b,
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


def test_unsigned_distributions_match_printed_tables():
    assert dist_runs(SignedDistributionRequest("A", 4)) == UniPoly([0, 2, 12, 10])
    assert dist_runs(SignedDistributionRequest("A", 5)) == UniPoly([0, 2, 28, 58, 32])
    plus, minus = dist_runs_parity_split("A", 4)
    assert plus == UniPoly([0, 2, 4, 6])
    assert minus == UniPoly([0, 0, 8, 4])
    plus5, minus5 = dist_runs_parity_split("A", 5)
    assert plus5 == UniPoly([0, 2, 12, 30, 16])
    assert minus5 == UniPoly([0, 0, 16, 28, 16])


def test_signed_bivariate_examples():
    got = dist_runs(SignedDistributionRequest("A", 4, sign_statistic="inv_a"), "pq")
    assert got == BiPoly({(0, 0): 2, (1, 0): -2, (0, 1): -2, (1, 1): 2})
    assert dist_runs(SignedDistributionRequest("A", 2, sign_statistic="inv_a"), "pq").is_zero()


def test_parity_split_resums():
    for group, n in (("A", 5), ("B", 4), ("D", 4), ("B-D", 4)):
        plus, minus = dist_runs_parity_split(group, n)
        assert plus + minus == dist_runs(SignedDistributionRequest(group, n))


def test_request_validation():
    with pytest.raises(DomainError):
        SignedDistributionRequest("A", 4, sign_statistic="inv_b")
    with pytest.raises(DomainError):
        SignedDistributionRequest("D", 4, sign_statistic="inv_b")
    with pytest.raises(DomainError):
        SignedDistributionRequest("A", 4, first_letter_sign="positive")
    with pytest.raises(DomainError):
        SignedDistributionRequest("B", 4, end_restriction="aa")
    with pytest.raises(DomainError):
        SignedDistributionRequest("A", 1, end_restriction="aa")
    with pytest.raises(DomainError):
        dist_runs(SignedDistributionRequest("B", 4), "z")


def test_class_polynomials():
    assert class_poly_a(4, "ad") == BiPoly({(1, 0): -2})
    assert class_poly_a(4, "aa") == BiPoly({(0, 0): 1, (1, 1): 1})
    total = BiPoly.zero()
    for cls in ("aa", "ad", "da", "dd"):
        total = total + class_poly_a(5, cls)
    assert total == dist_runs(SignedDistributionRequest("A", 5, sign_statistic="inv_a"), "pq")
    with pytest.raises(DomainError):
        class_poly_a(1, "aa")


def test_counts_against_enumeration_caps():
    with pytest.raises(DomainError):
        dist_runs(SignedDistributionRequest("B", 10))
    with pytest.raises(DomainError):
        count_alternating("A", 0)


def test_caps_are_configurable():
    from weylruns.perm_core import set_enumeration_caps

    try:
        set_enumeration_caps(cap_b=3)
        with pytest.raises(DomainError):
            dist_runs(SignedDistributionRequest("B", 4))
    finally:
        set_enumeration_caps(cap_b=9)
    assert not dist_runs(SignedDistributionRequest("B", 4)).is_zero()


# ------------------------------------------- scans against the reference walk

@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_engines_agree_type_a(n):
    assert scan_joint_a(n) == reference.joint_a(n)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_engines_agree_type_b(n):
    assert scan_joint_b(n) == reference.joint_b(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_engines_agree_subsets(n):
    assert scan_subsets(n) == reference.subsets(n)


WORKERS = st.integers(1, 8)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 7), workers=WORKERS)
def test_scan_joint_a_matches_reference(n, workers):
    assert scan_joint_a(n, workers) == reference.joint_a(n)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 5), workers=WORKERS)
def test_scan_joint_b_matches_reference(n, workers):
    assert scan_joint_b(n, workers) == reference.joint_b(n)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), workers=WORKERS)
def test_scan_subsets_matches_reference(n, workers):
    assert scan_subsets(n, workers) == reference.subsets(n)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 5), workers=WORKERS)
def test_snake_words_match_reference(n, workers):
    assert snake_words_b(n, workers) == [w for w in iter_group("B", n) if is_snake_b(w)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 4), parity=st.sampled_from(["all", "plus", "minus"]),
       workers=WORKERS)
def test_snake_subset_contribution_matches_brute_force(n, k, parity, workers):
    oracle.clear_caches()
    want = sum(
        1 for w in reference.snake_words(n)
        if negatives(w) % 2 == 0 and snake_subset_l(w) == k
        and (parity == "all" or (inv_d(w) % 2 == 0) == (parity == "plus"))
    )
    assert snake_subset_contribution(n, k, parity, workers) == want


@pytest.mark.parametrize("group,n", [("A", 4), ("A", 8), ("B", 3), ("D", 3)])
def test_block_slices_cover(group, n):
    """Blocks over contiguous ambient index ranges concatenate to the group.

    At A n = 8 the inner cuts fall inside blocks of one unranked prefix.
    """
    total = factorial(n) if group == "A" else factorial(n) << n
    cuts = [0, total // 3 + 1, 2 * total // 3 - 1, total]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        blocks = oracle._perm_blocks(n, lo, hi, 5) if group == "A" else oracle._signed_blocks(n, lo, hi, 5)
        pieces.extend(tuple(w) for block in blocks for w in block.tolist())
    if group == "D":
        pieces = [w for w in pieces if negatives(w) % 2 == 0]
    assert pieces == list(iter_group(group, n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), ends=st.lists(st.integers(0, factorial(9)), min_size=2, max_size=2),
       chunk=st.integers(1, 6000))
@example(n=9, ends=[37 * factorial(7) + 11, factorial(9) - 3], chunk=4096)
@example(n=8, ends=[factorial(7) - 1, 3 * factorial(7) + 1], chunk=1)
def test_perm_blocks_seek_in_lexicographic_order(n, ends, chunk):
    """Any rank range unranks to the same rows as stepping through permutations."""
    lo, hi = sorted(e % (factorial(n) + 1) for e in ends)
    blocks = list(oracle._perm_blocks(n, lo, hi, chunk))
    assert all(0 < b.shape[0] <= chunk and b.dtype == np.int8 for b in blocks)
    got = np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int8)
    want = np.array(list(islice(permutations(range(1, n + 1)), lo, hi)), dtype=np.int8)
    assert np.array_equal(got, want.reshape(-1, n))


def test_perm_blocks_seek_to_the_end_of_s11():
    blocks = list(oracle._perm_blocks(11, factorial(11) - 5, factorial(11), 4096))
    top = (11, 10, 9, 8, 7, 6, 5, 4)
    want = [top + tail for tail in list(permutations((1, 2, 3)))[1:]]
    assert [tuple(w) for b in blocks for w in b.tolist()] == want


# ------------------------------------- statistics kernel against brute force

def _pairwise_parities(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inv_B mod 2, inv_D mod 2) of each row, by counting its pairs."""
    iu, ju = np.triu_indices(words.shape[1], 1)
    a, b = words[:, iu].astype(np.int64), words[:, ju].astype(np.int64)
    inv_d2 = ((a > b).sum(1) + (-a > b).sum(1)) & 1
    return (inv_d2 + (words < 0).sum(1)) & 1, inv_d2


def _factorized_parities(n: int, lo: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(inv_B mod 2, inv_D mod 2) of the B_n words at [lo, lo + rows), as the kernel reads them."""
    table = oracle._parity_table(n, lambda inv2, neg2: 2 * (inv2 ^ neg2) + inv2)
    bits = oracle._by_sign_parity(n, lo, rows, table)
    return bits >> 1, bits & 1


@pytest.mark.parametrize("n", range(1, 8))
def test_factorized_parities_match_pairwise_counts(n):
    """inv_D = inv(|w|) and inv_B = inv(|w|) + neg (mod 2) on all of B_n."""
    lo = 0
    for words in oracle._signed_blocks(n, 0, factorial(n) << n, 1 << 17):
        got = _factorized_parities(n, lo, words.shape[0])
        want = _pairwise_parities(words)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        lo += words.shape[0]
    assert lo == factorial(n) << n


def test_factorized_parities_match_perm_core():
    for n in range(1, 5):
        words = list(iter_group("B", n))
        invb2, invd2 = _factorized_parities(n, 0, len(words))
        assert invb2.tolist() == [inv_b(w) & 1 for w in words]
        assert invd2.tolist() == [inv_d(w) & 1 for w in words]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), ends=st.lists(st.integers(0, factorial(6) << 6), min_size=2, max_size=2))
def test_factorized_parities_over_any_range(n, ends):
    lo, hi = sorted(e % ((factorial(n) << n) + 1) for e in ends)
    words = list(oracle._signed_blocks(n, lo, hi, 1 << 17))
    words = np.concatenate(words) if words else np.empty((0, n), dtype=np.int8)
    got, want = _factorized_parities(n, lo, hi - lo), _pairwise_parities(words)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 10), at=st.integers(0, factorial(10)), rows=st.integers(1, 12000))
@example(n=8, at=factorial(7) - 7, rows=20)
@example(n=10, at=factorial(10) - 9000, rows=12000)
def test_suffix_table_parity_matches_pairwise_counts(n, at, rows):
    """Row parity xor prefix constant gives inv mod 2 on rank ranges of S_8..S_10."""
    lo = at % factorial(n)
    hi = min(lo + rows, factorial(n))
    words = np.concatenate(list(oracle._perm_blocks(n, lo, hi, 4096)))
    iu, ju = np.triu_indices(n, 1)
    want = (words[:, iu] > words[:, ju]).sum(1) & 1
    assert np.array_equal(oracle._inv_parity(n, lo, hi - lo), want)


def _word_with_ascents(bits, size: int) -> list[int]:
    """A permutation of 1..size whose i-th adjacent pair rises exactly when bits[i]."""
    word, run = [], [1]
    for i, rise in enumerate(bits):
        if rise:
            word += reversed(run)
            run = []
        run.append(i + 2)
    return word + run[::-1]


def _realise(code: int, n: int, signed: bool) -> tuple[int, ...]:
    """An n-letter word (signed: of B_n, read behind a 0 sentinel) with this ascent code."""
    nbits = n if signed else n - 1
    bits = [(code >> i) & 1 for i in range(nbits)]
    if not signed:
        return tuple(_word_with_ascents(bits, n))
    ext = _word_with_ascents(bits, n + 1)
    zero = ext[0]
    # letters above the sentinel become 1, 2, ..; those below become -n, -(n-1), ..
    return tuple(v - zero if v > zero else v - n - 1 for v in ext[1:])


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n", range(1, 10))
def test_code_tables_match_perm_core(n, signed):
    table = oracle._code_table(n, signed)
    words = [_realise(code, n, signed) for code in range(len(table[0]))]
    block = np.array(words, dtype=np.int8).reshape(len(words), n)
    assert oracle._ascent_codes(block, signed).tolist() == list(range(len(words)))
    for code, w in enumerate(words):
        if signed:
            SignedPermutation(w)
            peaks, valleys = peaks_valleys_b(w)
            first, last = w[0] > 0, classify_end_b(w) == "a"
        else:
            Permutation(w)
            peaks, valleys = peaks_valleys_a(w)
            first, last = (True, True) if n < 2 else (w[0] < w[1], w[-2] < w[-1])
        want = (len(peaks), len(valleys), int(first), int(last), int(is_alternating(w)))
        assert tuple(int(col[code]) for col in table) == want, (code, w)


# --------------------------------------------------------- worker splits

KERNELS = {
    "A": (oracle._scan_a_numpy, 1, 8, lambda n: factorial(n)),
    "B": (oracle._scan_b_numpy, 1, 5, lambda n: factorial(n) << n),
    "subsets": (oracle._subset_scan_numpy, 2, 5, lambda n: factorial(n) << n),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(KERNELS)), n=st.integers(1, 8),
       cuts=st.lists(st.integers(0, factorial(8)), max_size=6))
@example(kind="A", n=8, cuts=[13441, 26879])
@example(kind="B", n=5, cuts=[1, 1000, 2049])
@example(kind="subsets", n=5, cuts=[31, 32, 3000])
def test_partials_over_any_cuts_sum_to_the_whole(kind, n, cuts):
    kernel, n_min, n_max, size = KERNELS[kind]
    n = min(max(n, n_min), n_max)
    total = size(n)
    bounds = [0, *sorted(c % (total + 1) for c in cuts), total]
    parts = [kernel(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(sum(parts), kernel(n, 0, total))


def test_worker_count_does_not_change_tallies():
    assert len(oracle._ranges(factorial(8), 8, factorial(7))) == 8
    assert scan_joint_a(8, workers=1) == scan_joint_a(8, workers=8)
    assert scan_joint_a(7, workers=1) == scan_joint_a(7, workers=8)
    assert scan_joint_b(5, workers=1) == scan_joint_b(5, workers=8)
    assert scan_subsets(5, workers=1) == scan_subsets(5, workers=8)


def test_parts_are_never_below_one_block():
    assert oracle._ranges(100, 8, 30) == [(0, 34), (34, 67), (67, 100)]
    assert oracle._ranges(29, 8, 30) == [(0, 29)]
    assert oracle._ranges(5040, 2, 5040) == [(0, 5040)]


def test_scans_within_one_block_start_no_pool(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", no_pool)
    assert scan_joint_a(7, workers=8) == reference.joint_a(7)
    assert scan_joint_b(5, workers=8) == reference.joint_b(5)
    assert scan_subsets(5, workers=8) == reference.subsets(5)
    assert len(snake_words_b(5, workers=8)) == count_snakes("B", 5)


def test_worker_counts_are_validated_and_clamped(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(10**6) == MAX_WORKERS
    assert len(oracle._ranges(10**9, resolve_workers(10**6))) == MAX_WORKERS
    for bad in (0, -4, 2.5, "abc"):
        with pytest.raises(DomainError):
            resolve_workers(bad)
    monkeypatch.setenv("WEYLRUNS_THREADS", "abc")
    with pytest.raises(DomainError):
        resolve_workers(None)
    monkeypatch.setenv("WEYLRUNS_THREADS", "5")
    assert resolve_workers(None) == 5


def _package_imports(module: str) -> set[str]:
    """The weylruns modules that weylruns.<module> imports, read from its source."""
    tree = ast.parse(Path(oracle.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylruns."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("weylruns."))
    return found


def test_oracle_is_independent_of_the_closed_forms():
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    assert "perm_core" in seen
    assert not seen & {"closed_forms", "series", "verify"}


# ------------------------------------------------------------- subsets

def test_subset_index_examples():
    assert subset_index_b((4, 1, 2, 3, 5)) == 1  # far pair, deleted word matches the end
    assert subset_index_b((4, 1, 3, 2, 5)) == 2  # far pair, deleted word 1,3,2 ends in descent
    assert subset_index_b((1, 4, 5, 2, 3)) == 3  # adjacent pair away from the end
    assert subset_index_b((1, 2, 3, -5, 4)) == 5  # pair at the end, signs differ
    assert subset_index_b((1, 2, 3, 4, 5)) == 8  # the surviving subset
    assert subset_index_d((1, 2, 3, -5, 4)) == 9  # one large letter negative
    assert subset_index_d((1, 2, 3, 4, 5)) == 8
    with pytest.raises(DomainError):
        subset_index_b((1, 2))
    with pytest.raises(DomainError):
        subset_contribution_b(2, 1, "a")


def test_subsets_partition_the_group():
    n = 4
    for end in ("a", "d"):
        total = BiPoly.zero()
        for k in range(1, 9):
            total = total + subset_contribution_b(n, k, end)
        want = dist_runs(
            SignedDistributionRequest("B", n, sign_statistic="inv_b", end_restriction=end), "pq"
        )
        assert total == want
        d_total = BiPoly.zero()
        for k in range(1, 10):
            d_total = d_total + subset_contribution_d(n, k, end)
        d_want = dist_runs(
            SignedDistributionRequest("D", n, sign_statistic="inv_d", end_restriction=end), "pq"
        )
        assert d_total == d_want


def test_low_subsets_cancel():
    for n in (4, 5):
        for end in ("a", "d"):
            for k in range(1, 8):
                assert subset_contribution_b(n, k, end).is_zero()
                assert subset_contribution_d(n, k, end).is_zero()
            assert subset_contribution_d(n, 9, end).is_zero()


# -------------------------------------------------------------- T sets

def test_build_t_bases_and_growth():
    assert set(build_T(2, "a")) == {(1, 2), (-2, -1)}
    assert set(build_T(2, "d")) == {(2, 1), (-1, -2)}
    assert set(build_T(4, "a")) == {
        (1, 2, 3, 4), (1, 2, -4, -3), (-2, -1, 3, 4), (-2, -1, -4, -3),
    }
    for n in range(1, 9):
        assert len(build_T(n, "a")) == 2 ** (n // 2)


def test_t_carries_the_whole_signed_sum():
    for n in range(1, 7):
        for end in ("a", "d"):
            want = dist_runs(
                SignedDistributionRequest("B", n, sign_statistic="inv_b", end_restriction=end),
                "pq",
            )
            assert t_contribution(n, end, "B") == want
            d_want = dist_runs(
                SignedDistributionRequest("D", n, sign_statistic="inv_d", end_restriction=end),
                "pq",
            )
            assert t_contribution(n, end, "D") == d_want


def test_t_lives_inside_subset_eight():
    for n in (3, 4, 5, 6):
        for end in ("a", "d"):
            for w in build_T(n, end):
                assert subset_index_b(w) == 8


# ------------------------------------------------- alternating and snakes

def test_alternating_counts():
    assert count_alternating("A", 4) == 5
    diffs = {
        n: count_alternating("A", n, "plus") - count_alternating("A", n, "minus")
        for n in (4, 5, 6, 7)
    }
    assert diffs == {4: 1, 5: 0, 6: -1, 7: 0}
    # the type D alternating split is balanced at n = 2 (unlike the snake split)
    assert count_alternating("D", 2, "plus") == count_alternating("D", 2, "minus") == 1


def test_snake_counts():
    assert count_snakes("B", 3) == 11
    assert count_snakes("D+", 1) == 1
    assert count_snakes("D-", 2) == 1
    assert [count_snakes("B", n) for n in range(1, 6)] == [1, 3, 11, 57, 361]


def test_snake_words_and_subsets():
    words = snake_words_b(4)
    assert len(words) == count_snakes("B", 4)
    assert all(is_snake_b(w) for w in words)
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            assert snake_subset_contribution(n, k, "plus") == snake_subset_contribution(
                n, k, "minus"
            )
        both = sum(snake_subset_contribution(n, k, "all") for k in range(1, 5))
        assert both == count_snakes("D", n)
    small = [snake_subset_contribution(2, k, p) for k in range(1, 5) for p in ("all", "plus", "minus")]
    assert small == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]
    with pytest.raises(DomainError):
        snake_subset_contribution(1, 4)


def test_snake_subsets_read_the_cached_tally(monkeypatch):
    n = 5
    oracle._subset_scan(n)

    def no_scan(*_args):
        raise AssertionError("a scan started")

    monkeypatch.setattr(oracle, "_signed_blocks", no_scan)
    want = reference.subsets(n)
    for k in range(1, 5):
        for bit, parity in enumerate(("plus", "minus")):
            assert snake_subset_contribution(n, k, parity) == want.get(("L", k, bit), 0)
    d_snakes = sum(1 for w in reference.snake_words(n) if negatives(w) % 2 == 0)
    assert sum(snake_subset_contribution(n, k) for k in range(1, 5)) == d_snakes > 0


def test_snake_subset_l_membership():
    for w in snake_words_b(4):
        if negatives(w) % 2 == 0:
            assert snake_subset_l(w) in (1, 2, 3, 4)


# ------------------------------------------------------- family tokens

def test_family_tokens():
    assert family_poly("R", 4) == UniPoly([0, 2, 12, 10])
    assert family_poly("RB+", 2) + family_poly("RB-", 2) == family_poly("RB", 2)
    assert family_poly("RB>", 2) + family_poly("RB<", 2) == family_poly("RB", 2)
    assert family_poly("RD", 3) + family_poly("RB-D", 3) == family_poly("RB", 3)
    with pytest.raises(DomainError):
        family_poly("bogus", 3)
