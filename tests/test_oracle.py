"""The brute-force enumeration oracles and their internal consistency."""

import ast
import copy
import dataclasses
import functools
import hashlib
import inspect
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import islice, permutations, product
from math import factorial
from pathlib import Path

import direct_walk
import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylruns import cli, oracle, perm_core, verify
from weylruns.errors import DomainError
from weylruns.oracle import (
    MAX_WORKERS,
    SIGN_STATISTICS,
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
    signed_uni,
    snake_subset_contribution,
    snake_subset_l,
    subset_contribution_b,
    subset_contribution_d,
    subset_index_b,
    subset_index_d,
    t_contribution,
)
from weylruns.perm_core import (
    SNAKE_FAMILIES,
    Permutation,
    SignedPermutation,
    classify_end_b,
    inv_b,
    inv_d,
    is_alternating,
    iter_group,
    negatives,
    peaks_valleys_a,
    peaks_valleys_b,
    set_enumeration_caps,
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


@pytest.mark.parametrize("n", [1, 2, 3.0])
def test_the_request_table_agrees_with_the_full_validation(monkeypatch, n):
    """A request that the table of canonical fields accepts equals the one the
    full validation builds, and any other goes through that validation: the
    same repr and hash, or the same refusal, with the table emptied."""
    groups = ("A", "B", "D", "B-D", "a", "b-d", "bmd", "B_MINUS_D", None, 3)
    ends = (None, "a", "d", "aa", "ad", "da", "dd", "x")
    combos = list(product(groups, SIGN_STATISTICS + ("x",), ends, (None, "positive", "negative", "x")))

    def build(group, *fields):
        try:
            req = SignedDistributionRequest(group, n, *fields)
        except DomainError as err:
            return str(err)
        return repr(req), hash(req)

    requests = oracle._REQUESTS
    table = [build(*fields) for fields in combos]
    monkeypatch.setattr(oracle, "_REQUESTS", frozenset())
    assert [build(*fields) for fields in combos] == table
    # the table holds exactly the accepted canonical fields, A's end classes from n = 2
    accepted = {fields for fields, got in zip(combos, table) if type(got) is tuple and fields[0] in perm_core.GROUPS}
    want = set() if n == 3.0 else {f for f in requests if n > 1 or f[0] != "A" or f[2] is None}
    assert accepted == want


_REQUEST_FIELDS = [("group", str, dataclasses.MISSING), ("n", int, dataclasses.MISSING),
                   ("sign_statistic", str, "none"), ("end_restriction", "str | None", None),
                   ("first_letter_sign", "str | None", None)]


def test_the_request_keeps_its_dataclass_contract():
    """Fields, signature, replace, frozenness, equality, hash, repr, pickling
    and deep copies are those of a generated frozen dataclass."""
    # the generated frozen dataclass of the same fields, with no validation
    plain_request = dataclasses.make_dataclass(
        "SignedDistributionRequest",
        [field[:2] if field[2] is dataclasses.MISSING else field for field in _REQUEST_FIELDS], frozen=True)
    fields = dataclasses.fields(SignedDistributionRequest)
    assert [(f.name, f.default) for f in fields] == [(name, default) for name, _, default in _REQUEST_FIELDS]
    assert dataclasses.is_dataclass(SignedDistributionRequest)
    params = inspect.signature(SignedDistributionRequest).parameters.values()
    empty = {dataclasses.MISSING: inspect.Parameter.empty}
    assert [(p.name, p.default) for p in params] == [(name, empty.get(default, default))
                                                     for name, _, default in _REQUEST_FIELDS]
    assert SignedDistributionRequest.__match_args__ == tuple(name for name, _, _ in _REQUEST_FIELDS)

    requests = [SignedDistributionRequest(*args) for args in (
        ("A", 4), ("A", 4, "inv_a", "ad"), ("B", 4, "inv_b", "a", "positive"), ("B-D", 3, "none", None, "negative"))]
    for req in requests:
        plain = plain_request(*(getattr(req, name) for name, _, _ in _REQUEST_FIELDS))
        assert repr(req) == repr(plain) and hash(req) == hash(plain)
        assert req == SignedDistributionRequest(**dataclasses.asdict(req)) and req != plain
        for twin in (pickle.loads(pickle.dumps(req)), copy.deepcopy(req), copy.copy(req)):
            assert type(twin) is SignedDistributionRequest and twin == req and hash(twin) == hash(req)
        for name, _, _ in _REQUEST_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(req, name, "B")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(req, name)
    assert len(set(requests + [copy.deepcopy(r) for r in requests])) == len(requests)

    # replace builds through the same validation
    req = requests[2]
    assert dataclasses.replace(req, n=5) == SignedDistributionRequest("B", 5, "inv_b", "a", "positive")
    assert dataclasses.replace(req, group="d", sign_statistic="inv_d").group == "D"
    with pytest.raises(DomainError, match="incompatible with group A"):
        dataclasses.replace(req, group="A")


@pytest.mark.parametrize("alias, group", [("a", "A"), ("b", "B"), ("d", "D"), ("b-d", "B-D"), ("bmd", "B-D"),
                                          ("B_MINUS_D", "B-D"), ("bminusd", "B-D")])
def test_a_request_normalizes_an_alias_group(alias, group):
    req = SignedDistributionRequest(alias, 4)
    assert req.group == group and req == SignedDistributionRequest(group, 4)
    assert hash(req) == hash(SignedDistributionRequest(group, 4))
    assert repr(req).startswith(f"SignedDistributionRequest(group={group!r}")


def test_a_canonical_request_is_not_validated_again(monkeypatch):
    """Building a request from canonical fields reads the table of them and
    calls none of the validators; an alias group goes through them."""
    reached = set()

    def spy(name, fn):
        def call(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return call

    for name in ("normalize_group", "check_integer", "_check_n"):
        monkeypatch.setattr(oracle, name, spy(name, getattr(oracle, name)))
    for n in (1, 2, 4):
        for group, sign, end, first in oracle._REQUESTS:
            if n > 1 or group != "A" or end is None:
                SignedDistributionRequest(group, n, sign, end, first)
                SignedDistributionRequest(group, n, sign_statistic=sign, end_restriction=end, first_letter_sign=first)
    assert not reached
    SignedDistributionRequest("b", 4)
    assert reached == {"normalize_group", "check_integer"}


# (field, bad value, start of the refusal)
_BAD_FIELDS = [
    ("group", np.array(["A", "B"]), "unknown group array("),
    ("group", ["B"], "unknown group ['B']"),
    ("n", np.array([3, 4]), "n must be an integer, got array("),
    ("n", np.array(4), "n must be an integer, got array(4)"),
    ("sign_statistic", np.array(["none", "inv_b"]), "unknown sign statistic array("),
    ("sign_statistic", ["none"], "unknown sign statistic ['none']"),
    ("end_restriction", np.array(["a", "d"]), "type B/D end restriction must be 'a' or 'd'"),
    ("end_restriction", ["a"], "type B/D end restriction must be 'a' or 'd'"),
    ("first_letter_sign", np.array(["positive", "negative"]), "first letter sign must be"),
    ("first_letter_sign", ["positive"], "first letter sign must be"),
]


@pytest.mark.parametrize("field, bad, message", _BAD_FIELDS, ids=[f"{f[0]}={f[1]!r}" for f in _BAD_FIELDS])
@pytest.mark.parametrize("n", [1, 4])
def test_a_request_refuses_an_array_or_list_field(field, bad, message, n):
    fields = {"group": "B", "n": n, field: bad}
    with pytest.raises(DomainError) as info:
        SignedDistributionRequest(**fields)
    assert str(info.value).startswith(message)
    if field not in ("group", "n"):  # an A request compares the end and the first letter too
        with pytest.raises(DomainError):
            SignedDistributionRequest(**{**fields, "group": "A"})


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

@pytest.mark.parametrize("n", range(1, 8))
def test_scan_joint_a_matches_reference(n):
    assert np.array_equal(scan_joint_a(n), reference.joint_a(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_scan_joint_b_matches_reference(n):
    assert np.array_equal(scan_joint_b(n), reference.joint_b(n))


@pytest.mark.parametrize("n", range(2, 6))
def test_scan_subsets_matches_reference(n):
    assert np.array_equal(scan_subsets(n), reference.subsets(n))


def _signed_words(n: int, lo: int, hi: int) -> np.ndarray:
    """The B_n words whose |w| has an S_n rank in [lo, hi), in contract order."""
    blocks = [words for words, _ in direct_walk.signed_blocks(n, lo, hi)]
    return np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int8)


def test_snake_words_match_reference():
    """The snake codes of the signed code table, which the snake counts and
    the subset tally read, pick out exactly the snakes of B_1..B_5, in order,
    whichever S_n rank the sign crossing is cut at."""
    for n in range(1, 6):
        _, _, first, _, alt = oracle._code_table(n, True)
        cut = factorial(n) // 3
        words = np.concatenate([_signed_words(n, 0, cut), _signed_words(n, cut, factorial(n))])
        snakes = words[(first & alt).astype(bool)[direct_walk.ascent_codes(words, signed=True)]]
        assert list(map(tuple, snakes.tolist())) == reference.snake_words(n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 4), parity=st.sampled_from(["all", "plus", "minus"]))
def test_snake_subset_contribution_matches_brute_force(n, k, parity):
    oracle.clear_caches()
    want = sum(
        1 for w in reference.snake_words(n)
        if negatives(w) % 2 == 0 and snake_subset_l(w) == k
        and (parity == "all" or (inv_d(w) % 2 == 0) == (parity == "plus"))
    )
    assert snake_subset_contribution(n, k, parity) == want


@pytest.mark.parametrize("group,n", [("A", 4), ("A", 8), ("B", 3), ("D", 3)])
def test_block_slices_cover(group, n):
    """Blocks over contiguous S_n rank ranges concatenate to the group; for
    B and D each block of permutations is crossed with its sign masks.

    At A n = 8 the inner cuts fall inside blocks of one unranked prefix.
    """
    total = factorial(n)
    cuts = [0, total // 3 + 1, 2 * total // 3 - 1, total]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        blocks = perm_core.perm_blocks(n, lo, hi, 5)
        if group != "A":
            blocks = map(perm_core.cross_signs, blocks)
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
    """Any rank range unranks to the same rows as stepping through permutations.
    A range is cut to 64 blocks, so a small chunk draws a short range."""
    lo, hi = sorted(e % (factorial(n) + 1) for e in ends)
    hi = min(hi, lo + 64 * chunk)
    blocks = list(perm_core.perm_blocks(n, lo, hi, chunk))
    assert all(0 < b.shape[0] <= chunk and b.dtype == np.int8 for b in blocks)
    got = np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int8)
    want = np.array(list(islice(permutations(range(1, n + 1)), lo, hi)), dtype=np.int8)
    assert np.array_equal(got, want.reshape(-1, n))


def test_perm_blocks_seek_to_the_end_of_s11():
    blocks = list(perm_core.perm_blocks(11, factorial(11) - 5, factorial(11), 4096))
    top = (11, 10, 9, 8, 7, 6, 5, 4)
    want = [top + tail for tail in list(permutations((1, 2, 3)))[1:]]
    assert [tuple(w) for b in blocks for w in b.tolist()] == want


def _column_major(words: np.ndarray) -> bool:
    """Whether an (M, n) block is the transpose of an (n, M) buffer, so the
    (n, M) layout that direct_walk.ascent_codes reads is that buffer and no
    copy."""
    return np.shares_memory(np.ascontiguousarray(words.T), words)


def test_kernel_blocks_are_column_major_in_contract_order(monkeypatch):
    """Every block of perm_core.perm_blocks and of its sign crossings is
    column-major, and the crossings keep the contract order of B_n.  The
    perm_blocks ranges start and end inside a suffix table, the S_8 one in
    the next table; walk_b, which reads perm_core.cross_signs, crosses every
    word of B_1..B_6 in that order, and its walk of B_7 ranks [100, 4000)
    crosses all of their words."""
    for n, lo, hi in ((3, 1, 5), (7, 100, 4000), (8, 5000, 5100)):
        for block in perm_core.perm_blocks(n, lo, hi, 37):
            for words in (block, perm_core.cross_signs(block)):
                assert _column_major(words), (n, words.shape)
    for n in range(1, 7):
        crossed = [w for b in perm_core.perm_blocks(n, 0, factorial(n), 7)
                   for w in perm_core.cross_signs(b).tolist()]
        assert list(map(tuple, crossed)) == list(iter_group("B", n))
    cross, walked = perm_core.cross_signs, []

    def spy(perms):
        words = cross(perms)
        assert _column_major(perms) and _column_major(words), (perms.shape, words.shape)
        walked.extend(map(tuple, words.tolist()))
        return words

    monkeypatch.setattr(perm_core, "cross_signs", spy)
    for n in range(1, 7):
        walked.clear()
        direct_walk.walk_b(n, 0, factorial(n))
        assert walked == list(iter_group("B", n))
    walked.clear()
    direct_walk.walk_b(7, 100, 4000)
    assert len(walked) == 3900 << 7


# ------------------------------------- statistics kernel against brute force

def _pairwise_parities(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inv_B mod 2, inv_D mod 2) of each row, by counting its pairs."""
    iu, ju = np.triu_indices(words.shape[1], 1)
    a, b = words[:, iu].astype(np.int64), words[:, ju].astype(np.int64)
    inv_d2 = ((a > b).sum(1) + (-a > b).sum(1)) & 1
    return (inv_d2 + (words < 0).sum(1)) & 1, inv_d2


def _factorized_parities(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inv_B mod 2, inv_D mod 2) from the kernel's bits 2 * inv(|w|) + neg (mod 2)."""
    inv2, neg2 = bits >> 1, bits & 1
    return inv2 ^ neg2, inv2


@pytest.mark.parametrize("n", range(1, 8))
def test_factorized_parities_match_pairwise_counts(n):
    """inv_D = inv(|w|) and inv_B = inv(|w|) + neg (mod 2) on all of B_n."""
    seen = 0
    for words, bits in direct_walk.signed_blocks(n, 0, factorial(n)):
        got = _factorized_parities(bits)
        want = _pairwise_parities(words)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        seen += words.shape[0]
    assert seen == factorial(n) << n


def test_factorized_parities_match_perm_core():
    for n in range(1, 5):
        words = list(iter_group("B", n))
        invb2, invd2 = _factorized_parities(np.concatenate(
            [bits for _, bits in direct_walk.signed_blocks(n, 0, factorial(n))]))
        assert invb2.tolist() == [inv_b(w) & 1 for w in words]
        assert invd2.tolist() == [inv_d(w) & 1 for w in words]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), ends=st.lists(st.integers(0, factorial(6)), min_size=2, max_size=2))
def test_factorized_parities_over_any_range(n, ends):
    """The parities hold over any S_n rank range: its prefix constants and
    suffix-table rows are read from its first rank on."""
    lo, hi = sorted(e % (factorial(n) + 1) for e in ends)
    blocks = list(direct_walk.signed_blocks(n, lo, hi))
    bits = np.concatenate([b for _, b in blocks]) if blocks else np.empty(0, dtype=np.uint8)
    got, want = _factorized_parities(bits), _pairwise_parities(_signed_words(n, lo, hi))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 10), at=st.integers(0, factorial(10)), rows=st.integers(1, 12000))
@example(n=8, at=factorial(7) - 7, rows=20)
@example(n=10, at=factorial(10) - 9000, rows=12000)
def test_rank_digit_parity_matches_pairwise_counts(n, at, rows):
    """The parity of a rank's factorial digits, which the direct walks read,
    is inv mod 2 of its word on rank ranges of S_8..S_10."""
    lo = at % factorial(n)
    hi = min(lo + rows, factorial(n))
    words = np.concatenate(list(perm_core.perm_blocks(n, lo, hi, 4096)))
    iu, ju = np.triu_indices(n, 1)
    want = (words[:, iu] > words[:, ju]).sum(1) & 1
    assert np.array_equal(direct_walk.digit_parity(np.arange(lo, hi), range(1, n + 1)), want)


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
    assert direct_walk.ascent_codes(block, signed).tolist() == list(range(len(words)))
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


# ------------------------------------------- the A tally by insertion

def _a_tallies_match() -> bool:
    """Whether the S_1..S_7 tallies that a cold S_7 query stores, each
    inserted into the stored tally below, equal the reference walk."""
    oracle.clear_caches()
    count_alternating("A", 7)
    return all(np.array_equal(oracle._TALLIES["A", n][0], reference.joint_a(n)) for n in range(1, 8))


def test_a_insertion_matches_the_reference(cold_caches):
    assert _a_tallies_match()


@pytest.mark.parametrize("letters", [1, 2, 3, 4])
def test_short_suffix_tables_match_the_reference(monkeypatch, letters):
    """With a `letters`-letter suffix table, so that each rank of S_n has an
    (n - letters)-letter unranked prefix, the direct walk of S_1..S_7 equals
    the reference walk."""
    monkeypatch.setattr(perm_core, "SUFFIX_LETTERS", letters)
    for n in range(1, 8):
        assert np.array_equal(direct_walk.walk_a(n, 0, factorial(n)), reference.joint_a(n)), n


def test_b_fills_build_their_index_before_the_a_fills(cold_caches, monkeypatch):
    """The A fill shares _insert_top and the _top_plan cache with the B
    fills.  With a fresh plan cache, B_n is filled before S_n at each n <= 6,
    so each n builds its signed plan before the unsigned one, and the stored
    B tallies sit beside the A ones; S_1..S_7 still equal the A reference.
    (_a_tallies_match, from a fresh cache, builds them the other way round.)"""
    monkeypatch.setattr(oracle, "_top_plan", functools.cache(oracle._top_plan.__wrapped__))
    for n in range(1, 8):
        if n < 7:
            count_alternating("B", n)
        assert np.array_equal(scan_joint_a(n), reference.joint_a(n))
    assert {key for key in oracle._TALLIES if key[0] == "B"} == {("B", k) for k in range(1, 7)}


def test_a_fills_read_the_stored_tally_below(cold_caches, monkeypatch):
    """From cold, an S_9 query fills each of S_1..S_9 once and stores them
    all; with S_8 stored, an S_9 fill reads the stored S_8 tally and fills
    nothing else."""
    fills, scan = [], oracle.scan_joint_a
    reads, tally = [], oracle._tally

    def spy_fill(n):
        fills.append(n)
        return scan(n)

    def spy_read(kind, n):
        reads.append((kind, n))
        return tally(kind, n)

    monkeypatch.setattr(oracle, "scan_joint_a", spy_fill)
    monkeypatch.setattr(oracle, "_tally", spy_read)
    count_alternating("A", 9)
    assert sorted(fills) == list(range(1, 10))
    assert {key for key in oracle._TALLIES if key[0] == "A"} == {("A", k) for k in range(1, 10)}
    fills.clear()
    reads.clear()
    oracle._TALLIES["A", 8][0][...] = 0  # so a fill that reads S_8 from the store counts nothing
    assert not oracle.scan_joint_a(9).any()
    assert fills == [9] and reads == [("A", 8)]


def test_a_kernel_matches_the_word_walk(cold_caches):
    """The S_8 tally, inserted from cold, equals the word-by-word walk of
    all of S_8."""
    assert np.array_equal(scan_joint_a(8), direct_walk.walk_a(8, 0, factorial(8)))


# ------------------------------------------- the B tally by insertion

def _b_tallies_match() -> bool:
    """Whether the B_1..B_6 tallies that a cold B_6 query stores, each
    inserted into the stored tally below from the empty word up, equal the
    reference walk."""
    oracle.clear_caches()
    count_alternating("B", 6)
    return all(np.array_equal(oracle._TALLIES["B", n][0], reference.joint_b(n)) for n in range(1, 7))


def test_b_insertion_matches_the_reference(cold_caches):
    assert _b_tallies_match()


@pytest.mark.parametrize("letters", [1, 2, 3, 4])
def test_short_suffix_tables_match_the_b_reference(monkeypatch, letters):
    """Through a `letters`-letter suffix table, the direct walk of B_1..B_6
    equals the reference walk, and cor-inv-bd's length tally puts all |B_n|
    words at d = 0."""
    monkeypatch.setattr(perm_core, "SUFFIX_LETTERS", letters)
    for n in range(1, 7):
        assert np.array_equal(direct_walk.walk_b(n, 0, factorial(n)), reference.joint_b(n)), n
        tally = verify._length_defects(n)
        assert tally[n * n] == tally.sum() == factorial(n) << n, n


def test_b_tally_matches_the_direct_walk_at_b8(cold_caches):
    """scan_joint_b(7) and scan_joint_b(8), inserted from the empty word,
    equal the word-by-word walks of all of B_7 and B_8, each filled from
    cold."""
    for n in (7, 8):
        oracle.clear_caches()
        assert np.array_equal(scan_joint_b(n), direct_walk.walk_b(n, 0, factorial(n))), n


def test_b_fills_read_the_stored_tally_below(cold_caches, monkeypatch, capsys):
    """From cold, a B_9 fill inserts each of B_1..B_9 once and stores
    B_1..B_8; with B_8 stored, a B_9 fill reads the stored B_8 tally and
    fills nothing else; and a cold `verify --theorem all` inserts each B_n
    it reads once, from B_1 up."""
    fills, insert = [], oracle._insert_top
    reads, tally = [], oracle._tally

    def spy_fill(kind, n):
        fills.append((kind, n))
        return insert(kind, n)

    def spy_read(kind, n):
        reads.append((kind, n))
        return tally(kind, n)

    monkeypatch.setattr(oracle, "_insert_top", spy_fill)
    scan_joint_b(9)
    assert sorted(fills) == [("B", k) for k in range(1, 10)]
    assert {key for key in oracle._TALLIES if key[0] == "B"} == {("B", k) for k in range(1, 9)}
    monkeypatch.setattr(oracle, "_tally", spy_read)
    fills.clear()
    oracle._TALLIES["B", 8][0][...] = 0  # so a fill that reads B_8 from the store counts nothing
    assert not scan_joint_b(9).any()
    assert fills == [("B", 9)] and reads == [("B", 8)]
    monkeypatch.setattr(oracle, "_tally", tally)
    oracle.clear_caches()
    fills.clear()
    assert cli.main(["verify", "--theorem", "all", "--threads", "1"]) == 0
    capsys.readouterr()
    b_fills = [n for kind, n in fills if kind == "B"]
    assert sorted(b_fills) == list(range(1, max(b_fills) + 1))


# ------------------------------------------- the segment sum

@pytest.mark.parametrize("kind", ["A", "B"])
def test_the_insertion_step_equals_the_scatter(cold_caches, kind):
    """At every n up to the kind's cap, _insert_top equals np.add.at of the
    stored tally below (the empty word's at B_1) through _top_index."""
    signed = kind == "B"
    for n in range(1 if signed else 2, (perm_core.CAP_B if signed else perm_core.CAP_A) + 1):
        small = oracle._tally(kind, n - 1)[0] if n > 1 else oracle._EMPTY_WORD
        want = np.zeros(2 * small.size, dtype=np.int64)
        np.add.at(want, oracle._top_index(n, signed), small[:, None])
        got = oracle._insert_top(kind, n)
        assert got.dtype == np.int64 and np.array_equal(got.reshape(-1), want), (kind, n)


def test_a_segment_sum_leaves_an_unhit_cell_zero():
    """Cells 2 and 4 get no source, so they read 0 (np.add.reduceat would
    not give 0 for an empty segment), and the rest equal np.add.at."""
    target, values = np.array([[3, 0], [3, 1]]), np.array([5, 7, 11, 13])
    plan = oracle._segments(target, np.arange(4).reshape(2, 2))
    want = np.zeros(5, dtype=np.int64)
    np.add.at(want, target.reshape(-1), values)
    assert oracle._segment_sum(plan, values, 5).tolist() == want.tolist() == [7, 13, 0, 16, 0]


def test_a_segment_sum_over_wide_targets_equals_the_scatter():
    """Targets from 2^16 up, which only caps raised to B_15 or S_17 reach,
    are not sorted as uint16; the sums still equal np.add.at."""
    rng = np.random.default_rng(7)
    target, values = rng.integers(0, 1 << 17, 5000), rng.integers(-9, 9, 5000)
    want = np.zeros(1 << 17, dtype=np.int64)
    np.add.at(want, target, values)
    got = oracle._segment_sum(oracle._segments(target, np.arange(5000)), values, 1 << 17)
    assert np.array_equal(got, want) and target.max() >= 1 << 16


def _marginal_by_codes(counts, n, signed, weight, filters, biv):
    """_marginal as a loop over the codes of a raw tally: each kept code's
    counts, summed under the weight, go to its (pk, val) or its t^(pk+val+1)."""
    pk, val, *cols = (col.tolist() for col in oracle._code_table(n, signed))
    acc = {}
    for code, row in enumerate(counts.reshape(len(pk), -1).tolist()):
        if all(value is None or col[code] == (value == one) for col, (value, one) in zip(cols, filters)):
            key = (pk[code], val[code]) if biv else pk[code] + val[code] + 1
            acc[key] = acc.get(key, 0) + sum(w * c for w, c in zip(weight, row))
    return BiPoly(acc) if biv else UniPoly.from_dict(acc)


def _cells_by_rule(group, sign, parity):
    """The weight of each parity cell of the A tally (inv) or the B tally
    (inv(|w|), neg), from the definitions: inv_A = inv, inv_D = inv(|w|) and
    inv_B = inv(|w|) + neg (mod 2); D_n holds the words of even neg, B_n - D_n
    those of odd neg; the parity half is of the group's own length."""
    cells = []
    for inv, neg in product((0, 1), (0,) if group == "A" else (0, 1)):
        lengths = {"inv_a": inv, "inv_b": (inv + neg) % 2, "inv_d": inv}
        own = lengths["inv_a" if group == "A" else "inv_b" if group == "B" else "inv_d"]
        member = group in ("A", "B") or neg == (group == "B-D")
        half = parity is None or own == ("plus", "minus").index(parity)
        cells.append(member * half * (-1) ** (lengths[sign] if sign else 0))
    return cells


@pytest.mark.parametrize("kind, n", [("A", 11), ("B", 9)])
def test_marginals_match_a_sum_over_codes(cold_caches, monkeypatch, kind, n):
    """On the class tables stored with the S_11 and B_9 tallies, every
    weight that _sum builds for its group gives the same polynomial as a loop
    over the raw tally's codes under its filters and its cells' weights by
    the definitions, and an all-zero weight gives the zero polynomial."""
    count_alternating(kind, n)
    counts, answers = oracle._TALLIES[kind, n]
    classes, built, weight = answers["classes"], [], oracle._weight

    def spy(*args):
        built.append(args)
        return weight(*args)

    monkeypatch.setattr(oracle, "_weight", spy)
    parities = (None, "plus", "minus")
    groups, signs, firsts = (("A",), (None, "inv_a"), ("a", "d")) if kind == "A" else (
        ("B", "D", "B-D"), (None, "inv_b", "inv_d"), ("positive", "negative"))
    for group, sign, parity, first, last, alternating in product(
            groups, signs, parities, (None, *firsts), (None, "a", "d"), (None, True)):
        oracle._sum(classes, group, biv=True, sign=sign, first=first, last=last, alternating=alternating,
                    parity=parity)
    assert len(built) == (108 if kind == "A" else 486)
    for args in built:
        group, sign, parity, filters, _ = args
        for biv in (True, False):
            want = _marginal_by_codes(counts, n, kind == "B", _cells_by_rule(group, sign, parity), filters, biv)
            assert oracle._marginal(classes, biv, weight(*args)) == want, (args, biv)
            assert oracle._marginal(classes, biv, 0 * weight(*args)) == (BiPoly() if biv else UniPoly())


def _subset_answers_by_cells(counts, n):
    """Every subset answer of B_n as a loop over the codes and labels of its
    subset tally counts[2(k - 1) + d9, c, inv(|w|), neg]: the inv_B-signed
    (pk, val) sums of type B subset k by end class, keyed ("B", k, end); the
    inv_D-signed ones over D_n, with k read as 9 when d9 is set, keyed
    ("D", k, end); and the counts of the snakes of D_n (positive first
    letter, alternating) in staircase subset L = ceil(k / 2), keyed
    ("L", L, parity) for parity all and for their inv_D half."""
    pk, val, first, last, alt = (col.tolist() for col in oracle._code_table(n, True))
    want = {}
    for (label, c, inv, neg), count in zip(np.ndindex(counts.shape), counts.ravel().tolist()):
        k, d9, end, key = label // 2 + 1, label % 2, "a" if last[c] else "d", (pk[c], val[c])
        terms = want.setdefault(("B", k, end), {})
        terms[key] = terms.get(key, 0) + (-1) ** (inv ^ neg) * count
        if neg == 0:
            terms = want.setdefault(("D", 9 if d9 else k, end), {})
            terms[key] = terms.get(key, 0) + (-1) ** inv * count
            if first[c] and alt[c]:
                for parity in ("all", ("plus", "minus")[inv]):
                    want[("L", (k + 1) // 2, parity)] = want.get(("L", (k + 1) // 2, parity), 0) + count
    return want


def test_subset_marginals_match_a_sum_over_labelled_cells(cold_caches):
    """At B_7, every label set that the public subset calls read (type B
    k = 1..8 and type D k = 1..9 at both ends, snakes L = 1..4 at every
    parity), folded into the weight of one class table, gives what a loop
    over the codes and labels of scan_subsets(7) gives."""
    n = 7
    want = _subset_answers_by_cells(scan_subsets(n), n)
    oracle.clear_caches()
    got = {("B", k, end): subset_contribution_b(n, k, end) for k, end in product(range(1, 9), "ad")}
    got |= {("D", k, end): subset_contribution_d(n, k, end) for k, end in product(range(1, 10), "ad")}
    got |= {("L", k, parity): snake_subset_contribution(n, k, parity)
            for k, parity in product(range(1, 5), ("all", "plus", "minus"))}
    assert set(want) <= set(got)
    for key, value in got.items():
        assert value == (want.get(key, 0) if key[0] == "L" else BiPoly(want.get(key, {}))), key
    assert all(any(value for key, value in got.items() if key[0] == side) for side in "BDL")


def test_cached_plans_tables_and_weights_are_read_only(cold_caches):
    """The functools-cached arrays (the insertion, subset and class plans,
    the class fold and the marginal weights) and a tally's
    stored class table refuse a write, and the class plan's keys are a
    tuple; so after the attempts and clear_caches, S_5's run polynomial is
    unchanged."""
    want = UniPoly([0, 2, 28, 58, 32])
    assert dist_runs(SignedDistributionRequest("A", 5)) == want
    plan, keys, fold, _ = oracle._class_plan("A", 5)
    weight = oracle._weight("A", None, None, ((None, "a"), (None, "a"), (None, True)), None)
    plans = oracle._top_plan(5, False), oracle._top_plan(5, True), oracle._subset_plan(5), plan
    arrays = [fold, weight, oracle._TALLIES["A", 5][1]["classes"][0]]
    arrays += [array for segments in plans for array in segments]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0
    assert type(keys) is tuple
    oracle.clear_caches()
    assert dist_runs(SignedDistributionRequest("A", 5)) == want


def test_a_cold_verify_builds_one_class_plan_per_tally_it_reads(cold_caches, monkeypatch):
    """From cold, with an empty class plan cache, `run_checks("all")` builds
    one class plan per (kind, n) whose class table it reads, and no more."""
    built, build = [], oracle._class_plan.__wrapped__

    def plan(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_class_plan", functools.cache(plan))
    assert verify.run_checks("all").ok
    read = [key for key, (_, answers) in oracle._TALLIES.items() if "classes" in answers]
    assert read and sorted(built) == sorted(read)


# --------------------------------------------------------- worker splits

@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), cuts=st.lists(st.integers(0, factorial(5)), max_size=6))
@example(n=5, cuts=[1, 31, 64])
def test_partials_over_any_cuts_sum_to_the_whole(n, cuts):
    """The direct B walk's partials over any cut of the S_n ranks sum to
    the inserted tally."""
    total = factorial(n)
    bounds = [0, *sorted(c % (total + 1) for c in cuts), total]
    parts = [direct_walk.walk_b(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(sum(parts), scan_joint_b(n))


# md5 of the raw tallies' bytes, taken from the walk with row-major blocks;
# S_11's from the A word walk with column-major blocks, and B_9's from the B
# word walk of every signed word at 1 and 2 workers
TALLY_MD5 = {
    "A": ["076933ff9904d1110d896e2c525e39e5", "a410e51dfd02c8cb9ca11803914f068a",
          "4b7565ddc681658dae8a2c1b4ee6c66e", "804b2f74db30ce0797eab16da5d6a57c",
          "e6d1bc0c27c6a30683902cf025778aa7", "37b40125e21f9e5e90a80fc6454289a5",
          "0931aa142cf091d9ef14523cf44f7094", "dd63e06910f416b66d77a1c763ae9b83",
          "94aa633d148ec89577181aabb400d064", "768fc1842b1d2464918c7b8bde305a70",
          "400ceee6b8cca0b49094db0a15442049"],
    "B": ["718b1f13b1a1ab2b4006e1b8f87e3b87", "7b6e993ef4858b34404084e5c56100f8",
          "e6f82fbab01fea832a494bd7d45edca2", "a435eb910ded28e732da55f88b78fe4a",
          "16ac578279aa8b24def2ec1d31fd19ea", "21ef49d1e108e2af7cb35b19effb34c7",
          "31871d254d40f17a560cb8c1121e6fde", "fccff9784620c390fa9a1dfc8c8e318a",
          "b11e747b074c9c0e8d906ece6314a20d"],
}


def test_raw_tallies_keep_their_digests(cold_caches):
    """The S_1..S_11 and B_1..B_9 tallies that cold S_11 and B_9 queries
    store, byte for byte, beyond the reference walks' S_7 and B_6."""
    for kind, shape in (("A", lambda n: (1 << max(n - 1, 0), 2)), ("B", lambda n: (1 << n, 2, 2))):
        count_alternating(kind, len(TALLY_MD5[kind]))
        for n, want in enumerate(TALLY_MD5[kind], 1):
            tally = oracle._TALLIES[kind, n][0]
            assert tally.dtype == np.dtype("<i8") and tally.shape == shape(n), (kind, n)
            assert hashlib.md5(tally.tobytes()).hexdigest() == want, (kind, n)


# md5 of subset_codes(scan_subsets(n), n) for n = 2..9, taken from the route
# that crossed the S_n subset keys with every sign mask
SUBSET_MD5 = ["e2e543af31f4ea2b0a8cf7487cb51fe6", "8df34f0e269496e100d195c39ba4df70",
              "241c33076a8d3b5fc9cee265023e2080", "47ab3e7cd62ed2878cfacde2e4b1f7dd",
              "cfae562dfcb6db538242524e1cf59afe", "43b5f547c4229446154e13818f19f153",
              "fc167de64b90ef12e9ed8631f28e5d1a", "7088b47c0313a5c9575da644609ee702"]


def subset_codes(counts: np.ndarray, n: int) -> np.ndarray:
    """The labelled subset tally counts[2(k - 1) + d9, c, inv(|w|), neg] of
    B_n projected onto the code layout that SUBSET_MD5 pins: a B side
    [k, end, pk, val, inv_B mod 2] summed over d9, a D side of the words of
    D_n (neg even) with k read as 9 when d9 is set and the inv_D bit, both
    for n >= 3 and 10 x 2 x (n + 1)^2 x 2 cells long, then the D snakes
    (first & alt) by staircase subset L = ceil(k / 2) and inv_D bit."""
    base = n + 1
    pk, val, first, last, alt = oracle._code_table(n, True)
    codes = np.zeros(2 * 10 * 2 * base * base * 2 + 10, dtype=np.int64)
    cells, snakes = codes[:-10].reshape(2, 10, 2, base, base, 2), codes[-10:].reshape(5, 2)
    label, c, inv, neg = np.indices(counts.shape).reshape(4, -1)
    count, k, d9, in_d = counts.ravel(), label // 2 + 1, label % 2, neg == 0
    snake = in_d & ((first & alt)[c] == 1)
    np.add.at(snakes, ((k[snake] + 1) // 2, inv[snake]), count[snake])
    if n >= 3:
        cell = last[c], pk[c], val[c]
        np.add.at(cells, (0, k, *cell, inv ^ neg), count)
        np.add.at(cells, (1, np.where(d9, 9, k)[in_d], *(col[in_d] for col in cell), inv[in_d]), count[in_d])
    return codes


def test_subset_tallies_keep_their_digests(cold_caches):
    """The subset tallies of B_2..B_9 that cold snake subset queries store,
    projected onto the pinned layout (subset_codes), byte for byte, beyond
    the reference walk's B_5."""
    for n, want in enumerate(SUBSET_MD5, 2):
        snake_subset_contribution(n, 1)
        counts = oracle._TALLIES["subsets", n][0]
        assert counts.dtype == np.dtype("<i8") and counts.shape == (16, 1 << n, 2, 2), n
        assert hashlib.md5(subset_codes(counts, n).tobytes()).hexdigest() == want, n


@pytest.mark.parametrize("n", range(2, 10))
def test_every_word_gets_exactly_one_subset_label(cold_caches, n):
    """From cold, the subset tally summed over its 16 labels is the B tally
    of B_n: the composed steps of _subset_plan (its moveaxis and reshape)
    reach every word's cell, and each word lands in one label.  It cannot
    see a mutant of the insertion rule, since both routes compose the same
    top steps."""
    counts = scan_subsets(n)
    oracle.clear_caches()
    assert np.array_equal(counts.sum(0), scan_joint_b(n))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_subset_tally_matches_the_direct_b_walk(cold_caches, n):
    """The tally crossed from the B_(n-2) tally, filled from cold, equals a
    walk of every signed word of B_n."""
    assert np.array_equal(scan_subsets(n), direct_walk.subsets(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_direct_b_walk_matches_reference(n):
    assert np.array_equal(direct_walk.subsets(n), reference.subsets(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_subset_labels_match_the_inserted_words(n):
    """For each row r1 of the n - 1 step and r2 of the n step, inserting
    +-(n-1) and then +-n into 1, .., n-2 at those rows' positions gives a
    word whose staircase subset is l[r1, r2], with flip = [l = 4] and d9
    set when the two large letters differ in sign."""
    one, two = oracle._top_insertions(n - 1), oracle._top_insertions(n)
    l_idx, flip, d9 = oracle._subset_labels(n)
    for r1, r2 in product(range(2 * n - 2), range(2 * n)):
        word = list(range(1, n - 1))
        word.insert(one["i"][r1], (n - 1) * (-1 if one["neg"][r1] else 1))
        word.insert(two["i"][r2], n * (-1 if two["neg"][r2] else 1))
        want = snake_subset_l(word)
        assert (l_idx[r1, r2], flip[r1, r2], d9[r1, r2]) == (want, want == 4, one["neg"][r1] != two["neg"][r2])


# ------------------------------------------- mutants of the shared tables

# Each mutant rewrites what one table returns, for every n: the top step's
# insertion rows (_top_insertions(n), which reads each row's position i and
# sign to find the bits it perturbs), a code table (_code_table(n, signed))
# or the subset crossing's labels (_subset_labels(n)).  It names the
# comparisons with the reference that catch it (_failed_comparisons).  The
# subset fill keeps each word's code and reads no code table (the marginals
# do), so the subsets comparison cannot see the two _code_table rows.  The
# A fill reads the +n rows, picked by neg, so "split pair kept" (bit i is set
# on a +n row anyway) and the -n-only row leave it whole, and "neg gain
# dropped" breaks it through the pick.  Of a code table's max(n - 2 + signed,
# 0) adjacent bit pairs, those that do not rise (val counts the rising ones)
# are peaks when a peak is read as >=.  The subset crossing composes two top
# steps, so a mutant of both can cancel there: "inv gain read as n - i" adds
# 1 to each step's gain, and "+n and -n rise bits swapped" reads each word
# with both large letters negated, which keeps its labels and parities.
MUTANTS = {
    "+n and -n rise bits swapped": ("_top_insertions", lambda n, t: {
        **t, "rise": np.where(t["neg"] == 1, 1 << t["i"], (t["i"] < n - 1) << (t["i"] + 1))}, "A B"),
    "split pair kept": ("_top_insertions", lambda n, t: {
        **t, "move": np.where(t["move"], t["move"], 1 << np.arange(n - 1))}, "B subsets"),
    "bits above the letter not shifted": ("_top_insertions", lambda n, t: {
        **t, "move": np.where(np.arange(n - 1) > t["i"][:, None], 1 << np.arange(n - 1), t["move"])}, "A B subsets"),
    "inv gain read as n - i": ("_top_insertions", lambda n, t: {**t, "inv": (n - t["i"]) & 1}, "A B"),
    "neg gain dropped": ("_top_insertions", lambda n, t: {**t, "neg": 0 * t["neg"]}, "A B subsets"),
    "-n inserted first sets bit 0": ("_top_insertions", lambda n, t: {
        **t, "rise": t["rise"] | (t["neg"] & (t["i"] == 0))}, "B subsets"),
    "a peak read as >=": ("_code_table", lambda n, signed, t: (max(n - 2 + signed, 0) - t[1], *t[1:]), "A B"),
    "pk and val swapped on the signed table": ("_code_table", lambda n, signed, t: (
        (t[1], t[0], *t[2:]) if signed else t), "B"),
    "L = 3 and 4 swapped": ("_subset_labels", lambda n, t: (np.where(t[0] > 2, 7 - t[0], t[0]), *t[1:]),
                            "subsets"),
    "match not inverted at L = 4": ("_subset_labels", lambda n, t: (t[0], 0 * t[1], t[2]), "subsets"),
    "D index 9 taken on equal signs": ("_subset_labels", lambda n, t: (t[0], t[1], ~t[2]), "subsets"),
}

_reference_subsets = functools.cache(reference.subsets)


def _runs_match(group: str) -> bool:
    """Whether the bivariate run distributions of S_1..S_5 (group "A"), or of
    the words of B_1..B_5 with a positive first letter ("B"), filled from
    cold caches, equal the reference sums.  (Over all of B_n, negating every
    letter swaps peaks and valleys, so that sum cannot tell them apart.)"""
    oracle.clear_caches()
    requests = [(group, n) if group == "A" else (group, n, "none", None, "positive") for n in range(1, 6)]
    calls = [(dist_runs, (SignedDistributionRequest(*request), "pq")) for request in requests]
    return all(fn(*args) == reference.answer(fn, args) for fn, args in calls)


def _failed_comparisons() -> set[str]:
    """The comparisons with the reference that fail, each from cold caches:
    A, the S_1..S_7 tallies and _runs_match("A"); B, the B_1..B_6 tallies
    inserted from the empty word and _runs_match("B"); subsets,
    scan_subsets(n) for n = 2..5 over B_(n-2) tallies taken from the
    reference (n = 2 reads the empty word's), so that it sees only what the
    subset crossing reads."""
    failed = set()
    if not (_a_tallies_match() and _runs_match("A")):
        failed.add("A")
    if not (_b_tallies_match() and _runs_match("B")):
        failed.add("B")
    oracle.clear_caches()
    for n in range(1, 4):
        oracle._TALLIES["B", n] = reference.joint_b(n).copy(), {}
    if not all(np.array_equal(scan_subsets(n), _reference_subsets(n)) for n in range(2, 6)):
        failed.add("subsets")
    return failed


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_reference_catches_a_broken_insertion_rule(cold_caches, monkeypatch, mutant):
    """Every comparison with the reference holds, and each mutant breaks
    exactly the comparisons its row names, at least one.  A mutated table
    reaches the fills, the subset crossing and the marginals through new
    _top_plan, _subset_plan and _class_plan caches, which the test drops, so
    no mutated plan outlives it."""
    target, rewrite, caught = MUTANTS[mutant]
    assert caught and not _failed_comparisons()
    table = getattr(oracle, target)
    monkeypatch.setattr(oracle, target, lambda *args: rewrite(*args, table(*args)))
    for name in ("_top_plan", "_subset_plan", "_class_plan"):
        monkeypatch.setattr(oracle, name, functools.cache(getattr(oracle, name).__wrapped__))
    assert _failed_comparisons() == set(caught.split())


def test_each_field_the_a_fill_reads_has_a_mutant_it_catches():
    """Of the fields of the insertion table that the A fill reads, each is
    rewritten by some mutant that the A comparison catches."""
    table, caught = oracle._top_insertions(5), set()
    for target, rewrite, breaks in MUTANTS.values():
        if target == "_top_insertions" and "A" in breaks.split():
            caught |= {field for field, col in rewrite(5, table).items() if not np.array_equal(col, table[field])}
    assert caught >= {"rise", "move", "inv", "neg"}


@pytest.mark.parametrize("n", range(3, 9))
def test_a_subset_fill_walks_only_s_n_minus_2(cold_caches, monkeypatch, n):
    """From cold, a subset fill inserts B_1..B_(n-2), one scan_joint_b call
    and one insertion each, from B_(n-2) down, and counts no S_n; once the
    B_(n-2) tally is stored, a subset fill runs no scan and no insertion."""
    calls = []

    def spy(name, fn):
        def call(*args):
            calls.append((name, *args))
            return fn(*args)
        return call

    for name in ("scan_joint_a", "scan_joint_b", "_insert_top"):
        monkeypatch.setattr(oracle, name, spy(name, getattr(oracle, name)))
    want = scan_subsets(n)
    below = range(n - 2, 0, -1)
    assert [call[:2] for call in calls if not call[0].startswith("_")] == [("scan_joint_b", k) for k in below]
    assert [call[1:3] for call in calls if call[0] == "_insert_top"] == [("B", k) for k in below]
    assert ("B", n - 2) in oracle._TALLIES
    calls.clear()
    assert np.array_equal(scan_subsets(n), want)
    assert not calls


def test_a_subset_fill_is_not_refused_by_the_s_n_cap(monkeypatch):
    """The subset tally reads the B_(n-2) tally, and no A tally, so caps
    (3, 9), which refuse S_4, refuse no subset query of B_6."""
    want = subset_contribution_b(6, 8, "a"), snake_subset_contribution(6, 4, "plus")
    monkeypatch.setattr(perm_core, "CAP_A", perm_core.CAP_A)
    monkeypatch.setattr(perm_core, "CAP_B", perm_core.CAP_B)
    oracle.clear_caches()
    set_enumeration_caps(3, 9)
    assert (subset_contribution_b(6, 8, "a"), snake_subset_contribution(6, 4, "plus")) == want


def test_subset_fills_to_n7_start_no_pool(monkeypatch):
    """The B_(n-2) fill and the insertion crossing of every subset fill that
    `verify --theorem all` makes (n <= 7) run in the calling thread: none
    starts a thread, and each stores its digest."""
    def no_thread(*_args, **_kwargs):
        raise AssertionError("a thread started")

    oracle.clear_caches()
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for n in range(2, 8):
        snake_subset_contribution(n, 1)
        codes = subset_codes(oracle._TALLIES["subsets", n][0], n)
        assert hashlib.md5(codes.tobytes()).hexdigest() == SUBSET_MD5[n - 2], n


def test_the_subset_plan_holds_no_result(cold_caches):
    """Once a true fill has built the plan of each n = 3..7 (its projection's
    digest pinned by SUBSET_MD5), a subset fill over a stored B_(n-2) tally
    of 3 x the reference counts 3 x that fill: the cached plan reads its
    counts from the store."""
    want = {n: scan_subsets(n) for n in range(3, 8)}
    oracle.clear_caches()
    for n, counts in want.items():
        assert hashlib.md5(subset_codes(counts, n).tobytes()).hexdigest() == SUBSET_MD5[n - 2], n
        oracle._TALLIES["B", n - 2] = 3 * reference.joint_b(n - 2), {}
        assert np.array_equal(scan_subsets(n), 3 * counts), n


def test_subset_crossing_at_n9_keeps_its_digest(cold_caches):
    """A cold subset fill of B_9 and a crossing of the B_7 tally it stored
    keep one digest, through the projection (subset_codes)."""
    for _ in range(2):
        counts = scan_subsets(9)
        assert counts.dtype == np.dtype("<i8")
        assert hashlib.md5(subset_codes(counts, 9).tobytes()).hexdigest() == "7088b47c0313a5c9575da644609ee702"


def test_worker_counts_are_validated_and_clamped(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(10**6) == MAX_WORKERS
    for bad in (0, -4, 2.5, "abc"):
        with pytest.raises(DomainError):
            resolve_workers(bad)
    monkeypatch.setenv("WEYLRUNS_THREADS", "abc")
    with pytest.raises(DomainError):
        resolve_workers(None)
    monkeypatch.setenv("WEYLRUNS_THREADS", "5")
    assert resolve_workers(None) == 5


@pytest.mark.parametrize("workers, checks", [(2, 1), (None, 0)])
def test_a_cold_query_checks_its_worker_count_once(cold_caches, monkeypatch, workers, checks):
    """From cold, a B_9 query checks an explicit worker count once, at its
    entry, and none below it in the B_1..B_9 fills; given none, it checks
    nothing, so it reads no WEYLRUNS_THREADS."""
    calls, resolve = [], oracle.resolve_workers

    def spy(count):
        calls.append(count)
        return resolve(count)

    monkeypatch.setattr(oracle, "resolve_workers", spy)
    dist_runs(SignedDistributionRequest("B", 9), "t", workers)
    assert len(calls) == checks and ("B", 8) in oracle._TALLIES


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


def _import_closure(module: str) -> set[str]:
    """weylruns.<module> and every weylruns module it imports, transitively."""
    seen, todo = set(), [module]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    return seen


def _private_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level private names (_x, not dunder) a module defines, each
    with the statement that defines it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
        else:
            continue
        found.update((name, stmt) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def _used_names(node: ast.AST) -> set[str]:
    """Every name a node reads: bare names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_private_name_in_src_has_a_user():
    """Each module-level private name in src/weylruns is read somewhere in
    src/ outside the statement that defines it, so no helper is left
    behind without a caller."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(oracle.__file__).parent.glob("*.py"))}
    reads = [(stmt, _used_names(stmt)) for tree in trees.values() for stmt in tree.body]
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name, definition in _private_names(tree).items()
               if not any(stmt is not definition and name in used for stmt, used in reads)]
    assert not orphans


def test_oracle_is_independent_of_the_closed_forms():
    seen = _import_closure("oracle")
    assert "perm_core" in seen
    assert not seen & {"closed_forms", "series", "verify"}


def test_closed_forms_are_independent_of_the_oracle():
    """The closed forms compute from the printed formulas alone; the oracle
    coefficient that r_pm_coeff needs is passed in by its caller."""
    seen = _import_closure("closed_forms")
    assert "poly" in seen
    assert not seen & {"oracle", "verify"}


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
    for word in ((1, -2), (1, 2), (1,)):  # a pair of unlike signs would read as subset 9
        with pytest.raises(DomainError, match="cancellation subsets need n >= 3"):
            subset_index_d(word)
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
            assert t_contribution(build_T(n, end), "B") == want
            d_want = dist_runs(
                SignedDistributionRequest("D", n, sign_statistic="inv_d", end_restriction=end),
                "pq",
            )
            assert t_contribution(build_T(n, end), "D") == d_want


@pytest.mark.parametrize("kind", ["X", "b", None])
def test_t_contribution_refuses_an_unknown_kind(kind):
    with pytest.raises(DomainError, match="kind 'B' or 'D'"):
        t_contribution(build_T(3, "a"), kind)


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
    assert len(reference.snake_words(4)) == count_snakes("B", 4)
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
    oracle.clear_caches()
    subset_contribution_b(n, 1, "a")
    assert ("subsets", n) in oracle._TALLIES

    def no_scan(*_args):
        raise AssertionError("a scan started")

    monkeypatch.setattr(oracle, "_insert_top", no_scan)
    want = subset_codes(reference.subsets(n), n)[-10:].reshape(5, 2)
    for k in range(1, 5):
        for bit, parity in enumerate(("plus", "minus")):
            assert snake_subset_contribution(n, k, parity) == want[k, bit]
    d_snakes = sum(1 for w in reference.snake_words(n) if negatives(w) % 2 == 0)
    assert sum(snake_subset_contribution(n, k) for k in range(1, 5)) == d_snakes > 0


def test_snake_subset_l_membership():
    for w in reference.snake_words(4):
        if negatives(w) % 2 == 0:
            assert snake_subset_l(w) in (1, 2, 3, 4)


# ------------------------------------------- marginals and their memo

SIGNS = {"A": ("none", "inv_a"), "B": ("none", "inv_b", "inv_d"), "D": ("none", "inv_d"), "B-D": ("none", "inv_d")}
FAMILY_TOKENS = {"A": ("R", "R+", "R-"),
                 **{g: tuple("R" + g + mark for mark in ("", "+", "-", ">", "<")) for g in ("B", "D", "B-D")}}


def _marginal_calls(n, groups=tuple(SIGNS)):
    """Every call of the public marginals of the joint tallies on the given
    groups at size n, as (function, args); the snake counts go with B."""
    calls = []
    for group in groups:
        if group == "A":
            ends, firsts = (None, "aa", "ad", "da", "dd") if n >= 2 else (None,), (None,)
        else:
            ends, firsts = (None, "a", "d"), (None, "positive", "negative")
        calls += [(dist_runs, (SignedDistributionRequest(group, n, sign, end, first), var))
                  for sign in SIGNS[group] for end in ends for first in firsts for var in ("t", "pq")]
        calls.append((dist_runs_parity_split, (group, n)))
        calls += [(count_alternating, (group, n, parity)) for parity in ("all", "plus", "minus")]
        calls += [(family_poly, (token, n)) for token in FAMILY_TOKENS[group]]
        if group != "B-D":
            calls.append((signed_uni, (group, n)))
    if "A" in groups and n >= 2:
        calls += [(class_poly_a, (n, cls, signed)) for cls in ("aa", "ad", "da", "dd") for signed in (True, False)]
    if "B" in groups:
        calls += [(count_snakes, (family, n)) for family in SNAKE_FAMILIES]
    return calls


def _subset_calls(n):
    """Every call of the public marginals of the subset tally at size n."""
    calls = []
    if n >= 2:
        calls += [(snake_subset_contribution, (n, k, parity))
                  for k in range(1, 5) for parity in ("all", "plus", "minus")]
    if n >= 3:
        calls += [(subset_contribution_b, (n, k, end)) for k in range(1, 9) for end in "ad"]
        calls += [(subset_contribution_d, (n, k, end)) for k in range(1, 10) for end in "ad"]
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_every_marginal_matches_a_brute_force_sum(n):
    """Each marginal of the count arrays equals a pure-Python sum over
    iter_group with perm_core's statistics: A at n <= 6, and B, D, B-D and
    the subset tally at n <= 4.  This checks the code tables' peaks,
    valleys, ends and alternation word by word, and the parity shortcut."""
    calls = _marginal_calls(n) + _subset_calls(n) if n <= 4 else _marginal_calls(n, ("A",))
    for fn, args in calls:
        assert fn(*args) == reference.answer(fn, args), (fn.__name__, args)


@settings(max_examples=80, deadline=None)
@given(call=st.integers(1, 5).flatmap(lambda n: st.sampled_from(_marginal_calls(n))))
def test_a_warm_answer_equals_a_cold_one(call):
    fn, args = call
    fn(*args)
    warm = fn(*args)  # read from the entry's marginals
    oracle.clear_caches()
    cold = fn(*args)
    assert warm == cold and type(warm) is type(cold)


def _refuses_every_write(poly) -> None:
    """Each way to rewrite a polynomial's coefficients raises."""
    if isinstance(poly, BiPoly):
        writes = [lambda: poly.terms.__setitem__((9, 9), 1), lambda: poly.terms.clear(),
                  lambda: setattr(poly, "terms", {(9, 9): 1})]
    else:
        writes = [lambda: poly.coeffs.__setitem__(0, 9), lambda: setattr(poly, "coeffs", (9,))]
    for write in writes:
        with pytest.raises((TypeError, AttributeError)):
            write()


def test_a_returned_bipoly_is_read_only():
    """A returned BiPoly, the cold answer or a warm one, refuses every write,
    and every later answer equals the first."""
    calls = [(dist_runs, (SignedDistributionRequest("B", 4, "inv_b", "a"), "pq")),
             (dist_runs, (SignedDistributionRequest("A", 5, "inv_a"), "pq")),
             (class_poly_a, (5, "ad")),
             (subset_contribution_b, (4, 8, "a"))]
    oracle.clear_caches()
    for fn, args in calls:
        answers = [fn(*args), fn(*args)]  # the cold answer, then a warm one
        first = copy.deepcopy(answers[0])
        for got in answers:
            _refuses_every_write(got)
            assert fn(*args) == first


def test_a_returned_unipoly_is_read_only():
    """The stored UniPoly of a dist_runs answer, cold or warm, refuses a new
    coefficient tuple, so no later call returns one."""
    oracle.clear_caches()
    req = SignedDistributionRequest("A", 4)
    answers = [dist_runs(req), dist_runs(req)]  # the cold answer, then a warm one
    first = copy.deepcopy(answers[0])
    for got in answers:
        _refuses_every_write(got)
        assert dist_runs(req) == first


def test_a_parity_split_holds_read_only_unipolys():
    """Both halves of a stored parity split refuse every write, and the split
    is a tuple, so neither half can be replaced."""
    oracle.clear_caches()
    answers = [dist_runs_parity_split("B", 4), dist_runs_parity_split("B", 4)]  # cold, then warm
    first = copy.deepcopy(answers[0])
    for halves in answers:
        assert type(halves) is tuple
        for half in halves:
            _refuses_every_write(half)
        assert dist_runs_parity_split("B", 4) == first


@pytest.mark.parametrize("n", [1, 4])
def test_a_repeated_query_does_not_read_the_tally(n):
    """Once answered, a query reads its memo: zeroing the cached count arrays
    in place (the subset tally's too, at n = 4) changes no repeated answer,
    and clearing the caches brings back freshly scanned ones."""
    oracle.clear_caches()
    calls = _marginal_calls(n) + _subset_calls(n)
    first = [fn(*args) for fn, args in calls]
    for counts, _ in oracle._TALLIES.values():
        counts[...] = 0
    assert [fn(*args) for fn, args in calls] == first
    oracle.clear_caches()
    assert not oracle._TALLIES
    assert [fn(*args) for fn, args in calls] == first


def test_a_cold_pass_scans_each_tally_once(monkeypatch):
    """From cold, every marginal and subset call at one n runs each scan once,
    through the one store, which then holds just those three tallies and
    the S_1..S_(n-1) and B_1..B_(n-1) tallies that the S_n and B_n fills
    insert into, the subset fill's B_(n-2) among them, until clear_caches."""
    oracle.clear_caches()
    scans = []

    def counted(name, scan):
        def run(*args):
            scans.append(name)
            return scan(*args)
        return run

    for name in ("scan_joint_a", "scan_joint_b", "scan_subsets"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    for fn, args in _marginal_calls(4) + _subset_calls(4):
        fn(*args)
    assert sorted(scans) == ["scan_joint_a"] * 4 + ["scan_joint_b"] * 4 + ["scan_subsets"]
    assert set(oracle._TALLIES) == {(kind, k) for kind in "AB" for k in range(1, 5)} | {("subsets", 4)}
    oracle.clear_caches()
    assert not oracle._TALLIES


def test_concurrent_queries_agree_with_serial_ones():
    """Threads that share one fresh entry, and may compute one marginal at
    the same time, all get the serial answers."""
    calls = _marginal_calls(4)
    want = [fn(*args) for fn, args in calls]
    oracle.clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(lambda: [fn(*args) for fn, args in calls]) for _ in range(8)]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8


def _takes(fn, name):
    """Whether the call has a parameter of that name; a dist_runs request's
    group and n count as its own."""
    return name in inspect.signature(fn).parameters or (fn is dist_runs and name in ("group", "n"))


def _refusal(fn, args, changes=()):
    """The DomainError message of fn(*args) with the named parameters changed."""
    changes = dict(changes)
    with pytest.raises(DomainError) as info:
        bound = inspect.signature(fn).bind(*args)
        if fn is dist_runs:
            req = bound.arguments["req"]
            fields = {f.name: changes.pop(f.name, getattr(req, f.name)) for f in dataclasses.fields(req)}
            bound.arguments["req"] = SignedDistributionRequest(**fields)
        bound.arguments.update(changes)
        fn(*bound.args, **bound.kwargs)
    return str(info.value)


# (parameter, size of the calls that fill the caches, bad value, start of the refusal)
_HOSTILE = [
    ("n", 3, 3.0, "n must be an integer, got 3.0"),
    ("n", 1, True, "n must be an integer, got True"),
    ("workers", 4, 0, "worker count must be at least 1, got 0"),
    ("workers", 4, True, "worker count must be an integer, got True"),
    ("group", 4, None, "unknown group None"),
    ("group", 4, 3, "unknown group 3"),
    ("k", 4, 1.5, "k must be an integer, got 1.5"),
    ("k", 4, 2.0, "k must be an integer, got 2.0"),
    ("k", 4, "2", "k must be an integer, got '2'"),
    ("k", 4, True, "k must be an integer, got True"),
    # arrays and lists, whose == is elementwise or which cannot be hashed
    ("n", 4, np.array([3, 4]), "n must be an integer, got array([3, 4])"),
    ("n", 4, np.array(4), "n must be an integer, got array(4)"),
    ("workers", 4, np.array([1, 2]), "worker count must be an integer, got array([1, 2])"),
    ("group", 4, np.array(["A", "B"]), "unknown group array(['A', 'B']"),
    ("group", 4, ["B"], "unknown group ['B']"),
    ("token", 4, np.array(["R", "RB"]), "unknown family token array(['R', 'RB']"),
    ("family", 4, np.array(["B", "D"]), "unknown snake family array(['B', 'D']"),
    ("cls", 4, np.array(["aa", "ad"]), "unknown class array(['aa', 'ad']"),
    ("variable", 4, np.array(["t", "pq"]), "unknown variable selector array(['t', 'pq']"),
    ("parity", 4, np.array(["all", "plus"]), "unknown parity selector array(['all', 'plus']"),
    ("parity", 4, ["all"], "unknown parity selector ['all']"),
    ("end", 4, np.array(["a", "d"]), "end must be 'a' or 'd'"),
    ("k", 4, np.array([1, 2]), "k must be an integer, got array([1, 2])"),
    # class_poly_a's flag: 1 would read True's answer, an array has no truth value
    ("signed", 4, 1, "signed must be a bool, got 1"),
    ("signed", 4, "no", "signed must be a bool, got 'no'"),
    ("signed", 4, [True], "signed must be a bool, got [True]"),
    ("signed", 4, np.array([True, False]), "signed must be a bool, got array([ True, False])"),
]


@pytest.mark.parametrize("name, n, bad, message", _HOSTILE, ids=[f"{h[0]}={h[2]!r}" for h in _HOSTILE])
def test_a_refusal_is_the_same_cold_and_warm(name, n, bad, message):
    """Every public marginal call that takes the parameter refuses the bad
    value with one message, from cold caches and once the caches hold its
    tally and its answer."""
    calls = [(fn, args) for fn, args in _marginal_calls(n) + _subset_calls(n) if _takes(fn, name)]
    oracle.clear_caches()
    cold = [_refusal(fn, args, {name: bad}) for fn, args in calls]
    assert calls and not oracle._TALLIES
    assert all(got.startswith(message) for got in cold)
    for fn, args in calls:
        fn(*args)
    assert [_refusal(fn, args, {name: bad}) for fn, args in calls] == cold


def test_a_cap_lowered_after_the_fill_is_refused_warm(monkeypatch):
    caps = perm_core.CAP_A, perm_core.CAP_B
    monkeypatch.setattr(perm_core, "CAP_A", caps[0])
    monkeypatch.setattr(perm_core, "CAP_B", caps[1])
    calls = _marginal_calls(4) + _subset_calls(4)
    oracle.clear_caches()
    set_enumeration_caps(3, 3)
    cold = [_refusal(fn, args) for fn, args in calls]
    assert not oracle._TALLIES
    assert all(got.startswith("n=4 outside enumeration range 1..3") for got in cold)
    set_enumeration_caps(*caps)
    for fn, args in calls:
        fn(*args)
    set_enumeration_caps(3, 3)
    assert [_refusal(fn, args) for fn, args in calls] == cold


def test_a_warm_call_only_reads_its_answer(monkeypatch):
    """A second pass of canonical calls returns the stored answers without
    validating its arguments again, reading a tally entry, summing a
    marginal or evaluating a count; after clear_caches a pass reaches all of
    those again."""
    calls = _marginal_calls(4) + _subset_calls(4)
    oracle.clear_caches()
    first = [fn(*args) for fn, args in calls]
    guarded = [(oracle, "_marginal"), (oracle, "_segment_sum"), (oracle, "normalize_group"),
               (oracle, "_check_n"), (oracle, "check_integer"), (oracle, "_answer"), (UniPoly, "eval_int")]
    reached, warm = set(), [True]

    def spy(name, fn):
        def call(*args, **kwargs):
            reached.add(name)
            if warm[0]:
                raise AssertionError(f"a warm call reached {name}")
            return fn(*args, **kwargs)
        return call

    for owner, name in guarded:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    assert [fn(*args) for fn, args in calls] == first
    assert not reached
    oracle.clear_caches()
    warm[0] = False
    assert [fn(*args) for fn, args in calls] == first
    assert reached == {name for _, name in guarded}


# ------------------------------------------------------- family tokens

def test_family_tokens():
    assert family_poly("R", 4) == UniPoly([0, 2, 12, 10])
    assert family_poly("RB+", 2) + family_poly("RB-", 2) == family_poly("RB", 2)
    assert family_poly("RB>", 2) + family_poly("RB<", 2) == family_poly("RB", 2)
    assert family_poly("RD", 3) + family_poly("RB-D", 3) == family_poly("RB", 3)
    with pytest.raises(DomainError):
        family_poly("bogus", 3)
