"""The brute-force enumeration oracles and their internal consistency."""

import ast
import copy
import dataclasses
import functools
import hashlib
import inspect
import pickle
import sys
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

from weylruns import cli, oracle, perm_core
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

@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_engines_agree_type_a(n):
    assert np.array_equal(scan_joint_a(n), reference.joint_a(n))


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_engines_agree_type_b(n):
    assert np.array_equal(scan_joint_b(n), reference.joint_b(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_engines_agree_subsets(n):
    assert np.array_equal(scan_subsets(n), reference.subsets(n))


WORKERS = st.integers(1, 8)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 7), workers=WORKERS)
def test_scan_joint_a_matches_reference(n, workers):
    assert np.array_equal(scan_joint_a(n, workers), reference.joint_a(n))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 5), workers=WORKERS)
def test_scan_joint_b_matches_reference(n, workers):
    assert np.array_equal(scan_joint_b(n, workers), reference.joint_b(n))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), workers=WORKERS)
def test_scan_subsets_matches_reference(n, workers):
    assert np.array_equal(scan_subsets(n, workers), reference.subsets(n))


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
        snakes = words[(first & alt).astype(bool)[oracle._ascent_codes(words, signed=True)]]
        assert list(map(tuple, snakes.tolist())) == reference.snake_words(n)


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
    """Blocks over contiguous S_n rank ranges concatenate to the group; for
    B and D each block of permutations is crossed with its sign masks.

    At A n = 8 the inner cuts fall inside blocks of one unranked prefix.
    """
    total = factorial(n)
    cuts = [0, total // 3 + 1, 2 * total // 3 - 1, total]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        blocks = direct_walk.perm_blocks(n, lo, hi, 5)
        if group != "A":
            blocks = map(oracle._cross_signs, blocks)
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
    blocks = list(direct_walk.perm_blocks(n, lo, hi, chunk))
    assert all(0 < b.shape[0] <= chunk and b.dtype == np.int8 for b in blocks)
    got = np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int8)
    want = np.array(list(islice(permutations(range(1, n + 1)), lo, hi)), dtype=np.int8)
    assert np.array_equal(got, want.reshape(-1, n))


def test_perm_blocks_seek_to_the_end_of_s11():
    blocks = list(direct_walk.perm_blocks(11, factorial(11) - 5, factorial(11), 4096))
    top = (11, 10, 9, 8, 7, 6, 5, 4)
    want = [top + tail for tail in list(permutations((1, 2, 3)))[1:]]
    assert [tuple(w) for b in blocks for w in b.tolist()] == want


def _column_major(words: np.ndarray) -> bool:
    """Whether an (M, n) block is the transpose of an (n, M) buffer, so the
    (n, M) layout that _ascent_codes reads is that buffer and no copy."""
    return np.shares_memory(np.ascontiguousarray(words.T), words)


def test_kernel_blocks_are_column_major_in_contract_order(monkeypatch):
    """Every block of direct_walk.perm_blocks, of the B walk's table columns
    and of their sign crossings is column-major.  The perm_blocks ranges
    start and end inside a suffix table, the S_8 one in the next table; the
    B walk's blocks are 37 columns, and a walk of B_7 columns [100, 4000)
    crosses all of their words.  Both crossings keep the contract order of
    B_n."""
    for n, lo, hi in ((3, 1, 5), (7, 100, 4000), (8, 5000, 5100)):
        for block in direct_walk.perm_blocks(n, lo, hi, 37):
            for words in (block, oracle._cross_signs(block)):
                assert _column_major(words), (n, words.shape)
    for n in range(1, 7):
        crossed = [w for b in direct_walk.perm_blocks(n, 0, factorial(n), 7) for w in oracle._cross_signs(b).tolist()]
        assert list(map(tuple, crossed)) == list(iter_group("B", n))
    cross, walked = oracle._cross_signs, []

    def spy(perms):
        words = cross(perms)
        assert _column_major(perms) and _column_major(words), (perms.shape, words.shape)
        walked.extend(map(tuple, words.tolist()))
        return words

    monkeypatch.setattr(oracle, "_cross_signs", spy)
    for n in range(1, 7):
        monkeypatch.setattr(oracle, "_JOINT_B_BLOCK", 37 << n)
        walked.clear()
        oracle._scan_b_numpy(n, 0, factorial(n))
        assert walked == list(iter_group("B", n))
    monkeypatch.setattr(oracle, "_JOINT_B_BLOCK", 37 << 7)
    walked.clear()
    oracle._scan_b_numpy(7, 100, 4000)
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
def test_suffix_table_parity_matches_pairwise_counts(n, at, rows):
    """Row parity xor prefix constant gives inv mod 2 on rank ranges of S_8..S_10."""
    lo = at % factorial(n)
    hi = min(lo + rows, factorial(n))
    words = np.concatenate(list(direct_walk.perm_blocks(n, lo, hi, 4096)))
    iu, ju = np.triu_indices(n, 1)
    want = (words[:, iu] > words[:, ju]).sum(1) & 1
    assert np.array_equal(direct_walk.inv_parity(n, lo, hi - lo), want)


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


# Each mutant rewrites the (pk, val, first, last, alt) that _code_table(n, signed)
# returns.  Of its max(n - 2 + signed, 0) adjacent bit pairs, those that do not
# rise (val counts the rising ones) are peaks when a peak is read as >=.
CODE_TABLE_MUTANTS = {
    "a peak read as >=": lambda n, signed, pk, val, *ends: (max(n - 2 + signed, 0) - val, val, *ends),
    "pk and val swapped on the signed table": lambda n, signed, pk, val, *ends: (
        (val, pk, *ends) if signed else (pk, val, *ends)),
}


@pytest.mark.parametrize("mutant", sorted(CODE_TABLE_MUTANTS))
def test_the_reference_catches_a_broken_code_table(cold_caches, monkeypatch, mutant):
    """The bivariate run distributions of S_1..S_5, and of the words of
    B_1..B_5 with a positive first letter, equal the reference sums, and each
    mutant of the code tables breaks one of them.  (Over all of B_n, negating
    every letter swaps peaks and valleys, so that sum cannot tell them apart.)"""
    calls = [(dist_runs, (SignedDistributionRequest(*request), "pq"))
             for n in range(1, 6) for request in (("A", n), ("B", n, "none", None, "positive"))]

    def agrees():
        oracle.clear_caches()
        return all(fn(*args) == reference.answer(fn, args) for fn, args in calls)

    assert agrees()
    table = oracle._code_table
    monkeypatch.setattr(oracle, "_code_table",
                        lambda n, signed: CODE_TABLE_MUTANTS[mutant](n, signed, *table(n, signed)))
    assert not agrees()


# ------------------------------------------- the word-free A kernel

def _a_tallies_match(monkeypatch, letters: int) -> bool:
    """Whether scan_joint_a, and the sum of the A kernel's parts cut at rank
    n!/3 + 1, equal the reference walk on S_1..S_7 when the suffix table has
    `letters` letters, so prefixes of up to 6 letters, their junctions and
    (from 2 letters) partial runs are counted."""
    monkeypatch.setattr(oracle, "_SUFFIX_LETTERS", letters)
    for n in range(1, 8):
        total, want = factorial(n), reference.joint_a(n)
        cut = total // 3 + 1
        parts = oracle._scan_a_numpy(n, 0, cut) + oracle._scan_a_numpy(n, cut, total)
        if not (np.array_equal(scan_joint_a(n), want) and np.array_equal(parts, want)):
            return False
    return True


@pytest.mark.parametrize("letters", [1, 2, 3, 4])
def test_short_suffix_tables_match_the_reference(monkeypatch, letters):
    assert _a_tallies_match(monkeypatch, letters)


def _reversed_bits(code, width: int):
    return sum(((code >> i) & 1) << (width - 1 - i) for i in range(width))


# Each mutant rewrites the (code, parity, t) that _prefix_classes returns.  t
# is at most m, and a first letter index at most m - 1, so capping t + 1 at m
# changes no junction beyond the mutation.
PREFIX_MUTANTS = {
    "junction threshold t + 1": lambda n, m, code, parity, t: (code, parity, np.minimum(t + 1, m)),
    "prefix parity dropped": lambda n, m, code, parity, t: (code, 0 * parity, t),
    "prefix code bits reversed": lambda n, m, code, parity, t: (_reversed_bits(code, n - m - 1), parity, t),
}


@pytest.mark.parametrize("mutant", sorted(PREFIX_MUTANTS))
def test_the_short_suffix_check_catches_a_broken_prefix_rule(monkeypatch, mutant):
    classes = oracle._prefix_classes
    monkeypatch.setattr(oracle, "_prefix_classes",
                        lambda n, m, *span: PREFIX_MUTANTS[mutant](n, m, *classes(n, m, *span)))
    assert not all(_a_tallies_match(monkeypatch, letters) for letters in range(1, 5))


# ------------------------------------------- the B insertion above the walk

def _b_tallies_match(monkeypatch, letters: int, workers: int) -> bool:
    """Whether scan_joint_b at the given worker count equals the reference
    walk on B_1..B_6, from cold caches, when the suffix table has `letters`
    letters: B_(letters+1)..B_6 are then inserted into the stored tallies
    below them.  For n <= letters, the B walk in two parts cut at column
    n!/3 + 1 must equal it too.  A part may be one column, so 3 workers
    split every walk of 3 or more letters."""
    monkeypatch.setattr(oracle, "_SUFFIX_LETTERS", letters)
    monkeypatch.setattr(oracle, "_B_BLOCK", 1)
    oracle.clear_caches()
    for n in range(1, 7):
        want = reference.joint_b(n)
        if not np.array_equal(scan_joint_b(n, workers), want):
            return False
        if n <= letters:
            total = factorial(n)
            cut = total // 3 + 1
            if not np.array_equal(oracle._scan_b_numpy(n, 0, cut) + oracle._scan_b_numpy(n, cut, total), want):
                return False
    return True


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("letters", [1, 2, 3, 4])
def test_short_suffix_tables_match_the_b_reference(cold_caches, monkeypatch, letters, workers):
    assert _b_tallies_match(monkeypatch, letters, workers)


# Each mutant rewrites one field of the insertion table (oracle._top_insertions)
# at size n, reading each row's position i and sign to find the bits it perturbs.
B_INSERTION_MUTANTS = {
    "+n and -n rise bits swapped": lambda n, t: {
        **t, "rise": np.where(t["neg"] == 1, 1 << t["i"], (t["i"] < n - 1) << (t["i"] + 1))},
    "split pair kept": lambda n, t: {**t, "move": np.where(t["move"], t["move"], 1 << np.arange(n - 1))},
    "inv gain read as n - i": lambda n, t: {**t, "inv": (n - t["i"]) & 1},
    "neg gain dropped": lambda n, t: {**t, "neg": 0 * t["neg"]},
    "-n inserted first sets bit 0": lambda n, t: {**t, "rise": t["rise"] | (t["neg"] & (t["i"] == 0))},
}


@pytest.mark.parametrize("mutant", sorted(B_INSERTION_MUTANTS))
def test_the_short_suffix_check_catches_a_broken_b_insertion_rule(cold_caches, monkeypatch, mutant):
    """With a one-letter suffix table, B_2..B_6 are all inserted; each mutant
    of the insertion table breaks the comparison with the reference."""
    assert _b_tallies_match(monkeypatch, 1, 1)
    table = oracle._top_insertions
    monkeypatch.setattr(oracle, "_top_insertions", lambda n: B_INSERTION_MUTANTS[mutant](n, table(n)))
    assert not _b_tallies_match(monkeypatch, 1, 1)


def test_b_tally_matches_the_direct_walk_at_b8():
    """scan_joint_b(8), the B_7 walk with +-8 inserted, equals the
    word-by-word walk of all of B_8, with B_7 walked cold at 1 and at 2
    workers."""
    want = direct_walk.walk_b(8, 0, factorial(8))
    for workers in (1, 2):
        oracle.clear_caches()
        assert np.array_equal(scan_joint_b(8, workers), want)


def test_b_fills_above_b7_walk_only_b7(cold_caches, monkeypatch, capsys):
    """From cold, a B_9 fill walks B_7 alone and stores the B_7 and B_8
    tallies; with B_7 stored, a B_8 fill walks nothing; and a cold `verify
    --theorem all` walks B_7 exactly as often as a 1-worker B_7 fill does,
    so B_8 and B_9 walk nothing of their own."""
    calls, kernel = [], oracle._scan_b_numpy

    def spy(n, lo, hi):
        calls.append(n)
        return kernel(n, lo, hi)

    monkeypatch.setattr(oracle, "_scan_b_numpy", spy)
    for workers in (1, 2):
        oracle.clear_caches()
        calls.clear()
        scan_joint_b(9, workers)
        assert calls and set(calls) == {7}
        assert ("B", 7) in oracle._TALLIES and ("B", 8) in oracle._TALLIES
    calls.clear()
    scan_joint_b(8, 2)
    assert not calls
    oracle.clear_caches()
    scan_joint_b(7, 1)
    one_fill = list(calls)
    oracle.clear_caches()
    calls.clear()
    assert cli.main(["verify", "--theorem", "all", "--threads", "1"]) == 0
    capsys.readouterr()
    assert max(calls) == 7 and calls.count(7) == len(one_fill) == 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 10), ends=st.lists(st.integers(0, factorial(10)), min_size=2, max_size=2))
@example(n=8, ends=[factorial(7) + 3, 2 * factorial(7) - 5])
@example(n=10, ends=[7 * factorial(7) - 3, 20 * factorial(7) + 5])
@example(n=9, ends=[11, 11])
def test_a_kernel_matches_the_word_walk(n, ends):
    """The A count of any rank range of S_8..S_10, one partial run or two
    with full prefixes between, equals the word-by-word walk of the range."""
    lo, hi = sorted(e % (factorial(n) + 1) for e in ends)
    assert np.array_equal(oracle._scan_a_numpy(n, lo, hi), direct_walk.walk_a(n, lo, hi))


# --------------------------------------------------------- worker splits

KERNELS = {
    "A": (oracle._scan_a_numpy, 1, 8, lambda n: factorial(n)),
    "B": (oracle._scan_b_numpy, 1, 5, lambda n: factorial(n)),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(KERNELS)), n=st.integers(1, 8),
       cuts=st.lists(st.integers(0, factorial(8)), max_size=6))
@example(kind="A", n=8, cuts=[13441, 26879])
@example(kind="B", n=5, cuts=[1, 31, 64])
def test_partials_over_any_cuts_sum_to_the_whole(kind, n, cuts):
    kernel, n_min, n_max, size = KERNELS[kind]
    n = min(max(n, n_min), n_max)
    total = size(n)
    bounds = [0, *sorted(c % (total + 1) for c in cuts), total]
    parts = [kernel(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(sum(parts), kernel(n, 0, total))


def test_worker_count_does_not_change_tallies():
    assert len(oracle._ranges(factorial(8), 8, factorial(7))) == 8
    assert np.array_equal(scan_joint_a(8, workers=1), scan_joint_a(8, workers=8))
    assert np.array_equal(scan_joint_a(7, workers=1), scan_joint_a(7, workers=8))
    assert np.array_equal(scan_joint_b(5, workers=1), scan_joint_b(5, workers=8))
    assert np.array_equal(scan_subsets(5, workers=1), scan_subsets(5, workers=8))


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


@pytest.mark.parametrize("workers", [1, 2])
def test_raw_tallies_keep_their_digests(workers):
    """scan_joint_a over S_1..S_11 and scan_joint_b over B_1..B_9, byte for
    byte, beyond the reference walks' S_7 and B_6."""
    for kind, scan, shape in (("A", scan_joint_a, lambda n: (1 << max(n - 1, 0), 2)),
                              ("B", scan_joint_b, lambda n: (1 << n, 2, 2))):
        for n, want in enumerate(TALLY_MD5[kind], 1):
            tally = scan(n, workers)
            assert tally.dtype == np.dtype("<i8") and tally.shape == shape(n), (kind, n)
            assert hashlib.md5(tally.tobytes()).hexdigest() == want, (kind, n)


# md5 of scan_subsets(n) for n = 2..9, taken from the route that crossed the
# S_n subset keys with every sign mask
SUBSET_MD5 = ["e2e543af31f4ea2b0a8cf7487cb51fe6", "8df34f0e269496e100d195c39ba4df70",
              "241c33076a8d3b5fc9cee265023e2080", "47ab3e7cd62ed2878cfacde2e4b1f7dd",
              "cfae562dfcb6db538242524e1cf59afe", "43b5f547c4229446154e13818f19f153",
              "fc167de64b90ef12e9ed8631f28e5d1a", "7088b47c0313a5c9575da644609ee702"]


@pytest.mark.parametrize("workers", [1, 2])
def test_subset_tallies_keep_their_digests(cold_caches, workers):
    """scan_subsets over B_2..B_9, byte for byte, each B_(n-2) tally filled
    at the given worker count, beyond the reference walk's B_5."""
    for n, want in enumerate(SUBSET_MD5, 2):
        codes = scan_subsets(n, workers)
        assert codes.dtype == np.dtype("<i8") and codes.shape == (2 * oracle._subset_side(n) + 10,), n
        assert hashlib.md5(codes.tobytes()).hexdigest() == want, n


@pytest.mark.parametrize("workers", [2, 3, 4, 5])
def test_a_split_b_walk_counts_whole_permutations(monkeypatch, workers):
    """The B_7 walk splits its 7! S_n ranks into min(workers, 4) parts of at
    least 2^17 words; each part counts all 2^7 sign masks of each of its
    permutations, and the parts sum to the one-worker tally."""
    whole = scan_joint_b(7, 1)
    kernel, parts = oracle._scan_b_numpy, []

    def spy(n, lo, hi):
        part = kernel(n, lo, hi)
        parts.append((lo, hi, int(part.sum())))
        return part

    monkeypatch.setattr(oracle, "_scan_b_numpy", spy)
    assert np.array_equal(scan_joint_b(7, workers), whole)
    parts.sort()
    assert len(parts) == min(workers, factorial(7) * 2**7 // oracle._B_BLOCK)
    assert [lo for lo, _, _ in parts] == [0] + [hi for _, hi, _ in parts[:-1]]
    assert parts[-1][1] == factorial(7)
    for lo, hi, words in parts:
        assert words == (hi - lo) << 7 and words >= oracle._B_BLOCK


@pytest.mark.parametrize("workers, n", [(1, 6), (1, 7), (3, 6), (3, 7), (1, 8)])
def test_subset_tally_matches_the_direct_b_walk(cold_caches, workers, n):
    """The tally crossed from the B_(n-2) tally, filled at the given worker
    count, equals a walk of every signed word of B_n."""
    assert np.array_equal(scan_subsets(n, workers), direct_walk.subsets(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_direct_b_walk_matches_reference(n):
    assert np.array_equal(direct_walk.subsets(n), reference.subsets(n))


# Each mutant rewrites one field of the insertion table (oracle._insertions)
# at size n, reading each row's positions and letters (i, j, vi, vj) to find
# the bits it perturbs.
INSERTION_MUTANTS = {
    "(x, L) rise sign flipped": lambda n, t: {**t, "rise": t["rise"] ^ (1 << t["i"] | (t["j"] > t["i"] + 1) << t["j"])},
    "(L, x) rise sign flipped": lambda n, t: {
        **t, "rise": t["rise"] ^ ((t["j"] > t["i"] + 1) << (t["i"] + 1) | (t["j"] < n - 1) << (t["j"] + 1))},
    "adjacent large pair compared the wrong way": lambda n, t: {
        **t, "rise": t["rise"] ^ (t["j"] == t["i"] + 1) << t["j"]},
    "split pairs kept": lambda n, t: {**t, "move": np.where(t["move"], t["move"], 1 << np.arange(n - 2))},
    "inv gain without -[n-1 at i]": lambda n, t: {**t, "inv": t["inv"] ^ (abs(t["vi"]) == n - 1)},
    "neg gain dropped": lambda n, t: {**t, "neg": 0 * t["neg"]},
    "match not inverted at L = 4": lambda n, t: {**t, "flip": 0 * t["flip"]},
    "D index 9 taken on equal signs": lambda n, t: {**t, "d9": ~t["d9"]},
}

_reference_subsets = functools.cache(reference.subsets)


@pytest.mark.parametrize("mutant", sorted(INSERTION_MUTANTS))
def test_the_reference_catches_a_broken_insertion_rule(monkeypatch, mutant):
    """The subset tally equals the reference walk for n = 2..5, and each
    mutant of the insertion table breaks it at some n <= 5."""
    def agrees(n):
        return np.array_equal(scan_subsets(n), _reference_subsets(n))

    assert all(agrees(n) for n in range(2, 6))
    table = oracle._insertions
    monkeypatch.setattr(oracle, "_insertions", lambda n: INSERTION_MUTANTS[mutant](n, table(n)))
    assert not all(agrees(n) for n in range(2, 6))


@pytest.mark.parametrize("n", range(3, 9))
def test_a_subset_fill_walks_only_s_n_minus_2(cold_caches, monkeypatch, n):
    """From cold, a subset fill walks B_(n-2), over the ranks of S_(n-2),
    through one scan_joint_b call and counts no S_n; once the B_(n-2) tally
    is stored, a subset fill runs no scan and generates no word."""
    calls = []

    def spy(name, fn):
        def call(*args):
            calls.append((name, *args))
            return fn(*args)
        return call

    for name in ("scan_joint_a", "scan_joint_b", "_scan_a_numpy", "_scan_b_numpy"):
        monkeypatch.setattr(oracle, name, spy(name, getattr(oracle, name)))
    want = scan_subsets(n, workers=2)
    assert [call[:2] for call in calls if not call[0].startswith("_")] == [("scan_joint_b", n - 2)]
    assert not [call for call in calls if call[0] == "_scan_a_numpy"]
    assert ("B", n - 2) in oracle._TALLIES
    calls.clear()
    assert np.array_equal(scan_subsets(n, workers=2), want)
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


def test_subset_tally_over_eight_parts_of_s8():
    """The subset tally of B_8 is the same whether its B_6 fill is given 1
    worker or 8, cold each time."""
    oracle.clear_caches()
    one = scan_subsets(8, 1)
    oracle.clear_caches()
    assert np.array_equal(one, scan_subsets(8, 8))


def test_parts_are_never_below_one_block():
    assert oracle._ranges(100, 8, 30) == [(0, 34), (34, 67), (67, 100)]
    assert oracle._ranges(29, 8, 30) == [(0, 29)]
    assert oracle._ranges(5040, 2, 5040) == [(0, 5040)]


def test_scans_within_one_block_start_no_pool(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", no_pool)
    assert np.array_equal(scan_joint_a(7, workers=8), reference.joint_a(7))
    assert np.array_equal(scan_joint_b(5, workers=8), reference.joint_b(5))
    assert np.array_equal(scan_subsets(5, workers=8), reference.subsets(5))


def test_subset_fills_to_n7_start_no_pool(monkeypatch):
    """The B_(n-2) fill and the insertion crossing of every subset fill that
    `verify --theorem all` makes (n <= 7) run in the calling thread."""
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a thread pool started")

    serial = {n: scan_subsets(n, workers=1) for n in range(2, 8)}
    oracle.clear_caches()
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", no_pool)
    for n, want in serial.items():
        assert np.array_equal(scan_subsets(n, workers=MAX_WORKERS), want)


def test_subset_crossing_splits_over_workers_at_n9(cold_caches):
    """The worker count reaches only the B_7 fill: a cold fill at 1 worker
    and a crossing of the stored B_7 tally at 2 keep one digest."""
    for workers in (1, 2):
        codes = scan_subsets(9, workers)
        assert codes.dtype == np.dtype("<i8")
        assert hashlib.md5(codes.tobytes()).hexdigest() == "7088b47c0313a5c9575da644609ee702"


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

    monkeypatch.setattr(oracle, "_scan_b_numpy", no_scan)
    monkeypatch.setattr(oracle, "_scan_a_numpy", no_scan)
    want = oracle._subset_parts(reference.subsets(n), n)[1]
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


def test_a_returned_bipoly_is_the_callers_own():
    """Mutating a returned BiPoly, the cold answer or a warm one, changes no
    later answer."""
    calls = [(dist_runs, (SignedDistributionRequest("B", 4, "inv_b", "a"), "pq")),
             (dist_runs, (SignedDistributionRequest("A", 5, "inv_a"), "pq")),
             (class_poly_a, (5, "ad")),
             (subset_contribution_b, (4, 8, "a"))]
    oracle.clear_caches()
    for fn, args in calls:
        for _ in range(2):
            got = fn(*args)
            want = BiPoly(got.terms)
            got.terms.clear()
            got.terms[(9, 9)] = 1
            assert fn(*args) == want != got


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
    through the one store, which then holds just those three tallies and the
    B_(n-2) tally that the subset fill reads, until clear_caches."""
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
    assert sorted(scans) == ["scan_joint_a", "scan_joint_b", "scan_joint_b", "scan_subsets"]
    assert set(oracle._TALLIES) == {("A", 4), ("B", 4), ("B", 2), ("subsets", 4)}
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
    guarded = [(oracle, "_marginal"), (oracle, "_poly"), (oracle, "normalize_group"), (oracle, "_check_n"),
               (oracle, "check_integer"), (oracle, "_answer"), (UniPoly, "eval_int")]
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
