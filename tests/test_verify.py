"""The verification harness: registry, ranges, statuses, report shape."""

import copy
import dataclasses
import inspect
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from weylruns import closed_forms as cf
from weylruns import oracle, perm_core, series, verify
from weylruns.errors import DomainError, IntegrityError
from weylruns.oracle import (
    SignedDistributionRequest,
    class_poly_a,
    count_alternating,
    count_snakes,
    dist_runs,
    subset_contribution_b,
)
from weylruns.poly import BiPoly, UniPoly
from weylruns.series import ALT_FAMILIES, egf_alt, egf_snakes
from weylruns.verify import (
    MISMATCH_DOCUMENTED,
    SKIPPED,
    alt_count,
    available_ids,
    run_checks,
    snake_count,
)


def test_registry_is_populated():
    ids = available_ids()
    assert "thm-sgn-altrun" in ids
    assert "wilf" in ids
    assert "thm-b-main" in ids
    assert "thm-snakes-d-egf" in ids
    assert "lem-moment" in ids
    assert len(ids) > 40


def test_unknown_id():
    with pytest.raises(DomainError):
        run_checks("nonsense")


def test_single_id_range():
    report = run_checks("thm-sgn-altrun", n_min=1, n_max=6)
    assert report.ok
    assert [o.n for o in report.outcomes] == [1, 2, 3, 4, 5, 6]


def test_below_range_is_skipped():
    report = run_checks("wilf", n_min=2, n_max=5)
    by_n = {o.n: o for o in report.outcomes}
    assert by_n[2].status == SKIPPED and by_n[2].passed
    assert by_n[4].status == "ok"
    assert report.ok
    zero = run_checks("thm-sgn-altrun", n_min=0, n_max=1)
    assert [(o.n, o.status) for o in zero.outcomes] == [(0, SKIPPED), (1, "ok")]
    with pytest.raises(DomainError):
        run_checks("wilf", n_min=5, n_max=3)


@pytest.mark.parametrize("bounds", [{"n_max": 10**30}, {"n_min": -10**30}, {"n_min": -1}, {"n_max": 12}],
                         ids=["n_max=10**30", "n_min=-10**30", "n_min=-1", "n_max=12"])
def test_a_bound_outside_the_caps_is_refused_before_any_check(monkeypatch, bounds):
    """A bound below 0 or above the larger enumeration cap raises DomainError
    before any id is checked or skipped, so no range makes one outcome per n
    without end."""
    def forbidden(n, *_args):
        raise AssertionError(f"a check ran at n={n}")

    for ident, entry in list(verify.REGISTRY.items()):
        monkeypatch.setitem(verify.REGISTRY, ident, dataclasses.replace(entry, fn=forbidden))
    monkeypatch.setattr(verify, "_skip", forbidden)
    with pytest.raises(DomainError, match=r"outside 0\.\.11, the largest enumeration cap"):
        run_checks("all", **bounds)


@pytest.mark.parametrize("bounds", [{"n_max": np.int64(2)}, {"n_min": np.int64(11)}],
                         ids=["n_max=int64(2)", "n_min=int64(11)"])
def test_a_numpy_integer_bound_gives_a_report_that_serializes(bounds):
    """A numpy integer bound, which check_integer accepts, is read as an
    int: the skipped outcome it makes has an int n, and the report's JSON
    form passes json.dumps."""
    report = run_checks("wilf", **bounds)
    assert report.outcomes and all(type(o.n) is int for o in report.outcomes)
    assert json.loads(json.dumps(report.to_json())) == report.to_json()


def test_the_bound_limit_reads_the_caps_at_call_time(monkeypatch):
    monkeypatch.setattr(perm_core, "CAP_A", perm_core.CAP_A)
    monkeypatch.setattr(perm_core, "CAP_B", perm_core.CAP_B)
    perm_core.set_enumeration_caps(4, 3)
    assert run_checks("wilf", 4, 4).ok
    with pytest.raises(DomainError, match=r"n_max=5 outside 0\.\.4"):
        run_checks("wilf", 4, 5)


def test_above_cap_is_skipped_not_dropped():
    saved = perm_core.CAP_A
    assert run_checks("wilf", 4, 6).ok  # kept outcomes must not outlive a lower cap
    try:
        perm_core.set_enumeration_caps(cap_a=4)
        by_n = {o.n: o for o in run_checks("wilf", 3, 6).outcomes}
        assert sorted(by_n) == [3, 4, 5, 6]
        assert all(o.passed for o in by_n.values())
        assert by_n[4].status == "ok"
        assert by_n[5].status == by_n[6].status == SKIPPED
        assert "cap" in by_n[5].detail
        statuses = [o.status for o in run_checks("wilf").outcomes]
        assert statuses == ["ok"] + [SKIPPED] * 6  # stated range 4..10
    finally:
        perm_core.set_enumeration_caps(cap_a=saved)


def test_bmd_pm_alternating_is_documented_not_failed():
    report = run_checks("thm-egf-alt-bmd-pm", n_max=4)
    assert report.ok
    statuses = {o.n: o.status for o in report.outcomes}
    assert statuses[0] == "ok"  # the printed formula happens to agree at n = 0
    assert statuses[1] == MISMATCH_DOCUMENTED
    noted = [o for o in report.outcomes if o.status == MISMATCH_DOCUMENTED]
    assert noted and all(o.data and "printed_formula" in o.data for o in noted)


def test_report_json_shape():
    payload = run_checks("cor-b-uni", n_max=3).to_json()
    assert payload["ok"] is True
    assert {r["theorem"] for r in payload["results"]} == {"cor-b-uni"}
    assert all({"n", "passed", "status", "detail"} <= set(r) for r in payload["results"])


def test_count_helpers_honor_conventions():
    assert alt_count("A", 0) == 1
    assert alt_count("B-D", 0) == 0
    assert snake_count("D+", 0) == 1
    assert alt_count("A", 4) == 5
    assert snake_count("B", 3) == 11


def test_every_family_keeps_its_n0_count():
    assert {f: alt_count(f, 0) for f in ALT_FAMILIES} == {f: egf_alt(f, 1).egf_coeff(0) for f in ALT_FAMILIES}
    families = perm_core.SNAKE_FAMILIES
    assert {f: snake_count(f, 0) for f in families} == {f: egf_snakes(f, 1).egf_coeff(0) for f in families}


@pytest.mark.parametrize("count,family", [(alt_count, "X"), (alt_count, "RB"), (snake_count, "A"), (snake_count, "A+")])
@pytest.mark.parametrize("n", [0, 1])
def test_count_helpers_refuse_a_family_without_a_count(count, family, n):
    with pytest.raises(DomainError):
        count(family, n)


_T3 = oracle.build_T(3, "a")

# (function, arguments, start of the refusal): a selector that is not a
# string, which each of these once answered, or refused with another error
_NOT_A_STRING = [
    (run_checks, (np.array(["all"]),), "unknown theorem id array(['all']"),
    (run_checks, (["all"],), "unknown theorem id ['all']"),
    (oracle.build_T, (3, np.array(["a"])), "end must be 'a' or 'd'"),
    (oracle.build_T, (3, np.array(["a", "d"])), "end must be 'a' or 'd'"),
    (oracle.t_contribution, (_T3, np.array(["B"])), "T-set sums are of kind 'B' or 'D', got array(['B']"),
    (oracle.t_contribution, (_T3, np.array(["B", "D"])), "T-set sums are of kind 'B' or 'D', got array(["),
    (perm_core.split_family, (1,), "unknown family token 1"),
    (alt_count, (["A"], 3), "unknown family token ['A']"),
    (alt_count, (["A"], 0), "no n = 0 count for the alternating family ['A']"),
    (perm_core.is_alternating, ((2, 1, 3), 3), "unknown type 3"),
]


@pytest.mark.parametrize("fn, args, message", _NOT_A_STRING,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(_NOT_A_STRING)])
def test_a_selector_that_is_not_a_string_is_refused(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "ident",
    ["thm-class-biv", "rec-class-biv", "thm-b-main", "thm-d-main", "lem-b-flipsgn",
     "thm-b-equals-d", "lem-alt-b-equal", "thm-snake-diff-d", "snake-b-equals-d"],
)
def test_spot_ids_pass_at_small_n(ident):
    assert run_checks(ident, n_max=5).ok


def test_length_decomposition_holds_through_n6():
    assert run_checks("cor-inv-bd", 1, 6).ok


def test_length_decomposition_is_checked_by_brute_force(monkeypatch, cold_caches):
    """cor-inv-bd counts Coxeter lengths by descent sorting: it reads neither
    perm_core's inversion counts nor the oracle's insertion and tables, and a
    wrong descent rule makes it fail."""
    from weylruns import oracle, verify

    def forbidden(*_args, **_kwargs):
        raise AssertionError("cor-inv-bd read a length or table it must compute itself")

    oracle.clear_caches()  # else the check reads the tally an earlier test filled
    for name in ("inv_a", "inv_b", "inv_d", "iter_group", "negatives"):
        monkeypatch.setattr(perm_core, name, forbidden)
        assert not hasattr(verify, name)
    for name in ("_code_table", "_top_index", "_top_insertions", "_insert_top", "_segments", "_segment_sum",
                 "_top_plan", "_subset_plan", "_class_plan"):
        monkeypatch.setattr(oracle, name, forbidden)
    assert run_checks("cor-inv-bd", 1, 6).ok
    # a D descent at 0 off by one misses the words with w_1 + w_2 = -1
    monkeypatch.setattr(verify, "_d_zero", _mutated_d_zero)
    oracle.clear_caches()  # else the n = 2 tally of the run above is read
    assert not run_checks("cor-inv-bd", 2, 2).ok


def _mutated_d_zero(cols):
    d = cols[0] + cols[1] < -1
    cols[0], cols[1] = np.where(d, -cols[1], cols[0]), np.where(d, -cols[0], cols[1])
    return d


def test_a_descent_rule_that_never_settles_fails_the_check(monkeypatch, cold_caches):
    """A D step at 0 that swaps w_1 and w_2 but forgets their signs keeps
    w_1 + w_2 < 0, so it fires in every sweep until the cut; those lengths
    fall outside the defect tally, which then comes up short of |B_n|."""
    from weylruns import oracle, verify

    def unsigned_swap(cols):
        d = cols[0] + cols[1] < 0
        cols[0], cols[1] = np.where(d, cols[1], cols[0]), np.where(d, cols[0], cols[1])
        return d

    monkeypatch.setattr(verify, "_d_zero", unsigned_swap)
    oracle.clear_caches()
    [outcome] = run_checks("cor-inv-bd", 3, 3).outcomes
    assert not outcome.passed and "the length tally holds" in outcome.detail


@pytest.mark.parametrize("moved,detail", [
    (False, "the length tally holds 47 words, not |B_3| = 48"),
    (True, "1 words break inv_B = inv_D + |Negs|"),
], ids=["short", "off-zero"])
def test_inv_bd_reads_the_whole_defect_tally(monkeypatch, cold_caches, moved, detail):
    """One word dropped from d = 0, or moved to d = 1, fails the check."""
    from weylruns import verify

    tally = verify._length_defects(3)
    tally[9] -= 1
    tally[10] += moved
    monkeypatch.setattr(verify, "_length_defects", lambda n: tally)
    [outcome] = run_checks("cor-inv-bd", 3, 3).outcomes
    assert (outcome.passed, outcome.detail) == (False, detail)


_WORKER_CALLS = {
    "dist_runs": lambda w: dist_runs(SignedDistributionRequest("B", 3), "t", w),
    "count_snakes": lambda w: count_snakes("D+", 3, w),
    "run_checks": lambda w: run_checks("cor-inv-bd", 1, 2, w),
}


@pytest.mark.parametrize("bad", [0, -3, "abc", 1.5, True])
@pytest.mark.parametrize("call", sorted(_WORKER_CALLS))
def test_bad_worker_count_is_refused_cold_and_warm(call, bad):
    from weylruns import oracle

    oracle.clear_caches()
    with pytest.raises(DomainError):
        _WORKER_CALLS[call](bad)
    _WORKER_CALLS[call](1)
    with pytest.raises(DomainError):
        _WORKER_CALLS[call](bad)


def test_a_bad_threads_variable_is_read_by_no_library_call(monkeypatch):
    """Only the CLI reads WEYLRUNS_THREADS: with it set to "abc", a count,
    the wilf check and the word-sorting cor-inv-bd check answer from cold,
    and again warm, what they answer with it unset."""
    calls = [lambda: count_alternating("A", 5),
             lambda: run_checks("wilf", 4, 4).to_json(),
             lambda: run_checks("cor-inv-bd", 3, 3).to_json()]
    monkeypatch.delenv("WEYLRUNS_THREADS", raising=False)
    oracle.clear_caches()
    want = [call() for call in calls]
    assert want[0] == 16 and want[1]["ok"] and want[2]["ok"]
    monkeypatch.setenv("WEYLRUNS_THREADS", "abc")
    oracle.clear_caches()
    assert [call() for call in calls] == want
    assert [call() for call in calls] == want


def test_no_routine_below_the_entries_takes_a_worker_count():
    """Every registry check is check(n), and no fill or scan below the public
    oracle calls has a worker count parameter."""
    for ident, entry in verify.REGISTRY.items():
        assert "workers" not in inspect.signature(entry.fn).parameters, ident
        inspect.signature(entry.fn).bind(3)
    for name in ("_tally", "_insert_top", "scan_joint_a", "scan_joint_b", "scan_subsets"):
        assert "workers" not in inspect.signature(getattr(oracle, name)).parameters, name


# n that are not integers; True and the floats equal the integers whose cache
# entries they would otherwise hit, and 0.0 and False the n = 0 of the counts
_NOT_INTEGERS = [3.0, 3.5, "3", None, True, 0.0, False]
# call -> (the call at n, integer n that fill the caches it reads)
_N_CALLS = {
    "dist_runs": (lambda n: dist_runs(SignedDistributionRequest("B", n), "t"), (1, 3)),
    "count_snakes": (lambda n: count_snakes("B", n), (1, 3)),
    "alt_count": (lambda n: alt_count("B", n), (0, 3)),
    "snake_count": (lambda n: snake_count("B", n), (0, 3)),
    "class_poly_a": (lambda n: class_poly_a(n, "aa"), (3,)),
    # the A and B tallies, each read through a public count
    "joint_a": (lambda n: count_alternating("A", n), (3,)),
    "joint_b": (lambda n: count_alternating("B", n), (3,)),
    "subset_contribution_b": (lambda n: subset_contribution_b(n, 1, "a"), (3,)),
}


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("call", sorted(_N_CALLS))
def test_non_integer_n_is_refused_cold_and_warm(call, bad):
    fn, fills = _N_CALLS[call]
    oracle.clear_caches()
    with pytest.raises(DomainError, match="n must be an integer"):
        fn(bad)
    for n in fills:
        fn(n)
    with pytest.raises(DomainError, match="n must be an integer"):
        fn(bad)


@pytest.mark.parametrize("bad", [4.0, 4.5, "4", True], ids=repr)
@pytest.mark.parametrize("bound", ["n_min", "n_max"])
def test_non_integer_bounds_are_refused_cold_and_warm(bound, bad):
    oracle.clear_caches()
    for _ in range(2):  # cold, then with wilf's n = 4, 5 answered
        with pytest.raises(DomainError, match=f"{bound} must be an integer"):
            run_checks("wilf", **{"n_min": 4, "n_max": 5, bound: bad})
        assert run_checks("wilf", 4, 5).ok


# Every function of closed_forms; verify's checks read each of them.
CLOSED_FORMS = sorted(name for name, fn in vars(cf).items()
                      if callable(fn) and getattr(fn, "__module__", None) == cf.__name__
                      and not name.startswith("_"))


@pytest.fixture
def registry_calls(monkeypatch):
    """The (id, n) of every call to a registry row's check, in call order."""
    calls = []
    for ident, entry in verify.REGISTRY.items():
        def counted(n, _ident=ident, _fn=entry.fn):
            calls.append((_ident, n))
            return _fn(n)

        monkeypatch.setitem(verify.REGISTRY, ident, dataclasses.replace(entry, fn=counted))
    return calls


def test_a_warm_rerun_runs_no_check(registry_calls, monkeypatch):
    """Once run, `run_checks("all")` calls no check until
    oracle.clear_caches(), and reports the same outcomes: it sorts no word
    (cor-inv-bd), builds or sums no T set (lem-b/d-minus-t) and evaluates no
    closed form, though the cold run does each of these."""
    spied = [(verify, "_descent_sort")] + [(cf, name) for name in CLOSED_FORMS]
    spied += [(oracle, name) for name in ("build_T", "t_contribution", "subset_index_b")]
    work = dict.fromkeys([name for _, name in spied], 0)
    for module, name in spied:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            work[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    oracle.clear_caches()
    first = run_checks("all").to_json()
    assert registry_calls
    assert all(work.values()), work
    registry_calls.clear()
    work.update(dict.fromkeys(work, 0))
    assert run_checks("all").to_json() == first
    assert registry_calls == []
    assert not any(work.values()), work


def test_every_check_runs_again_after_clear_caches(registry_calls):
    oracle.clear_caches()
    first = run_checks("all").to_json()
    checks = [(r["theorem"], r["n"]) for r in first["results"]]
    assert registry_calls == checks
    registry_calls.clear()
    oracle.clear_caches()
    assert run_checks("all").to_json() == first
    assert registry_calls == checks


def test_a_returned_outcome_is_read_only():
    """Every field of a returned outcome, cold or warm, refuses a write, and
    so do its data and the tuples in it; every later report equals the
    first."""
    oracle.clear_caches()
    report = run_checks("thm-egf-alt-bmd-pm")
    want = copy.deepcopy(report.to_json())
    assert all(o.data for o in report.outcomes)
    for _ in range(2):  # the cold report, then a warm one
        for o in report.outcomes:
            for name in ("theorem", "n", "passed", "detail", "status", "data"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(o, name, None)
            for value in o.data.values():
                assert type(value) is tuple
                with pytest.raises(TypeError):
                    value[0] = "x"
            with pytest.raises(TypeError):
                o.data["x"] = ()
        report = run_checks("thm-egf-alt-bmd-pm")
        assert report.to_json() == want


def test_an_outcome_round_trips_through_pickle_and_deepcopy():
    """A stored outcome with data, and one without, comes back equal and
    still read-only; a data dict given to a new outcome is not kept."""
    data = {"oracle": [1, 2], "printed_formula": ["3/2"]}
    made = verify.CheckOutcome("id", 3, True, "ok", data=data)
    data["oracle"].append(9)
    assert dict(made.data) == {"oracle": (1, 2), "printed_formula": ("3/2",)}
    oracle.clear_caches()
    stored = run_checks("thm-egf-alt-bmd-pm", n_min=1, n_max=1).outcomes[0]
    assert stored.data
    for outcome in (made, stored, verify.CheckOutcome("id", 0, False)):
        for twin in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome), copy.copy(outcome)):
            assert type(twin) is verify.CheckOutcome and twin == outcome
            if outcome.data is not None:
                assert dict(twin.data) == dict(outcome.data)
                with pytest.raises(TypeError):
                    twin.data["x"] = ()


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_sort_lengths_match_inversion_counts(n):
    """Sorting by B descents gives inv_B and ends at the identity; sorting by
    D descents gives inv_D and ends at the identity on D_n and at
    (-1, 2, .., n) on B_n - D_n.  B_1..B_5 are checked whole, B_6 and B_7
    on a seeded sample of 3000 words each."""
    from weylruns.verify import _b_zero, _d_zero, _descent_sort

    if n <= 5:
        block = np.array(list(perm_core.iter_group("B", n)), dtype=np.int8).reshape(-1, n)
    else:
        rng = np.random.default_rng(n)
        letters = rng.permuted(np.tile(np.arange(1, n + 1, dtype=np.int8), (3000, 1)), axis=1)
        block = letters * rng.choice(np.array([-1, 1], dtype=np.int8), size=letters.shape)
    words = [tuple(w) for w in block.tolist()]
    end_b, end_d = list(block.T.copy()), list(block.T.copy())
    ell_b, ell_d = _descent_sort(end_b, _b_zero), _descent_sort(end_d, _d_zero)
    end_b, end_d = np.stack(end_b, axis=1), np.stack(end_d, axis=1)
    assert ell_b.tolist() == [perm_core.inv_b(w) for w in words]
    assert ell_d.tolist() == [perm_core.inv_d(w) for w in words]
    identity = tuple(range(1, n + 1))
    odd = (-1,) + identity[1:]
    assert all(tuple(e) == identity for e in end_b.tolist())
    for w, e in zip(words, end_d.tolist()):
        assert tuple(e) == (identity if perm_core.negatives(w) % 2 == 0 else odd)


# The s_0 steps as first written, with np.where: the reference for the
# arithmetic steps that replaced them.
def _where_b_zero(cols):
    d = cols[0] < 0
    cols[0] = np.where(d, -cols[0], cols[0])
    return d


def _where_d_zero(cols):
    if len(cols) < 2:
        return np.zeros(len(cols[0]), dtype=bool)
    d = cols[0] + cols[1] < 0
    cols[0], cols[1] = np.where(d, -cols[1], cols[0]), np.where(d, -cols[0], cols[1])
    return d


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("step,reference", [("_b_zero", _where_b_zero), ("_d_zero", _where_d_zero)],
                         ids=["B", "D"])
def test_the_s0_steps_match_their_where_reference(step, reference, n):
    """On every word of B_n, each s_0 step marks the same descents and leaves
    the same int8 columns as its np.where form; D_1's step changes nothing."""
    block = np.array(list(perm_core.iter_group("B", n)), dtype=np.int8).reshape(-1, n)
    got, want = list(block.T.copy()), list(block.T.copy())
    d = getattr(verify, step)(got)
    assert d.dtype == bool and np.array_equal(d, reference(want))
    assert all(g.dtype == np.int8 and np.array_equal(g, w) for g, w in zip(got, want))
    if step == "_d_zero" and n == 1:
        assert not d.any() and np.array_equal(got[0], block[:, 0])


def test_the_length_tally_sums_every_block(monkeypatch):
    """B_7 comes in 10 blocks of perm_core's generator, which cover S_7 once,
    and all 645120 of its words land at d = 0, in cell n^2 = 49."""
    cross, blocks = perm_core.cross_signs, []
    monkeypatch.setattr(perm_core, "cross_signs", lambda perms: blocks.append(len(perms)) or cross(perms))
    tally = verify._length_defects(7)
    assert (len(blocks), sum(blocks)) == (10, 5040)
    assert (tally[49], tally.sum()) == (645120, 645120)


_FORMS = ([("alt", series.egf_alt, family) for family in ALT_FAMILIES]
          + [("snake", series.egf_snakes, family) for family in perm_core.SNAKE_FAMILIES]
          + [("alt-corrected", series.egf_alt_bmd_pm_corrected, sign) for sign in "+-"])


def _as_count(coeff):
    """`coeff()`, or the name of the IntegrityError it raises."""
    try:
        return coeff()
    except IntegrityError:
        return "IntegrityError"


def test_formula_coefficients_match_a_fresh_build(monkeypatch, cold_caches):
    """For every closed form and n = 0..20, the stored series gives the n-th
    coefficient of a fresh build at order n + 1, exact and as a count, from
    an empty store and from a filled one; from empty, ascending n builds a
    form at DEFAULT_ORDER and again only for each n above it."""
    orders = []
    for name in ("egf_alt", "egf_snakes", "egf_alt_bmd_pm_corrected"):
        def recorded(family, order, _fn=getattr(series, name)):
            orders.append(order)
            return _fn(family, order)

        monkeypatch.setattr(series, name, recorded)
    fresh = {(kind, family, n): build(family, n + 1) for kind, build, family in _FORMS for n in range(21)}
    top = series.DEFAULT_ORDER
    for n_order in (range(21), reversed(range(21))):  # the store is empty, then filled
        for kind, _, family in _FORMS:
            orders.clear()
            for n in n_order:
                want = fresh[kind, family, n]
                assert verify._formula_coeff(kind, family, n, exact=True) == want.egf_coeff_exact(n)
                assert _as_count(lambda: verify._formula_coeff(kind, family, n)) == _as_count(
                    lambda: want.egf_coeff(n))
            assert orders == (list(range(top, 22)) if isinstance(n_order, range) else [])
    assert verify._formula_coeff("alt", "A", 20) == 370371188237525
    assert verify._formula_coeff("alt", "B-D+", 1, exact=True) == Fraction(3, 2)
    with pytest.raises(IntegrityError):
        verify._formula_coeff("alt", "B-D+", 1)


# The failure text of each shared check, pinned: one id at one n with one
# oracle answer off by one (+1 on a count or a bivariate polynomial, +t on a
# univariate one).
def _off_by_one(value):
    if isinstance(value, int):
        return value + 1
    return value + (UniPoly.term(1, 1) if isinstance(value, UniPoly) else BiPoly.const(1))


FAILURE_TEXT = [
    ("thm-div-b-pm", 5, "family_poly", lambda token, *_: token == "RB-",
     "RB-: multiplicity 0 < guaranteed 2"),
    ("cor-moment-b", 7, "family_poly", lambda token, *_: token == "RB",
     "RB: moment identity fails at k=1; RB: moment identity fails at k=2"),
    ("thm-snakes-b-egf", 4, "count_snakes", lambda family, *_: family == "D",
     "D: oracle 30 != formula 29"),
    ("thm-egf-alt-d", 3, "count_alternating", lambda group, *_: group == "B-D",
     "B-D: oracle 9 != formula 8"),
    ("lem-alt-diff-a", 6, "count_alternating", lambda group, n, parity, *_: parity == "plus",
     "E+^(6)-E-^(6) = 0 != -1"),
    ("thm-gao-sun-snakes", 5, "count_snakes", lambda family, *_: family == "B-D",
     "S^D-S^(B-D) = 0 != 1"),
    ("thm-b-equals-d", 4, "family_poly", lambda token, *_: token == "RD",
     "R^{B,+} != R^D"),
    ("lem-alt-d-equal", 4, "count_alternating", lambda group, n, parity, *_: parity == "minus",
     "E^{D,+} != E^{D,-}; E^{B-D,+} != E^{B-D,-}"),
    ("snake-b-equals-d", 3, "count_snakes", lambda family, *_: family == "B-D",
     "S^{B,-} != S^{B-D}"),
    ("thm-d-main", 3, "dist_runs", lambda req, *_: req.end_restriction == "a",
     "end=a: oracle 2 - pq != formula 1 - pq"),
    ("thm-b-main", 2, "dist_runs", lambda req, *_: req.end_restriction is None,
     "end=total: oracle 3 - q - p != formula 2 - q - p"),
    ("cor-d-uni", 3, "signed_uni", lambda *_: True,
     "oracle 2*t - t^3 != formula t - t^3"),
    ("lem-b-cancel", 4, "subset_contribution_b", lambda n, k, end, *_: k == 3 and end == "d",
     "B^3 end=d contributes 1; partition end=d: sum 2 - p - pq + p^2q != 1 - p - pq + p^2q"),
    ("lem-d-cancel", 4, "subset_contribution_d", lambda n, k, end, *_: k == 9 and end == "a",
     "D^9 end=a contributes 1; partition end=a: sum 2 - q - pq + pq^2 != 1 - q - pq + pq^2"),
    ("lem-b-minus-t", 4, "subset_contribution_b", lambda n, k, end, *_: k == 8 and end == "a",
     "B^8 - T end=a contributes 1"),
    ("thm-gao-sun-first", 3, "family_poly", lambda token, *_: token == "RD>",
     "oracle 2*t - t^3 != formula t - t^3"),
    ("thm-d-total-diff", 3, "family_poly", lambda token, *_: token == "RB-D",
     "oracle -t != formula 0"),
]


@pytest.mark.parametrize("ident,n,name,when,detail", FAILURE_TEXT, ids=[c[0] for c in FAILURE_TEXT])
def test_failure_text_is_pinned(monkeypatch, cold_caches, ident, n, name, when, detail):
    from weylruns import oracle, verify

    answer = getattr(oracle, name)

    def off(*args, **kwargs):
        got = answer(*args, **kwargs)
        return _off_by_one(got) if when(*args, **kwargs) else got

    monkeypatch.setattr(oracle, name, off)
    if hasattr(verify, name):
        monkeypatch.setattr(verify, name, off)
    [outcome] = run_checks(ident, n, n).outcomes
    assert (outcome.passed, outcome.status, outcome.detail) == (False, "ok", detail)
