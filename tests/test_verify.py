"""The verification harness: registry, ranges, statuses, report shape."""

import pytest

from weylruns import perm_core
from weylruns.errors import DomainError
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
    negative = run_checks("thm-sgn-altrun", n_min=-2, n_max=1)
    assert [(o.n, o.status) for o in negative.outcomes] == [
        (-2, SKIPPED), (-1, SKIPPED), (0, SKIPPED), (1, "ok")]
    with pytest.raises(DomainError):
        run_checks("wilf", n_min=5, n_max=3)


def test_above_cap_is_skipped_not_dropped():
    saved = perm_core.CAP_A
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


@pytest.mark.parametrize(
    "ident",
    ["thm-class-biv", "rec-class-biv", "thm-b-main", "thm-d-main", "lem-b-flipsgn",
     "thm-b-equals-d", "lem-alt-b-equal", "thm-snake-diff-d", "snake-b-equals-d"],
)
def test_spot_ids_pass_at_small_n(ident):
    assert run_checks(ident, n_max=5).ok


def test_length_decomposition_holds_through_n6():
    assert run_checks("cor-inv-bd", 1, 6).ok


def test_length_decomposition_is_checked_by_brute_force(monkeypatch):
    """cor-inv-bd walks B_n word by word: it reads nothing of the oracle's
    kernel, and a wrong per-word length makes it fail."""
    from weylruns import oracle, verify

    def no_kernel(*_args, **_kwargs):
        raise AssertionError("the oracle's walk ran")

    for name in ("_perm_blocks", "_signed_blocks", "_inv_parity", "_code_table"):
        monkeypatch.setattr(oracle, name, no_kernel)
    assert run_checks("cor-inv-bd", 1, 6).ok
    monkeypatch.setattr(verify, "inv_b", lambda w: perm_core.inv_d(w) + (w[0] < 0))
    assert not run_checks("cor-inv-bd", 2, 2).ok
