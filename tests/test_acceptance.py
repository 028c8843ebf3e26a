"""Acceptance suite: one test per shipped criterion, exact equality only.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.  Criteria with stated time budgets assert them.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import weylruns
from weylruns import oracle
from weylruns.involutions import run_involution_suite
from weylruns.oracle import (
    SignedDistributionRequest,
    dist_runs,
    family_poly,
    snake_subset_contribution,
    subset_contribution_b,
    subset_contribution_d,
)
from weylruns.poly import BiPoly, UniPoly, one_plus_t_multiplicity
from weylruns.verify import MISMATCH_DOCUMENTED, run_checks

# The CLI subprocesses import the package from where this process found it.
_PATHS = [str(Path(weylruns.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATHS))}

GOLDEN = {
    ("R", 4): [0, 2, 12, 10],
    ("R+", 4): [0, 2, 4, 6],
    ("R-", 4): [0, 0, 8, 4],
    ("R", 5): [0, 2, 28, 58, 32],
    ("R+", 5): [0, 2, 12, 30, 16],
    ("R-", 5): [0, 0, 16, 28, 16],
    ("R", 8): [0, 2, 252, 2766, 9576, 14622, 10332, 2770],
    ("R+", 8): [0, 2, 124, 1382, 4792, 7310, 5164, 1386],
    ("R-", 8): [0, 0, 128, 1384, 4784, 7312, 5168, 1384],
}


@contextmanager
def criterion(label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.monotonic() - t0:.1f}s)", flush=True)
        raise
    print(f"[acceptance] {label}: PASS ({time.monotonic() - t0:.1f}s)", flush=True)


def _all_ok(report):
    bad = [o for o in report.outcomes if not o.passed]
    assert not bad, "; ".join(f"{o.theorem} n={o.n}: {o.detail}" for o in bad[:4])


def test_criterion_01_golden_tables():
    with criterion("1: golden Example polynomials and multiplicities"):
        t0 = time.monotonic()
        for (token, n), coeffs in GOLDEN.items():
            assert family_poly(token, n) == UniPoly(coeffs), (token, n)
        mults = {
            ("R", 8): 3, ("R+", 8): 2, ("R-", 8): 2,
            ("R", 4): 1, ("R+", 4): 0, ("R-", 4): 0,
        }
        for (token, n), want in mults.items():
            assert one_plus_t_multiplicity(family_poly(token, n)) == want, (token, n)
        assert time.monotonic() - t0 < 10


def test_criterion_02_signed_bivariate_theorem():
    with criterion("2: signed bivariate theorem and class formulas, n <= 9"):
        t0 = time.monotonic()
        _all_ok(run_checks("thm-sgn-altrun", 1, 9, workers=4))
        _all_ok(run_checks("thm-class-biv", 2, 9, workers=4))
        _all_ok(run_checks("cor-class-uni", 2, 9, workers=4))
        _all_ok(run_checks("cor-sgn-altrun-uni", 1, 9, workers=4))
        assert time.monotonic() - t0 < 120


def test_criterion_03_recurrences():
    with criterion("3: recurrence evaluator equals the class oracle, n = 3..9"):
        _all_ok(run_checks("rec-class-biv", 3, 9))
        _all_ok(run_checks("rec-cross-odd", 3, 9))


def test_criterion_04_divisibility():
    with criterion("4: divisibility bounds and tightness"):
        _all_ok(run_checks("wilf", 4, 10))
        _all_ok(run_checks("div-r-pm", 4, 10))
        _all_ok(run_checks("wilf-tightness", 4, 8))
        for ident in ("thm-zhao-bgt", "thm-div-b", "thm-div-b-pm", "thm-div-d", "thm-div-d-pm"):
            _all_ok(run_checks(ident, 1, 8))
        # tightness spelled out: both halves sit at exactly m-1 for n = 4, 5, 8
        for n in (4, 5, 8):
            m = (n - 2) // 2
            for token in ("R+", "R-"):
                assert one_plus_t_multiplicity(family_poly(token, n)) == m - 1


def test_criterion_05_moment_identities():
    with criterion("5: moment identities across all stated ranges"):
        _all_ok(run_checks("lem-moment", 6, 10))
        _all_ok(run_checks("thm-moment-r-pm", 6, 10))
        for ident in ("thm-moment-bgt", "cor-moment-b", "thm-moment-b-pm",
                      "thm-moment-dgt", "cor-moment-d", "thm-moment-d-pm"):
            _all_ok(run_checks(ident, 5, 8))


def test_criterion_06_type_bd_main_theorems():
    with criterion("6: type B/D main theorems, n = 1..8"):
        for ident in ("thm-b-main", "cor-b-uni", "lem-b-flipsgn", "thm-d-main", "cor-d-uni"):
            _all_ok(run_checks(ident, 1, 8))
        base_a = dist_runs(
            SignedDistributionRequest("B", 1, sign_statistic="inv_b", end_restriction="a"), "pq"
        )
        base_d = dist_runs(
            SignedDistributionRequest("B", 1, sign_statistic="inv_b", end_restriction="d"), "pq"
        )
        assert base_a == BiPoly.const(1) and base_d == BiPoly.const(-1)


def test_criterion_07_cancellation_structure():
    with criterion("7: subset cancellations, T sets and partitions, n <= 7"):
        _all_ok(run_checks("lem-b-cancel", 3, 7))
        _all_ok(run_checks("lem-d-cancel", 3, 7))
        _all_ok(run_checks("lem-b-minus-t", 1, 7))
        _all_ok(run_checks("lem-d-minus-t", 3, 7))


def test_criterion_08_gao_sun_and_equalities():
    with criterion("8: Gao-Sun differences and the B/D equalities, n <= 8"):
        for ident in ("thm-gao-sun-first", "thm-d-total-diff", "thm-b-equals-d"):
            _all_ok(run_checks(ident, 1, 8))


def test_criterion_09_egf_suite():
    with criterion("9: EGF suite (alternating and snakes) with difference tables"):
        _all_ok(run_checks("egf-alt-a", 0, 10))
        _all_ok(run_checks("thm-egf-alt-a-pm", 0, 10))
        _all_ok(run_checks("lem-alt-diff-a", 2, 10))
        for ident in ("thm-egf-alt-b", "thm-egf-alt-b-pm", "thm-egf-alt-d",
                      "thm-egf-alt-d-pm", "lem-alt-b-equal"):
            _all_ok(run_checks(ident, 0, 8))
        _all_ok(run_checks("lem-alt-d-equal", 2, 8))
        report = run_checks("thm-egf-alt-bmd-pm", 0, 8)
        _all_ok(report)
        assert any(o.status == MISMATCH_DOCUMENTED for o in report.outcomes)
        for ident in ("egf-snakes-springer", "thm-snakes-b-egf", "thm-snakes-d-egf",
                      "snake-b-equals-d"):
            _all_ok(run_checks(ident, 0, 8))
        for ident in ("lem-snake-diff-b", "thm-gao-sun-snakes", "thm-snake-diff-d"):
            _all_ok(run_checks(ident, 1, 8))
        _all_ok(run_checks("lem-snake-l-subsets", 3, 6))


def test_criterion_10_involution_suite():
    with criterion("10: sign-reversing involution suite, exhaustive n <= 6"):
        for n in range(1, 7):
            fails = run_involution_suite(n)
            assert fails == [], fails[:5]


def test_criterion_11_worker_determinism():
    with criterion("11: identical results with 1 and 8 workers"):
        # each pass starts cold, so every tally is filled by a call given its own worker count
        answers = []
        for workers in (1, 8):
            oracle.clear_caches()
            answers.append([
                dist_runs(SignedDistributionRequest("A", 8, "inv_a"), "pq", workers),
                dist_runs(SignedDistributionRequest("B", 8, "inv_b"), "pq", workers),
                *(contribution(6, k, end, workers) for contribution, top in
                  ((subset_contribution_b, 8), (subset_contribution_d, 9))
                  for k in range(1, top + 1) for end in ("a", "d")),
                *(snake_subset_contribution(6, k, parity, workers)
                  for k in range(1, 5) for parity in ("plus", "minus")),
            ])
        assert answers[0] == answers[1]
        outs = []
        for threads in ("1", "8"):
            res = subprocess.run(
                [sys.executable, "-m", "weylruns.cli", "dist", "--group", "D", "--n", "5",
                 "--signed", "invD", "--biv", "--threads", threads],
                capture_output=True, text=True, check=True, env=CLI_ENV,
            )
            outs.append(res.stdout)
        assert outs[0] == outs[1]
        verif = []
        for threads in ("1", "8"):
            res = subprocess.run(
                [sys.executable, "-m", "weylruns.cli", "verify", "--theorem", "cor-b-uni",
                 "--n-max", "5", "--format", "json", "--threads", threads],
                capture_output=True, text=True, check=True, env=CLI_ENV,
            )
            verif.append(res.stdout)
        assert verif[0] == verif[1]
        assert json.loads(verif[0])["ok"] is True
