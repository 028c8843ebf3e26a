"""The command line surface: formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylruns
from weylruns import closed_forms as cf
from weylruns import oracle, series, verify
from weylruns.cli import main
from weylruns.oracle import SignedDistributionRequest, class_poly_a, dist_runs
from weylruns.poly import poly_from_json, poly_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4")
    assert code == 0
    assert poly_from_json(json.loads(out)) == dist_runs(SignedDistributionRequest("A", 4))
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--signed", "invA", "--biv")
    assert code == 0
    want = dist_runs(SignedDistributionRequest("A", 4, sign_statistic="inv_a"), "pq")
    assert poly_from_json(json.loads(out)) == want


def test_dist_csv_and_latex(capsys):
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["exp_t,coef", "1,2", "2,12", "3,10"]
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--format", "latex")
    assert out.strip() == "2t + 12t^{2} + 10t^{3}"
    code, out, _ = run_cli(
        capsys, "dist", "--group", "A", "--n", "4", "--signed", "invA", "--biv",
        "--format", "latex",
    )
    assert out.strip() == "2 - 2q - 2p + 2pq"


@pytest.mark.parametrize("argv,want", [
    (("--group", "D", "--n", "3", "--signed", "invD"), "t - t^{3}"),
    (("--group", "B", "--n", "4", "--signed", "invD", "--first", "neg"), "t - t^{2} - t^{3} + t^{4}"),
    (("--group", "B", "--n", "3", "--signed", "invB"), "0"),
    (("--group", "D", "--n", "4", "--signed", "invD", "--biv", "--end", "d"), "1 - p - pq + p^{2}q"),
    (("--group", "B", "--n", "2", "--signed", "invB", "--biv"), "2 - q - p"),
    (("--group", "B", "--n", "3", "--signed", "invB", "--biv"), "0"),
])
def test_dist_latex_stdout_is_pinned(capsys, argv, want):
    """Zero, unit and negative coefficients, univariate and bivariate."""
    code, out, _ = run_cli(capsys, "dist", *argv, "--format", "latex")
    assert code == 0
    assert out == want + "\n"


def test_dist_parity_and_filters(capsys):
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--parity", "plus",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["exp_t,coef", "1,2", "2,4", "3,6"]
    code, out, _ = run_cli(capsys, "dist", "--group", "B", "--n", "2", "--end", "a",
                           "--signed", "invB", "--biv", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["exp_p,exp_q,coef", "0,0,1", "0,1,-1"]
    code, out, _ = run_cli(capsys, "dist", "--group", "B", "--n", "2", "--first", "pos",
                           "--format", "csv")
    assert code == 0
    # words 12, 1-2, 21, 2-1: runs 1, 2, 2, 2
    assert out.splitlines() == ["exp_t,coef", "1,1", "2,3"]


def test_dist_usage_errors(capsys):
    assert run_cli(capsys, "dist", "--group", "B", "--n", "0")[0] == 2
    assert run_cli(capsys, "dist", "--group", "A", "--n", "4", "--end", "a")[0] == 2
    assert run_cli(capsys, "dist", "--group", "A", "--n", "4", "--signed", "invB")[0] == 2
    assert run_cli(capsys, "dist", "--group", "A", "--n", "4", "--parity", "plus", "--biv")[0] == 2


def test_dist_reaches_the_type_a_end_classes(capsys):
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--end", "ad", "--signed", "invA", "--biv")
    assert code == 0
    assert out == json.dumps(poly_to_json(class_poly_a(4, "ad")), sort_keys=True) + "\n"
    # each group still takes only its own end classes
    assert run_cli(capsys, "dist", "--group", "B", "--n", "4", "--end", "aa")[0] == 2


def test_verify_text_summary_counts_skips_apart(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "thm-b-main", "--n-min", "-3", "--n-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines[:-1]] == ["SKIP"] * 4 + ["PASS"]
    assert lines[-1] == "# 1 passed, 0 failed, 4 skipped"
    # the documented mismatch prints NOTE and counts as passed
    code, out, _ = run_cli(capsys, "verify", "--theorem", "thm-egf-alt-bmd-pm", "--n-min", "1", "--n-max", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("NOTE")
    assert out.splitlines()[-1] == "# 2 passed, 0 failed"


def test_all_skipped_run_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "wilf", "--n-min", "12", "--n-max", "12")
    assert code == 0
    assert out.splitlines()[-1] == "# 0 passed, 0 failed, 1 skipped"


@pytest.mark.parametrize("argv,line", [
    (("wilf", "--n-min", "11"), "SKIP wilf n=11: above the stated range n=4..10"),
    (("cor-inv-bd", "--n-min", "7"), "SKIP cor-inv-bd n=7: above the stated range n=1..6"),
    (("wilf", "--n-max", "2"), "SKIP wilf n=2: below the stated range n=4..10"),
])
def test_a_bound_outside_a_named_ids_range_is_reported(capsys, argv, line):
    """One explicit bound that leaves the id's stated range empty is
    reported as skipped at that bound, not as an empty report."""
    code, out, err = run_cli(capsys, "verify", "--theorem", *argv)
    assert (code, err) == (0, "")
    assert out == line + "\n# 0 passed, 0 failed, 1 skipped\n"


def test_verify_text_summary_counts_failures(capsys, monkeypatch, cold_caches):
    monkeypatch.setattr(verify, "alt_count", lambda *_args: -1)
    code, out, _ = run_cli(capsys, "verify", "--theorem", "egf-alt-a", "--n-min", "-1", "--n-max", "2")
    assert code == 1
    assert [ln.split()[0] for ln in out.splitlines()[:-1]] == ["SKIP"] + ["FAIL"] * 3
    assert out.splitlines()[-1] == "# 0 passed, 3 failed, 1 skipped"


def test_verify_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "thm-sgn-altrun",
                           "--n-min", "1", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 5
    assert lines[-1].startswith("#")


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "nonsense")
    assert code == 2
    assert "unknown theorem id" in err
    code, out, err = run_cli(capsys, "verify", "--theorem", "wilf", "--n-min", "5", "--n-max", "3")
    assert code == 2 and out == "" and "empty range" in err


def test_verify_json_documents_mismatch(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "thm-egf-alt-bmd-pm",
                           "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "paper-formula-mismatch-documented" in payload["statuses"]


def test_table_counts(tmp_path, capsys):
    out_path = tmp_path / "e.csv"
    code, _, _ = run_cli(capsys, "table", "--family", "E", "--n-max", "8",
                         "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "n,E"
    assert rows[5] == "4,5"
    sb_path = tmp_path / "sb.csv"
    run_cli(capsys, "table", "--family", "SB", "--n-max", "4", "--out", str(sb_path))
    assert sb_path.read_text().splitlines()[4] == "3,11"


def test_table_empty_range_and_json(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    code, _, _ = run_cli(capsys, "table", "--family", "Rpm", "--n-max", "0", "--out", str(path))
    assert code == 0
    assert path.read_text() == "n,k,R+,R-\n"
    jpath = tmp_path / "r.json"
    run_cli(capsys, "table", "--family", "R", "--n-max", "4", "--out", str(jpath),
            "--format", "json")
    payload = json.loads(jpath.read_text())
    assert payload["columns"] == ["n", "k", "R"]
    assert [4, 2, 12] in payload["rows"]


def test_table_unknown_family(tmp_path, capsys):
    code, _, err = run_cli(capsys, "table", "--family", "Z", "--n-max", "3",
                           "--out", str(tmp_path / "z.csv"))
    assert code == 2 and "unknown table family" in err


@pytest.mark.parametrize("family,n_max", [("SB", "-1"), ("SD", "10"), ("E", "12")])
def test_table_refuses_n_max_outside_the_cap_before_any_walk(tmp_path, capsys, monkeypatch, family, n_max):
    def no_walk(*_args, **_kwargs):
        raise AssertionError("a table row was computed")

    monkeypatch.setattr(verify, "alt_count", no_walk)
    monkeypatch.setattr(verify, "snake_count", no_walk)
    path = tmp_path / "t.csv"
    code, _, err = run_cli(capsys, "table", "--family", family, "--n-max", n_max, "--out", str(path))
    assert code == 2 and "--n-max" in err
    assert not path.exists()


def test_thread_count_does_not_change_bytes(tmp_path, capsys):
    outputs = []
    for threads in ("1", "8"):
        code, out, _ = run_cli(capsys, "dist", "--group", "B", "--n", "4",
                               "--signed", "invB", "--biv", "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    paths = []
    for threads in ("1", "8"):
        p = tmp_path / f"t{threads}.csv"
        run_cli(capsys, "table", "--family", "RB", "--n-max", "4", "--out", str(p),
                "--threads", threads)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


DIST_COMMANDS = (
    ("dist", "--group", "A", "--n", "8"),
    ("dist", "--group", "B", "--n", "6", "--signed", "invB", "--biv"),
)


@settings(max_examples=10, deadline=None)
@given(argv=st.sampled_from(DIST_COMMANDS), threads=st.integers(2, 8))
def test_dist_stdout_is_independent_of_threads(argv, threads):
    outputs = []
    for count in (1, threads):
        oracle.clear_caches()  # each run fills the tally with its own worker count
        with redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--threads", str(count)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] and outputs[0] == outputs[1]


def test_threads_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYLRUNS_THREADS", "2")
    code, out, _ = run_cli(capsys, "dist", "--group", "A", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "1,2"


def test_bad_worker_counts_are_usage_errors(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "dist", "--group", "A", "--n", "3", "--threads", "-4")
    assert code == 2 and out == "" and "worker count" in err
    monkeypatch.setenv("WEYLRUNS_THREADS", "abc")
    for argv in (("dist", "--group", "A", "--n", "3"), ("verify", "--theorem", "cor-inv-bd")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err


def test_unexpected_errors_exit_3(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "run_checks", broken)
    code, out, err = run_cli(capsys, "verify", "--theorem", "wilf")
    assert code == 3 and out == "" and "boom" in err


# The default `verify --theorem all` reports, pinned byte for byte.  A change
# that means to alter them updates these digests in the same commit.
VERIFY_ALL_MD5 = {
    "json": "d47de36e81a6bd366d3697d7d919276d",
    "text": "745b1420f714cebe648716ae2baeb291",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_MD5))
def test_verify_all_stdout_is_pinned(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "--theorem", "all", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == VERIFY_ALL_MD5[fmt]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_all_stdout_is_pinned_cold_and_warm(capsys, threads):
    """A second run in the same process reads every answer from the filled
    caches and their marginals, and prints the same bytes."""
    oracle.clear_caches()
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "--theorem", "all", "--format", "json", "--threads", threads)
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == VERIFY_ALL_MD5["json"]


def test_a_cold_run_after_clear_caches_does_all_its_work_again(capsys, monkeypatch):
    """Every walk, word-by-word pass and closed-form evaluation of `verify
    --theorem all` runs as often after oracle.clear_caches() as in the first
    cold run, and not at all in a warm rerun: no cache outlives clear_caches."""
    walks = [(verify, "_descent_sort"), (oracle, "_insert_top"), (oracle, "_subset_labels"), (oracle, "build_T"),
             (series, "egf_alt"), (series, "egf_snakes"), (series, "egf_alt_bmd_pm_corrected")]
    walks += [(cf, name) for name, fn in vars(cf).items()
              if callable(fn) and getattr(fn, "__module__", None) == cf.__name__ and not name.startswith("_")]
    calls = dict.fromkeys([name for _, name in walks], 0)
    for module, name in walks:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    runs = []
    for clear in (True, True, False):
        if clear:
            oracle.clear_caches()
        calls.update(dict.fromkeys(calls, 0))
        assert run_cli(capsys, "verify", "--theorem", "all", "--threads", "1")[0] == 0
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert all(runs[0].values())
    assert not any(runs[2].values())


# A reader that closes stdout before the command writes.  Python buffers a pipe,
# so a small output fails only at the interpreter's last flush and a large one
# (over the buffer) fails in the write itself; both must keep the verdict.
_SRC = str(Path(weylruns.__file__).resolve().parents[1])
_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_BUFFERED_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
_FAILING_EGF = "import weylruns.verify as v; v.alt_count = lambda *_args: -1; "


@pytest.mark.parametrize("setup,argv,want", [
    ("", ("dist", "--group", "A", "--n", "4"), 0),
    ("", ("verify", "--theorem", "wilf", "--format", "json"), 0),
    ("", ("verify", "--theorem", "all", "--format", "json"), 0),
    (_FAILING_EGF, ("verify", "--theorem", "egf-alt-a", "--n-max", "3"), 1),
    (_FAILING_EGF, ("verify", "--theorem", "all"), 1),
], ids=["dist-small", "verify-small", "verify-large", "failed-small", "failed-large"])
def test_closed_stdout_keeps_the_verdict(setup, argv, want):
    code = setup + "import sys; from weylruns.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=_BUFFERED_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (want, b"")


def test_benchmark_selftest_passes():
    """The benchmark under perfbench/ still imports the package and passes its
    own tiny-size self-test, so a change that breaks it fails here."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest: passed")
