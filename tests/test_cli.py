"""The command line surface: formats, exit codes, determinism."""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylruns import oracle, verify
from weylruns.cli import main
from weylruns.oracle import SignedDistributionRequest, dist_runs
from weylruns.poly import poly_from_json


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
