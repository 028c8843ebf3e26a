"""Command line surface: distributions, the verification harness, tables.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
bad worker count), 3 internal error: an integrity error (e.g. a non-integer
EGF coefficient) or any other unexpected exception.  The worker count comes
from --threads, else the WEYLRUNS_THREADS environment variable, else 1; it
must be an integer >= 1, and counts above oracle.MAX_WORKERS (32) are
clamped to it.  `main` resolves it once, before any command runs, and is
the one reader of WEYLRUNS_THREADS; no oracle fill splits over it, as each
runs in the calling thread.  Output for fixed inputs is byte-identical
across runs and worker counts.  A reader that closes stdout early (`| head`)
leaves the exit code as it was and adds nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import perm_core
from . import verify as verify_mod
from .errors import DomainError, IntegrityError
from .oracle import SignedDistributionRequest, dist_runs, dist_runs_parity_split, family_poly, resolve_workers
from .poly import UniPoly, poly_to_json


def _render_poly(poly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly_to_json(poly), sort_keys=True)
    if fmt == "latex":
        return poly.latex()
    # csv: one term per row
    if isinstance(poly, UniPoly):
        lines = ["exp_t,coef"]
        lines += [f"{e},{c}" for e, c in enumerate(poly.coeffs) if c != 0]
    else:
        lines = ["exp_p,exp_q,coef"]
        lines += [f"{i},{j},{c}" for (i, j), c in sorted(poly.terms.items())]
    return "\n".join(lines)


# Each command returns (exit code, stdout text); `main` writes the text.

def cmd_dist(args) -> tuple[int, str]:
    signed_map = {"none": "none", "invA": "inv_a", "invB": "inv_b", "invD": "inv_d"}
    sign_statistic = signed_map[args.signed]
    if args.parity != "all":
        if args.biv or sign_statistic != "none" or args.end or args.first:
            raise DomainError("--parity plus/minus is a plain univariate split; "
                              "it excludes --biv, --signed, --end and --first")
        plus, minus = dist_runs_parity_split(args.group, args.n, workers=args.threads)
        poly = plus if args.parity == "plus" else minus
    else:
        first = {None: None, "pos": "positive", "neg": "negative"}[args.first]
        req = SignedDistributionRequest(
            args.group, args.n, sign_statistic=sign_statistic,
            end_restriction=args.end, first_letter_sign=first,
        )
        poly = dist_runs(req, "pq" if args.biv else "t", workers=args.threads)
    return 0, _render_poly(poly, args.format) + "\n"


def cmd_verify(args) -> tuple[int, str]:
    report = verify_mod.run_checks(args.theorem, args.n_min, args.n_max, workers=args.threads)
    code = 0 if report.ok else 1
    if args.format == "json":
        payload = report.to_json()
        statuses = sorted({o.status for o in report.outcomes if o.status != "ok"})
        payload["statuses"] = statuses
        return code, json.dumps(payload, sort_keys=True) + "\n"
    lines = []
    for o in report.outcomes:
        tag = "PASS" if o.passed else "FAIL"
        if o.status == verify_mod.SKIPPED:
            tag = "SKIP"
        elif o.status == verify_mod.MISMATCH_DOCUMENTED:
            tag = "NOTE"
        lines.append(f"{tag} {o.theorem} n={o.n}: {o.detail}\n")
    skipped = sum(o.status == verify_mod.SKIPPED for o in report.outcomes)
    failed = sum(not o.passed for o in report.outcomes)
    summary = f"# {len(report.outcomes) - skipped - failed} passed, {failed} failed"
    lines.append(summary + (f", {skipped} skipped" if skipped else "") + "\n")
    return code, "".join(lines)


POLY_FAMILIES = {
    "R": ("R",), "Rpm": ("R+", "R-"),
    "RB": ("RB",), "RBpm": ("RB+", "RB-"), "RBgt": ("RB>",),
    "RD": ("RD",), "RDpm": ("RD+", "RD-"), "RDgt": ("RD>",),
    "RBmD": ("RB-D",), "RBmDpm": ("RB-D+", "RB-D-"), "RBmDgt": ("RB-D>",),
}
COUNT_FAMILIES = {
    "E": ("A",), "Epm": ("A+", "A-"),
    "EB": ("B",), "EBpm": ("B+", "B-"), "ED": ("D",), "EDpm": ("D+", "D-"),
    "EBmD": ("B-D",), "EBmDpm": ("B-D+", "B-D-"),
    "S": ("B",), "SB": ("B",), "SBpm": ("B+", "B-"), "SD": ("D",), "SDpm": ("D+", "D-"),
    "SBmD": ("B-D",), "SBmDpm": ("B-D+", "B-D-"),
}


# Families over S_n; every other family is over B_n and its subgroups.
TYPE_A_FAMILIES = ("R", "Rpm", "E", "Epm")


def _table_rows(family: str, n_max: int):
    if family not in POLY_FAMILIES and family not in COUNT_FAMILIES:
        raise DomainError(f"unknown table family {family!r}; "
                          f"choose from {sorted(POLY_FAMILIES) + sorted(COUNT_FAMILIES)}")
    cap = perm_core.CAP_A if family in TYPE_A_FAMILIES else perm_core.CAP_B
    if not 0 <= n_max <= cap:
        raise DomainError(f"--n-max {n_max} outside 0..{cap} for family {family}")
    if family in POLY_FAMILIES:
        tokens = POLY_FAMILIES[family]
        header = ["n", "k"] + list(tokens)
        rows = []
        for n in range(1, n_max + 1):
            polys = [family_poly(tok, n) for tok in tokens]
            top = max((p.degree if not p.is_zero() else 0) for p in polys)
            for k in range(0, int(top) + 1):
                coefs = [p.coeff(k) for p in polys]
                if any(coefs):
                    rows.append([n, k] + coefs)
        return header, rows
    tokens = COUNT_FAMILIES[family]
    counter = verify_mod.snake_count if family.startswith("S") else verify_mod.alt_count
    labels = [family[:-2] + "+", family[:-2] + "-"] if family.endswith("pm") else [family]
    header = ["n"] + labels
    rows = [[n] + [counter(tok, n) for tok in tokens] for n in range(0, n_max + 1)]
    return header, rows


def cmd_table(args) -> tuple[int, str]:
    header, rows = _table_rows(args.family, args.n_max)
    if args.format == "json":
        body = json.dumps({"columns": header, "rows": rows}, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
        body = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc}") from exc
    return 0, ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weylruns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="compute a run-distribution polynomial")
    p.add_argument("--group", required=True, choices=["A", "B", "D", "B-D"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--signed", default="none", choices=["none", "invA", "invB", "invD"])
    p.add_argument("--biv", action="store_true", help="bivariate peak/valley polynomial")
    p.add_argument("--end", choices=["a", "d", "aa", "ad", "da", "dd"],
                   help="restrict to a final ascent or descent (B, D, B-D: a/d), "
                        "or to a first/last class (A: aa/ad/da/dd)")
    p.add_argument("--first", choices=["pos", "neg"], help="restrict by first-letter sign")
    p.add_argument("--parity", default="all", choices=["all", "plus", "minus"])
    p.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("verify", help="run oracle-vs-formula checks")
    p.add_argument("--theorem", required=True)
    bound = f"exit 2 outside 0..{max(perm_core.CAP_A, perm_core.CAP_B)}, the largest enumeration cap"
    p.add_argument("--n-min", type=int, default=None, help=f"smallest n to check; {bound}")
    p.add_argument("--n-max", type=int, default=None, help=f"largest n to check; {bound}")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="write a coefficient or count table")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = resolve_workers(args.threads)
        code, out = args.fn(args)
        try:
            sys.stdout.write(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early; what is left goes to devnull, so that
            # the interpreter's last flush of stdout cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit code 1 is reserved for a failed check
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
