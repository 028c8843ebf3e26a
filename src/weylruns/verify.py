"""Theorem registry and the oracle-vs-formula verification harness.

Each registered id pairs one theorem/lemma/corollary with an exhaustive
check at a given n: the closed form (or the stated identity) against the
brute-force oracle, exact equality only.  `run_checks` drives a set of ids
over a range of n and assembles a deterministic report (sorted by id, n).

A registry row is (id, summary, stated range lo..hi, cap group "A" or "B",
check(n) -> CheckOutcome).  Statements of one kind share one check,
and a row binds its parameters with functools.partial: `_mult_check`
(divisibility), `_moment_check`, `_egf_check`, `_difference_check` (n mod 4
tables), `_equal_check`, and `chk_main`, `chk_uni`, `chk_cancel` and
`chk_gao_sun` for the twin B_n and D_n statements.

`run_checks` keeps the outcome of each (id, n) check in one store made by
`oracle.new_cache`, and returns the read-only outcome itself; a second such
store keeps each EGF closed form the checks read, one series per family
(`_formula_coeff`).  So a check, with its closed forms and word-by-word
passes, runs once until `oracle.clear_caches`, which drops the outcomes and
the series with the oracle's tallies; a run after it does all its work
again.  The one result memo it keeps is `closed_forms._recurrence_table`, a
pure-formula memo that each n also hits for n - 1 within a run.

The alternating B-D± EGF id is special: the printed closed form disagrees
with its own lemma, so that check verifies the lemma-level facts and the
oracle-corrected form, and *documents* the printed formula's deviation via
status "paper-formula-mismatch-documented" instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import factorial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import closed_forms as cf
from . import oracle, perm_core, series
from .errors import DomainError
from .oracle import SignedDistributionRequest, dist_runs, family_poly
from .poly import BiPoly, UniPoly, moment_check, one_plus_t_multiplicity

SKIPPED = "skipped"
MISMATCH_DOCUMENTED = "paper-formula-mismatch-documented"


@dataclass(frozen=True)
class CheckOutcome:
    """One check's verdict at one n, read-only; data maps names to tuples."""

    theorem: str
    n: int
    passed: bool
    detail: str = ""
    status: str = "ok"
    data: Mapping[str, tuple] | None = None

    def __post_init__(self):
        if self.data is not None:
            object.__setattr__(self, "data", MappingProxyType({k: tuple(v) for k, v in self.data.items()}))

    def __reduce__(self):  # a MappingProxyType does not pickle: rebuild from a plain dict
        data = None if self.data is None else dict(self.data)
        return CheckOutcome, (self.theorem, self.n, self.passed, self.detail, self.status, data)


@dataclass
class Report:
    outcomes: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "results": [
                {
                    "theorem": o.theorem,
                    "n": o.n,
                    "passed": o.passed,
                    "status": o.status,
                    "detail": o.detail,
                    **({"data": {k: list(v) for k, v in o.data.items()}} if o.data else {}),
                }
                for o in self.outcomes
            ],
        }


def _skip(n, why, theorem=""):
    return CheckOutcome(theorem, n, True, why, status=SKIPPED)


def _result(n, failures: list[str], detail="ok", data=None):
    """Passed with `detail` when nothing failed, else failed with the failures."""
    return CheckOutcome("", n, not failures, "; ".join(failures) or detail, data=data)


def _vs_formula(got, want) -> list[str]:
    return [] if got == want else [f"oracle {got} != formula {want}"]


# ------------------------------------------------------------------ helpers

def _biv_oracle(n, group, end=None):
    stat = {"A": "inv_a", "B": "inv_b", "D": "inv_d"}[group]
    req = SignedDistributionRequest(group, n, sign_statistic=stat, end_restriction=end)
    return dist_runs(req, "pq")


_N0_COUNTS = {
    # conventions stated alongside the EGF theorems
    ("E", "A"): 1, ("E", "A+"): 1, ("E", "A-"): 0,
    ("E", "B"): 1, ("E", "B+"): 1, ("E", "B-"): 0,
    ("E", "D"): 1, ("E", "B-D"): 0,
    ("E", "D+"): 1, ("E", "D-"): 0, ("E", "B-D+"): 0, ("E", "B-D-"): 0,
    ("S", "B"): 1, ("S", "B+"): 1, ("S", "B-"): 0,
    ("S", "D"): 1, ("S", "B-D"): 0,
    ("S", "D+"): 1, ("S", "D-"): 0, ("S", "B-D+"): 0, ("S", "B-D-"): 0,
}


def _n0_count(kind: str, family: str) -> int:
    """The stated n = 0 count of a family: kind "E" alternating, "S" snakes."""
    try:
        return _N0_COUNTS[(kind, family)]
    except (KeyError, TypeError):  # an unknown or an unhashable token
        raise DomainError(f"no n = 0 count for the {'snake' if kind == 'S' else 'alternating'} "
                          f"family {family!r}") from None


def alt_count(family: str, n: int) -> int:
    """Alternating count for an EGF family token, honoring n = 0 conventions."""
    if type(n) is not int:  # 0.0 or False would read the n = 0 convention
        perm_core.check_integer(n)
    if n == 0:
        return _n0_count("E", family)
    group, parity = perm_core.split_family(family)
    return oracle.count_alternating(group, n, parity)


def snake_count(family: str, n: int) -> int:
    if type(n) is not int:
        perm_core.check_integer(n)
    if n == 0:
        return _n0_count("S", family)
    return oracle.count_snakes(family, n)


def _count(kind, family, n):
    """The alternating (kind "alt") or snake (kind "snake") count of a family."""
    return alt_count(family, n) if kind == "alt" else snake_count(family, n)


# ----------------------------------------------------------- shared checks

def _mult_check(n, *, pairs):
    """Each (token, claim family): (1+t)^claim divides the oracle polynomial."""
    failures, shown = [], []
    for token, family in pairs:
        claim = cf.divisibility_claim(family, n)
        poly = family_poly(token, n)
        if poly.is_zero():
            # the zero polynomial is divisible by every power of (1+t)
            shown.append(f"{token}:zero")
            continue
        mult = one_plus_t_multiplicity(poly)
        shown.append(f"{token}:mult={mult}>=~{claim}")
        if mult < claim:
            failures.append(f"{token}: multiplicity {mult} < guaranteed {claim}")
    return _result(n, failures, " ".join(shown))


def _moment_check(n, *, tokens, drop):
    """The moment identity of each token's polynomial for k = 1..(n - drop) // 2."""
    max_k = (n - drop) // 2
    if max_k < 1:
        return _skip(n, f"no k with the stated bound at n={n}")
    failures = []
    for token in tokens:
        poly = family_poly(token, n)
        for k in range(1, max_k + 1):
            if not moment_check(poly, k):
                failures.append(f"{token}: moment identity fails at k={k}")
    return _result(n, failures, f"k=1..{max_k} on {','.join(tokens)}")


_SERIES = oracle.new_cache()  # (kind, family) -> the family's closed form


def _formula_coeff(kind, family, n, exact=False):
    """The n-th EGF coefficient of a family's closed form: exact, or as the
    integer count it must be.  Kind "alt-corrected" is the corrected B-D±
    form, with family "+" or "-".

    Each form is built once, at order max(n + 1, DEFAULT_ORDER), and again
    only when a larger n needs more terms: truncated EGF arithmetic never
    changes a coefficient below the order, so every order gives the same
    n-th coefficient."""
    s = _SERIES.get((kind, family))
    if s is None or s.order <= n:
        build = {"alt": series.egf_alt, "snake": series.egf_snakes,
                 "alt-corrected": series.egf_alt_bmd_pm_corrected}[kind]
        s = _SERIES[kind, family] = build(family, max(n + 1, series.DEFAULT_ORDER))
    return s.egf_coeff_exact(n) if exact else s.egf_coeff(n)


def _egf_check(n, *, families, kind):
    """The n-th EGF coefficient of each family against its oracle count."""
    failures, shown = [], []
    for fam in families:
        want = _formula_coeff(kind, fam, n)
        got = _count(kind, fam, n)
        shown.append(f"{fam}:{got}")
        if got != want:
            failures.append(f"{fam}: oracle {got} != formula {want}")
    return _result(n, failures, "counts " + " ".join(shown))


_PM_TABLE = (1, 1, -1, -1)  # S^(B,+) - S^(B,-) and S^D - S^(B-D), indexed by n mod 4


def _difference_check(n, *, kind, families, table, label):
    """count(first) - count(second) = table[n mod 4]; label names the difference."""
    got = _count(kind, families[0], n) - _count(kind, families[1], n)
    want = table[n % 4]
    return _result(n, [] if got == want else [f"{label.format(n=n)} = {got} != {want}"])


def _equal_check(n, *, kind, pairs):
    """Each (left, right, message): the two families are equal, as polynomials
    (kind "poly", tokens of family_poly) or as counts."""
    fails = []
    for left, right, message in pairs:
        if kind == "poly":
            equal = family_poly(left, n) == family_poly(right, n)
        else:
            equal = _count(kind, left, n) == _count(kind, right, n)
        if not equal:
            fails.append(message)
    return _result(n, fails)


# ------------------------------------------------------------------ type A

def chk_thm_sgn_altrun(n):
    got = _biv_oracle(n, "A")
    want = cf.thm_sgn_altrun_biv(n)
    fails = _vs_formula(got, want)
    if n % 4 in (2, 3) and not got.is_zero():
        fails.append("zero branch violated")
    return _result(n, fails, f"SgnAltrun_{n}(p,q) = {want}")


def chk_thm_class_biv(n):
    fails = []
    for cls in ("aa", "ad", "da", "dd"):
        got = oracle.class_poly_a(n, cls, True)
        want = cf.thm_class_biv(n, cls)
        if got != want:
            fails.append(f"{cls}: oracle {got} != formula {want}")
    return _result(n, fails)


def chk_cor_class_uni(n):
    fails = []
    for cls in ("aa", "ad", "da", "dd"):
        got = UniPoly.term(1, 1) * oracle.class_poly_a(n, cls, True).substitute_diag()
        want = cf.cor_class_uni(n, cls)
        if got != want:
            fails.append(f"{cls}: t*diag(oracle) {got} != formula {want}")
    return _result(n, fails)


def chk_rec_class(n):
    fails = []
    for cls in ("aa", "ad", "da", "dd"):
        got = cf.recurrence_class_biv(n, cls)
        want = oracle.class_poly_a(n, cls, True)
        if got != want:
            fails.append(f"{cls}: recurrence {got} != oracle {want}")
    return _result(n, fails)


def chk_rec_cross_odd(n):
    if n % 2 == 0:
        return _skip(n, "stated for odd n")
    q = BiPoly.monomial(1, 0, 1)
    p = BiPoly.monomial(1, 1, 0)
    lhs = q * oracle.class_poly_a(n - 1, "ad", True)
    rhs = p * oracle.class_poly_a(n - 1, "da", True)
    return _result(n, [] if lhs == rhs else [f"q*ad_{n-1} {lhs} != p*da_{n-1} {rhs}"])


def chk_cor_sgn_uni(n):
    got = oracle.signed_uni("A", n)
    want = cf.cor_sgn_altrun_uni(n)
    fails = _vs_formula(got, want)
    diag = UniPoly.term(1, 1) * _biv_oracle(n, "A").substitute_diag()
    if diag != got:
        fails.append("t*diag(bivariate) != univariate oracle")
    return _result(n, fails, f"SgnAltrun_{n}(t) = {want}")


def chk_wilf_tightness(n):
    if n not in (4, 5, 8):
        return _skip(n, "tightness is illustrated at n = 4, 5, 8")
    m = (n - 2) // 2
    fails, shown = [], []
    for token in ("R+", "R-"):
        mult = one_plus_t_multiplicity(family_poly(token, n))
        shown.append(f"{token}:mult={mult}")
        if mult != m - 1:
            fails.append(f"{token}: multiplicity {mult} != m-1 = {m - 1} (not tight)")
    if n == 8:
        mult = one_plus_t_multiplicity(family_poly("R", 8))
        shown.append(f"R:mult={mult}")
        if mult != 3:
            fails.append(f"R_8 multiplicity {mult} != 3")
    return _result(n, fails, " ".join(shown) + f" (m={m})")


def chk_remark_g(n):
    r_all = family_poly("R", n)
    r_plus = family_poly("R+", n)
    r_minus = family_poly("R-", n)
    sgn = oracle.signed_uni("A", n)
    fails = []
    for ell in range(1, n):
        g = cf.g_coeff(n, ell)
        if g != sgn.coeff(ell):
            fails.append(f"G({n},{ell})={g} != signed coefficient {sgn.coeff(ell)}")
        if cf.r_pm_coeff(n, ell, "+", r_all.coeff(ell)) != r_plus.coeff(ell):
            fails.append(f"(F+G)/2 wrong at ell={ell}")
        if cf.r_pm_coeff(n, ell, "-", r_all.coeff(ell)) != r_minus.coeff(ell):
            fails.append(f"(F-G)/2 wrong at ell={ell}")
    return _result(n, fails)


def chk_moment_r_pm(n):
    return _moment_check(n, tokens=("R+", "R-"), drop=6 if n % 4 in (0, 1) else 4)


# ------------------------------------------------------------- types B and D

def chk_main(n, *, group):
    fa, fd, ft = (cf.thm_b_formulas if group == "B" else cf.thm_d_formulas)(n)
    fails = []
    for end, want in (("a", fa), ("d", fd), (None, ft)):
        got = _biv_oracle(n, group, end)
        if got != want:
            fails.append(f"end={end or 'total'}: oracle {got} != formula {want}")
    return _result(n, fails)


def chk_uni(n, *, group):
    want = (cf.cor_b_uni if group == "B" else cf.cor_d_uni)(n)
    return _result(n, _vs_formula(oracle.signed_uni(group, n), want))


def chk_b_flipsgn(n):
    a = _biv_oracle(n, "B", "a")
    d = _biv_oracle(n, "B", "d")
    want = -d.swap_vars() if n % 2 else d.swap_vars()
    return _result(n, [] if a == want else [f"end-a {a} != {'-' if n % 2 else ''}swap(end-d) {want}"])


def chk_cancel(n, *, group):
    """Every subset but the 8th contributes zero, and the subsets partition."""
    contribution = oracle.subset_contribution_b if group == "B" else oracle.subset_contribution_d
    fails = []
    for end in ("a", "d"):
        total = BiPoly.zero()
        for k in range(1, 9 if group == "B" else 10):
            c = contribution(n, k, end)
            total = total + c
            if k != 8 and not c.is_zero():
                fails.append(f"{group}^{k} end={end} contributes {c}")
        want = _biv_oracle(n, group, end)
        if total != want:
            fails.append(f"partition end={end}: sum {total} != {want}")
    return _result(n, fails)


def chk_b_minus_t(n):
    fails = []
    for end in ("a", "d"):
        words = oracle.build_T(n, end)
        t_poly = oracle.t_contribution(words, "B")
        want = _biv_oracle(n, "B", end)
        if t_poly != want:
            fails.append(f"T end={end}: {t_poly} != {want}")
        if n >= 3:  # the subsets need n >= 3
            b8 = oracle.subset_contribution_b(n, 8, end)
            if b8 != t_poly:
                fails.append(f"B^8 - T end={end} contributes {b8 - t_poly}")
            if not all(oracle.subset_index_b(w) == 8 for w in words):
                fails.append(f"T end={end} not inside B^8")
        if len(words) != 2 ** (n // 2):
            fails.append(f"|T_{n},{end}| != 2^{n // 2}")
    return _result(n, fails)


def chk_zhao_bgt(n):
    out = _mult_check(n, pairs=(("RB>", "RBgt"),))
    if out.passed and family_poly("RB>", n) != family_poly("RB<", n):
        return _result(n, ["R^{B,>} != R^{B,<}"])
    return out


# Coxeter lengths by descent sorting (Bjorner-Brenti, Combinatorics of
# Coxeter Groups, Prop. 8.1.2 and 8.2.2).  Right multiplication by s_i,
# i >= 1, swaps letters i and i+1 and is a descent when w_i > w_(i+1); s_0
# of B_n negates w_1 and is a descent when w_1 < 0; s_0 of D_n maps w to
# (-w_2, -w_1, w_3, ..) and is a descent when w_1 + w_2 < 0.  Applying a
# right descent lowers the length by one, so the number of applications
# until none is left is the length.  The words are held column-wise, and
# each step applies its generator to every row where it is a descent.

def _b_zero(cols) -> np.ndarray:
    d = cols[0] < 0
    np.abs(cols[0], out=cols[0])
    return d


def _d_zero(cols) -> np.ndarray:
    if len(cols) < 2:  # D_1 is trivial: it has no s_0
        return np.zeros(len(cols[0]), dtype=bool)
    # s = w_1 + w_2 where that is negative, else 0; (w_1 - s, w_2 - s) is
    # (-w_2, -w_1) on the descents and w itself elsewhere
    s = np.minimum(cols[0] + cols[1], 0)
    cols[0] -= s
    cols[1] -= s
    return s < 0


def _descent_sort(cols: list[np.ndarray], zero) -> np.ndarray:
    """The length of each word of a block held as a list of its n int8
    columns, by sweeps of s_0 (the step `zero`), s_1, .., s_(n-1) until a
    sweep applies nothing; the list is left holding the end word's columns.

    A row moves in every sweep until it is sorted, and no length exceeds
    n^2, so the sort stops after n^2 + 1 sweeps at most; a wrong descent
    rule that never settles is cut there.  A step adds at most 1 to a
    length, so no int16 length exceeds n(n^2 + 1), which fits for n <= 31.
    Every applied step raises the sum of the lengths, so a sweep that
    leaves the sum unchanged applied nothing.
    """
    n = len(cols)
    length = np.zeros(len(cols[0]), dtype=np.int16)
    lo, hi = np.empty_like(cols[0]), np.empty_like(cols[0])
    d = np.empty(len(cols[0]), dtype=bool)
    total = 0
    for _ in range(n * n + 1):
        length += zero(cols)
        for i in range(1, n):
            a, b = cols[i - 1], cols[i]
            np.greater(a, b, out=d)
            length += d
            # s_i applied where it is a descent leaves the pair increasing;
            # the pair's old columns become the next pair's buffers
            np.minimum(a, b, out=lo)
            np.maximum(a, b, out=hi)
            cols[i - 1], cols[i], lo, hi = lo, hi, a, b
        last, total = total, int(length.sum())
        if total == last:
            break
    return length


def _length_defects(n: int) -> np.ndarray:
    """The words of B_n counted by d = l_B - l_D - neg, in cell d + n^2.

    True lengths keep |d| <= n^2 (l_B <= n^2 and l_D + neg <= n^2), so the
    tally has 2n^2 + 1 cells; a word outside them, which only a wrong descent
    rule gives, is left out and the total falls short of |B_n|.  B_n comes
    from perm_core's block generator, max(1, 2^16 >> n) permutations a block,
    each crossed with its sign masks: words only, no inversion count.
    """
    size = 2 * n * n + 1
    tally = np.zeros(size, dtype=np.int64)
    for perms in perm_core.perm_blocks(n, 0, factorial(n), max(1, (1 << 16) >> n)):
        words = perm_core.cross_signs(perms)
        ell_b = _descent_sort(list(words.T.copy()), _b_zero)
        ell_d = _descent_sort(list(words.T.copy()), _d_zero)
        cell = ell_b - ell_d + n * n
        for col in words.T:  # minus neg, one column at a time
            cell -= col < 0
        tally += np.bincount(cell[(cell >= 0) & (cell < size)], minlength=size)
    return tally


def chk_inv_bd(n):
    tally = _length_defects(n)
    total, order = int(tally.sum()), factorial(n) << n
    fails = []
    if total != tally[n * n]:
        fails.append(f"{total - int(tally[n * n])} words break inv_B = inv_D + |Negs|")
    if total != order:
        fails.append(f"the length tally holds {total} words, not |B_{n}| = {order}")
    return _result(n, fails)


def chk_d_minus_t(n):
    fails = []
    for end in ("a", "d"):
        t_poly = oracle.t_contribution(oracle.build_T(n, end), "D")
        d8 = oracle.subset_contribution_d(n, 8, end)
        if d8 != t_poly:
            fails.append(f"D^8 - T end={end} contributes {d8 - t_poly}")
    return _result(n, fails)


def chk_gao_sun(n, *, first):
    """R^D - R^(B-D) over the whole groups, or over positive first letters."""
    want = cf.gao_sun_differences(n)[0 if first else 1]
    gt = ">" if first else ""
    got = family_poly("RD" + gt, n) - family_poly("RB-D" + gt, n)
    return _result(n, _vs_formula(got, want))


# --------------------------------------------------------------- EGF suite

def chk_alt_b_equal(n):
    counts = {f: alt_count(f, n) for f in ("B", "B+", "B-", "D", "B-D")}
    fails = []
    if not (counts["B+"] == counts["B-"] == counts["D"] == counts["B-D"]):
        fails.append(f"unequal quarters: {counts}")
    if counts["B"] != 2 * counts["B+"]:
        fails.append("halving fails")
    return _result(n, fails, f"E^B_{n}={counts['B']}")


def chk_egf_alt_bmd_pm(n):
    """The documented-mismatch id: printed B-D± EGF vs oracle and lemma facts."""
    plus, minus = alt_count("B-D+", n), alt_count("B-D-", n)
    printed = {s: _formula_coeff("alt", "B-D" + s, n, exact=True) for s in ("+", "-")}
    corrected = {s: _formula_coeff("alt-corrected", s, n) for s in ("+", "-")}
    fails = []
    if n >= 2 and plus != minus:
        fails.append(f"lemma fact E+=E- fails: {plus} != {minus}")
    if corrected["+"] != plus or corrected["-"] != minus:
        fails.append(
            f"corrected EGF (sec2x+tan2x-1±2x)/4 disagrees with oracle ({plus},{minus})"
        )
    printed_matches = printed["+"] == plus and printed["-"] == minus
    data = {
        "oracle": (plus, minus),
        "printed_formula": (str(printed["+"]), str(printed["-"])),
        "corrected_formula": (corrected["+"], corrected["-"]),
    }
    if fails or printed_matches:
        return _result(n, fails, f"printed formula agrees at n={n}", data)
    return CheckOutcome(
        "", n, True,
        f"printed EGF gives ({printed['+']}, {printed['-']}), oracle gives ({plus}, {minus}); "
        "corrected (sec2x+tan2x-1±2x)/4 matches",
        status=MISMATCH_DOCUMENTED, data=data,
    )


def chk_snake_diff_d(n):
    fails = []
    dplus, dminus = snake_count("D+", n), snake_count("D-", n)
    if dplus - dminus != _PM_TABLE[n % 4]:
        fails.append(f"S^(D,+)-S^(D,-) = {dplus - dminus} != {_PM_TABLE[n % 4]}")
    bp, bm = snake_count("B-D+", n), snake_count("B-D-", n)
    if bp != bm:
        fails.append(f"S^(B-D,+)-S^(B-D,-) = {bp - bm} != 0")
    if n >= 3:
        p2, m2 = snake_count("D+", n - 2), snake_count("D-", n - 2)
        if dplus - dminus != m2 - p2:
            fails.append("jump-by-two recurrence fails for D")
        bp2, bm2 = snake_count("B-D+", n - 2), snake_count("B-D-", n - 2)
        if bp - bm != bm2 - bp2:
            fails.append("jump-by-two recurrence fails for B-D")
    return _result(n, fails)


def chk_snake_l_subsets(n):
    fails = []
    for k in (1, 2, 3):
        p = oracle.snake_subset_contribution(n, k, "plus")
        m = oracle.snake_subset_contribution(n, k, "minus")
        if p != m:
            fails.append(f"|L^{k} ∩ D+| = {p} != |L^{k} ∩ D-| = {m}")
    for parity, fam in (("plus", "D+"), ("minus", "D-")):
        total = sum(oracle.snake_subset_contribution(n, k, parity) for k in range(1, 5))
        if total != snake_count(fam, n):
            fails.append(f"L partition misses snakes for {fam}")
    l4 = oracle.snake_subset_contribution(n, 4, "plus") - oracle.snake_subset_contribution(n, 4, "minus")
    want = snake_count("D-", n - 2) - snake_count("D+", n - 2)
    if l4 != want:
        fails.append(f"L^4 difference {l4} != jump value {want}")
    return _result(n, fails)


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class TheoremCheck:
    ident: str
    summary: str
    lo: int
    hi: int
    group: str  # "A" or "B": the enumeration cap that bounds n
    fn: Callable

    @property
    def max_n(self) -> int:
        return perm_core.CAP_A if self.group == "A" else perm_core.CAP_B


def _reg() -> dict[str, TheoremCheck]:
    entries = [
        # type A
        ("thm-sgn-altrun", "signed bivariate run sum over S_n equals the closed form", 1, 9, "A", chk_thm_sgn_altrun),
        ("thm-class-biv", "per-class signed bivariate formulas", 2, 9, "A", chk_thm_class_biv),
        ("cor-class-uni", "per-class signed univariate formulas", 2, 9, "A", chk_cor_class_uni),
        ("rec-class-biv", "insertion recurrences reproduce the class oracle", 3, 9, "A", chk_rec_class),
        ("rec-cross-odd", "q*ad = p*da cross relation feeding the odd recurrence", 3, 9, "A", chk_rec_cross_odd),
        ("cor-sgn-altrun-uni", "signed univariate run sum over S_n", 1, 9, "A", chk_cor_sgn_uni),
        ("wilf", "(1+t)^floor((n-2)/2) divides R_n", 4, 10, "A", partial(_mult_check, pairs=(("R", "R"),))),
        ("div-r-pm", "divisibility of the even/odd halves R_n^±", 4, 10, "A",
         partial(_mult_check, pairs=(("R+", "Rpm"), ("R-", "Rpm")))),
        ("wilf-tightness", "the R_n^± exponent m-1 is attained at n = 4, 5, 8", 4, 8, "A", chk_wilf_tightness),
        ("remark-g-formula", "explicit coefficient formula for R_(n,l)^±", 4, 10, "A", chk_remark_g),
        ("lem-moment", "odd/even moment identity for R_n", 6, 10, "A", partial(_moment_check, tokens=("R",), drop=4)),
        ("thm-moment-r-pm", "moment identities for R_n^±", 6, 10, "A", chk_moment_r_pm),
        ("egf-alt-a", "sec x + tan x counts alternating permutations", 0, 10, "A",
         partial(_egf_check, families=("A",), kind="alt")),
        ("thm-egf-alt-a-pm", "EGF of even/odd alternating permutations", 0, 10, "A",
         partial(_egf_check, families=("A+", "A-"), kind="alt")),
        ("lem-alt-diff-a", "E+ - E- follows the n mod 4 table", 2, 10, "A",
         partial(_difference_check, kind="alt", families=("A+", "A-"), table=(1, 0, -1, 0), label="E+^({n})-E-^({n})")),
        # type B
        ("thm-b-main", "type B signed bivariate formulas (ends and total)", 1, 8, "B", partial(chk_main, group="B")),
        ("cor-b-uni", "type B signed univariate formula", 1, 8, "B", partial(chk_uni, group="B")),
        ("lem-b-flipsgn", "sign-flip relation between the two type B ends", 1, 8, "B", chk_b_flipsgn),
        ("lem-b-cancel", "type B subsets 1..7 cancel; the 8 subsets partition", 3, 7, "B",
         partial(chk_cancel, group="B")),
        ("lem-b-minus-t", "B^8 minus the T set cancels; T carries the whole sum", 1, 7, "B", chk_b_minus_t),
        ("thm-zhao-bgt", "divisibility of the positive-first-letter type B family", 1, 8, "B", chk_zhao_bgt),
        ("thm-div-b", "divisibility of R_n^B", 1, 8, "B", partial(_mult_check, pairs=(("RB", "RB"),))),
        ("thm-div-b-pm", "divisibility of R_n^(B,±)", 1, 8, "B",
         partial(_mult_check, pairs=(("RB+", "RBpm"), ("RB-", "RBpm")))),
        ("thm-moment-bgt", "moment identities for R^(B,>)", 5, 8, "B", partial(_moment_check, tokens=("RB>",), drop=3)),
        ("cor-moment-b", "moment identities for R^B", 5, 8, "B", partial(_moment_check, tokens=("RB",), drop=3)),
        ("thm-moment-b-pm", "moment identities for R^(B,±)", 5, 8, "B",
         partial(_moment_check, tokens=("RB+", "RB-"), drop=3)),
        # type D
        ("cor-inv-bd", "inv_B = inv_D + |Negs| on all of B_n", 1, 6, "B", chk_inv_bd),
        ("thm-d-main", "type D signed bivariate formulas (ends and total)", 1, 8, "B", partial(chk_main, group="D")),
        ("cor-d-uni", "type D signed univariate formula", 1, 8, "B", partial(chk_uni, group="D")),
        ("lem-d-cancel", "type D subsets 1..7 and 9 cancel; the 9 subsets partition", 3, 7, "B",
         partial(chk_cancel, group="D")),
        ("lem-d-minus-t", "D^8 minus the T set cancels under inv_D", 3, 7, "B", chk_d_minus_t),
        ("thm-gao-sun-first", "difference of positive-first D and B-D families", 1, 8, "B",
         partial(chk_gao_sun, first=True)),
        ("thm-d-total-diff", "difference R^D - R^(B-D)", 1, 8, "B", partial(chk_gao_sun, first=False)),
        ("thm-b-equals-d", "R^(B,+) = R^D and R^(B,-) = R^(B-D)", 1, 8, "B",
         partial(_equal_check, kind="poly", pairs=(("RB+", "RD", "R^{B,+} != R^D"),
                                                   ("RB-", "RB-D", "R^{B,-} != R^{B-D}")))),
        ("thm-div-d", "divisibility of R^D and R^(B-D)", 1, 8, "B",
         partial(_mult_check, pairs=(("RD", "RD"), ("RB-D", "RBmD")))),
        ("thm-div-d-pm", "divisibility of R^(D,±) and R^(B-D,±)", 1, 8, "B",
         partial(_mult_check, pairs=(("RD+", "RDpm"), ("RD-", "RDpm"), ("RB-D+", "RBmDpm"), ("RB-D-", "RBmDpm")))),
        ("thm-moment-dgt", "moment identities for R^(D,>) and R^(B-D,>)", 5, 8, "B",
         partial(_moment_check, tokens=("RD>", "RB-D>"), drop=3)),
        ("cor-moment-d", "moment identities for R^D", 5, 8, "B", partial(_moment_check, tokens=("RD",), drop=3)),
        ("thm-moment-d-pm", "moment identities for R^(D,±)", 5, 8, "B",
         partial(_moment_check, tokens=("RD+", "RD-"), drop=3)),
        # EGFs: alternating
        ("thm-egf-alt-b", "sec 2x + tan 2x counts type B alternating permutations", 0, 8, "B",
         partial(_egf_check, families=("B",), kind="alt")),
        ("thm-egf-alt-b-pm", "EGF of the B± alternating counts", 0, 8, "B",
         partial(_egf_check, families=("B+", "B-"), kind="alt")),
        ("thm-egf-alt-d", "EGF of the D and B-D alternating counts", 0, 8, "B",
         partial(_egf_check, families=("D", "B-D"), kind="alt")),
        ("lem-alt-b-equal", "the four quarter counts all equal E^B/2", 1, 8, "B", chk_alt_b_equal),
        ("thm-egf-alt-d-pm", "EGF of the D± alternating counts", 0, 8, "B",
         partial(_egf_check, families=("D+", "D-"), kind="alt")),
        ("lem-alt-d-equal", "E^(D,±) and E^(B-D,±) halve their families", 2, 8, "B",
         partial(_equal_check, kind="alt", pairs=(("D+", "D-", "E^{D,+} != E^{D,-}"),
                                                  ("B-D+", "B-D-", "E^{B-D,+} != E^{B-D,-}")))),
        ("thm-egf-alt-bmd-pm", "printed B-D± alternating EGF (documented mismatch)", 0, 8, "B", chk_egf_alt_bmd_pm),
        # EGFs: snakes
        ("egf-snakes-springer", "1/(cos x - sin x) counts type B snakes", 0, 8, "B",
         partial(_egf_check, families=("B",), kind="snake")),
        ("thm-snakes-b-egf", "EGF of S^(B,±), S^D, S^(B-D)", 0, 8, "B",
         partial(_egf_check, families=("B+", "B-", "D", "B-D"), kind="snake")),
        ("thm-snakes-d-egf", "EGF of S^(D,±) and S^(B-D,±)", 0, 8, "B",
         partial(_egf_check, families=("D+", "D-", "B-D+", "B-D-"), kind="snake")),
        ("lem-snake-diff-b", "S^(B,+) - S^(B,-) follows the n mod 4 table", 1, 8, "B",
         partial(_difference_check, kind="snake", families=("B+", "B-"), table=_PM_TABLE, label="S^(B,+)-S^(B,-)")),
        ("thm-gao-sun-snakes", "S^D - S^(B-D) follows the n mod 4 table", 1, 8, "B",
         partial(_difference_check, kind="snake", families=("D", "B-D"), table=_PM_TABLE, label="S^D-S^(B-D)")),
        ("thm-snake-diff-d", "S^(D,±), S^(B-D,±) differences and jump recurrences", 1, 8, "B", chk_snake_diff_d),
        ("lem-snake-l-subsets", "snake staircase subsets pair off except the last", 3, 6, "B", chk_snake_l_subsets),
        ("snake-b-equals-d", "S^(B,+) = S^D and S^(B,-) = S^(B-D)", 0, 8, "B",
         partial(_equal_check, kind="snake", pairs=(("B+", "D", "S^{B,+} != S^D"),
                                                    ("B-", "B-D", "S^{B,-} != S^{B-D}")))),
    ]
    return {e[0]: TheoremCheck(*e) for e in entries}


REGISTRY = _reg()


def available_ids() -> list[str]:
    return list(REGISTRY)


_OUTCOMES = oracle.new_cache()  # (id, n) -> the CheckOutcome of its check


def run_checks(
    theorem_id: str,
    n_min: int | None = None,
    n_max: int | None = None,
    workers: int | None = None,
) -> Report:
    """Run one id (or "all") over a range of n; outcomes sorted by (id, n).

    n below an id's stated range or above the enumeration cap is skipped.
    When one explicit bound leaves a named id's stated range empty, that
    bound gets a skipped outcome; "all" leaves such ids out.  A bound that is
    not an integer, or lies outside 0..max(CAP_A, CAP_B) (the caps read at
    call time), and an explicit bad worker count, are refused before any
    check runs, even when every answer is cached; so a report holds at most
    one outcome per id and n in 0..cap.  No check takes the count: every
    oracle fill runs in the calling thread.

    Each (id, n) check runs once until oracle.clear_caches(): its outcome is
    stamped with the id and kept, and every call returns that outcome itself.
    """
    if workers is not None:
        oracle.resolve_workers(workers)
    for name, bound in (("n_min", n_min), ("n_max", n_max)):
        if bound is None:
            continue
        if type(bound) is not int:
            perm_core.check_integer(bound, name)
        if bound < 0 or bound > perm_core.CAP_A and bound > perm_core.CAP_B:
            raise DomainError(f"{name}={bound} outside 0..{max(perm_core.CAP_A, perm_core.CAP_B)}, "
                              "the largest enumeration cap")
    if n_min is not None and n_max is not None and n_min > n_max:
        raise DomainError(f"empty range: n_min={n_min} > n_max={n_max}")
    # an array's == would compare its elements, and a list cannot be hashed
    if not isinstance(theorem_id, str) or (theorem_id != "all" and theorem_id not in REGISTRY):
        raise DomainError(f"unknown theorem id {theorem_id!r}; see available_ids()")
    idents = sorted(REGISTRY) if theorem_id == "all" else [theorem_id]
    report = Report()
    for ident in idents:  # in id order; within an id, n ascends
        entry = REGISTRY[ident]
        lo = entry.lo if n_min is None else n_min
        hi = entry.hi if n_max is None else n_max
        if lo > hi and theorem_id != "all":
            n = hi if n_min is None else lo
            report.outcomes.append(_skip(n, f"{'above' if n > entry.hi else 'below'} the stated range "
                                            f"n={entry.lo}..{entry.hi}", ident))
        for n in range(lo, hi + 1):
            if n < entry.lo and n_min is not None:
                outcome = _skip(n, f"below the stated range (starts at n={entry.lo})", ident)
            elif n > entry.max_n:
                outcome = _skip(n, f"above the enumeration cap (n <= {entry.max_n})", ident)
            elif (outcome := _OUTCOMES.get((ident, n))) is None:
                outcome = entry.fn(n)
                object.__setattr__(outcome, "theorem", ident)  # the fresh outcome, before anyone sees it
                _OUTCOMES[ident, n] = outcome
            report.outcomes.append(outcome)
    return report
