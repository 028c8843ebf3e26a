"""The four benchmark workloads.

Each workload is a closed loop: one client in one process, which sends its
next request only after the previous one returned.  One call of
`iteration()` runs the workload's cold job at 1 worker, the same job at 2
workers, and passes of timed operations; every iteration repeats the same
work in the same order.  It returns

    {"w1": [s, ...], "w2": [s, ...], "passes": [[s, ...], ...], "rss_mb": float}

"w1" / "w2" are the timed parts of the cold job at 1 / 2 workers (one part
for a scan or a verify run, one per query for small-cold), "passes" the
operation latencies of each pass in a fixed order, and rss_mb the process's
peak resident set right after the 1-worker job.  Every operation's output
passes through the correctness gate; failures are counted in `attempted` /
`failed`.  Inputs are drawn from the seed in `setup()`, which also computes
every expected value.  While a tracer is attached, `self.tracer.phase` names
the part of the iteration that is running: "cold" (1-worker cold job), "w2"
(2-worker cold job), "read" (the timed operations) or "check" (gate work,
not reported).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
from math import factorial
from time import perf_counter

from weylruns import cli, oracle, series, verify
from weylruns import closed_forms as cf

import queries

WORKERS_W2 = 2

# Registry ids at the commit this benchmark was written for; the traced run
# reports verify.<id>.s for each, and 0 for an id the program no longer has.
VERIFY_IDS = (
    "thm-sgn-altrun", "thm-class-biv", "cor-class-uni", "rec-class-biv", "rec-cross-odd",
    "cor-sgn-altrun-uni", "wilf", "div-r-pm", "wilf-tightness", "remark-g-formula", "lem-moment",
    "thm-moment-r-pm", "egf-alt-a", "thm-egf-alt-a-pm", "lem-alt-diff-a", "thm-b-main", "cor-b-uni",
    "lem-b-flipsgn", "lem-b-cancel", "lem-b-minus-t", "thm-zhao-bgt", "thm-div-b", "thm-div-b-pm",
    "thm-moment-bgt", "cor-moment-b", "thm-moment-b-pm", "cor-inv-bd", "thm-d-main", "cor-d-uni",
    "lem-d-cancel", "lem-d-minus-t", "thm-gao-sun-first", "thm-d-total-diff", "thm-b-equals-d",
    "thm-div-d", "thm-div-d-pm", "thm-moment-dgt", "cor-moment-d", "thm-moment-d-pm", "thm-egf-alt-b",
    "thm-egf-alt-b-pm", "thm-egf-alt-d", "lem-alt-b-equal", "thm-egf-alt-d-pm", "lem-alt-d-equal",
    "thm-egf-alt-bmd-pm", "egf-snakes-springer", "thm-snakes-b-egf", "thm-snakes-d-egf",
    "lem-snake-diff-b", "thm-gao-sun-snakes", "thm-snake-diff-d", "lem-snake-l-subsets",
    "snake-b-equals-d",
)


class Workload:
    name = ""
    why = ""
    read_phase = "read"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(seed)
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def _gate(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed when ok is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @staticmethod
    @contextlib.contextmanager
    def _no_gc():
        """Time operations with the cyclic collector paused, as timeit does."""
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @staticmethod
    def _rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------------ scans

def _total(answer) -> int:
    if hasattr(answer, "eval_int"):
        return answer.eval_int(1)
    return sum(answer.terms.values())


class ScanWorkload(Workload):
    """Cold full-group fill at 1 and 2 workers, then warm reads of the tally."""

    group = ""
    groups: tuple[str, ...] = ()
    sign = ""
    warm_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = self.tiny_n if tiny else self.full_n
        self.min_batch = 40 if tiny else 200
        self.warm_passes = 2 if tiny else 10

    def config(self) -> dict:
        return {"group": self.group, "n": self.n, "workers": [1, WORKERS_W2], "warm_kinds": list(self.warm_kinds),
                "warm_queries_per_pass": len(self.batch), "warm_passes_per_iteration": self.warm_passes}

    def setup(self) -> None:
        """The warm batch is every warm query on the group, repeated; the seed sets the order."""
        n = self.n
        self.main = ("dist", self.group, n, self.sign, None, None, "pq")
        self.order = factorial(n) if self.group == "A" else factorial(n) << n
        catalogue = sorted({q for kind in self.warm_kinds for g in self.groups
                            for q in queries.variants(kind, g, n)}, key=repr)
        self.batch = catalogue * -(-self.min_batch // len(catalogue))
        self.rng.shuffle(self.batch)
        self.expected = {q: self.closed_form(q) for q in catalogue + [self.main]}
        self.expected = {q: v for q, v in self.expected.items() if v is not None}

    def closed_form(self, q):
        """("eq", value) or ("total", |group|) for queries with a known answer, else None."""
        raise NotImplementedError

    def _matches(self, q, answer) -> bool:
        want = self.expected.get(q)
        if want is None:
            return True
        kind, value = want
        return answer == value if kind == "eq" else _total(answer) == value

    def iteration(self) -> dict:
        oracle.clear_caches()
        self._phase("cold")
        t0 = perf_counter()
        first = queries.run(self.main, workers=1)
        cold_w1 = perf_counter() - t0
        rss = self._rss_mb()
        self._phase("check")
        unsigned = ("dist", self.group, self.n, "none", None, None, "t")
        self._gate(self._matches(self.main, first) and _total(queries.run(unsigned)) == self.order,
                   f"{self.name}: 1-worker fill disagrees with the closed form or |G|")

        self._phase("read")
        passes, answered = [], []
        for _ in range(self.warm_passes):
            lat, answers = [], []
            with self._no_gc():
                for q in self.batch:
                    t0 = perf_counter()
                    answers.append(queries.run(q))
                    lat.append(perf_counter() - t0)
            passes.append(lat)
            answered.append(answers)

        oracle.clear_caches()
        self._phase("w2")
        t0 = perf_counter()
        second = queries.run(self.main, workers=WORKERS_W2)
        cold_w2 = perf_counter() - t0
        self._phase("check")
        self._gate(second == first, f"{self.name}: 2-worker fill differs from 1-worker fill")
        for i, q in enumerate(self.batch):
            again = queries.run(q)
            for answers in answered:
                self._gate(self._matches(q, answers[i]) and answers[i] == again, f"{self.name}: warm query {q}")
        return {"w1": [cold_w1], "w2": [cold_w2], "passes": passes, "rss_mb": rss}


class ScanA(ScanWorkload):
    name = "scan-a"
    why = "Generation-bound full S_9 scan at 1 and 2 workers plus warm reads of its tally; item 2's generator shows here."
    group, groups, sign = "A", ("A",), "inv_a"
    full_n, tiny_n = 9, 5
    warm_kinds = ("dist", "parity", "class", "alt")

    def closed_form(self, q):
        kind = q[0]
        n = self.n
        if kind == "dist":
            _, _, _, sign, end, _, var = q
            if sign == "inv_a":
                if end is None:
                    return ("eq", cf.thm_sgn_altrun_biv(n) if var == "pq" else cf.cor_sgn_altrun_uni(n))
                return ("eq", cf.thm_class_biv(n, end) if var == "pq" else cf.cor_class_uni(n, end))
            return ("total", self.order) if end is None else None
        if kind == "class" and q[3]:
            return ("eq", cf.thm_class_biv(n, q[2]))
        if kind == "alt":
            family = {"all": "A", "plus": "A+", "minus": "A-"}[q[3]]
            return ("eq", series.egf_alt(family).egf_coeff(n))
        return None


class ScanB(ScanWorkload):
    name = "scan-b"
    why = "Kernel-bound full B_7 scan at 1 and 2 workers plus warm B/D/B-D reads of its tally; item 3's kernel shows here."
    group, groups, sign = "B", ("B", "D", "B-D"), "inv_b"
    full_n, tiny_n = 7, 3
    warm_kinds = ("dist", "parity", "alt", "snakes")

    def closed_form(self, q):
        kind = q[0]
        n = self.n
        if kind == "dist":
            _, group, _, sign, end, first, var = q
            if first is not None:
                return None
            if sign == "none":
                size = self.order if group == "B" else self.order // 2
                return ("total", size) if end is None else None
            if (group, sign) == ("B", "inv_b"):
                forms, uni = cf.thm_b_formulas(n), cf.cor_b_uni(n)
            elif (group, sign) == ("D", "inv_d"):
                forms, uni = cf.thm_d_formulas(n), cf.cor_d_uni(n)
            else:
                return None
            if var == "pq":
                return ("eq", forms[{"a": 0, "d": 1, None: 2}[end]])
            return ("eq", uni) if end is None else None
        if kind == "alt":
            _, group, _, parity = q
            if group == "B-D" and parity != "all":
                return None  # the printed B-D± EGF is the documented mismatch
            family = group + {"all": "", "plus": "+", "minus": "-"}[parity]
            return ("eq", series.egf_alt(family).egf_coeff(n))
        if kind == "snakes":
            return ("eq", series.egf_snakes(q[1]).egf_coeff(n))
        return None


# ------------------------------------------------------------- verify-all

def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class VerifyAll(Workload):
    name = "verify-all"
    why = "The headline command, verify --theorem all, cold at 1 and 2 workers, then warm per-check reruns."

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n_max = 3 if tiny else None
        self.expected_ids = 42 if tiny else len(VERIFY_IDS)
        self.checks: list[tuple[str, int]] | None = None
        self.warm_passes = 1 if tiny else 3

    def config(self) -> dict:
        return {"command": self.argv(1), "workers": [1, WORKERS_W2], "expected_ids": self.expected_ids,
                "warm_passes_after_each_cold_job": self.warm_passes}

    def argv(self, workers: int) -> list[str]:
        out = ["verify", "--theorem", "all", "--format", "json"]
        if self.n_max is not None:
            out += ["--n-max", str(self.n_max)]
        return out + (["--threads", str(workers)] if workers != 1 else [])

    def setup(self) -> None:
        self.mismatch = verify.MISMATCH_DOCUMENTED

    def iteration(self) -> dict:
        oracle.clear_caches()
        self._phase("cold")
        t0 = perf_counter()
        rc, out = _cli(self.argv(1))
        cold_w1 = perf_counter() - t0
        rss = self._rss_mb()
        self._phase("check")
        payload = json.loads(out) if rc == 0 else {}
        results = payload.get("results", [])
        self._gate(rc == 0 and payload.get("ok") is True
                   and len({r["theorem"] for r in results}) == self.expected_ids
                   and self.mismatch in payload.get("statuses", []),
                   f"verify-all: exit {rc}, ok={payload.get('ok')}, "
                   f"{len({r['theorem'] for r in results})} ids")

        # The timed operations rerun each (id, n) of the report on warm caches, in seeded
        # order, after each cold job, so that their passes are spread over the iteration.
        cold = {(r["theorem"], r["n"]): r for r in results}
        if self.checks is None:
            self.checks = sorted(cold)
            self.rng.shuffle(self.checks)
        passes = self._warm_passes(cold)

        oracle.clear_caches()
        self._phase("w2")
        t0 = perf_counter()
        rc2, out2 = _cli(self.argv(WORKERS_W2))
        cold_w2 = perf_counter() - t0
        self._phase("check")
        self._gate(rc2 == rc and out2 == out, "verify-all: 2-worker stdout differs from 1-worker stdout")
        passes += self._warm_passes(cold)
        return {"w1": [cold_w1], "w2": [cold_w2], "passes": passes, "rss_mb": rss}

    def _warm_passes(self, cold: dict) -> list[list[float]]:
        passes = []
        for _ in range(self.warm_passes):
            lat = []
            for ident, n in self.checks:
                self._phase("read")
                with self._no_gc():
                    t0 = perf_counter()
                    report = verify.run_checks(ident, n, n)
                    lat.append(perf_counter() - t0)
                self._phase("check")
                got = json.loads(json.dumps(report.to_json(), sort_keys=True))["results"]
                self._gate(report.ok and got == [cold.get((ident, n))], f"verify-all: warm {ident} n={n}")
            passes.append(lat)
        return passes


# ------------------------------------------------------------- small-cold

class SmallCold(Workload):
    """One pass of cold queries, run at 1 worker and again at 2 workers.

    A slot is a group and size; a round asks one query per slot.  The n = 5
    signed groups share one slot that rotates through B, D and B-D, so a
    round costs about as much as the smaller slots put together and the
    median lands inside the n = 3 signed slots rather than on the edge
    between two sizes.  Query kinds rotate within a slot from round to round;
    a pass is 12 rounds, a multiple of every slot's kind count, so each pass
    asks each kind equally often.  Parameters and order come from the seed.
    """

    name = "small-cold"
    why = "Seeded cold queries on groups of at most 5040 elements, caches cleared each time: the pure-Python side of engine=auto."
    read_phase = "cold"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        if tiny:
            self.slots = [(("A",), 3), (("A",), 4), (("B",), 2), (("D",), 2), (("B", "D", "B-D"), 3)]
            self.rounds = 2
        else:
            self.slots = ([(("A",), n) for n in range(3, 8)]
                          + [((g,), n) for g in ("B", "D", "B-D") for n in range(2, 5)]
                          + [(("B", "D", "B-D"), 5)])
            self.rounds = 12

    def config(self) -> dict:
        return {"slots": [[list(g), n] for g, n in self.slots], "rounds_per_pass": self.rounds,
                "queries_per_pass": len(self.slots) * self.rounds, "workers": [1, WORKERS_W2]}

    def setup(self) -> None:
        offsets = [(self.rng.randrange(3), self.rng.randrange(12)) for _ in self.slots]
        self.stream = []
        for r in range(self.rounds):
            for (groups, n), (g_off, k_off) in zip(self.slots, offsets):
                group = groups[(r + g_off) % len(groups)]
                kinds = queries.kinds(group, n, with_b_extras=group == "B")
                self.stream.append(queries.draw(kinds[(r + k_off) % len(kinds)], group, n, self.rng))
        self.rng.shuffle(self.stream)
        ref = queries.Reference()
        self.expected = {q: ref.answer(q) for q in self.stream}

    def iteration(self) -> dict:
        lat = []
        for q in self.stream:
            oracle.clear_caches()
            self._phase("cold")
            t0 = perf_counter()
            answer = queries.run(q, workers=1)
            lat.append(perf_counter() - t0)
            self._phase("check")
            self._gate(answer == self.expected[q], f"small-cold: {q} at 1 worker")
        rss = self._rss_mb()
        lat2 = []
        for q in self.stream:
            oracle.clear_caches()
            self._phase("w2")
            t0 = perf_counter()
            answer = queries.run(q, workers=WORKERS_W2)
            lat2.append(perf_counter() - t0)
            self._phase("check")
            self._gate(answer == self.expected[q], f"small-cold: {q} at {WORKERS_W2} workers")
        return {"w1": lat, "w2": lat2, "passes": [lat], "rss_mb": rss}


WORKLOADS = {cls.name: cls for cls in (VerifyAll, ScanA, ScanB, SmallCold)}
