"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that
  * every workload in BENCHMARK.json exists here, with the same `why`;
  * an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
    and a traced run exactly the per-layer metrics, with their units, and
    the gate passes;
  * the correctness gate trips when a workload is handed a wrong expected value;
  * a candidate function the program does not have is recorded as absent;
  * run.py exits non-zero, without a result line, where there are no sources.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from weylruns.poly import BiPoly  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _corrupt(wl) -> None:
    """Hand the workload one wrong expected value."""
    if wl.name in ("scan-a", "scan-b"):
        kind, value = wl.expected[wl.main]
        wl.expected[wl.main] = (kind, value + BiPoly.const(1))
    elif wl.name == "verify-all":
        wl.expected_ids += 1
    else:
        q = wl.stream[0]
        wl.expected[q] = ("not", "the answer")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    for w in bench["workloads"]:
        if w["name"] not in WORKLOADS:
            problems.append(f"{w['name']}: no such workload")
        elif WORKLOADS[w["name"]].why != w["why"]:
            problems.append(f"{w['name']}: why differs from BENCHMARK.json")

    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            wl = cls(seed=1, tiny=True)
            wl.setup()
            _, result = run.run_workload(wl, 0.0, trace, [])
            want = per_layer if trace else e2e
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{name} trace={trace}: metric names or units differ from BENCHMARK.json: {diff}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: gate failed at tiny size: {wl.failures}")
        wl = cls(seed=1, tiny=True)
        wl.setup()
        _corrupt(wl)
        wl.iteration()
        if wl.failed == 0:
            problems.append(f"{name}: gate did not trip on a wrong expected value")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else f"{name}: FAILED")

    tracer = spans.Tracer()
    saved = dict(spans.LAYERS)
    spans.LAYERS["oracle.gen"] = saved["oracle.gen"] + [("weylruns.oracle", "_deleted_by_refactor", spans.GEN)]
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        spans.LAYERS.clear()
        spans.LAYERS.update(saved)
    if "weylruns.oracle._deleted_by_refactor" not in tracer.absent:
        problems.append("tracer: a missing candidate was not recorded as absent")

    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="no-sources-") as empty:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan-a",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=empty, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without sources: expected a non-zero exit and no result")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
