"""Benchmark runner for weylruns: one workload, one seed, one result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan-b --seed 1 --seconds 20 --trace 0

The program under test is imported from ./src; nothing is installed.  The
last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no tracer attached.  With --trace 1 iterations alternate
between untraced and traced; the metrics are the per-layer figures of the
traced iterations plus trace.overhead_frac, and the spans are written to
perfbench/out/.  The line before the result holds the environment, the
workload configuration and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3      # before measuring; one more follows each iteration
MIN_ITERATIONS = 2


def _fresh_import_s() -> float:
    """Wall time of a new interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WEYLRUNS_THREADS", None)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import weylruns.cli, weylruns.verify"],
                   env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def _git_commit() -> str | None:
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    root = os.path.join(SRC, "weylruns")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(wl) -> dict:
    import numpy

    return {
        "machine": platform.machine(), "system": f"{platform.system()} {platform.release()}",
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "source_sha256_16": _source_digest(),
        "workload": wl.name, "why": wl.why, "seed": wl.seed, "config": wl.config(),
    }


def _quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def setup_once(cls, seed: int, tiny: bool = False):
    """A fresh-interpreter import plus one workload set-up; returns (workload, seconds)."""
    t_import = _fresh_import_s()
    t0 = time.perf_counter()
    wl = cls(seed, tiny)
    wl.setup()
    return wl, t_import + time.perf_counter() - t0


def measure(wl, seconds: float, setup_samples: list[float]) -> tuple[dict, dict]:
    """Repeat the workload's iteration; every timing is a best-of-repetitions.

    Iterations run until the next one would end after `seconds`, and at
    least MIN_ITERATIONS times.  Each timed part of the cold job and each
    operation position of a pass keeps its best time over the repetitions;
    sums and percentiles are taken over those best times.  On a shared
    machine a slow stretch lasts seconds and lifts every sample in it, so a
    best-of-k is far steadier from run to run than a median of the k.
    A set-up follows each iteration, so the set-up samples whose median is
    setup_s are spread over the run too.
    """
    recs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        recs.append(wl.iteration())
        wall = time.perf_counter() - t0
        setup_samples.append(setup_once(type(wl), wl.seed, wl.tiny)[1])
        elapsed = time.perf_counter() - start
        if len(recs) >= MIN_ITERATIONS and elapsed + wall > seconds:
            break

    def best(rows):
        return [min(col) for col in zip(*rows)]

    w1 = sum(best([r["w1"] for r in recs]))
    w2 = sum(best([r["w2"] for r in recs]))
    passes = [p for r in recs for p in r["passes"]]
    ops = best(passes)
    metrics = {
        "cold_w1_s": (w1, "s"),
        "cold_w2_s": (w2, "s"),
        "scaling_eff_w2": (w1 / (2 * w2), "ratio"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (_quantile(ops, 90) * 1e3, "ms"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (recs[0]["rss_mb"], "MB"),
    }
    samples = {"iterations": len(recs), "passes": len(passes), "ops_per_pass": len(ops)}
    return metrics, samples


def measure_traced(wl, seconds: float, trace_path: str | None, header: dict) -> tuple[dict, dict]:
    """Alternate untraced and traced iterations; per-layer medians of the traced ones."""
    from spans import Tracer, layer_metrics, median_metrics
    from workloads import VERIFY_IDS

    tracer = Tracer()
    walls = {False: [], True: []}
    per_iter = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = i % 2 == 1
        if traced:
            tracer.iteration = i
            tracer.install()
            wl.tracer = tracer
        t0 = time.perf_counter()
        try:
            wl.iteration()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                wl.tracer = None
                tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            per_iter.append(layer_metrics(tracer.spans, i, wl.read_phase, VERIFY_IDS))
        i += 1
        if traced and time.perf_counter() - start + wall > seconds:
            break
    metrics = {k: (v, _unit(k)) for k, v in median_metrics(per_iter).items()}
    plain, traced_wall = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.overhead_frac"] = (traced_wall / plain - 1.0, "ratio")
    if trace_path is not None:
        tracer.write(trace_path, header)
    samples = {"plain_iterations": len(walls[False]), "traced_iterations": len(walls[True]),
               "absent": sorted(set(tracer.absent)), "spans": len(tracer.spans)}
    return metrics, samples


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes_computed"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylruns", "__init__.py")):
        print(f"error: no weylruns sources under ./{SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("WEYLRUNS_THREADS", None)
    sys.path.insert(0, os.path.abspath(SRC))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        wl, took = setup_once(WORKLOADS[args.workload], args.seed)
        setup_samples.append(took)

    header = environment(wl)
    path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl.gz")
    try:
        detail, result = run_workload(wl, args.seconds, args.trace, setup_samples, trace_path=path, header=header)
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_workload(wl, seconds: float, trace: int, setup_samples: list[float], *,
                 trace_path: str | None = None, header: dict | None = None):
    """Measure a set-up workload; return the detail record and the result object."""
    if trace:
        metrics, samples = measure_traced(wl, seconds, trace_path, header or {})
    else:
        metrics, samples = measure(wl, seconds, setup_samples)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    samples["setup"] = len(setup_samples)
    detail = {"env": header, "samples": samples, "failures": wl.failures}
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


if __name__ == "__main__":
    sys.exit(main())
