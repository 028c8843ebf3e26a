"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --seeds 10 [--workloads scan-a,scan-b] [--trace] [--out FILE]

For every workload it runs `perfbench/run.py` once per seed (seeds 1..N) in
a fresh process, then reports for each end-to-end metric the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.  With --trace it
adds one traced run per workload (seed 1) and keeps its per-layer figures.
--out writes everything, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        entry = {"runs": []}
        for seed in range(1, args.seeds + 1):
            detail, result = run_once(workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed the gate: {detail['failures']}")
            entry["env"] = detail["env"]
            entry["runs"].append({"seed": seed, "samples": detail["samples"],
                                  "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry["end_to_end"] = {name: summarise(v) for name, v in values.items()}
        print(f"== {workload}")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name, 0.25)
            flag = "" if s["spread"] < bound / 3 else "   <-- spread >= bound/3"
            vals = " ".join(f"{v:.4g}" for v in s["values"])
            print(f"  {name:16s} median {s['median']:12.6g}  spread {s['spread']:7.4f}  bound {bound}{flag}  [{vals}]")
        if args.trace:
            detail, result = run_once(workload, 1, bench["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["trace_samples"] = detail["samples"]
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.splitext(args.out)[0] + ".md", "w", encoding="utf-8") as fh:
            fh.write(markdown(report, bench))
    return 0


def markdown(report: dict, bench: dict) -> str:
    """The report as two tables: end-to-end medians with quartiles, per-layer values."""
    names = list(report["workloads"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    env = next(iter(report["workloads"].values()))["env"]
    out = [f"Seeds 1..{report['seeds']}, {report['run_seconds']} s per run; "
           f"{env['machine']}, {env['nproc']} CPUs, Python {env['python']}, numpy {env['numpy']}, "
           f"commit {env['git_commit']}, sources {env['source_sha256_16']}.", "",
           "## End to end: median [q1, q3], spread", "",
           "| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for m in bench["end_to_end"]:
        cells = []
        for w in names:
            s = report["workloads"][w]["end_to_end"].get(m["name"])
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}], {s['spread']:.3f}" if s else "")
        out.append(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    if all("per_layer" in report["workloads"][w] for w in names):
        out += ["", "## Per layer (one traced run, seed 1)", "",
                "| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
        for m in bench["per_layer"]:
            vals = [report["workloads"][w]["per_layer"].get(m["name"], 0) for w in names]
            out.append(f"| {m['name']} | {units[m['name']]} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
