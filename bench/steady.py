"""Run every workload over several seeds and report the spread of each metric.

    python3 bench/steady.py --seeds 1-10 [--workloads suites,lp] [--out FILE]

Runs ``bench/run.py --trace 0`` once per workload and seed, one after
another, with the ``run_seconds`` of BENCHMARK.json.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound and a third of it.  With
``--out`` it also writes every run's result and provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - began
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list; default: all in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")

    runs, report = {}, {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}/{result['attempted']} {values} elapsed={result['elapsed_s']:.1f}s", flush=True)
        report[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            report[workload][name] = {**spread(values), "bound": bounds.get(name), "values": values}

    print(f"\n{'workload':8s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for workload, metrics in report.items():
        for name, s in metrics.items():
            third = f"{s['bound'] / 3:.4f}" if s["bound"] else "-"
            flag = "" if not s["bound"] or s["spread"] <= s["bound"] / 3 else "  WIDE"
            print(f"{workload:8s} {name:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {third:>8s}{flag}")
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    print(f"\nfail_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    elapsed = [r["elapsed_s"] for rs in runs.values() for r in rs]
    print(f"mean run {statistics.mean(elapsed):.1f} s over {len(elapsed)} runs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "seeds": seeds, "report": report, "runs": runs}, fh, indent=1)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
