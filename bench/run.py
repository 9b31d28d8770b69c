"""Benchmark of qldp: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload suites|audit|lp|cli --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the same object carries the
per-layer metrics listed in ``bench/layers.json`` instead.  Lines before it
are for people: every metric with its unit, the failure fraction, the
latency tail, each operation's scaled median repeat and the provenance of
the run.  The exit code is 0 whenever a result is printed, also when
operations failed (``"correct": false``); a checkout without ``src/qldp``
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

IMPORT_PROBES = 3
# Times are reported at the host speed at which worker.reference_seconds()
# takes this long: its fastest state on a 2-core container of the shared
# host where the benchmark was written.
REF_SECONDS = 0.33e-3


def child_env() -> dict:
    """Environment for every child: package from src/, BLAS threads capped at nproc.

    After ``pin_to_one_cpu`` that cap is one thread.

    glibc's mmap threshold is pinned at its initial 128 KiB.  Left to slide,
    it depends on the order in which the BLAS threads free large blocks, and
    the same ``lp`` round then peaked anywhere from 131 to 152 MB of RSS;
    pinned, within 0.5 MB.
    """
    env = dict(os.environ)
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Pin this process, and so the worker and all its children, to one CPU.

    The two CPUs of the host speed up and slow down at different times.
    The reference kernel that scales every time (see ``scaled_seconds``)
    tracks the CPU it runs on, so an operation, or a ``cli`` child, that ran
    on the other one was scaled by the wrong speed.  In six interleaved pairs
    of ``cli`` runs, ``wall_s`` spread 0.10 pinned and 0.17 unpinned.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _launch(args, env, extra=()) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, launched


def _ready(proc, launched) -> float:
    line = proc.stdout.readline()
    return json.loads(line)["ready"] - launched


def import_seconds(env) -> float:
    """Median time of ``import qldp`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import qldp; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    return statistics.median(times)


def run_worker(args, env) -> tuple[float, dict]:
    extra = ["--spans", args.spans] if args.spans else []
    proc, launched = _launch(args, env, extra)
    try:
        setup = _ready(proc, launched)
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited {code}")
    return setup, json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples)."""
    xs = sorted(latencies_ms)
    if len(xs) < 11:
        return xs[-1], 100.0, len(xs)
    index = len(xs) - 11
    return xs[index], 100.0 * (index + 1) / len(xs), len(xs)


def scaled_seconds(ops) -> dict[str, float]:
    """Each operation's median successful repeat, scaled to the reference host speed.

    A repeat's time is divided by the reference kernel's time around it
    (``worker.reference_seconds``) and multiplied by REF_SECONDS: the
    seconds the repeat would take on a host where the kernel takes
    REF_SECONDS.  A failed operation is never the fast one: one with no
    passing repeat counts its slowest.
    """
    ratios: dict[str, list[float]] = {}
    for name, seconds, ok, _, ref in ops:
        if ok:
            ratios.setdefault(name, []).append(seconds / ref)
    for name, seconds, ok, _, ref in ops:
        if name not in ratios:
            ratios[name] = [max(op[1] / op[4] for op in ops if op[0] == name)]
    return {name: REF_SECONDS * statistics.median(rs) for name, rs in ratios.items()}


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of all order statistics.

    The operations of a round fall in groups of similar cost with gaps
    between them, and the plain median of an even count averages the two
    middle values.  When these straddle a gap, one operation crossing it
    moves the plain median by half the gap; this estimate moves smoothly.
    """
    # Imported here, after the worker has ended: Linux carries a process's
    # peak RSS across fork and exec, so a worker forked from a launcher that
    # holds scipy would report the launcher's 100 MB as its own peak.
    from scipy.stats.mstats import hdquantiles

    if len(values) == 1:
        return values[0]
    return float(hdquantiles(values, prob=[0.5])[0])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_layers() -> list[dict]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qldp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: self-test inputs")
    parser.add_argument("--spans", default=None, help="traced runs: write every span to this TSV file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qldp", "__init__.py")):
        print(f"error: no qldp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    cores = nproc()
    cpu = pin_to_one_cpu()
    env = child_env()
    import_s = import_seconds(env) if args.trace else None
    setup, result = run_worker(args, env)
    setups = [setup] + [a for a, r in result["setups"]]
    # Set-up is the median probe, scaled as operations are; the worker's own
    # launch has no reference time around it and is only printed.
    setup_ratios = [seconds / ref for seconds, ref in result["setups"]]

    ops = result["ops"]
    per_op = scaled_seconds(ops)
    wall_s = sum(per_op.values())
    call_p50_ms = hd_median(list(per_op.values())) * 1e3
    failed = [op for op in ops if not op[2]]
    latencies = [op[1] * 1e3 for op in ops]
    tail_ms, tail_pct, samples = tail(latencies)
    fail_frac = len(failed) / len(ops)

    if args.trace:
        layers = dict(result["layers"])
        self_seconds = layers.pop("self_seconds")
        layers.update(
            {
                "cli.import_s": import_s,
                "call_tail_ms": tail_ms,
                "call_tail_pct": tail_pct,
                "call_count": float(samples),
                "trace.wall_s": wall_s,
            }
        )
        specs = load_layers()
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in specs}
        for name, s in sorted(self_seconds.items()):
            print(f"self {name:24s} {s:.6f} s/round")
    else:
        metrics = {
            "setup_s": {"value": REF_SECONDS * statistics.median(setup_ratios), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "call_p50_ms": {"value": call_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": result["rss_kb"] / 1024.0, "unit": "MB"},
        }

    for name, m in metrics.items():
        print(f"metric {name:28s} {m['value']!r} {m['unit']}")
    print(f"fail_frac {fail_frac!r} ({len(failed)} of {len(ops)} operations)")
    print(f"call_tail {tail_ms:.3f} ms at p{tail_pct:.1f} of {samples} samples; rounds {result['rounds']:.2f}")
    for name, seconds in per_op.items():
        print(f"op {name:26s} {seconds * 1e3:.3f} ms")
    for key, value in sorted(result["notes"].items()):
        print(f"note {key} {value}")
    for op in failed[:20]:
        print(f"FAILED {op[0]}: {op[3]}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        **result["versions"],
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": cores,
        "pinned_cpu": cpu,
        "setup_samples": setups,
    }
    print("provenance " + json.dumps(provenance))
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
