"""One benchmark process: set up, repeat the round for the given time, report as JSON.

Started by ``run.py``, never by hand.  Prints two JSON lines on stdout:
``{"ready": t}`` once set-up is done (``t`` is ``time.monotonic()``, which
the launching process compares with its own launch time) and, unless
``--setup-only``, a final line with every operation, the set-up samples of
its probes and, when traced, the layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Untraced runs launch this many set-up probes, spread evenly over the run
# between operations, so that the set-up samples see the same machine as
# the operations do and not only its state at the start.
SETUP_PROBES = 9

_REF_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4)


def reference_seconds() -> float:
    """Fastest of three runs of a fixed kernel that calls no qldp code.

    The shared host's speed drifts by a quarter in stretches of seconds to
    minutes.  This kernel, timed before and after every operation and every
    set-up probe, measures the host's speed at that moment: a loop of numpy
    calls on 4 x 4 arrays and float arithmetic, like the small-state work of
    the package.  It uses elementwise ufuncs only: a matrix product would
    start BLAS, whose buffers add some 18 MB to the worker's peak RSS, and
    ``np.linalg`` would be counted by traced runs.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        m, acc = _REF_MATRIX, 0.0
        for k in range(200):
            m = np.tanh(m * _REF_MATRIX + 0.5)
            acc += k * 0.5
        best = min(best, time.perf_counter() - start)
    return best


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _probe(args) -> float:
    """Seconds from launching a ``--setup-only`` worker to its ready line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = json.loads(proc.stdout.readline())["ready"]
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return ready - launched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import qldp
    import qldp.cli

    params = workloads.draw(args.workload, args.seed, args.size)
    _emit({"ready": time.monotonic()})
    if args.setup_only:
        return 0

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(qldp.__file__), src]) != src:
        print(f"qldp was imported from {qldp.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qldp)
    probes = 0 if tracer else SETUP_PROBES if args.size == "full" else 1

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmpdir:
        ctx = workloads.Context(q=qldp, tmpdir=tmpdir, size=args.size, tracer=tracer)
        round_ops = workloads.operations(args.workload, ctx, params)
        # refs[i] is the reference time just before ops[i]; one more follows
        # the last operation.  A set-up sample carries the mean of the
        # reference times just before and just after its probe.
        ops, refs, setups = [], [], []
        began = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - began
            if len(setups) < probes and elapsed >= len(setups) * args.seconds / probes:
                before = reference_seconds()
                seconds = _probe(args)
                setups.append([seconds, (before + reference_seconds()) / 2])
            refs.append(reference_seconds())
            ops.append(ctx.run(*round_ops[len(ops) % len(round_ops)]))
            # Stop after the first whole round once the time is up; a traced
            # run stops at a round boundary, so its per-round figures hold
            # whole rounds.
            if len(ops) >= len(round_ops) and time.perf_counter() - began >= args.seconds:
                if not tracer or len(ops) % len(round_ops) == 0:
                    break
        refs.append(reference_seconds())
        rounds = len(ops) / len(round_ops)
        layers = _layers(tracer, ctx, rounds) if tracer else None

    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        tracer.uninstall()

    # A cli call runs in a child process; its peak is the largest child's.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and tracer is None else resource.RUSAGE_SELF
    _emit(
        {
            "ops": [[o.name, o.seconds, o.ok, o.detail, (refs[i] + refs[i + 1]) / 2] for i, o in enumerate(ops)],
            "rounds": rounds,
            "setups": setups,
            "rss_kb": resource.getrusage(who).ru_maxrss,
            "notes": ctx.notes,
            "layers": layers,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": _blas_name(numpy),
            },
        }
    )
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def _layers(tracer, ctx, rounds: float) -> dict:
    """Per-round layer figures; a layer the rounds never reach reads 0."""
    calls = dict(tracer.calls)
    counters = dict(tracer.counters)
    summary = tracer.summary()

    def seconds(name):
        return summary[name]["seconds"] / rounds

    def per_round(value):
        return value / rounds

    eig_calls = calls.get("linalg.eig", 0)
    lp_s, solver_s = seconds("optimal.lp"), seconds("optimal.solver")
    out = {
        "cli.main_s": seconds("cli.main"),
        "linalg.validate_calls": per_round(calls.get("linalg.validate", 0)),
        "linalg.validate_s": seconds("linalg.validate"),
        "linalg.norm2_calls": per_round(calls.get("linalg.norm2", 0)),
        "linalg.norm2_s": seconds("linalg.norm2"),
        "linalg.eig_calls": per_round(eig_calls),
        "linalg.eig_s": seconds("linalg.eig"),
        "linalg.eig_d3": per_round(counters.get("eig_d3", 0)),
        "linalg.eig_repeat_frac": counters.get("eig_repeats", 0) / eig_calls if eig_calls else 0.0,
        "linalg.json_s": seconds("linalg.json"),
        "frames.build_s": seconds("frames.build"),
        "frames.verify_s": seconds("frames.verify"),
        "mechanisms.construct_s": seconds("mechanisms.construct"),
        "mechanisms.level_calls": per_round(calls.get("mechanisms.level", 0)),
        "mechanisms.level_s": seconds("mechanisms.level"),
        "mechanisms.audit_s": seconds("mechanisms.audit"),
        "mechanisms.load_s": seconds("mechanisms.load"),
        "metrics.chernoff_calls": per_round(calls.get("metrics.chernoff", 0)),
        "metrics.chernoff_s": seconds("metrics.chernoff"),
        "metrics.relent_s": seconds("metrics.relent"),
        "metrics.fdiv_s": seconds("metrics.fdiv"),
        "metrics.petz_s": seconds("metrics.petz"),
        "metrics.holevo_s": seconds("metrics.holevo"),
        "exponents.numeric_s": seconds("exponents.numeric"),
        "exponents.closed_form_calls": per_round(calls.get("exponents.closed_form", 0)),
        "exponents.closed_form_s": seconds("exponents.closed_form"),
        "optimal.lp_calls": per_round(calls.get("optimal.lp", 0)),
        "optimal.lp_s": lp_s,
        "optimal.solver_s": solver_s,
        "optimal.solver_iters": per_round(counters.get("solver_iters", 0)),
        "optimal.coeff_s": lp_s - solver_s,
        "optimal.utility_evals": per_round(counters.get("utility_evals", 0)),
        "suites.sandwich_s": seconds("suites.sandwich"),
        "suites.dpi_s": seconds("suites.dpi"),
        "suites.measurement_s": seconds("suites.measurement"),
        "suites.eta_mixing_s": seconds("suites.eta_mixing"),
        "suites.scalar_s": seconds("suites.scalar"),
        "suites.expansion_s": seconds("suites.expansion"),
        "suites.instances": per_round(ctx.notes.get("suite_instances", 0)),
        "suites.expansion_misses": per_round(ctx.notes.get("expansion_misses", 0)),
        "sampling.draw_s": seconds("sampling.draw"),
    }
    out["self_seconds"] = {name: s["self_seconds"] / rounds for name, s in summary.items() if s["spans"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
