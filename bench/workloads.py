"""The benchmark workloads: seeded inputs, operations and the gates on them.

Every workload is a closed loop: one client in one process runs one
operation at a time.  A *round* is a fixed list of operations whose inputs
are drawn from the workload seed; a run repeats that one round, operation by
operation, until its time is up.
An operation fails when it raises, when a CLI command exits non-zero, or
when its output misses a gate below.  Every gate is a tolerance that the
paper or the acceptance tests state; none is looser.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("suites", "audit", "lp", "cli")

LEVEL_TOL = 1e-9  # audited level == eps; induced classical level <= level
EXPONENT_TOL = 1e-8  # matrix exponents == closed forms
LP_TOL = 1e-9  # full staircase LP == symmetric reduction
# Acceptance criterion 9 for one expansion report; counted, not gated (see
# README): its verdict depends on the seed at the seed commit.
EXPANSION_ORDER_MIN = 0.9
EXPANSION_RATIO_TOL = 0.02

# sha256 of each `qldp reproduce` CSV; the outputs must stay byte-identical.
REPRODUCE_SHA256 = {
    "fig1": "8cc05214d6b87373a7b814b51ddbcf63e2b9f1be6cb8cc9e4e201f4238209eaf",
    "fig2": "6a2be172fa53a44a91c2dfa96b548a214a27fd84f734a0598bfc04295dc0209c",
    "thresholds": "25615995f33850b33a983aa0132b38cdfda2bc5081f12eefebaadeea5fbcdd6e",
    "ratios": "87296a65e66669f216a38083d290321779006b877368e65efa410119ff648b37",
}

SCALAR_SELFTEST_INSTANCES = 14499
EXPANSION_CHECKS = (
    "fdiv_kl",
    "fdiv_squared_diff",
    "entropy",
    "chernoff",
    "overlap_s0.3",
    "overlap_s0.7",
    "quadratic_assumption",
    "quadratic_assumption",
)

SUITE_COUNT = {"full": 100, "tiny": 2}
SUITE_CHUNK = {"full": 5, "tiny": 1}  # instances per suite call
AUDIT_NS = {"full": (8, 10, 12, 14), "tiny": (3, 4)}
LP_NS = {"full": (12, 13, 14), "tiny": (4, 5)}
LP_UTILITIES = ("mi", "pairwise_sqrt")
CLI_LP_N = {"full": 10, "tiny": 4}
CLI_MAX_N = {"full": 8, "tiny": 4}
EPS_RANGE = (0.05, 2.0)


class GateError(Exception):
    """An output missed its gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    detail: str | None = None


@dataclass
class Context:
    """What operations need: the package, the tracer (or None) and a scratch directory."""

    q: object
    tmpdir: str
    size: str = "full"
    tracer: object = None
    notes: dict = field(default_factory=dict)
    op_count: int = 0

    def note(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0) + value

    def run(self, name, fn, check=None) -> Op:
        """Time ``fn()``; then ``check(result)`` untimed.  Any exception fails the op."""
        self.op_count += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.op_count)
        start = time.perf_counter()
        # Any exception fails the op; the run must go on and count it.
        try:
            result = fn()
        except Exception as exc:
            return Op(name, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        try:
            if check is not None:
                check(result)
        except Exception as exc:
            return Op(name, seconds, False, f"{type(exc).__name__}: {exc}")
        return Op(name, seconds, True)


def _eps(rng) -> float:
    return float(rng.uniform(*EPS_RANGE))


def _centre_eps(slot: int, slots: int) -> float:
    """The centre of the slot-th of ``slots`` equal parts of EPS_RANGE."""
    lo, hi = EPS_RANGE
    return lo + (slot + 0.5) * (hi - lo) / slots


def draw(workload: str, seed: int, size: str = "full"):
    """The inputs of the run's one round; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "suites":
        return {"seed": int(rng.integers(2**31)), "count": SUITE_COUNT[size]}
    if workload == "audit":
        return [
            {
                "n": n,
                "eps": _eps(rng),
                "eta": 1.0 if rng.uniform() < 0.5 else float(rng.uniform(0.25, 1.0)),
                "povm_seed": int(rng.integers(2**31)),
                "outcomes": int(rng.integers(2, 5)),
            }
            for n in AUDIT_NS[size]
        ]
    if workload == "lp":
        # HiGHS time jumps by up to 70% when eps moves by 0.01, so a seeded
        # eps makes the cost of a round a property of the seed.  The j-th
        # case solves at the centre of the j-th of six equal parts of the
        # range, and the seed sets only the order of the solves.
        cases = [(n, u) for n in LP_NS[size] for u in LP_UTILITIES]
        solves = [{"n": n, "utility": u, "eps": _centre_eps(j, len(cases))} for j, (n, u) in enumerate(cases)]
        return [solves[i] for i in rng.permutation(len(solves))]
    if workload == "cli":
        return {
            "thresholds_hi": int(rng.integers(4, 13)),
            "crossover_n": int(rng.integers(3, 11)),
            "crossover_mode": str(rng.choice(["sym", "asym"])),
            "mech_n": int(rng.integers(3, CLI_MAX_N[size] + 1)),
            "mech_eps": _eps(rng),
            "frame_n": int(rng.integers(3, CLI_MAX_N[size] + 1)),
            "lp_eps": _eps(rng),
        }
    raise ValueError(workload)


def operations(workload: str, ctx: Context, params) -> list:
    """(name, call, check) for each operation of one round, in order; names are unique."""
    if workload == "suites":
        return _suite_operations(ctx, params["seed"], params["count"])
    if workload == "audit":
        return [op for p in params for op in _battery_operations(ctx.q, p)]
    if workload == "lp":
        return [(f"lp_n{p['n']}_{p['utility']}", lambda p=p: _lp_solve(ctx, p), None) for p in params]
    # The tracer cannot see into a child process, so a traced cli round runs
    # the same commands in-process through cli.main(argv).
    call = _in_process if ctx.tracer is not None else _subprocess
    return [
        (name, lambda argv=argv: call(ctx, argv), lambda res, check=check: check(*res))
        for name, argv, check in cli_commands(ctx, params)
    ]


def run_round(workload: str, ctx: Context, params) -> list[Op]:
    return [ctx.run(*op) for op in operations(workload, ctx, params)]


# suites: the work of `qldp verify all` without the CLI, in short operations.


def _suite_operations(ctx: Context, seed: int, count: int) -> list:
    """The four counted suites of ``run_all_suites`` in chunks, then ``scalar_suite`` and ``expansion_suite(seed)``.

    Chunk k of a suite draws its ``chunk`` instances from its own generator,
    ``default_rng([seed, suite, k])``, so every repeat of a chunk does the
    same work.
    """
    suites, chunk = ctx.q.suites, SUITE_CHUNK[ctx.size]
    counted = [
        ("sandwich", suites.sandwich_suite, "monotone_metric_sandwich", 4),
        ("dpi", suites.dpi_suite, "data_processing", 12),
        ("measurement", suites.measurement_suite, "measurement_reduction", 1),
        ("eta_mixing", suites.eta_mixing_suite, "eta_mixing_level", 1),
    ]
    ops = [
        (
            f"suite_{short}_{k}",
            lambda i=i, k=k, fn=fn: fn(np.random.default_rng([seed, i, k]), chunk),
            lambda r, name=name, n=per * chunk: _check_suite(ctx, r, name, n),
        )
        for i, (short, fn, name, per) in enumerate(counted)
        for k in range(count // chunk)
    ]
    ops.append(
        ("suite_scalar", suites.scalar_suite, lambda r: _check_suite(ctx, r, "scalar_selftests", SCALAR_SELFTEST_INSTANCES))
    )
    ops.append(("suite_expansion", lambda: suites.expansion_suite(seed), lambda reports: _check_expansion(ctx, reports)))
    return ops


def _check_suite(ctx: Context, result, name: str, instances: int) -> None:
    gate((result.name, result.instances) == (name, instances), f"suite {result.name}: {result.instances} instances")
    gate(result.violations == 0, f"{name}: {result.violations} violations, worst margin {result.worst_margin:.3e}")
    ctx.note("suite_instances", result.instances)


def _check_expansion(ctx: Context, reports) -> None:
    gate(tuple(r.name for r in reports) == EXPANSION_CHECKS, "expansion checks changed")
    misses = sum(
        not (r.fitted_order >= EXPANSION_ORDER_MIN and r.ratio_error_at(1e-2) <= EXPANSION_RATIO_TOL)
        for r in reports
    )
    ctx.note("expansion_misses", misses)


# audit: large-d frames and mechanisms, one battery each, one operation per step.


def _battery_operations(q, p) -> list:
    """The steps of one battery; each step reads what the earlier ones left in ``made``."""
    n, eps, eta = p["n"], p["eps"], p["eta"]
    made = {}

    def build():
        made["frame"] = q.frames.build_eitff(n)

    def verify():
        gate(q.frames.verify_eitff(made["frame"].projections).is_eitff, f"frame n={n} not certified")

    def mechanism():
        made["mech"] = q.mechanisms.isoclinic_mechanism(made["frame"], eps)

    def level():
        made["level"] = q.mechanisms.qldp_level(made["mech"].states)
        gate(abs(made["level"] - eps) <= LEVEL_TOL, f"level {made['level']!r} != eps {eps!r}")

    def audit():
        gate(q.mechanisms.audit_qldp(made["mech"].states, eps), "audit rejects the declared eps")

    def json_round_trip():
        mech = made["mech"]
        loaded = q.mechanisms.mechanism_from_json(json.loads(json.dumps(q.mechanisms.mechanism_to_json(mech))))
        gate(
            loaded.epsilon == eps and all(np.array_equal(a, b) for a, b in zip(loaded.states, mech.states)),
            "JSON round trip changed the mechanism",
        )

    def induced():
        mech = made["mech"]
        povm = q.sampling.random_povm(np.random.default_rng(p["povm_seed"]), mech.dim, p["outcomes"])
        level = q.mechanisms.ldp_level(q.mechanisms.induced_mechanism(mech, povm))
        gate(level <= made["level"] + LEVEL_TOL, f"induced level {level!r} > {made['level']!r}")

    def sym():
        frame = made["frame"]
        made["pair"] = q.exponents.closed_form_exponents(n, frame.r / frame.d, eps, eta)
        value = q.exponents.sym_exponent(made["mech"], eta)
        gate(abs(value - made["pair"].sym) <= EXPONENT_TOL, f"sym exponent {value!r} vs closed form {made['pair'].sym!r}")

    def asym():
        value = q.exponents.asym_exponent(made["mech"], eta)
        gate(abs(value - made["pair"].asym) <= EXPONENT_TOL, f"asym exponent {value!r} vs closed form {made['pair'].asym!r}")

    steps = (build, verify, mechanism, level, audit, json_round_trip, induced, sym, asym)
    return [(f"n{n}_{step.__name__}", step, None) for step in steps]


# lp: the 2^n staircase LP, cross-checked against its symmetric reduction.


def _lp_solve(ctx: Context, p) -> None:
    optimal = ctx.q.optimal
    utility = optimal.BUILTIN_UTILITIES[p["utility"]](p["n"])
    if ctx.tracer is not None:
        utility = dataclasses.replace(
            utility, evaluate=ctx.tracer.counting("utility_evals", utility.evaluate)
        )
    sol = optimal.kairouz_lp(p["n"], p["eps"], utility)
    gate(sol.status == "optimal", f"LP status {sol.status}")
    reduced = optimal.kairouz_lp_symmetric(p["n"], p["eps"], utility)
    gate(abs(sol.value - reduced) <= LP_TOL, f"LP {sol.value!r} vs symmetric {reduced!r}")


# cli: short `python -m qldp` calls, each from a cold process.


def _fmt(x: float) -> str:
    """The CLI's number format: 17 significant digits, ``inf`` spelled out."""
    return "inf" if math.isinf(x) else f"{x:.17g}"


def _fields(stdout: str) -> dict:
    return dict(part.split("=", 1) for part in stdout.split() if "=" in part)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_commands(ctx: Context, p) -> list:
    """(name, argv, check) for one round; check(returncode, stdout) raises GateError."""
    q, tmp = ctx.q, ctx.tmpdir
    commands = []

    for target in REPRODUCE_SHA256:
        out = os.path.join(tmp, f"{target}.csv")

        def check_reproduce(code, stdout, target=target, out=out):
            gate(code == 0, f"exit {code}")
            digest = _sha256(out)
            gate(digest == REPRODUCE_SHA256[target], f"{target}.csv sha256 {digest}")
            with open(out + ".meta.json", encoding="utf-8") as fh:
                gate(json.load(fh)["sha256"] == digest, f"{target} sidecar sha256 does not match the file")

        commands.append((f"reproduce_{target}", ["reproduce", target, "--out", out], check_reproduce))

    hi = p["thresholds_hi"]

    def check_thresholds(code, stdout):
        gate(code == 0, f"exit {code}")
        ex = q.exponents
        lines = ["n,sym_threshold,asym_threshold"] + [
            f"{n},{_fmt(ex.advantage_threshold_sym(n))},{_fmt(ex.advantage_threshold_asym(n))}"
            for n in range(3, hi + 1)
        ]
        gate(stdout.splitlines() == lines, "thresholds differ from the in-process values")

    commands.append(("exp_thresholds", ["exp", "thresholds", "--n", f"3..{hi}"], check_thresholds))

    cn, mode = p["crossover_n"], p["crossover_mode"]

    def check_crossover(code, stdout):
        gate(code == 0, f"exit {code}")
        expected = _fmt(q.exponents.advantage_crossover(cn, mode))
        gate(stdout.strip() == expected, f"crossover {stdout.strip()} != {expected}")

    commands.append(("exp_crossover", ["exp", "crossover", "--n", str(cn), "--mode", mode], check_crossover))

    mech_path = os.path.join(tmp, "mech.json")
    eps = p["mech_eps"]

    def check_written(code, stdout, path=mech_path):
        gate(code == 0 and os.path.isfile(path), f"exit {code}")

    def check_audit(code, stdout):
        gate(code == 0, f"exit {code}")
        got = _fields(stdout)
        gate(float(got["declared"]) == eps, f"declared {got['declared']} != {eps!r}")
        gate(abs(float(got["level"]) - eps) <= LEVEL_TOL, f"level {got['level']} != eps {eps!r}")

    commands.append(
        ("mech_sigma_star", ["mech", "sigma-star", "--n", str(p["mech_n"]), "--eps", repr(eps), "--out", mech_path], check_written)
    )
    commands.append(("mech_audit", ["mech", "audit", mech_path], check_audit))

    frame_path = os.path.join(tmp, "frame.json")

    def check_frame_written(code, stdout):
        gate(code == 0 and os.path.isfile(frame_path), f"exit {code}")

    def check_frame_verify(code, stdout):
        gate(code == 0 and _fields(stdout).get("eitff") == "True", f"exit {code}: {stdout.strip()}")

    commands.append(("frame_build", ["frame", "build", "--n", str(p["frame_n"]), "--out", frame_path], check_frame_written))
    commands.append(("frame_verify", ["frame", "verify", frame_path], check_frame_verify))

    def check_lp(code, stdout):
        gate(code == 0, f"exit {code}")
        got = _fields(stdout)
        diff = abs(float(got["full"]) - float(got["symmetric"]))
        gate(diff <= LP_TOL, f"full LP vs symmetric differ by {diff:.3e}")

    lp_argv = ["opt", "lp", "--n", str(CLI_LP_N[ctx.size]), "--eps", repr(p["lp_eps"])]
    commands.append(("opt_lp", lp_argv, check_lp))

    def check_exit0(code, stdout):
        gate(code == 0, f"exit {code}")

    def check_help(code, stdout):
        gate(code == 0 and stdout.startswith("usage: qldp"), f"exit {code}")

    commands.append(("verify_taylor", ["verify", "taylor"], check_exit0))
    commands.append(("help", ["--help"], check_help))
    return commands


def _subprocess(ctx: Context, argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "qldp", *argv], cwd=ctx.tmpdir, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout


def _in_process(ctx: Context, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ctx.q.cli.main(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()
