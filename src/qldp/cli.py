"""Command-line entry point: construction, auditing, sweeps, LP, verification.

Exit codes: 0 success, 1 validation or usage error, 2 internal numerical
failure (including failed verification suites).  All randomized commands are
deterministic given a seed; the environment variable QLOCAL_SEED overrides
the default seed 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

# Each handler imports the modules it runs, so that the scalar commands
# (reproduce, exp thresholds|crossover, --help) start without numpy.
from . import exponents
from .errors import ValidationError

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(exponents.SweepRecord))
THRESHOLD_COLUMNS = ("n", "sym_threshold", "asym_threshold")
# The keys of optimal.BUILTIN_UTILITIES, sorted; spelled out so that building the parser loads no numpy.
UTILITY_CHOICES = ("mi", "pairwise_sqrt")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def _parse_int_list(text: str) -> list[int]:
    """Accept "4", "3,6,10", or a non-empty inclusive range "3..12"."""
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValidationError(f"empty range {text!r}")
        return values
    return [int(part) for part in text.split(",")]


def _parse_float_grid(text: str) -> list[float]:
    """Accept a single value, a comma list, or a non-empty "start:stop:step" inclusive."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if step == 0 or not math.isfinite((stop - start) / step):
            raise ValidationError(f"grid {text!r} needs finite ends and a nonzero step")
        count = int(round((stop - start) / step)) + 1
        if count < 1:
            raise ValidationError(f"empty grid {text!r}")
        return [round(start + i * step, 12) for i in range(count)]
    return [float(part) for part in text.split(",")]


def _write_csv(path: str, header, rows) -> int:
    """Write ``header`` and ``rows`` as CSV; returns the row count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def _sidecar(path: str, target: str, params: dict, rows: int) -> None:
    import hashlib

    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    meta = {"target": target, "params": params, "rows": rows, "sha256": digest}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def _write_sweep(path: str, ns, eps, eta: float, alt_u) -> int:
    """Compute :func:`exponents.ratio_sweep` for every n, then write it as CSV; returns the record count."""
    records = [record for n in ns for record in exponents.ratio_sweep(n, eps, eta, alt_u)]
    return _write_csv(path, SWEEP_COLUMNS, [[_fmt(value) for value in dataclasses.astuple(r)] for r in records])


def _threshold_rows(ns) -> list[list[str]]:
    sym, asym = exponents.advantage_threshold_sym, exponents.advantage_threshold_asym
    return [[str(n), _fmt(sym(n)), _fmt(asym(n))] for n in ns]


def build_parser() -> _Parser:
    parser = _Parser(prog="qldp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame", help="build or verify fusion frames")
    fsub = p.add_subparsers(dest="action", required=True)
    b = fsub.add_parser("build")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--a", type=int, default=None)
    b.add_argument("--out", required=True)
    v = fsub.add_parser("verify")
    v.add_argument("path")
    v.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("mech", help="build or audit mechanisms")
    msub = p.add_subparsers(dest="action", required=True)
    s = msub.add_parser("sigma-star")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--out", default=None)
    bi = msub.add_parser("binary")
    bi.add_argument("--n", type=int, required=True)
    bi.add_argument("--eps", type=float, required=True)
    bi.add_argument("--out", default=None)
    su = msub.add_parser("subset")
    su.add_argument("--n", type=int, required=True)
    su.add_argument("--k", type=int, required=True)
    su.add_argument("--eps", type=float, required=True)
    su.add_argument("--out", default=None)
    au = msub.add_parser("audit")
    au.add_argument("path")

    p = sub.add_parser("metric", help="evaluate information quantities")
    csub = p.add_subparsers(dest="action", required=True)
    ch = csub.add_parser("chernoff")
    ch.add_argument("a")
    ch.add_argument("b")
    ho = csub.add_parser("holevo")
    ho.add_argument("mech")
    pe = csub.add_parser("petz")
    pe.add_argument("--kind", required=True, help="sld, rld, bkm, or wyd:<s>")
    pe.add_argument("rho")
    pe.add_argument("x")

    p = sub.add_parser("exp", help="error exponents and trade-off sweeps")
    esub = p.add_subparsers(dest="action", required=True)
    sw = esub.add_parser("sweep")
    sw.add_argument("--n", required=True, help="e.g. 3,6,10 or 3..12")
    sw.add_argument("--eps", required=True, help="e.g. 0.05:2.0:0.05")
    sw.add_argument("--eta", type=float, default=1.0)
    sw.add_argument("--alt-u", type=float, default=None)
    sw.add_argument("--out", required=True)
    th = esub.add_parser("thresholds")
    th.add_argument("--n", required=True, help="e.g. 3..12")
    cr = esub.add_parser("crossover")
    cr.add_argument("--n", type=int, required=True)
    cr.add_argument("--mode", choices=["sym", "asym"], required=True)

    p = sub.add_parser("opt", help="classical optimum via the staircase LP")
    osub = p.add_subparsers(dest="action", required=True)
    lp = osub.add_parser("lp")
    lp.add_argument("--n", type=int, required=True)
    lp.add_argument("--eps", type=float, required=True)
    lp.add_argument("--utility", choices=UTILITY_CHOICES, default="mi")
    mode = lp.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true")
    mode.add_argument("--symmetric", action="store_true")
    pr = osub.add_parser("predict")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--utility", choices=UTILITY_CHOICES, default="mi")

    p = sub.add_parser("verify", help="run verification suites")
    vsub = p.add_subparsers(dest="action", required=True)
    ta = vsub.add_parser("taylor")
    ta.add_argument("--seed", type=int, default=None)
    ta.add_argument("--out", default=None)
    al = vsub.add_parser("all")
    al.add_argument("--seed", type=int, default=None)
    al.add_argument("--count", type=int, default=1000)

    p = sub.add_parser("reproduce", help="emit figure and table data as CSV")
    p.add_argument("target", choices=["fig1", "fig2", "thresholds", "ratios"])
    p.add_argument("--out", default=None)

    return parser


def _cmd_frame(args) -> int:
    from . import frames
    from .linalg import load_json

    if args.action == "build":
        frame = frames.build_eitff(args.n, args.a)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(frames.frame_to_json(frame), fh, indent=1)
        print(f"wrote frame d={frame.d} r={frame.r} n={frame.n} c={_fmt(frame.c)} to {args.out}")
        return 0
    frame = load_json(args.path, frames.frame_from_json)
    cert = frames.verify_eitff(frame.projections, tol=args.tol)
    print(
        f"tight={cert.is_tight} ectff={cert.is_ectff} eitff={cert.is_eitff} "
        f"c={_fmt(cert.c_observed)} max_residual={_fmt(cert.max_residual)}"
    )
    return 0 if cert.is_eitff else 1


def _cmd_mech(args) -> int:
    from . import mechanisms

    if args.action == "audit":
        mech = mechanisms.load_mechanism(args.path)
        sizes = " ".join(f"{key}={value}" for key, value in mech.sizes.items())
        print(f"{mech.kind} mechanism {sizes} declared={_fmt(mech.epsilon)} level={_fmt(mech.level)}")
        return 0
    if args.action == "sigma-star":
        mech = mechanisms.sigma_star(args.n, args.eps)
    elif args.action == "binary":
        mech = mechanisms.binary_mechanism(args.n, args.eps)
    else:
        mech = mechanisms.subset_mechanism(args.n, args.k, args.eps)
    if args.out:
        mechanisms.save_mechanism(mech, args.out)
        print(f"wrote mechanism to {args.out}")
    else:
        print(json.dumps(mechanisms.mechanism_to_json(mech), indent=1))
    return 0


def _cmd_metric(args) -> int:
    import numpy as np

    from . import metrics
    from .linalg import load_json, matrix_from_json

    if args.action == "chernoff":
        value = metrics.chernoff_information(*(load_json(path, matrix_from_json) for path in (args.a, args.b)))
    elif args.action == "holevo":
        from . import mechanisms

        mech = mechanisms.load_mechanism(args.mech)
        if mech.kind == "ldp":  # the classical case: the mutual information of the uniform-prior joint distribution
            from . import optimal

            value = optimal.utility_of_mechanism(mech, optimal.mutual_information_utility(mech.n_inputs))
        else:
            n = len(mech.members)
            value = metrics.holevo_information(np.full(n, 1.0 / n), mech.members)
    else:
        kind = metrics.wyd(float(args.kind[4:])) if args.kind.startswith("wyd:") else metrics.MetricKind(args.kind)
        x = load_json(args.x, matrix_from_json)
        value = metrics.petz_metric(load_json(args.rho, matrix_from_json), x, x, kind)
    print(_fmt(value))
    return 0


def _cmd_exp(args) -> int:
    if args.action == "sweep":
        count = _write_sweep(args.out, _parse_int_list(args.n), _parse_float_grid(args.eps), args.eta, args.alt_u)
        print(f"wrote {count} records to {args.out}")
        return 0
    if args.action == "thresholds":
        rows = _threshold_rows(_parse_int_list(args.n))
        print("\n".join(",".join(row) for row in [THRESHOLD_COLUMNS, *rows]))
        return 0
    value = exponents.advantage_crossover(args.n, args.mode)
    print(_fmt(value))
    return 0


def _cmd_opt(args) -> int:
    from . import optimal

    utility = optimal.BUILTIN_UTILITIES[args.utility](args.n)
    if args.action == "predict":
        classical, quantum, ratio = optimal.asymptotic_prediction(args.n, utility.beta0)
        print(f"classical_coeff={_fmt(classical)} quantum_coeff={_fmt(quantum)} ratio={_fmt(ratio)}")
        return 0
    lines = []
    if args.symmetric or not args.full:
        lines.append(f"symmetric={_fmt(optimal.kairouz_lp_symmetric(args.n, args.eps, utility))}")
    if args.full or not args.symmetric:
        sol = optimal.kairouz_lp(args.n, args.eps, utility)
        if sol.status != "optimal":
            print(f"LP solver failed: {sol.status}", file=sys.stderr)
            return 2
        lines.append(f"full={_fmt(sol.value)} support={len(sol.weights)}")
    print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from . import suites
    from .expansions import DEFAULT_T_GRID

    seed = args.seed if args.seed is not None else int(os.environ.get("QLOCAL_SEED", "0"))
    if args.action == "all" and args.count < 1:
        raise ValidationError(f"--count must be at least 1, got {args.count}")
    verdicts = [(rep, rep.passes()) for rep in suites.expansion_suite(seed)]
    all_ok = all(ok for _, ok in verdicts)
    if args.action == "taylor":
        if args.out:
            payload = [
                {
                    "name": rep.name,
                    "t_grid": [float(t) for t in DEFAULT_T_GRID],
                    "ratio_errors": [float(e) for e in rep.ratio_errors],
                    "fitted_order": float(rep.fitted_order),
                    "passed": ok,
                }
                for rep, ok in verdicts
            ]
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"seed": seed, "checks": payload, "all_passed": all_ok}, fh, indent=1)
        for rep, ok in verdicts:
            print(f"{rep.name:24s} order={rep.fitted_order:6.3f} err={rep.ratio_errors[-1]:.3e} {'ok' if ok else 'FAIL'}")
        return 0 if all_ok else 2

    results = suites.run_all_suites(seed, args.count)
    for rep, ok in verdicts:
        print(f"taylor/{rep.name:24s} order={rep.fitted_order:6.3f} {'ok' if ok else 'FAIL'}")
    for result in results:
        all_ok &= result.passed
        print(
            f"suite/{result.name:26s} instances={result.instances} "
            f"violations={result.violations} worst_margin={result.worst_margin:.3e} "
            f"{'ok' if result.passed else 'FAIL'}"
        )
    print("all passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 2


def _cmd_reproduce(args) -> int:
    out = args.out or f"{args.target}.csv"
    if args.target in ("fig1", "fig2"):
        params = {"n": [3, 6, 10], "eps": "0.05:2.0:0.05", "eta": 1.0}
        if args.target == "fig2":
            params.update(n=[10], alt_u=0.4)
        rows = _write_sweep(out, params["n"], _parse_float_grid(params["eps"]), params["eta"], params.get("alt_u"))
    elif args.target == "thresholds":
        params = {"n": "3..12"}
        rows = _write_csv(out, THRESHOLD_COLUMNS, _threshold_rows(range(3, 13)))
    else:
        params = {"n": "2..10", "epsilon": 1e-3}
        table = []
        for n in range(2, 11):
            (record,) = exponents.ratio_sweep(n, [params["epsilon"]])
            table.append([str(n), _fmt(record.s_ratio), _fmt(record.a_ratio), _fmt(exponents.limit_ratio(n))])
        rows = _write_csv(out, ("n", "sym_ratio", "asym_ratio", "limit_ratio"), table)
    _sidecar(out, args.target, params, rows)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "frame": _cmd_frame,
            "mech": _cmd_mech,
            "metric": _cmd_metric,
            "exp": _cmd_exp,
            "opt": _cmd_opt,
            "verify": _cmd_verify,
            "reproduce": _cmd_reproduce,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failures and everything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
