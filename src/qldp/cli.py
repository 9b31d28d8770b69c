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
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import exponents, frames, mechanisms, metrics, optimal, suites
from .errors import ValidationError
from .linalg import matrix_from_json

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(exponents.SweepRecord))


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


def _default_seed() -> int:
    return int(os.environ.get("QLOCAL_SEED", "0"))


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


def _load_json(path: str, parse):
    """Read a JSON file and ``parse`` it; a missing or mistyped field is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sidecar(path: str, target: str, params: dict, rows: int) -> None:
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    meta = {"target": target, "params": params, "rows": rows, "sha256": digest}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def _sweep_rows(records) -> list[list[str]]:
    return [[_fmt(value) for value in dataclasses.astuple(r)] for r in records]


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
    lp.add_argument("--utility", choices=sorted(optimal.BUILTIN_UTILITIES), default="mi")
    mode = lp.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true")
    mode.add_argument("--symmetric", action="store_true")
    pr = osub.add_parser("predict")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--utility", choices=sorted(optimal.BUILTIN_UTILITIES), default="mi")

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
    if args.action == "build":
        frame = frames.build_eitff(args.n, args.a)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(frames.frame_to_json(frame), fh, indent=1)
        print(f"wrote frame d={frame.d} r={frame.r} n={frame.n} c={_fmt(frame.c)} to {args.out}")
        return 0
    frame = _load_json(args.path, frames.frame_from_json)
    cert = frames.verify_eitff(frame.projections, tol=args.tol)
    print(
        f"tight={cert.is_tight} ectff={cert.is_ectff} eitff={cert.is_eitff} "
        f"c={_fmt(cert.c_observed)} max_residual={_fmt(cert.max_residual)}"
    )
    return 0 if cert.is_eitff else 1


def _cmd_mech(args) -> int:
    if args.action == "audit":
        mech = _load_json(args.path, mechanisms.mechanism_from_json)
        if isinstance(mech, mechanisms.QldpMechanism):
            level = mechanisms.qldp_level(mech)
            print(f"qldp mechanism n={mech.n} dim={mech.dim} declared={_fmt(mech.epsilon)} level={_fmt(level)}")
        else:
            level = mechanisms.ldp_level(mech)
            print(
                f"ldp mechanism n={mech.n_inputs} outputs={mech.n_outputs} "
                f"declared={_fmt(mech.epsilon)} level={_fmt(level)}"
            )
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


def _parse_kind(text: str) -> metrics.MetricKind:
    if text.startswith("wyd:"):
        return metrics.wyd(float(text.split(":", 1)[1]))
    return metrics.MetricKind(text)


def _cmd_metric(args) -> int:
    if args.action == "chernoff":
        a, b = (_load_json(path, matrix_from_json) for path in (args.a, args.b))
        value = metrics.chernoff_information(a, b)
        print(_fmt(value))
        return 0
    if args.action == "holevo":
        mech = _load_json(args.mech, mechanisms.mechanism_from_json)
        if isinstance(mech, mechanisms.LdpMechanism):
            states = [np.diag(mech.column(x).astype(complex)) for x in range(mech.n_inputs)]
            n = mech.n_inputs
        else:
            states = list(mech.validated)
            n = mech.n
        value = metrics.holevo_information(np.full(n, 1.0 / n), states)
        print(_fmt(value))
        return 0
    x = _load_json(args.x, matrix_from_json)
    value = metrics.petz_metric(_load_json(args.rho, matrix_from_json), x, x, _parse_kind(args.kind))
    print(_fmt(value))
    return 0


def _cmd_exp(args) -> int:
    if args.action == "sweep":
        ns = _parse_int_list(args.n)
        eps = _parse_float_grid(args.eps)
        records = _sweep(ns, eps, args.eta, args.alt_u)
        _write_csv(args.out, SWEEP_COLUMNS, _sweep_rows(records))
        print(f"wrote {len(records)} records to {args.out}")
        return 0
    if args.action == "thresholds":
        ns = _parse_int_list(args.n)
        print("n,sym_threshold,asym_threshold")
        for n in ns:
            print(
                f"{n},{_fmt(exponents.advantage_threshold_sym(n))},"
                f"{_fmt(exponents.advantage_threshold_asym(n))}"
            )
        return 0
    value = exponents.advantage_crossover(args.n, args.mode)
    print(_fmt(value))
    return 0


def _sweep(ns, eps, eta, alt_u):
    return [record for n in ns for record in exponents.ratio_sweep(n, eps, eta, alt_u)]


def _cmd_opt(args) -> int:
    utility = optimal.BUILTIN_UTILITIES[args.utility](args.n)
    if args.action == "predict":
        classical, quantum, ratio = optimal.asymptotic_prediction(args.n, utility.value_at_ones, utility.beta0)
        print(f"classical_coeff={_fmt(classical)} quantum_coeff={_fmt(quantum)} ratio={_fmt(ratio)}")
        return 0
    run_full = args.full or not args.symmetric
    run_symmetric = args.symmetric or not args.full
    if run_symmetric:
        value = optimal.kairouz_lp_symmetric(args.n, args.eps, utility)
        print(f"symmetric={_fmt(value)}")
    if run_full:
        sol = optimal.kairouz_lp(args.n, args.eps, utility)
        if sol.status != "optimal":
            print("LP solver failed", file=sys.stderr)
            return 2
        print(f"full={_fmt(sol.value)} support={len(sol.weights)}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    all_ok = True
    if args.action == "taylor":
        reports = suites.expansion_suite(seed)
        payload = []
        for rep in reports:
            ok = bool(rep.passes(order_min=0.9, ratio_tol=0.02))
            all_ok &= ok
            payload.append(
                {
                    "name": rep.name,
                    "t_grid": [float(t) for t in rep.t_grid],
                    "ratio_errors": [float(e) for e in rep.ratio_errors],
                    "fitted_order": float(rep.fitted_order),
                    "passed": ok,
                }
            )
            print(f"{rep.name:24s} order={rep.fitted_order:6.3f} err={rep.ratio_errors[-1]:.3e} {'ok' if ok else 'FAIL'}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"seed": seed, "checks": payload, "all_passed": all_ok}, fh, indent=1)
        return 0 if all_ok else 2

    for rep in suites.expansion_suite(seed):
        ok = rep.passes(order_min=0.9, ratio_tol=0.02)
        all_ok &= ok
        print(f"taylor/{rep.name:24s} order={rep.fitted_order:6.3f} {'ok' if ok else 'FAIL'}")
    for result in suites.run_all_suites(seed, args.count):
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
    if args.target == "fig1":
        ns = [3, 6, 10]
        eps = _parse_float_grid("0.05:2.0:0.05")
        records = _sweep(ns, eps, 1.0, None)
        _write_csv(out, SWEEP_COLUMNS, _sweep_rows(records))
        _sidecar(out, "fig1", {"n": ns, "eps": "0.05:2.0:0.05", "eta": 1.0}, len(records))
    elif args.target == "fig2":
        eps = _parse_float_grid("0.05:2.0:0.05")
        records = exponents.ratio_sweep(10, eps, 1.0, alt_u=0.4)
        _write_csv(out, SWEEP_COLUMNS, _sweep_rows(records))
        _sidecar(out, "fig2", {"n": [10], "eps": "0.05:2.0:0.05", "eta": 1.0, "alt_u": 0.4}, len(records))
    elif args.target == "thresholds":
        rows = [
            [str(n), _fmt(exponents.advantage_threshold_sym(n)), _fmt(exponents.advantage_threshold_asym(n))]
            for n in range(3, 13)
        ]
        _write_csv(out, ("n", "sym_threshold", "asym_threshold"), rows)
        _sidecar(out, "thresholds", {"n": "3..12"}, len(rows))
    else:
        epsilon = 1e-3
        rows = []
        for n in range(2, 11):
            pair = exponents.closed_form_exponents(n, 0.5, epsilon)
            s_ratio = pair.sym / exponents.classical_opt_sym(n, epsilon)
            a_ratio = pair.asym / exponents.classical_opt_asym(n, epsilon)
            limit = n * (n - 1) / (2.0 * (n // 2) * ((n + 1) // 2))
            rows.append([str(n), _fmt(s_ratio), _fmt(a_ratio), _fmt(limit)])
        _write_csv(out, ("n", "sym_ratio", "asym_ratio", "limit_ratio"), rows)
        _sidecar(out, "ratios", {"n": "2..10", "epsilon": epsilon}, len(rows))
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
