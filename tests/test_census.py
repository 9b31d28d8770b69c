"""Reach census: every function in ``src/qldp`` runs under some command, or an allowlist says why it need not.

The census runs about thirty in-process ``cli.main`` calls, covering every subcommand, under ``sys.setprofile``
and records the code object of each Python call.  Every ``def`` that ``ast`` finds in the package is keyed by
its module, name and first line, the line of its first decorator when it has one: that is the
``co_firstlineno`` of a decorated function's code.  A function that no call reaches must be named in
``UNREACHED``; a name there that runs, or that no longer exists, fails the test too, so the list cannot go
stale.  Each reason there starts with a claim that :func:`claim_faults` checks, so a false reason fails too.
"""

import ast
import functools
import importlib
import json
import pathlib
import re
import sys

import pytest

import qldp
from qldp import cli

PACKAGE = pathlib.Path(qldp.__file__).resolve().parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Functions that no command reaches, by module and qualified name.  Each reason starts with a claim:
#   "export:"    qldp exports it under its own name;
#   "bench:"     its name is a word of a bench/*.py file (the census reads them and never writes them);
#   "via F:"     the source of F, a module and qualified name, names it, and F's own chain of claims ends
#                in export, bench or namespace;
#   "namespace:" it is the package's module __getattr__ or __dir__.
UNREACHED = {
    "__init__.__dir__": "namespace: dir(qldp)",
    "__init__.__getattr__": "namespace: lazy `from qldp import name`; the CLI imports submodules",
    "expansions.ExpansionReport.ratio_error_at": "bench: suites workload: its expansion check",
    "exponents.asym_exponent": "export: bench/ audit workload, acceptance criterion 3, demo 04",
    "exponents.golden_min": "via exponents._refine_max: isoclinic_bound's search",
    "exponents._refine_max": "via exponents.isoclinic_bound: isoclinic_bound's search",
    "exponents.isoclinic_bound": "export: documented loose-privacy bound, demo 04; its removal waits on ROADMAP D4",
    "exponents.isoclinic_bound.<locals>.pair_at": "via exponents.isoclinic_bound: isoclinic_bound's objective",
    "exponents.sym_exponent": "export: bench/ audit workload, acceptance criterion 3, demo 04",
    "linalg.is_psd": "export: public helper",
    "mechanisms.LdpMechanism.average": "via mechanisms.tilde_family: asym_exponent of a classical mechanism",
    "mechanisms.QldpMechanism.average": "via exponents.asym_exponent: bench/ audit workload",
    "mechanisms.induced_mechanism": "export: bench/ audit workload: one pair of the measurement suite's stack",
    "mechanisms.tilde_family": "export: sym_exponent and asym_exponent (bench/ audit workload), demo 02",
    "metrics.classical_chernoff": "export: LdpMechanism.chernoff, read by sym_exponent of a classical mechanism",
    "metrics.classical_relative_entropy": "export: LdpMechanism.divergence: asym_exponent of a classical mechanism",
    "metrics.depolarize": "export: public helper",
    "metrics.relative_entropy": "export: QldpMechanism.divergence, read by asym_exponent (bench/ audit workload)",
    "sampling.random_unitary": "bench: sampling.draw's span",
}
CLAIM = re.compile(r"(export|bench|namespace|via (\S+)):")
NAMESPACE = ("__init__.__getattr__", "__init__.__dir__")


def census_calls(tmp):
    """(argv, expected exit code) of the census, with the input files it reads written under ``tmp``."""

    def matrix(rows):
        return {"dim": len(rows), "entries": [[float(v), 0.0] for row in rows for v in row]}

    files = {
        "rho.json": matrix([[0.7, 0.1], [0.1, 0.3]]),
        "sigma.json": matrix([[0.4, -0.2], [-0.2, 0.6]]),
        "x.json": matrix([[1.0, 0.5], [0.5, -1.0]]),
    }
    for name, obj in files.items():
        (tmp / name).write_text(json.dumps(obj), encoding="utf-8")
    q, b = str(tmp / "q.json"), str(tmp / "b.json")
    rho, sigma, x = (str(tmp / name) for name in files)
    return [
        (["frame", "build", "--n", "3", "--out", str(tmp / "frame.json")], 0),
        (["frame", "verify", str(tmp / "frame.json")], 0),
        (["mech", "sigma-star", "--n", "3", "--eps", "0.5", "--out", q], 0),
        (["mech", "sigma-star", "--n", "3", "--eps", "0.5"], 0),
        (["mech", "binary", "--n", "3", "--eps", "0.5", "--out", b], 0),
        (["mech", "subset", "--n", "4", "--k", "2", "--eps", "0.5"], 0),
        (["mech", "audit", q], 0),
        (["mech", "audit", b], 0),
        (["metric", "chernoff", rho, sigma], 0),
        (["metric", "holevo", q], 0),
        (["metric", "holevo", b], 0),
        *((["metric", "petz", "--kind", kind, rho, x], 0) for kind in ("sld", "rld", "bkm", "wyd:0.5")),
        (["exp", "sweep", "--n", "3", "--eps", "0.5", "--out", str(tmp / "sweep.csv")], 0),
        (["exp", "sweep", "--n", "3,4", "--eps", "0.1:0.3:0.1", "--eta", "0.5", "--alt-u", "0.4",
          "--out", str(tmp / "alt.csv")], 0),
        (["exp", "thresholds", "--n", "3..5"], 0),
        (["exp", "crossover", "--n", "5", "--mode", "sym"], 0),
        (["exp", "crossover", "--n", "5", "--mode", "asym"], 0),
        (["opt", "lp", "--n", "4", "--eps", "0.5"], 0),
        (["opt", "lp", "--n", "4", "--eps", "0.5", "--utility", "pairwise_sqrt", "--full"], 0),
        (["opt", "lp", "--n", "4", "--eps", "0.5", "--symmetric"], 0),
        (["opt", "predict", "--n", "4"], 0),
        (["verify", "taylor", "--seed", "7", "--out", str(tmp / "taylor.json")], 0),
        (["verify", "all", "--count", "20", "--seed", "7"], 0),
        *((["reproduce", target, "--out", str(tmp / f"{target}.csv")], 0)
          for target in ("fig1", "fig2", "thresholds", "ratios")),
        (["mech", "audit"], 1),
    ]


@functools.cache
def package_functions() -> dict:
    """(file, first line, name) of every def in the package -> its module and qualified name, and its ast node."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[(str(path), first, child.name)] = (f"{module}.{prefix}{child.name}", child)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def reached(calls) -> set:
    """(file, first line, name) of every package function that runs during ``calls``."""
    for path in sorted(PACKAGE.glob("*.py")):  # so that no function runs only as its module loads
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"qldp.{path.stem}")
    for name, module in list(sys.modules.items()):  # a cached result would hide the call that computes it
        if name.startswith("qldp."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    codes, root, exits = set(), str(PACKAGE), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv, _ in calls:
            exits.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert exits == [code for _, code in calls]
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes}


def claim_faults(unreached: dict) -> list:
    """One message for each false claim in ``unreached``, starting with the name of its entry."""
    nodes = dict(package_functions().values())
    bench_words = {word for path in BENCH.glob("*.py") for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    faults = []
    for name, reason in unreached.items():
        module, _, qualname = name.partition(".")
        short = qualname.rpartition(".")[2]
        claim = CLAIM.match(reason)
        if claim is None:
            faults.append(f"{name}: its reason {reason!r} starts with no claim")
        elif claim[1] == "export":
            value = getattr(qldp, short) if short in qldp.__all__ else None
            home = (getattr(value, "__module__", None), getattr(value, "__qualname__", None))
            if home != (f"qldp.{module}", qualname):
                faults.append(f"{name}: qldp does not export it")
        elif claim[1] == "bench":
            if short not in bench_words:
                faults.append(f"{name}: no bench/*.py file names it")
        elif claim[1] == "namespace":
            if name not in NAMESPACE:
                faults.append(f"{name}: it is not the package's __getattr__ or __dir__")
        else:
            caller = claim[2]
            if caller not in nodes or not any(
                getattr(node, "id", None) == short or getattr(node, "attr", None) == short
                for node in ast.walk(nodes[caller])
            ):
                faults.append(f"{name}: {caller} does not name it")
            chain = [name]
            while caller not in chain:
                chain.append(caller)
                link = CLAIM.match(unreached.get(caller, ""))
                if link is None:
                    faults.append(f"{name}: its chain {' -> '.join(chain)} ends in no claim")
                    break
                if link[2] is None:
                    break
                caller = link[2]
            else:
                faults.append(f"{name}: its chain {' -> '.join(chain)} -> {caller} is a cycle")
    return faults


def test_every_package_function_is_reached_or_allowlisted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    functions = {key: name for key, (name, _) in package_functions().items()}
    ran = {functions[key] for key in reached(census_calls(tmp_path)) if key in functions}
    unlisted = sorted(set(functions.values()) - ran - set(UNREACHED))
    assert not unlisted, f"no command reaches {unlisted}"
    listed_but_ran = sorted(set(UNREACHED) & ran)
    assert not listed_but_ran, f"allowlisted but reached: {listed_but_ran}"
    gone = sorted(set(UNREACHED) - set(functions.values()))
    assert not gone, f"allowlisted but not in the package: {gone}"


def test_every_unreached_reason_holds():
    assert not claim_faults(UNREACHED)


@pytest.mark.parametrize(
    "name,reason,fault",
    [
        ("exponents.golden_min", "export: a search", "qldp does not export it"),
        ("linalg.is_psd", "bench: a check", "no bench/*.py file names it"),
        ("metrics.depolarize", "namespace: a channel", "not the package's __getattr__ or __dir__"),
        ("exponents.golden_min", "via exponents.sym_exponent: a search", "exponents.sym_exponent does not name it"),
        ("exponents.golden_min", "via exponents.missing: a search", "exponents.missing does not name it"),
        ("exponents._refine_max", "via exponents.closed_form_exponents: a search", "ends in no claim"),
        ("exponents.isoclinic_bound", "via exponents.golden_min: a bound", "is a cycle"),
        ("linalg.is_psd", "public helper", "starts with no claim"),
    ],
)
def test_a_false_claim_fails_naming_its_entry(name, reason, fault):
    faults = claim_faults({**UNREACHED, name: reason})
    assert any(f.startswith(f"{name}: ") and fault in f for f in faults), faults
