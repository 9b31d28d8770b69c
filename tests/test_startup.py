"""Start-up contract: the lazy package namespace, which commands run without numpy, and which layers each loads."""

import ast
import csv
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qldp
from qldp import cli, optimal
from qldp.linalg import matrix_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]

# What ``qldp`` exported when its __init__ imported every name eagerly, by home module.
EXPORTS = {
    "errors": "DomainError ExistenceError PrivacyViolationError SupportMismatchError ValidationError",
    "exponents": "ExponentPair IsoclinicBound SweepRecord advantage_crossover advantage_threshold_asym "
    "advantage_threshold_sym asym_exponent boundary_mu classical_asym_term classical_opt_asym "
    "classical_opt_sym classical_opt_sym_bound classical_sym_term closed_form_exponents isoclinic_bound "
    "isoclinic_constant ratio_sweep sym_exponent",
    "frames": "FrameCertificate FusionFrame build_eitff clifford_generators frame_from_json frame_to_json "
    "radon_hurwitz simplex_vectors verify_eitff",
    "linalg": "Spectrum eigh is_psd matrix_from_json matrix_function matrix_to_json",
    "mechanisms": "LdpMechanism QldpMechanism admissible_mu_interval binary_mechanism induced_mechanism "
    "isoclinic_mechanism ldp_level load_mechanism mechanism_from_json mechanism_to_json "
    "qldp_level save_mechanism sigma_star subset_mechanism tilde_family",
    "metrics": "BKM KL RLD SLD SQUARE SQUARED_DIFF MetricKind OperatorConvexF chernoff_information "
    "classical_chernoff classical_f_divergence classical_relative_entropy depolarize holevo_information "
    "neg_ratio overlap petz_f_divergence petz_metric relative_entropy von_neumann_entropy wyd",
    "optimal": "LpSolution SublinearUtility asymptotic_prediction kairouz_lp "
    "kairouz_lp_symmetric mutual_information_utility pairwise_sqrt_utility utility_of_mechanism",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}
SUBMODULES = ("cli", "errors", "expansions", "exponents", "frames", "linalg", "mechanisms", "metrics",
              "optimal", "sampling", "suites")

# Every command whose output comes from the scalar closed forms alone.
SCALAR_COMMANDS = [
    ["reproduce", "fig1", "--out", "fig1.csv"],
    ["reproduce", "fig2", "--out", "fig2.csv"],
    ["reproduce", "thresholds", "--out", "thresholds.csv"],
    ["reproduce", "ratios", "--out", "ratios.csv"],
    ["exp", "thresholds", "--n", "3..12"],
    ["exp", "crossover", "--n", "5", "--mode", "sym"],
    ["exp", "sweep", "--n", "3", "--eps", "0.5", "--out", "sweep.csv"],
    ["--help"],
]


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports qldp from this checkout; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code, cwd):
    """The names in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    return set(ast.literal_eval(run_fresh(code + "\nprint(sorted(sys.modules))", cwd).strip().splitlines()[-1]))


def numpy_modules_after(code, cwd):
    """The numpy modules loaded once ``code`` has run in a fresh interpreter."""
    return sorted(m for m in modules_after(code, cwd) if m.split(".")[0] == "numpy")


def command(argv):
    """Code that runs ``qldp ARGV`` as ``python -m qldp`` does and checks that it exits 0."""
    return (
        f"import runpy, sys\nsys.argv = {['qldp', *argv]!r}\n"
        "try:\n    runpy.run_module('qldp', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
    )


def test_importing_the_package_leaves_numpy_unloaded(tmp_path):
    assert numpy_modules_after("import sys, qldp", tmp_path) == []


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=lambda argv: "_".join(argv[:2]).strip("-"))
def test_scalar_command_leaves_numpy_unloaded(tmp_path, argv):
    assert numpy_modules_after(command(argv), tmp_path) == []


# Each command loads only the layers it computes with.
UNUSED_LAYERS = [
    (["opt", "lp", "--n", "10", "--eps", "0.7", "--full"], {"mechanisms", "frames", "metrics", "linalg"}),
    (["opt", "predict", "--n", "3"], {"mechanisms", "frames", "metrics", "linalg"}),
    (["metric", "chernoff", "a.json", "b.json"], {"mechanisms", "frames"}),
    (["metric", "petz", "--kind", "sld", "a.json", "x.json"], {"mechanisms", "frames"}),
]


@pytest.mark.parametrize("argv,unused", UNUSED_LAYERS, ids=["-".join(argv[:2]) for argv, _ in UNUSED_LAYERS])
def test_command_leaves_the_layers_it_does_not_use_unloaded(tmp_path, argv, unused):
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.4, 0.6]).astype(complex)
    x = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
    for name, m in (("a.json", a), ("b.json", b), ("x.json", x)):
        (tmp_path / name).write_text(json.dumps(matrix_to_json(m)))
    loaded = modules_after(command(argv), tmp_path)
    assert "qldp.cli" in loaded
    assert not {f"qldp.{layer}" for layer in unused} & loaded


def test_metric_holevo_loads_optimal_for_an_ldp_file_only(tmp_path):
    # a classical file is read through the LP's mutual information kernel; a quantum file keeps its module set
    for spec, name in ((["binary", "--n", "3"], "c.json"), (["sigma-star", "--n", "3"], "q.json")):
        assert cli.main(["mech", *spec, "--eps", "0.5", "--out", str(tmp_path / name)]) == 0
    assert "qldp.optimal" in modules_after(command(["metric", "holevo", "c.json"]), tmp_path)
    assert "qldp.optimal" not in modules_after(command(["metric", "holevo", "q.json"]), tmp_path)


def test_frame_build_leaves_fractions_unloaded(tmp_path):
    assert "fractions" not in modules_after(command(["frame", "build", "--n", "5", "--out", "f.json"]), tmp_path)


def test_opt_lp_leaves_numpy_fft_unloaded(tmp_path):
    # the start of the simplex tests its cyclic bases by determinant, not by FFT or SVD
    assert "numpy.fft" not in modules_after(command(["opt", "lp", "--n", "10", "--eps", "0.7", "--full"]), tmp_path)


def test_every_export_resolves_to_its_home_object():
    assert sorted(qldp.__all__) == sorted(HOME)
    star = {}
    exec("from qldp import *", star)
    for name, module in HOME.items():
        home = importlib.import_module(f"qldp.{module}")
        assert getattr(qldp, name) is getattr(home, name), name
        assert star[name] is getattr(home, name), name
        assert name in dir(qldp), name


def test_every_submodule_resolves_after_a_bare_import(tmp_path):
    code = (
        f"import sys, qldp\nfor name in {SUBMODULES!r}:\n"
        "    assert name in dir(qldp), name\n"
        "    assert getattr(qldp, name) is sys.modules['qldp.' + name], name\n"
    )
    run_fresh(code, tmp_path)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qldp.no_such_name
    assert not hasattr(qldp, "__main__")


def test_utility_choices_are_the_builtin_utilities():
    assert list(cli.UTILITY_CHOICES) == sorted(optimal.BUILTIN_UTILITIES)


def test_ratios_limit_column_is_the_mi_limit_ratio(tmp_path):
    out = tmp_path / "ratios.csv"
    assert cli.main(["reproduce", "ratios", "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == list(range(2, 11))
    for row in rows:
        n = int(row["n"])
        expected = optimal.asymptotic_prediction(n, optimal.mutual_information_utility(n).beta0)[2]
        assert expected == n * (n - 1) / (2 * (n // 2) * ((n + 1) // 2))
        assert row["limit_ratio"] == cli._fmt(expected)


def test_every_module_parses_at_the_python_floor():
    # requires-python names the oldest grammar the package may use
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    version = (int(floor[1]), int(floor[2]))
    for path in sorted((ROOT / "src" / "qldp").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)


def test_every_function_the_benchmark_tracer_patches_exists():
    # bench/spans.py patches these by name; a function deleted or renamed in src/ would break the traced benchmark
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYER_FUNCTIONS"
    ]
    sites = [site for span_sites in layers.values() for site in span_sites] + [("optimal", "linprog")]
    assert ("linalg", "validate_hermitian") in sites and ("linalg", "validate_density") in sites
    for module, attr in sites:
        assert callable(getattr(getattr(qldp, module), attr, None)), f"qldp.{module}.{attr}"
