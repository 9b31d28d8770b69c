import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import oracles
from qldp import cli, mechanisms, metrics, optimal
from qldp.cli import main
from qldp.errors import ValidationError
from qldp.linalg import matrix_to_json
from qldp.sampling import random_traceless_hermitian, random_unitary


def run(argv):
    return main([str(a) for a in argv])


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(m)))


def test_frame_build_and_verify(tmp_path, capsys):
    out = tmp_path / "frame.json"
    assert run(["frame", "build", "--n", 5, "--out", out]) == 0
    assert run(["frame", "verify", out, "--tol", "1e-10"]) == 0
    captured = capsys.readouterr().out
    assert "eitff=True" in captured


def test_frame_build_invalid_exits_one(tmp_path):
    assert run(["frame", "build", "--n", 6, "--a", 0, "--out", tmp_path / "x.json"]) == 1


def test_frame_build_of_a_huge_a_exits_one_at_once(tmp_path, capsys):
    # 2^a with a = 10^8 took about a second and 79 MB before the dimension was checked
    start = time.perf_counter()
    assert run(["frame", "build", "--n", 3, "--a", 100000000, "--out", tmp_path / "x.json"]) == 1
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the supported dense-matrix range (<= 64)" in captured.err
    assert not (tmp_path / "x.json").exists()


def test_mech_roundtrip_through_audit(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["mech", "sigma-star", "--n", 4, "--eps", "0.7", "--out", out]) == 0
    assert run(["mech", "audit", out]) == 0
    assert "level=0.7" in capsys.readouterr().out
    out2 = tmp_path / "b.json"
    assert run(["mech", "binary", "--n", 3, "--eps", "1.0", "--out", out2]) == 0
    assert run(["mech", "audit", out2]) == 0
    out3 = tmp_path / "s.json"
    assert run(["mech", "subset", "--n", 4, "--k", 2, "--eps", "0.5", "--out", out3]) == 0
    assert run(["mech", "audit", out3]) == 0


def test_mech_sigma_star_prints_loadable_json(capsys):
    assert run(["mech", "sigma-star", "--n", 4, "--eps", "0.7"]) == 0
    loaded = mechanisms.mechanism_from_json(json.loads(capsys.readouterr().out))
    assert loaded.epsilon == 0.7
    expected = mechanisms.sigma_star(4, 0.7).states
    assert len(loaded.states) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.states, expected))


def test_mech_audit_rejects_tampered_file(tmp_path):
    out = tmp_path / "m.json"
    run(["mech", "sigma-star", "--n", 3, "--eps", "0.5", "--out", out])
    obj = json.loads(out.read_text())
    obj["epsilon"] = 0.4
    out.write_text(json.dumps(obj))
    assert run(["mech", "audit", out]) == 1


def test_metric_chernoff(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a, np.diag([0.75, 0.25]).astype(complex))
    write_matrix(b, np.diag([0.25, 0.75]).astype(complex))
    assert run(["metric", "chernoff", a, b]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(math.log(2.0 / math.sqrt(3.0)), abs=1e-10)


def test_metric_chernoff_of_a_state_with_itself_prints_zero(tmp_path, capsys):
    a = tmp_path / "a.json"
    write_matrix(a, np.diag([0.75, 0.25]).astype(complex))
    assert run(["metric", "chernoff", a, a]) == 0
    assert capsys.readouterr().out == "0\n"


def test_metric_holevo_on_mechanism_file(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(["mech", "binary", "--n", 2, "--eps", str(math.log(3.0)), "--out", out])
    capsys.readouterr()
    assert run(["metric", "holevo", out]) == 0
    value = float(capsys.readouterr().out.strip())
    expected = math.log(2.0) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert value == pytest.approx(expected, abs=1e-10)


def test_metric_holevo_on_an_ldp_file_runs_no_eigendecomposition(tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.json"
    assert run(["mech", "subset", "--n", 6, "--k", 3, "--eps", 0.5, "--out", out]) == 0
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert run(["metric", "holevo", out]) == 0
    # the mutual information is read off the columns, not off 20 x 20 diagonal states
    assert counts == {"eigh": 0, "eigvalsh": 0}


@pytest.mark.parametrize("eps", [1e-4, 0.05, 1.0, 10.0, 700.0])
def test_metric_holevo_of_an_ldp_file_is_its_mutual_information(tmp_path, capsys, eps):
    out = tmp_path / "m.json"
    specs = [["binary", "--n", n] for n in range(2, 7)]
    specs += [["subset", "--n", n, "--k", k] for n in range(2, 7) for k in range(1, n)]
    for spec in specs:
        assert run(["mech", *spec, "--eps", eps, "--out", out]) == 0
        capsys.readouterr()
        assert run(["metric", "holevo", out]) == 0
        value = float(capsys.readouterr().out)
        q = np.array(json.loads(out.read_text())["q"]).T
        assert abs(value - oracles.mutual_information(q)) <= 2e-15, (spec, eps)


def test_metric_holevo_skips_an_all_zero_output_row(tmp_path, capsys):
    values = []
    for columns in ([[0.75, 0.25], [0.25, 0.75]], [[0.75, 0.0, 0.25], [0.25, 0.0, 0.75]]):
        path = tmp_path / f"q{len(columns[0])}.json"
        obj = {"kind": "ldp", "n": 2, "outputs": len(columns[0]), "epsilon": math.log(3.0), "q": columns}
        path.write_text(json.dumps(obj))
        assert run(["mech", "audit", path]) == 0
        capsys.readouterr()
        assert run(["metric", "holevo", path]) == 0
        values.append(capsys.readouterr().out)
    assert values[0] == values[1]


def test_metric_holevo_of_identical_pure_states_prints_plus_zero(tmp_path, capsys):
    path = tmp_path / "q.json"
    state = {"dim": 1, "entries": [[1.0, 0.0]]}
    path.write_text(json.dumps({"kind": "qldp", "n": 2, "dim": 1, "epsilon": 1.0, "states": [state, state]}))
    assert run(["mech", "audit", path]) == 0
    assert "level=0" in capsys.readouterr().out
    assert run(["metric", "holevo", path]) == 0
    out = capsys.readouterr().out
    assert out == "0\n"
    assert math.copysign(1.0, float(out)) == 1.0


def test_metric_petz(tmp_path, capsys):
    rho, x = tmp_path / "rho.json", tmp_path / "x.json"
    write_matrix(rho, np.eye(2) / 2)
    write_matrix(x, np.array([[0, 0.25], [0.25, 0]], dtype=complex))
    assert run(["metric", "petz", "--kind", "bkm", rho, x]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.25, abs=1e-12)
    assert run(["metric", "petz", "--kind", "wyd:0.5", rho, x]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.25, abs=1e-12)


def test_exp_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["exp", "sweep", "--n", "3,6", "--eps", "0.2:1.0:0.2", "--eta", "1", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,epsilon,eta,s_classical")
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[0] == "3" and float(first[1]) == pytest.approx(0.2)


@pytest.mark.parametrize("grid", ["0:1:0", "1:0:0.1", "0:inf:1"])
def test_exp_sweep_rejects_bad_grid(tmp_path, capsys, grid):
    out = tmp_path / "sweep.csv"
    assert run(["exp", "sweep", "--n", "3", "--eps", grid, "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_exp_sweep_rejects_bad_eta(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["exp", "sweep", "--n", "3", "--eps", "0.5", "--eta", "0", "--out", out]) == 1
    assert "eta must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_exp_thresholds_rejects_empty_range(capsys):
    assert run(["exp", "thresholds", "--n", "12..3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "empty range" in captured.err


def test_exp_thresholds_range_output(capsys):
    assert run(["exp", "thresholds", "--n", "3..5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,sym_threshold,asym_threshold"
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5"]
    assert float(lines[1].split(",")[1]) == pytest.approx(1.1885, abs=1e-4)
    assert float(lines[1].split(",")[2]) == pytest.approx(0.2645, abs=1e-4)


def test_exp_crossover(capsys):
    assert run(["exp", "crossover", "--n", 3, "--mode", "asym"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0.2645


def test_opt_lp_both_routes(capsys):
    assert run(["opt", "lp", "--n", 3, "--eps", "0.5", "--utility", "mi"]) == 0
    out = capsys.readouterr().out
    sym = float(out.splitlines()[0].split("=")[1])
    full = float(out.splitlines()[1].split("=")[1].split()[0])
    assert sym == pytest.approx(full, abs=1e-9)


@pytest.mark.parametrize("eps", ["500", "709"])
def test_opt_lp_at_large_eps(capsys, eps):
    # 500 used to fail in HiGHS (columns spanning ~1e217), 709 to overflow the MI kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["opt", "lp", "--n", 3, "--eps", eps]) == 0
    out = capsys.readouterr().out.split()
    fields = dict(part.split("=") for part in out)
    assert float(fields["symmetric"]) == pytest.approx(math.log(3.0), abs=1e-9)
    assert float(fields["full"]) == pytest.approx(math.log(3.0), abs=1e-9)
    assert int(fields["support"]) >= 1


@pytest.mark.parametrize("utility", ["mi", "pairwise_sqrt"])
@pytest.mark.parametrize("n", [2, 5, 14])
@pytest.mark.parametrize("eps", ["1e-17", "1e-300", "5e-324"])
def test_opt_lp_where_e_to_the_minus_eps_rounds_to_one(capsys, utility, n, eps):
    # these exited 1 with "error: Singular matrix" from the simplex's first basis
    assert run(["opt", "lp", "--n", n, "--eps", eps, "--utility", utility]) == 0
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    value = optimal.BUILTIN_UTILITIES[utility](n).value_at_ones
    assert float(fields["symmetric"]) == float(fields["full"]) == value
    assert fields["support"] == "1"


@pytest.mark.parametrize("n", [5, 14])
@pytest.mark.parametrize("eps", ["1.5e-16", "3e-16", "1e-15"])
def test_opt_lp_where_one_minus_e_to_the_minus_eps_is_a_few_ulps(capsys, n, eps):
    # these exited 2 with "LP solver failed: primal residual ..." from a first basis
    # that is singular to working precision
    assert run(["opt", "lp", "--n", n, "--eps", eps, "--full"]) == 0
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    utility = optimal.mutual_information_utility(n)
    assert float(fields["full"]) == pytest.approx(optimal.kairouz_lp_symmetric(n, float(eps), utility), abs=1e-12)


def test_opt_lp_uncertified_exits_two(monkeypatch, capsys):
    # The solver stops at z = 0 alone, whose duals (phi(1) / n) 1 leave
    # positive reduced costs, so the certificate must fail
    def stuck(coeffs, rows):
        alpha = np.zeros(len(rows))
        alpha[0] = 1.0
        return optimal.Vertex(alpha, np.full(rows.shape[1], coeffs[0] / rows.shape[1]), 0)

    monkeypatch.setattr(optimal, "linprog", stuck)
    sol = optimal.kairouz_lp(3, 0.5, optimal.mutual_information_utility(3))
    assert sol.status != "optimal" and math.isnan(sol.value)
    assert sol.reduced_cost > 1e-3
    assert run(["opt", "lp", "--n", 3, "--eps", "0.5", "--full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reduced cost" in captured.err and "exceeds 1e-10" in captured.err

    def weightless(coeffs, rows):  # misses every row by 1
        return stuck(coeffs, rows)._replace(alpha=np.zeros(len(rows)))

    monkeypatch.setattr(optimal, "linprog", weightless)
    assert run(["opt", "lp", "--n", 3, "--eps", "0.5", "--full"]) == 2
    assert capsys.readouterr().err == "LP solver failed: primal residual 1.000e+00 exceeds 1e-09\n"


def test_an_unexpected_error_exits_two(monkeypatch, capsys):
    def broken(n, epsilon, utility):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(optimal, "kairouz_lp_symmetric", broken)
    assert run(["opt", "lp", "--n", 3, "--eps", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: float division by zero\n"


def test_exp_sweep_underflow_names_eps(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["exp", "sweep", "--n", 3, "--eps", "400", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "eps=400" in err and "math domain error" not in err
    assert not out.exists()


def test_exp_sweep_closed_form_failure_names_eps(tmp_path, capsys):
    # from eps = 37 the isoclinic noise weight rounds to 0, before the classical term underflows
    out = tmp_path / "x.csv"
    assert run(["exp", "sweep", "--n", 3, "--eps", "37", "--out", out]) == 1
    assert "eps=37" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, text", [(None, ""), (math.inf, "inf"), (0.1, "0.10000000000000001"), (3, "3")])
def test_fmt(value, text):
    assert cli._fmt(value) == text


@pytest.mark.parametrize(
    "text, expected", [("4", [4]), ("3,6,10", [3, 6, 10]), ("3..5", [3, 4, 5]), ("7..7", [7])]
)
def test_parse_int_list(text, expected):
    assert cli._parse_int_list(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [("0.5", [0.5]), ("0.1,2", [0.1, 2.0]), ("0.1:0.3:0.1", [0.1, 0.2, 0.3]), ("1:0:-0.5", [1.0, 0.5, 0.0])],
)
def test_parse_float_grid(text, expected):
    assert cli._parse_float_grid(text) == expected


@pytest.mark.parametrize(
    "parse, text",
    [(cli._parse_int_list, "5..3"), (cli._parse_float_grid, "1:0:0.1"), (cli._parse_float_grid, "0:1:0")],
)
def test_parsers_reject_empty_ranges_and_zero_steps(parse, text):
    with pytest.raises(ValidationError):
        parse(text)


def test_opt_predict(capsys):
    assert run(["opt", "predict", "--n", 4, "--utility", "mi"]) == 0
    out = capsys.readouterr().out
    assert "ratio=1.5" in out


def test_verify_taylor_report(tmp_path):
    report_path = tmp_path / "report.json"
    assert run(["verify", "taylor", "--seed", 7, "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert report["seed"] == 7
    assert len(report["checks"]) == 8


def test_verify_all_small_count():
    assert run(["verify", "all", "--seed", 3, "--count", 40]) == 0


def test_seed_env_override(tmp_path, monkeypatch):
    report_path = tmp_path / "report.json"
    monkeypatch.setenv("QLOCAL_SEED", "42")
    assert run(["verify", "taylor", "--out", report_path]) == 0
    assert json.loads(report_path.read_text())["seed"] == 42


def test_reproduce_fig1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["reproduce", "fig1", "--out", "fig1.csv"]) == 0
    lines = (tmp_path / "fig1.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 40
    meta = json.loads((tmp_path / "fig1.csv.meta.json").read_text())
    assert meta["rows"] == 120 and "sha256" in meta


REPRODUCE_SHA256 = {
    "fig1": "8cc05214d6b87373a7b814b51ddbcf63e2b9f1be6cb8cc9e4e201f4238209eaf",
    "fig2": "6a2be172fa53a44a91c2dfa96b548a214a27fd84f734a0598bfc04295dc0209c",
    "thresholds": "25615995f33850b33a983aa0132b38cdfda2bc5081f12eefebaadeea5fbcdd6e",
    "ratios": "87296a65e66669f216a38083d290321779006b877368e65efa410119ff648b37",
}


@pytest.mark.parametrize("target", sorted(REPRODUCE_SHA256))
def test_reproduce_pinned_bytes(tmp_path, target):
    out = tmp_path / f"{target}.csv"
    assert run(["reproduce", target, "--out", out]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPRODUCE_SHA256[target]
    meta = json.loads((tmp_path / f"{target}.csv.meta.json").read_text())
    assert meta["sha256"] == digest


VERIFY_SHA256 = {
    # stdout of `qldp verify all --seed 7 --count 50`
    "all": "12fbe44b93f4a090df7fcccdf2744e3b9408fb8dd8c169276c296117b7b84d4d",
    # the JSON written by `qldp verify taylor --seed 7 --out FILE`
    "taylor": "1321aa524aa85f6aff0dab82a7dc9e2efe8e46b534d0769e228c59cf5bf4165f",
}


def test_verify_all_pinned_stdout(capsys):
    assert run(["verify", "all", "--seed", 7, "--count", 50]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SHA256["all"]


def test_verify_taylor_pinned_report(tmp_path):
    out = tmp_path / "taylor.json"
    assert run(["verify", "taylor", "--seed", 7, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256["taylor"]


FAILING_VERIFY_SHA256 = {
    # stdout of `qldp verify all --seed 8 --count 50`, whose overlap_s0.7 expansion misses
    "all": "b8d7a2f68793c5d6482281a3341e85ecb21f0fb3b93e5e328c25db5aaa33f4ce",
    # stdout of `qldp verify taylor --seed 8`
    "taylor": "66132043e94f0c6c225180a5a077cefde13f6844c84c20546588374711d0f4dc",
}


@pytest.mark.parametrize("argv", [["all", "--count", 50], ["taylor"]], ids=["all", "taylor"])
def test_verify_failing_seed_pinned_stdout(capsys, argv):
    assert run(["verify", argv[0], "--seed", 8] + argv[1:]) == 2
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FAILING_VERIFY_SHA256[argv[0]]


# stdout of `qldp opt predict --n N --utility U` for N in (3, 4, 6, 10), U in (mi, pairwise_sqrt)
PREDICT_SHA256 = "93c87385df23f1bbbddd742b54654878bce851771d955c30658127da72331204"


def test_opt_predict_pinned_stdout(capsys):
    for n in (3, 4, 6, 10):
        for utility in ("mi", "pairwise_sqrt"):
            assert run(["opt", "predict", "--n", n, "--utility", utility]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PREDICT_SHA256


def _metric_values():
    """Every Petz, induced and classical metric on random, flat and near-degenerate spectra, d in (2, 3, 4, 8)."""
    rng = np.random.default_rng(10)
    kinds = [metrics.SLD, metrics.RLD, metrics.BKM, metrics.wyd(0.3), metrics.wyd(0.5), metrics.wyd(0.8)]
    fs = [metrics.KL, metrics.SQUARE, metrics.SQUARED_DIFF] + [metrics.neg_ratio(s) for s in (0.0, 1.0, 3.0)]
    for d in (2, 3, 4, 8):
        lam = rng.dirichlet(np.ones(d))
        near = lam.copy()
        near[1] = near[0] * (1.0 + 1e-14)
        for spectrum in (lam, np.full(d, 1.0 / d), near / near.sum()):
            u = random_unitary(rng, d)
            rho = (u * spectrum) @ u.conj().T
            x, y = random_traceless_hermitian(rng, d), random_traceless_hermitian(rng, d)
            for kind in kinds:
                yield metrics.petz_metric(rho, x, y, kind)
                yield metrics.classical_metric(spectrum, x.diagonal().real, y.diagonal().real, kind)
            for f in fs:
                yield metrics.induced_metric(rho, x, y, f)


METRIC_SHA256 = "d8c20e090c20dc90f9219b2e361cae55757940b4ce10badae8c05a5279ddabd5"


def test_metric_values_pinned():
    text = "\n".join(float.hex(v) for v in _metric_values())
    assert hashlib.sha256(text.encode()).hexdigest() == METRIC_SHA256


def test_reproduce_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["reproduce", "fig2", "--out", a])
    run(["reproduce", "fig2", "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_thresholds_and_ratios(tmp_path):
    out = tmp_path / "th.csv"
    assert run(["reproduce", "thresholds", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].split(",")[0] == "3"
    out2 = tmp_path / "ratios.csv"
    assert run(["reproduce", "ratios", "--out", out2]) == 0
    rows = out2.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["n", "sym_ratio", "asym_ratio", "limit_ratio"]
    n3 = rows[2].split(",")
    assert float(n3[1]) == pytest.approx(float(n3[3]), rel=0.01)


def test_reproduce_closes_every_file_it_opens(tmp_path):
    # in development mode with ResourceWarning an error, a file left open is reported on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["-X", "dev", "-W", "error::ResourceWarning", "-m", "qldp", "reproduce", "ratios", "--out", "ratios.csv"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_unknown_flag_exits_one(capsys):
    assert run(["frame", "build", "--n", 3, "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert run(["destroy-everything"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert run(["mech", "audit", tmp_path / "nope.json"]) == 1


def test_mech_subset_where_z_overflows(tmp_path, capsys):
    # Z = 3 e^eps + 3 is inf at this eps; the mechanism used to fail its column-sum check
    out = tmp_path / "s.json"
    assert run(["mech", "subset", "--n", 4, "--k", 2, "--eps", "709.7", "--out", out]) == 0
    assert run(["mech", "audit", out]) == 0
    assert "level=709.7" in capsys.readouterr().out


def test_mech_subset_with_subnormal_entries_passes_its_audit(tmp_path):
    # the smallest entry is subnormal at this eps; the audit used to overflow and exit 1
    out = tmp_path / "s.json"
    assert run(["mech", "subset", "--n", 9, "--k", 5, "--eps", "709.782712893384", "--out", out]) == 0
    assert run(["mech", "audit", out]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["mech", "binary", "--n", 3, "--eps", "inf"],
        ["mech", "subset", "--n", 3, "--k", 1, "--eps", "nan"],
        ["mech", "sigma-star", "--n", 3, "--eps", "inf"],
        ["mech", "sigma-star", "--n", 3, "--eps", "0"],
        ["mech", "binary", "--n", 3, "--eps", "-1"],
        ["mech", "sigma-star", "--n", 3, "--eps", "800"],
        ["mech", "binary", "--n", 3, "--eps", "800"],
        ["mech", "subset", "--n", 3, "--k", 1, "--eps", "800"],
    ],
)
def test_mech_bad_epsilon_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "m.json"
    assert run(argv + ["--out", out]) == 1
    assert "privacy level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["opt", "lp", "--n", 3, "--eps", "-1"],
        ["opt", "lp", "--n", 3, "--eps", "0"],
        ["opt", "lp", "--n", 3, "--eps", "800"],
        ["exp", "sweep", "--n", 3, "--eps", "0.5,800", "--out", "sweep.csv"],
    ],
)
def test_lp_and_sweep_bad_epsilon_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "privacy level" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("kind", ["sigma-star", "binary"])
def test_mech_audit_of_overflowing_declared_epsilon_exits_one(tmp_path, capsys, kind):
    mech = tmp_path / "m.json"
    assert run(["mech", kind, "--n", 3, "--eps", "1.0", "--out", mech]) == 0
    obj = json.loads(mech.read_text())
    obj["epsilon"] = 800
    mech.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["mech", "audit", mech]) == 1
    assert "privacy level" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -5])
def test_verify_all_rejects_count_below_one(capsys, count):
    assert run(["verify", "all", "--count", count]) == 1
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert captured.out == ""


def test_mech_rank_deficient_sigma_star_exits_one(tmp_path, capsys):
    # at eps = 30 the smallest eigenvalue of sigma* is ~7e-14, below RANK_TOL
    out = tmp_path / "s.json"
    assert run(["mech", "sigma-star", "--n", 3, "--eps", 30, "--out", out]) == 1
    assert "full rank" in capsys.readouterr().err
    assert not out.exists()


def test_a_matrix_file_of_negative_dim_exits_one(tmp_path, capsys):
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps({"dim": -1, "entries": [[1, 0]]}))
    assert run(["metric", "chernoff", bad, bad]) == 1
    captured = capsys.readouterr()
    assert "dim -1 is negative" in captured.err and captured.out == ""


def test_malformed_json_exits_one(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_matrix(good, np.eye(2) / 2)
    no_dim = tmp_path / "no_dim.json"
    no_dim.write_text(json.dumps({"entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}))
    assert run(["metric", "chernoff", no_dim, no_dim]) == 1
    assert "dim" in capsys.readouterr().err

    bad_entries = tmp_path / "bad_entries.json"
    bad_entries.write_text(json.dumps({"dim": 2, "entries": 4}))
    assert run(["metric", "petz", "--kind", "sld", good, bad_entries]) == 1
    assert "malformed" in capsys.readouterr().err

    mech = tmp_path / "m.json"
    assert run(["mech", "binary", "--n", 3, "--eps", "1.0", "--out", mech]) == 0
    obj = json.loads(mech.read_text())
    del obj["epsilon"]
    mech.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["mech", "audit", mech]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert run(["metric", "holevo", mech]) == 1
    mech.write_text("[1, 2]")
    assert run(["mech", "audit", mech]) == 1

    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"d": 2}))
    assert run(["frame", "verify", frame]) == 1


@pytest.mark.parametrize("n,d", [(1, 2), (0, 2), (2, 0)])
def test_frame_verify_of_degenerate_sizes_exits_one(tmp_path, capsys, n, d):
    path = tmp_path / "frame.json"
    assert run(["frame", "build", "--n", 3, "--out", path]) == 0
    obj = json.loads(path.read_text())
    obj.update(n=n, d=d, projections=obj["projections"][:n])
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["frame", "verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "n >= 2 and d >= 1" in captured.err


@pytest.mark.parametrize("n", ["1", "0", "3,1"])
def test_exp_sweep_below_two_inputs_exits_one(tmp_path, capsys, n):
    out = tmp_path / "sweep.csv"
    assert run(["exp", "sweep", "--n", n, "--eps", "0.5", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "n >= 2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,key,value",
    [("sigma-star", "n", 7), ("sigma-star", "dim", 5), ("binary", "n", 7), ("binary", "outputs", 5)],
)
def test_mech_audit_rejects_mismatched_size_fields(tmp_path, capsys, kind, key, value):
    path = tmp_path / "m.json"
    assert run(["mech", kind, "--n", 3, "--eps", "1.0", "--out", path]) == 0
    obj = json.loads(path.read_text())
    obj[key] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["mech", "audit", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"declares {key}={value}" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["exp", "thresholds", "--n", "2"], "degenerate below n = 3"),
        (["exp", "thresholds", "--n", "3,4,2"], "degenerate below n = 3"),
        (["opt", "lp", "--n", 20, "--eps", "0.5"], "n <= 14"),
    ],
    ids=["thresholds-2", "thresholds-3,4,2", "lp-20"],
)
def test_failing_table_commands_print_nothing(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


MECH_ARGV = {
    "sigma-star": ["--n", 4, "--eps", "0.7"],
    "binary": ["--n", 3, "--eps", "1.0"],
    "subset": ["--n", 4, "--k", 2, "--eps", "0.5"],
}
# sha256 of the stdout of `qldp mech KIND ARGS` (the JSON, so its key order too), then of the
# stdout of `qldp mech audit` on that JSON saved to a file. The sigma-star audit line prints
# level=0.70000000000000029 from the difference-form level; the ratio form printed
# 0.70000000000000073, and oracles.qldp_level of the stored states is 0.7000000000000002.
MECH_SHA256 = {
    "sigma-star": [
        "1e229b1c7409c6e9b2acf7d2329fb11b21734535bad031bc19d0276fc1c2faa0",
        "975be39998f999721ce8b8722c6e75a0832efbb0fbe7a118d382e6f1da0f905d",
    ],
    "binary": [
        "5def0a84d973c81209bbffd0a6344553dcad97d3e2de10229052f787c0ec4c3c",
        "e2481a284e4ca4253dabb80d2e6f517557e6b61a0fbcd77fb77c6c290d5cabad",
    ],
    "subset": [
        "c3b90288e7e156d2585601f3cac455801d6303300c0bfd61859e173c8fa885e6",
        "f6a313b7476171dad3392db1de22300ed48eda57a4c97956d6aa8df97443dea4",
    ],
}


@pytest.mark.parametrize("kind", sorted(MECH_SHA256))
def test_mech_json_and_audit_pinned(tmp_path, capsys, kind):
    assert run(["mech", kind, *MECH_ARGV[kind]]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "m.json"
    path.write_text(printed)
    assert run(["mech", "audit", path]) == 0
    outputs = [printed, capsys.readouterr().out]
    assert [hashlib.sha256(text.encode()).hexdigest() for text in outputs] == MECH_SHA256[kind]


# sha256 of the file `qldp frame build --n 7 --out FILE` writes, then of the stdout of the
# build and of `qldp frame verify FILE`, with the file name replaced by FILE; verify prints
# max_residual=2.6053233644537025e-15, the principal-angle bound on the isoclinic residual
FRAME_SHA256 = [
    "5de25c43a38e67fb474823859cab93e0c4a1fa62305e741a4861a55dc2dd846b",
    "7d310c6ad7bf00fb89f4077ed2595c043d7148b5ac5e4ffe9865c2a77090dab3",
]


def test_frame_build_and_verify_pinned(tmp_path, capsys):
    path = tmp_path / "frame.json"
    assert run(["frame", "build", "--n", 7, "--out", path]) == 0
    assert run(["frame", "verify", path]) == 0
    printed = capsys.readouterr().out.replace(str(path), "FILE")
    digests = [hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(printed.encode()).hexdigest()]
    assert digests == FRAME_SHA256


@pytest.mark.parametrize("edit", [{"r": 5, "c": 123.0}, {"r": 0}, {"r": -1}], ids=["r5-c123", "r0", "r-1"])
def test_frame_verify_of_misdeclared_fields_exits_one(tmp_path, capsys, edit):
    path = tmp_path / "frame.json"
    assert run(["frame", "build", "--n", 3, "--out", path]) == 0
    obj = json.loads(path.read_text())
    obj.update(edit)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["frame", "verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "frame JSON declares" in captured.err


def test_frame_verify_of_zero_projections_exits_one(tmp_path, capsys):
    path = tmp_path / "frame.json"
    assert run(["frame", "build", "--n", 3, "--out", path]) == 0
    obj = json.loads(path.read_text())
    for p in obj["projections"]:
        p["entries"] = [[0.0, 0.0]] * len(p["entries"])
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["frame", "verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "rank r >= 1" in captured.err


@pytest.mark.parametrize("epsilon", ["1e-300", "5e-324"])
def test_tiny_epsilon_commands_exit_zero(tmp_path, capsys, epsilon):
    # below eps ~ 3e-154 sinh^2(eps/2) underflows to 0; these exited 2 with a division by zero
    out = tmp_path / "s.csv"
    assert run(["exp", "sweep", "--n", 3, "--eps", epsilon, "--out", out]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["epsilon"]) == float(epsilon)
    # an overlap of exactly 1 gives +0.0, not -ln 1 = -0.0, which would be written as "-0"
    assert [row[c] for c in ("s_classical", "a_classical", "s_qstar", "a_qstar")] == ["0"] * 4
    capsys.readouterr()
    assert run(["mech", "sigma-star", "--n", 3, "--eps", epsilon]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["epsilon"] == float(epsilon)
    assert captured.err == ""
