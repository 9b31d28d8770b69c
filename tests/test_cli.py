import hashlib
import json
import math

import numpy as np
import pytest

from qldp.cli import main
from qldp.linalg import matrix_to_json


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


def test_metric_holevo_on_mechanism_file(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(["mech", "binary", "--n", 2, "--eps", str(math.log(3.0)), "--out", out])
    capsys.readouterr()
    assert run(["metric", "holevo", out]) == 0
    value = float(capsys.readouterr().out.strip())
    expected = math.log(2.0) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert value == pytest.approx(expected, abs=1e-10)


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


def test_unknown_flag_exits_one(capsys):
    assert run(["frame", "build", "--n", 3, "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert run(["destroy-everything"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert run(["mech", "audit", tmp_path / "nope.json"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mech", "binary", "--n", 3, "--eps", "inf"],
        ["mech", "subset", "--n", 3, "--k", 1, "--eps", "nan"],
        ["mech", "sigma-star", "--n", 3, "--eps", "inf"],
        ["mech", "sigma-star", "--n", 3, "--eps", "0"],
        ["mech", "binary", "--n", 3, "--eps", "-1"],
    ],
)
def test_mech_bad_epsilon_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "m.json"
    assert run(argv + ["--out", out]) == 1
    assert "privacy level" in capsys.readouterr().err
    assert not out.exists()


def test_mech_rank_deficient_sigma_star_exits_one(tmp_path, capsys):
    # at eps = 30 the smallest eigenvalue of sigma* is ~7e-14, below RANK_TOL
    out = tmp_path / "s.json"
    assert run(["mech", "sigma-star", "--n", 3, "--eps", 30, "--out", out]) == 1
    assert "full rank" in capsys.readouterr().err
    assert not out.exists()


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
