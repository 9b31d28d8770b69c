"""Self-test of the benchmark: run with ``python -m pytest bench/tests`` from the root.

Tiny runs of every workload must print every named metric with its unit,
and a wrong pinned digest or a wrong tolerance oracle must show up as a
failed operation, never as a pass.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import qldp  # noqa: E402
import qldp.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _layers():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_benchmark_json_lists_the_layer_table():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in _layers()]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = {m["name"] for m in _layers()} | set(bounds)
    for m in _layers():
        for metric, where in list(m["moves"].items()) + list(m.get("should_not_move", {}).items()):
            assert metric in names and set(where) <= set(workloads.WORKLOADS), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    spans_file = tmp_path / "spans.tsv"
    extra = ["--spans", str(spans_file)] if trace else []
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    if trace:
        header, first = spans_file.read_text().splitlines()[:2]
        assert header.split("\t") == ["index", "name", "start", "end", "parent", "op", "self"]
        assert first.split("\t")[1] in spans.SPAN_NAMES
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark()
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        # A layer the workload never reaches reads 0 in a traced run.
        assert m["value"] > 0 if trace == 0 else m["value"] >= 0, name


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert "no qldp sources" in proc.stderr
    assert proc.stdout.strip() == ""


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)  # for the cli workload's child processes
    return workloads.Context(q=qldp, tmpdir=str(tmp_path), size="tiny")


def _reproduce_thresholds(ctx):
    commands = workloads.cli_commands(ctx, workloads.draw("cli", 1, "tiny"))
    name, argv, check = next(c for c in commands if c[0] == "reproduce_thresholds")
    return ctx.run(name, lambda: workloads._subprocess(ctx, argv), lambda res: check(*res))


def test_pinned_digest_passes_and_a_wrong_one_fails(ctx, monkeypatch):
    assert _reproduce_thresholds(ctx).ok
    monkeypatch.setitem(workloads.REPRODUCE_SHA256, "thresholds", "0" * 64)
    op = _reproduce_thresholds(ctx)
    assert not op.ok and "sha256" in op.detail


@pytest.mark.parametrize(
    "workload, tolerance, failing",
    [
        ("lp", "LP_TOL", r"lp_.*"),
        ("audit", "EXPONENT_TOL", r"n\d+_(sym|asym)"),
        ("audit", "LEVEL_TOL", r"n\d+_(level|induced)"),
        ("suites", "SCALAR_SELFTEST_INSTANCES", r"suite_scalar"),
        ("cli", "LP_TOL", r"opt_lp"),
        ("cli", "LEVEL_TOL", r"mech_audit"),
    ],
)
def test_wrong_tolerance_oracle_fails_operations(ctx, monkeypatch, workload, tolerance, failing):
    params = workloads.draw(workload, 5, "tiny")
    assert all(op.ok for op in workloads.run_round(workload, ctx, params))
    monkeypatch.setattr(workloads, tolerance, -math.inf)  # no output can meet it
    ops = workloads.run_round(workload, ctx, params)
    failed = {op.name for op in ops if not op.ok}
    assert failed and failed == {op.name for op in ops if re.fullmatch(failing, op.name)}


def test_tracer_patches_every_binding_and_restores_them():
    original = qldp.linalg.validate_density
    assert qldp.metrics.validate_density is original
    tracer = spans.Tracer()
    tracer.install(qldp)
    try:
        assert qldp.metrics.validate_density is not original
        tracer.begin_op(1)
        rho = qldp.sampling.random_density(qldp.sampling.np.random.default_rng(0), 3)
        qldp.metrics.relative_entropy(rho, rho)
    finally:
        tracer.uninstall()
    assert qldp.metrics.validate_density is original and qldp.linalg.validate_density is original
    summary = tracer.summary()
    assert summary["metrics.relent"]["spans"] == 1
    # Each state is validated once with eigvalsh, then decomposed again by eigh.
    assert tracer.calls["linalg.eig"] == 4 and tracer.counters["eig_repeats"] == 3
    assert summary["linalg.validate"]["seconds"] <= summary["metrics.relent"]["seconds"]
    assert 0 <= summary["metrics.relent"]["self_seconds"] <= summary["metrics.relent"]["seconds"]
