import math

import numpy as np
import pytest

from qldp import suites
from qldp.suites import (
    SuiteResult,
    dpi_suite,
    eta_mixing_suite,
    expansion_suite,
    measurement_suite,
    run_all_suites,
    sandwich_suite,
    scalar_selftests,
    scalar_suite,
)


def test_individual_suites_clean_at_moderate_count():
    rng = np.random.default_rng(7)
    for suite in (sandwich_suite, dpi_suite, measurement_suite, eta_mixing_suite):
        result = suite(rng, 120)
        assert result.passed, result
        assert result.worst_margin >= 0.0


def test_scalar_suite_clean():
    result = scalar_suite()
    assert result.passed
    assert result.instances >= 1000


def test_run_all_suites_deterministic():
    first = run_all_suites(11, 60)
    second = run_all_suites(11, 60)
    assert [(r.name, r.violations, r.worst_margin) for r in first] == [
        (r.name, r.violations, r.worst_margin) for r in second
    ]


def test_expansion_suite_shape():
    reports = expansion_suite(0)
    names = [r.name for r in reports]
    assert names.count("quadratic_assumption") == 2
    assert "chernoff" in names and "entropy" in names
    assert len(reports) == 8


def test_tally_zero_margin_violates_only_when_strict():
    assert SuiteResult.tally("s", [0.5, 0.0, 2.0]) == SuiteResult("s", 3, 0, 0.0)
    assert SuiteResult.tally("s", [0.5, 0.0, 2.0], strict=True) == SuiteResult("s", 3, 1, 0.0)
    assert SuiteResult.tally("s", [0.5, -1e-300, 2.0]) == SuiteResult("s", 3, 1, -1e-300)


@pytest.mark.parametrize("margins", [[math.nan, 1.0, 2.0], [1.0, 2.0, math.nan]], ids=["first", "last"])
@pytest.mark.parametrize("strict", [False, True])
def test_tally_counts_a_nan_margin_as_a_violation(margins, strict):
    result = SuiteResult.tally("s", margins, strict=strict)
    assert (result.instances, result.violations) == (3, 1)
    assert math.isnan(result.worst_margin)
    assert not result.passed


def test_tally_of_no_margins():
    assert SuiteResult.tally("s", []) == SuiteResult("s", 0, 0, math.inf)


def test_scalar_suite_folds_the_scalar_selftests():
    checks = scalar_selftests()
    assert [(c.name, c.instances) for c in checks] == [
        ("xlogx_quadratic_lower", 1998),
        ("xlogx_eighth_upper", 501),
        ("posterior_divergence_order", 12000),
    ]
    folded = scalar_suite()
    assert folded == SuiteResult("scalar_selftests", 14499, 0, min(c.worst_margin for c in checks))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_scalar_suite_keeps_a_nan_worst_margin(monkeypatch, position):
    # min(1e-3, nan) is 1e-3, so a plain min drops a NaN after the first check
    checks = [SuiteResult(f"check{i}", 10, 0, 1e-3) for i in range(3)]
    checks[position] = SuiteResult("nan_check", 10, 1, math.nan)
    monkeypatch.setattr(suites, "scalar_selftests", lambda: tuple(checks))
    folded = scalar_suite()
    assert math.isnan(folded.worst_margin)
    assert (folded.instances, folded.violations) == (30, 1)
    assert not folded.passed
