import math

import numpy as np
import pytest

from qldp import mechanisms, suites
from qldp.metrics import KL, SQUARE, classical_f_divergence, neg_ratio
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


# float.hex of every worst margin, computed before the scalar grid was evaluated in one batch.
# Two moved with the difference-form levels, each nearer the margin of the oracles.qldp_level and
# oracles.ldp_level values of the same arrays: measurement_reduction (instance 47, sigma_star(4, 0.5))
# is 2.7e-17 from it, where the ratio forms were 8.3e-17; eta_mixing_level (instance 22, n = 4,
# eps = 0.0516, eta = 0.0925) is 6.6e-19 from it, where the ratio form was 2.2e-16.
SUITE_MARGINS_SEED7_COUNT50 = [
    ("monotone_metric_sandwich", 200, 0, "0x1.bf6684bc3855dp-8"),
    ("data_processing", 600, 0, "0x1.749f74bb9aca1p-8"),
    ("measurement_reduction", 50, 0, "0x1.1fae0b467e050p-5"),
    ("eta_mixing_level", 50, 0, "0x1.1c6e1cf967a60p-10"),
    ("scalar_selftests", 14499, 0, "0x1.770cd39800000p-43"),
]
SCALAR_MARGINS = [
    ("xlogx_quadratic_lower", 1998, 0, "0x1.770cd39800000p-43"),
    ("xlogx_eighth_upper", 501, 0, "0x1.12a14df363400p-33"),
    ("posterior_divergence_order", 12000, 0, "0x1.19799812dea11p-40"),
]


def _pinned(results):
    return [(r.name, r.instances, r.violations, float.hex(r.worst_margin)) for r in results]


def test_suite_worst_margins_are_pinned_bit_for_bit():
    assert _pinned(run_all_suites(7, 50)) == SUITE_MARGINS_SEED7_COUNT50
    assert _pinned(scalar_selftests()) == SCALAR_MARGINS


def test_posterior_grid_matches_the_per_instance_loop(monkeypatch):
    # the batched grid against the loop it replaced: every margin, in the same order
    tallied = {}
    tally = SuiteResult.tally.__func__

    def recording(cls, name, margins, strict=False):
        tallied[name] = [float(m) for m in margins]
        return tally(cls, name, margins, strict)

    monkeypatch.setattr(SuiteResult, "tally", classmethod(recording))
    scalar_selftests()
    expected = []
    for iu in range(1, 101):
        u = iu / 200.0
        for eps10 in range(1, 21):
            grow = math.exp(eps10 / 10.0)
            prior = np.array([1.0 - u, u])
            post0 = np.array([(1.0 - u) * grow, u]) / ((1.0 - u) * (grow - 1.0) + 1.0)
            post1 = np.array([1.0 - u, u * grow]) / (u * (grow - 1.0) + 1.0)
            expected += [
                classical_f_divergence(post1, prior, f) - classical_f_divergence(post0, prior, f) + 1e-12
                for f in (KL, SQUARE, neg_ratio(0.5), neg_ratio(1.0), neg_ratio(2.0), neg_ratio(5.0))
            ]
    assert [float.hex(m) for m in tallied["posterior_divergence_order"]] == [float.hex(m) for m in expected]


def test_measurement_pool_is_built_once_and_read_only(monkeypatch):
    pool = suites._measured_pool()
    assert suites._measured_pool() is pool
    for mech in pool:
        assert float.hex(mech.level) == float.hex(mechanisms.qldp_level(mechanisms.QldpMechanism(mech.states, mech.epsilon)))
        with pytest.raises(ValueError):
            mech.states[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            mech.members[0].eigenvalues[0] = 0.0
    cached = measurement_suite(np.random.default_rng(3), 40)
    monkeypatch.setattr(suites, "_measured_pool", suites._measured_pool.__wrapped__)
    assert measurement_suite(np.random.default_rng(3), 40) == cached
