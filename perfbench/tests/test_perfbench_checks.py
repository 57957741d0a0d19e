"""Each output check of the benchmark accepts a right result and rejects a
wrong one.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from l1sample.bpdn import BpdnProblem, solve_bpdn  # noqa: E402
from l1sample.harness import RateReport, RateRow, predicted_rate  # noqa: E402
from l1sample.classes import poly_wiener  # noqa: E402

import workloads  # noqa: E402

GRID = workloads.PhaseTable.M_GRID


def phase_report(success=None, uncertified=0):
    success = success or {}
    rows = tuple(RateRow(5, m, 0.0, 0.0, 0.0, success.get(m, 1.0)) for m in GRID)
    return RateReport(rows=rows, uncertified_trials=uncertified)


def rate_report(medians=(4e-3, 5e-4, 8.7e-5), slope=-2.8, uncertified=0):
    rows = tuple(RateRow(n, 10 * n, e, e, e, 1.0) for n, e in zip((8, 16, 32), medians))
    return RateReport(rows=rows, fitted_slope=slope,
                      predicted_n=predicted_rate(poly_wiener(-0.5, 1.0, 0.5), "n"),
                      uncertified_trials=uncertified)


def test_phase_check_accepts_a_saturated_table():
    assert checks.check_phase(phase_report({28: 0.95}), GRID) == []


def test_phase_check_rejects_an_uncertified_trial():
    errors = checks.check_phase(phase_report(uncertified=1), GRID)
    assert any("uncertified" in e for e in errors)


@pytest.mark.parametrize("success", [{160: 0.99}, {40: 0.85}, {80: 0.5}])
def test_phase_check_rejects_low_success(success):
    assert checks.check_phase(phase_report(success), GRID)


def test_phase_check_rejects_a_missing_row():
    report = phase_report()
    short = RateReport(rows=report.rows[1:], uncertified_trials=0)
    assert checks.check_phase(short, GRID)


def test_rates_check_accepts_a_slope_in_the_window():
    assert checks.check_rates(rate_report(), 1.0, 0.5) == []


def test_rates_window_is_centred_on_the_paper_exponent():
    assert checks.chebyshev_exponent(1.0, 0.5) == -2.5
    assert checks.check_rates(rate_report(slope=-3.2), 1.0, 0.5) == []
    assert checks.check_rates(rate_report(slope=-1.9), 1.0, 0.5) == []


@pytest.mark.parametrize("slope", [-3.21, -1.89, -1.0, None])
def test_rates_check_rejects_a_slope_outside_the_window(slope):
    errors = checks.check_rates(rate_report(slope=slope), 1.0, 0.5)
    assert any("slope" in e for e in errors)


def test_rates_check_rejects_an_uncertified_trial():
    errors = checks.check_rates(rate_report(uncertified=1), 1.0, 0.5)
    assert any("uncertified" in e for e in errors)


@pytest.mark.parametrize("medians", [(4e-3, 5e-4, 5e-4), (4e-3, 5e-4, 6e-4),
                                     (4e-3, float("nan"), 8e-5)])
def test_rates_check_rejects_errors_not_falling(medians):
    assert checks.check_rates(rate_report(medians=medians), 1.0, 0.5)


def test_rates_check_rejects_a_wrong_predicted_exponent():
    report = rate_report()
    wrong = RateReport(rows=report.rows, fitted_slope=report.fitted_slope,
                       predicted_n=(-1.5, 0.0), uncertified_trials=0)
    assert checks.check_rates(wrong, 1.0, 0.5)


def torus_case():
    rng = np.random.default_rng(0)
    problem = workloads.TorusProblem(rng, s=4, half_width=5, m=20)
    x_new = rng.random((1000, 2))
    reference = workloads.synthesize(problem.freqs, problem.coeffs, x_new)
    return problem, x_new, reference, float(np.abs(problem.coeffs).sum())


def test_synthesis_matches_a_direct_sum():
    problem, x_new, reference, _ = torus_case()
    direct = sum(c * np.exp(2j * np.pi * (x_new @ k)) for k, c in zip(problem.freqs, problem.coeffs))
    np.testing.assert_allclose(reference, direct, rtol=0, atol=1e-12)


def test_fit_check_accepts_the_exact_prediction():
    _, _, reference, l1 = torus_case()
    assert checks.check_fit(True, reference.copy(), reference, l1) == []


def test_fit_check_rejects_a_perturbed_prediction():
    _, _, reference, l1 = torus_case()
    prediction = reference.copy()
    prediction[17] += 2e-6 * l1
    errors = checks.check_fit(True, prediction, reference, l1)
    assert any("prediction" in e for e in errors)


def test_fit_check_rejects_an_uncertified_fit():
    _, _, reference, l1 = torus_case()
    errors = checks.check_fit(False, reference.copy(), reference, l1)
    assert any("certified" in e for e in errors)


def test_fit_check_rejects_a_wrong_shape():
    _, _, reference, l1 = torus_case()
    assert checks.check_fit(True, reference[:-1], reference, l1)


def small_solve():
    A = np.random.default_rng(1).standard_normal((30, 60)) / np.sqrt(30)
    z0 = np.zeros(60)
    z0[[3, 17, 40]] = [1.0, -2.0, 0.5]
    problem = BpdnProblem(A, A @ z0, eta=0.0)
    return problem, solve_bpdn(problem)


def test_solve_check_accepts_a_certified_solve():
    problem, solution = small_solve()
    assert solution.certified
    assert checks.check_solve(problem, solution) == []


def test_solve_check_rejects_an_infeasible_certified_point():
    problem, solution = small_solve()
    z = solution.z.copy()
    z[0] += 1e-3
    wrong = type(solution)(z, solution.residual_norm, float(np.abs(z).sum()),
                           solution.iterations, True, solution.gap)
    errors = checks.check_solve(problem, wrong)
    assert any("residual" in e for e in errors)


def test_solve_check_rejects_a_wrong_objective():
    problem, solution = small_solve()
    wrong = type(solution)(solution.z, solution.residual_norm, solution.objective * 1.001,
                           solution.iterations, True, solution.gap)
    errors = checks.check_solve(problem, wrong)
    assert any("objective" in e for e in errors)
