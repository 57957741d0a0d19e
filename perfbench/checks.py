"""Output checks of the benchmark.

Every check returns a list of error strings; an empty list means the output
passed.  The checks compare the program's results with properties of the
method (success fractions, certificates, decay exponents) or with values
the benchmark computes on its own, never with a stored copy of an earlier
output.
"""

from __future__ import annotations

import math

import numpy as np

# criterion 7's window is [-3.2, -1.9] around the exponent -2.5
SLOPE_WINDOW_BELOW = 0.7
SLOPE_WINDOW_ABOVE = 0.6
PREDICTION_TOL = 1e-6
# relative allowance for recomputing a norm in another rounding order
ROUNDING_RTOL = 1e-9


def chebyshev_exponent(r: float, p: float) -> float:
    """The paper's error exponent -(r + 1/p - 1/2) for Chebyshev weights."""
    return -(r + 1.0 / p - 0.5)


def check_phase(report, m_grid) -> list:
    """Phase table: all trials certified, success 1.0 at the largest m and
    at least 0.9 from m = 40 up."""
    errors = []
    if report.uncertified_trials:
        errors.append(f"phase: {report.uncertified_trials} uncertified trials")
    rows = {row.m: row.success_fraction for row in report.rows}
    if sorted(rows) != sorted(m_grid):
        return errors + [f"phase: rows for m={sorted(rows)}, expected {sorted(m_grid)}"]
    if rows[max(m_grid)] != 1.0:
        errors.append(f"phase: success {rows[max(m_grid)]} at m={max(m_grid)}, expected 1.0")
    for m, fraction in rows.items():
        if m >= 40 and fraction < 0.9:
            errors.append(f"phase: success {fraction} at m={m}, expected >= 0.9")
    return errors


def check_rates(report, r: float, p: float) -> list:
    """Rate sweep: all trials certified, median errors falling strictly with
    n, and the fitted slope inside the window around the paper's exponent."""
    errors = []
    if report.uncertified_trials:
        errors.append(f"rates: {report.uncertified_trials} uncertified trials")
    medians = [row.median_error for row in report.rows]
    if not all(math.isfinite(e) and e > 0 for e in medians):
        errors.append(f"rates: median errors {medians} not all positive")
    elif any(b >= a for a, b in zip(medians, medians[1:])):
        errors.append(f"rates: median errors {medians} do not fall strictly with n")
    exponent = chebyshev_exponent(r, p)
    if report.predicted_n is None or not math.isclose(report.predicted_n[0], exponent):
        errors.append(f"rates: predicted exponent {report.predicted_n}, expected {exponent}")
    low, high = exponent - SLOPE_WINDOW_BELOW, exponent + SLOPE_WINDOW_ABOVE
    slope = report.fitted_slope
    if slope is None or not low <= slope <= high:
        errors.append(f"rates: slope {slope} outside [{low:g}, {high:g}]")
    return errors


def check_fit(certified: bool, prediction, reference, coeff_l1: float) -> list:
    """One estimator fit: certified, and its predictions within
    1e-6 * ||c||_1 of the benchmark's own synthesis."""
    errors = []
    if not certified:
        errors.append("torus: fit not certified")
    prediction = np.asarray(prediction)
    if prediction.shape != reference.shape:
        return errors + [f"torus: prediction shape {prediction.shape}, expected {reference.shape}"]
    worst = float(np.abs(prediction - reference).max())
    if not worst <= PREDICTION_TOL * coeff_l1:
        errors.append(f"torus: prediction off by {worst:.3e} > {PREDICTION_TOL:g} * ||c||_1")
    return errors


def check_solve(problem, solution) -> list:
    """One BPDN solve, recomputed outside the solver: a certified point is
    feasible, ||A z - y||_2 <= eta sqrt(m) + feas_tol, and the reported
    objective is ||z||_1."""
    errors = []
    z = np.asarray(solution.z)
    l1 = float(np.abs(z).sum())
    if not math.isclose(solution.objective, l1, rel_tol=ROUNDING_RTOL, abs_tol=1e-300):
        errors.append(f"solve: objective {solution.objective!r} != ||z||_1 = {l1!r}")
    if solution.certified:
        residual = float(np.linalg.norm(problem.A @ z - problem.y))
        bound = problem.radius + problem.effective_feas_tol
        if not residual <= bound * (1.0 + ROUNDING_RTOL):
            errors.append(f"solve: certified residual {residual:.6e} > bound {bound:.6e}")
    return errors
