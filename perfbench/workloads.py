"""The benchmark's workloads.

Each workload makes its inputs from the run's seed, warms up on a fixed
input, runs rounds of the same operations through the public entry points
of ``l1sample`` and checks every round's outputs.  A round's time is the
summed duration of its program calls; the benchmark's own checks between
calls are not timed.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from l1sample import FunctionRecovery, harness
from l1sample.classes import poly_wiener
from l1sample.systems import fourier_system

import checks

STEP_RATIO = 0.0625
# fixed seed of the warm-up operation, so set-up does the same work on
# every seed
WARMUP_SEED = 20221201


class Clock:
    """Times program calls; with a tracer each call is also a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def call(self, layer, fn, *args, **kwargs):
        hook_before = self.tracer.hook_s if self.tracer else 0.0
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = self.tracer.span(layer, fn, *args, **kwargs)
        spent = time.perf_counter() - t0
        if self.tracer is not None:
            spent -= self.tracer.hook_s - hook_before
        self.seconds += spent
        return out


class Round(NamedTuple):
    """Outcome of one round, with a short summary for the run record."""

    attempted: int
    failed: int
    errors: list
    summary: dict


# ---------------------------------------------------------------------------
# phase-table: exact s-sparse recovery on lattice points, 1-D torus


class PhaseTable:
    N, S, TRIALS = 257, 5, 24
    # below m = 28 some trials run out of iterations on some seeds (see
    # README.md), so the grid starts where every trial certifies
    M_GRID = (28, 32, 40, 48, 64, 80, 120, 160)

    def __init__(self, seed):
        self.seed = seed

    def make_inputs(self):
        return fourier_system(1)

    def warm_up(self, system):
        harness.run_phase_experiment(system, N=self.N, s=self.S, m_grid=(64,), trials=40,
                                     seed=WARMUP_SEED, step_ratio=STEP_RATIO)

    def run_round(self, system, clock):
        report = clock.call("harness", harness.run_phase_experiment, system, N=self.N,
                            s=self.S, m_grid=self.M_GRID, trials=self.TRIALS,
                            seed=self.seed, step_ratio=STEP_RATIO)
        summary = {"m": [row.m for row in report.rows],
                   "success": [row.success_fraction for row in report.rows]}
        return Round(self.TRIALS * len(self.M_GRID), report.uncertified_trials,
                     checks.check_phase(report, self.M_GRID), summary)


# ---------------------------------------------------------------------------
# rates-chebyshev: criterion 7's p = 1/2 configuration


class RatesChebyshev:
    R, P = 1.0, 0.5
    # n = 4 is left out: a few per cent of its trials run out of iterations
    # (see README.md); with three n values the slope is fitted over the same
    # n = 8, 16, 32 that criterion 7 fits after dropping n = 4
    N_VALUES, TRIALS = (8, 16, 32), 3

    def __init__(self, seed):
        self.seed = seed

    def config(self, n_values, trials, seed_base):
        return harness.ExperimentConfig(
            klass=poly_wiener(-0.5, self.R, self.P), n_values=n_values,
            trials_per_n=trials, c_sample=0.07, c_eta=0.1, sparsity="head",
            feas_tol=1e-6, step_ratio=STEP_RATIO, seed_base=seed_base)

    def make_inputs(self):
        return self.config(self.N_VALUES, self.TRIALS, self.seed)

    def warm_up(self, inputs):
        harness.run_rate_experiment(self.config((8, 16), 2, WARMUP_SEED))

    def run_round(self, config, clock):
        report = clock.call("harness", harness.run_rate_experiment, config)
        summary = {"n": [row.n for row in report.rows], "m": [row.m for row in report.rows],
                   "median_error": [row.median_error for row in report.rows],
                   "slope": report.fitted_slope}
        return Round(self.TRIALS * len(self.N_VALUES), report.uncertified_trials,
                     checks.check_rates(report, self.R, self.P), summary)


# ---------------------------------------------------------------------------
# torus2d-fit: estimator fits of sparse trigonometric polynomials in d = 2


def synthesize(freqs, coeffs, points, chunk=100_000):
    """sum_k c_k exp(2 pi i k.x), computed by the benchmark in chunks."""
    out = np.empty(points.shape[0], dtype=np.complex128)
    for start in range(0, points.shape[0], chunk):
        phase = points[start:start + chunk] @ freqs.T
        out[start:start + chunk] = np.exp(2j * np.pi * phase) @ coeffs
    return out


class TorusProblem:
    """An exactly s-sparse polynomial over the search box and its samples."""

    def __init__(self, rng, s, half_width, m):
        side = 2 * half_width + 1
        flat = rng.choice(side * side, size=s, replace=False)
        self.freqs = np.stack(np.unravel_index(flat, (side, side)), axis=1) - half_width
        self.coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        self.x = rng.random((m, 2))
        self.y = synthesize(self.freqs, self.coeffs, self.x)
        self.reference = None


class Torus2dFit:
    S, M, SAMPLES, FITS, PREDICT_POINTS = 10, 6, 250, 5, 10**6

    def __init__(self, seed):
        self.seed = seed

    def _problem(self, seed):
        # the estimator searches the box |k|_inf <= (2d+1) M = 5 M
        return TorusProblem(np.random.default_rng(seed), self.S, 5 * self.M, self.SAMPLES)

    def make_inputs(self):
        problems = [self._problem((self.seed, k)) for k in range(self.FITS)]
        x_new = np.random.default_rng((self.seed, self.FITS)).random((self.PREDICT_POINTS, 2))
        return problems, x_new

    def _estimator(self):
        return FunctionRecovery(system="fourier", dim=2, n=self.S, M=self.M, eta=0.0,
                                step_ratio=STEP_RATIO)

    def warm_up(self, inputs):
        problem = self._problem(WARMUP_SEED)
        model = self._estimator().fit(problem.x, problem.y)
        model.predict(inputs[1][: self.PREDICT_POINTS // 10])

    def run_round(self, inputs, clock):
        problems, x_new = inputs
        failed, errors, iterations = 0, [], []
        for problem in problems:
            model = self._estimator()
            clock.call("estimator.fit", model.fit, problem.x, problem.y)
            prediction = clock.call("estimator.predict", model.predict, x_new)
            if problem.reference is None:
                problem.reference = synthesize(problem.freqs, problem.coeffs, x_new)
            certified = model.result_.certified
            failed += not certified
            iterations.append(model.result_.solution.iterations)
            errors += checks.check_fit(certified, prediction, problem.reference,
                                       float(np.abs(problem.coeffs).sum()))
        return Round(self.FITS, failed, errors, {"iterations": iterations})


WORKLOADS = {
    "phase-table": PhaseTable,
    "rates-chebyshev": RatesChebyshev,
    "torus2d-fit": Torus2dFit,
}
