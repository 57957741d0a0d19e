"""Experiment driver: rate sweeps, slope fits, success-probability tables.

A rate sweep runs, for each target sparsity n, a batch of recoveries of
fresh random unit-ball functions from fresh random points, with the cut-off
M and the sample budget m tied to n by closed-form rules.  The decay of the
median error against n is summarized by a least-squares slope in log-log
coordinates and compared with predicted exponent pairs (power of n, power
of log n).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .classes import (
    FunctionClass,
    best_term_exponents,
    default_system,
    evaluate_function,
    random_unit_function,
    tail_exponent,
)
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    default_regime,
    recover,
    regime_plan,
    regime_system,
    sample_count,
    search_set,
)
from .systems import (
    FOURIER,
    LatticeFourier,
    SamplePlan,
    System,
    draw_points,
)
from .bpdn import BpdnProblem, solve_bpdn_batch

PHASE_SUCCESS_THRESHOLD = 1e-4


def m_rule_exponent(klass: FunctionClass) -> float:
    """Exponent e of the cut-off rule M = floor(n^e).

    Chosen so the truncation tail, of order M^-t, decays no slower than the
    best n-term error of the class, of order n^a: e = -a / t.
    """
    return -best_term_exponents(klass)[0] / tail_exponent(klass)


def box_parameter(klass: FunctionClass, n: int) -> int:
    """Cut-off M for sparsity n; floored at 3 so search sets never collapse.

    The tiny additive guard keeps exact powers (e.g. 16^1.5 = 64) from
    flooring one short.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = m_rule_exponent(klass)
    return max(3, int(np.floor(float(n) ** e + 1e-9)))


# ---------------------------------------------------------------------------
# predicted exponents


def predicted_rate(klass: FunctionClass, index: str = "n") -> Tuple[float, float]:
    """Predicted error exponent pair (power, log-power) for the class.

    ``index="n"`` gives the decay in the sparsity n; ``index="m"`` rewrites
    it in the sample count through the m = n log^3 n oversampling rule.
    """
    if index not in ("n", "m"):
        raise ValueError("index must be 'n' or 'm'")
    pair = best_term_exponents(klass)
    if index == "n":
        return pair
    transfer = rate_transfer(1.0, 3.0, -pair[0], pair[1])
    return (transfer.m_rate, transfer.m_log_power)


@dataclass(frozen=True)
class RateTransferResult:
    m_rate: float
    m_log_power: float
    constant: float


def rate_transfer(c1: float, alpha: float, r: float, beta: float) -> RateTransferResult:
    """Re-index a bound a_n <= C n^(-r) log(n)^beta along m <= c1 n log(n)^alpha.

    For non-increasing a_m this gives a_m <= C' m^(-r) log(m)^(beta + alpha r)
    with C' = C * (4 c1 2^alpha)^r; the multiplier is reported separately.
    """
    if not c1 >= 1:
        raise ValueError("c1 must be >= 1")
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    if not r > 0:
        raise ValueError("r must be positive")
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    constant = float((4.0 * c1 * 2.0**alpha) ** r)
    return RateTransferResult(-r, beta + alpha * r, constant)


def fit_slope(n_values: Sequence[float], errors: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(error) against log(n).

    Non-finite and non-positive errors are skipped.  With four or more
    usable points the smallest n is dropped (it sits deepest in the
    preasymptotic range).  Returns None when fewer than two points remain.
    """
    ns, es = [], []
    for n, e in zip(n_values, errors):
        if np.isfinite(e) and e > 0:
            ns.append(float(n))
            es.append(float(e))
    if len(ns) >= 4:
        ns, es = ns[1:], es[1:]
    if len(ns) < 2:
        return None
    slope = np.polyfit(np.log(ns), np.log(es), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RateRow:
    n: int
    m: int
    median_error: float
    q25: float
    q75: float
    success_fraction: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "median_error": _float_or_none(self.median_error),
            "q25": _float_or_none(self.q25),
            "q75": _float_or_none(self.q75),
            "success_fraction": self.success_fraction,
        }


def _float_or_none(x: float) -> Optional[float]:
    return None if not np.isfinite(x) else float(x)


@dataclass(frozen=True)
class RateReport:
    rows: Tuple[RateRow, ...]
    fitted_slope: Optional[float] = None
    predicted_n: Optional[Tuple[float, float]] = None
    predicted_m: Optional[Tuple[float, float]] = None
    uncertified_trials: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "fitted_slope": self.fitted_slope,
            "predicted_n": list(self.predicted_n) if self.predicted_n else None,
            "predicted_m": list(self.predicted_m) if self.predicted_m else None,
            "uncertified_trials": self.uncertified_trials,
        }


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentConfig:
    klass: FunctionClass
    n_values: Tuple[int, ...]
    trials_per_n: int = 10
    theorem: Optional[str] = None
    c_sample: float = 1.0
    c_eta: float = 1.0
    eta_override: Optional[float] = None
    seed_base: int = 0
    sparsity: str = "n"
    feas_tol: Optional[float] = None
    max_iters: int = 50_000
    step_ratio: float = 1.0

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.n_values)
        object.__setattr__(self, "n_values", ns)
        if not ns:
            raise ValueError("n_values must be non-empty")
        if any(n < 1 for n in ns):
            raise ValueError("n values must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n values must be strictly increasing")
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be >= 1")
        if self.sparsity not in ("n", "head", "full"):
            raise ValueError("sparsity mode must be 'n', 'head', or 'full'")


def _trial_seeds(seed_base: int, row: int, t: int) -> Tuple[int, int]:
    s = np.random.SeedSequence((seed_base, row, t)).generate_state(2)
    return int(s[0]), int(s[1])


def _run_rows(
    seed_base: int, trials: int, rows: Sequence[Tuple[int, int, Callable]],
    threshold: Optional[float] = None,
) -> Tuple[Tuple[RateRow, ...], int]:
    """Run each row's seeded trials; return the row summaries and the uncertified count.

    A row is (n, m, run), and ``run`` maps the row's list of seed pairs, one
    per trial, each from (seed_base, row index, trial index), to the trials'
    errors, None where a solve did not certify.  Quantiles are taken over
    certified errors; a certified trial succeeds when its error is at most
    ``threshold`` (always, without one).
    """
    summaries = []
    uncertified = 0
    for row, (n, m, run) in enumerate(rows):
        seeds = [_trial_seeds(seed_base, row, t) for t in range(trials)]
        errors = [error for error in run(seeds) if error is not None]
        uncertified += trials - len(errors)
        successes = sum(1 for e in errors if threshold is None or e <= threshold)
        if errors:
            median, q25, q75 = np.percentile(errors, [50, 25, 75])
        else:
            median = q25 = q75 = float("nan")
        summaries.append(RateRow(n, m, float(median), float(q25), float(q75),
                                 successes / trials))
    return tuple(summaries), uncertified


def _recovery_config(config: ExperimentConfig, n: int, M: Optional[int] = None) -> RecoveryConfig:
    """A sweep's recovery set-up at sparsity n; M defaults to the class's rule."""
    klass = config.klass
    theorem = config.theorem or default_regime(default_system(klass))
    return RecoveryConfig(
        system=regime_system(theorem, klass),
        theorem=theorem,
        n=n,
        M=box_parameter(klass, n) if M is None else M,
        klass=klass,
        c_sample=config.c_sample,
        c_eta=config.c_eta,
        eta_override=config.eta_override,
        feas_tol=config.feas_tol,
        max_iters=config.max_iters,
        step_ratio=config.step_ratio,
    )


def _rate_trial(config: ExperimentConfig, rc: RecoveryConfig, seeds: Tuple[int, int],
                sparsity: Optional[int] = None) -> RecoveryResult:
    """Recover a random unit-ball function from the regime's random points.

    The function comes from the first seed, the points (lattice points for
    ``fourier_grid``) from the second.  ``sparsity`` overrides the one the
    sweep's sparsity mode gives.
    """
    seed_f, seed_pts = seeds
    J = search_set(rc)
    if sparsity is None and config.sparsity != "full":
        sparsity = min(rc.n, len(J))
    placement = "head" if config.sparsity == "head" else "random"
    f = random_unit_function(config.klass, J, sparsity=sparsity, seed=seed_f,
                             placement=placement)
    points = draw_points(rc.system, sample_count(rc), regime_plan(rc, seed_pts))
    return recover(evaluate_function(f, points), rc, points, f_true=f)


def _rate_errors(config: ExperimentConfig, rc: RecoveryConfig,
                 seeds: Sequence[Tuple[int, int]]) -> list:
    results = [_rate_trial(config, rc, pair) for pair in seeds]
    return [result.l2_err if result.certified else None for result in results]


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    """Sweep n, recover random unit-ball functions, and fit the error decay.

    Per n: the cut-off follows the class's rule, the sample count the
    regime's formula.  Each trial draws a fresh function and fresh points
    from seeds derived from (seed_base, n index, trial index), so reports
    are reproducible bit for bit.  Quantiles are taken over certified
    solves only; ``success_fraction`` is the certified fraction.
    """
    rcs = [_recovery_config(config, n) for n in config.n_values]
    rows, uncertified = _run_rows(config.seed_base, config.trials_per_n, [
        (rc.n, sample_count(rc), functools.partial(_rate_errors, config, rc)) for rc in rcs])
    slope = fit_slope([row.n for row in rows], [row.median_error for row in rows])
    return RateReport(
        rows=rows,
        fitted_slope=slope,
        predicted_n=predicted_rate(config.klass, "n"),
        predicted_m=predicted_rate(config.klass, "m"),
        uncertified_trials=uncertified,
    )


def run_phase_experiment(
    system: System,
    N: int,
    s: int,
    m_grid: Sequence[int],
    trials: int,
    seed: int = 0,
    step_ratio: float = 1.0,
) -> RateReport:
    """Success-probability table for exact sparse recovery at eta = 0.

    Random s-sparse coefficient vectors (uniform support, unit-modulus
    random-phase entries) over the full frequency box of cardinality N are
    recovered from m lattice samples for each m in the grid.  A trial
    succeeds when the solve certifies and the relative l2 coefficient error
    is at most 1e-4; ``success_fraction`` reports that fraction, while the
    quantile columns summarize errors of certified trials.

    The lattice's side is the box's, so each trial's matrix is a set of rows
    of the N-point DFT: a ``systems.LatticeFourier``, with FFT products and
    its exact norm, not a stored matrix.  A row's trials are built from
    their seeds and solved together, by one ``solve_bpdn_batch``.
    """
    if system.kind != FOURIER:
        raise ValueError("phase experiments run on the Fourier system")
    d = system.dim
    D_float = (N ** (1.0 / d) - 1.0) / 2.0
    D = int(round(D_float))
    if (2 * D + 1) ** d != N:
        raise ValueError("N must be (2D+1)^d for an integer box radius D")
    if not 1 <= s <= N:
        raise ValueError("need 1 <= s <= N")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(m < 1 for m in m_grid):
        raise ValueError("sample counts must be >= 1")

    def row(m, seeds):
        problems, truths = [], []
        for seed_c, seed_pts in seeds:
            rng = np.random.default_rng(seed_c)
            support = rng.choice(N, size=s, replace=False)
            coeffs = np.zeros(N, dtype=np.complex128)
            coeffs[support] = np.exp(2j * np.pi * rng.random(s))
            plan = SamplePlan(seed=seed_pts, mode="grid", grid_size=D)
            A = LatticeFourier(draw_points(system, m, plan), D)
            problems.append(BpdnProblem(A, A @ coeffs, eta=0.0, step_ratio=step_ratio))
            truths.append(coeffs)
        return [float(np.linalg.norm(solution.z - coeffs) / np.linalg.norm(coeffs))
                if solution.certified else None
                for solution, coeffs in zip(solve_bpdn_batch(problems), truths)]

    rows, uncertified = _run_rows(seed, trials, [
        (s, int(m), functools.partial(row, m)) for m in m_grid], PHASE_SUCCESS_THRESHOLD)
    return RateReport(rows=rows, uncertified_trials=uncertified)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "n,m,median_error,q25,q75,success_fraction"


def _csv_float(x: float) -> str:
    return "%.17g" % x


def check_report_format(fmt: str) -> str:
    """The report format in lower case; ValueError unless it is CSV or JSON."""
    kind = fmt.lower()
    if kind not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    return kind


def report_text(report: RateReport, fmt: str) -> str:
    """A report as CSV (fixed header, 17 significant digits) or JSON text."""
    kind = check_report_format(fmt)
    if kind == "csv":
        lines = [CSV_HEADER]
        for row in report.rows:
            lines.append(",".join([
                str(row.n),
                str(row.m),
                _csv_float(row.median_error),
                _csv_float(row.q25),
                _csv_float(row.q75),
                _csv_float(row.success_fraction),
            ]))
        return "\n".join(lines) + "\n"
    return json.dumps(report.to_json(), indent=2) + "\n"
