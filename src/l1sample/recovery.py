"""End-to-end recovery of a function from point samples.

A recovery run is described by a config naming the measurement system, one
of four sampling regimes, the target sparsity n, and the frequency/degree
cut-off M.  The regimes are:

* ``fourier3``: random points from the uniform measure on the torus.
* ``fourier_grid``: random points from the aligned lattice; needs fewer
  samples by one logarithm.
* ``chebyshev``: Chebyshev polynomials sampled from the arcsine measure.
* ``legendre``: Legendre polynomials sampled from the arcsine measure after
  preconditioning; samples of the raw function are multiplied by the weight
  w(x) = sqrt(pi) (1 - x^2)^(1/4) and the recovered coefficients refer to
  the orthonormal Legendre family itself.

The sample budget and the noise level of the l1 program follow closed
formulas in (n, M) with adjustable leading constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bpdn import BpdnProblem, BpdnSolution, solve_bpdn
from .classes import (
    CoefficientExpansion,
    FunctionClass,
    _guarded_log,
    analytic_best_term_bound,
    analytic_tail_bound,
    default_system,
)
from .systems import (
    BOX,
    CHEBYSHEV,
    DEGREES,
    FOURIER,
    LEGENDRE_PRECONDITIONED,
    LEGENDRE_RAW,
    FourierTables,
    IndexSet,
    SamplePlan,
    System,
    _legendre_weight,
    _point_array,
    basis_matrix,
    legendre_raw_system,
    make_index_set,
)
from .vallee_poussin import DlvpSpec

FOURIER3 = "fourier3"
FOURIER_GRID = "fourier_grid"
CHEBYSHEV_REGIME = "chebyshev"
LEGENDRE_REGIME = "legendre"


class _Regime(NamedTuple):
    system: str  # kind of the system the regime samples
    tau: float  # weight multiplier in the automatic noise rule
    lattice: bool  # points come from the search box's lattice


# the first regime listed for a system kind is that system's default
_REGIMES = {
    FOURIER3: _Regime(FOURIER, float(np.e), False),
    FOURIER_GRID: _Regime(FOURIER, float(np.e), True),
    CHEBYSHEV_REGIME: _Regime(CHEBYSHEV, 2.0, False),
    LEGENDRE_REGIME: _Regime(LEGENDRE_PRECONDITIONED, 1.0, False),
}


def _regime(theorem: str) -> _Regime:
    try:
        return _REGIMES[theorem]
    except KeyError:
        raise ValueError(f"unknown sampling regime: {theorem!r}") from None


_LEGENDRE_KINDS = frozenset({LEGENDRE_PRECONDITIONED, LEGENDRE_RAW})


def _family(kind: str) -> str:
    """A system kind; the Legendre kinds, which share coefficients, are one family."""
    return LEGENDRE_RAW if kind in _LEGENDRE_KINDS else kind


def default_regime(system: System) -> str:
    """The sampling regime a system's family is recovered under by default."""
    return next(theorem for theorem, regime in _REGIMES.items()
                if _family(regime.system) == _family(system.kind))


def regime_system(theorem: str, klass: FunctionClass) -> System:
    """The system a regime samples, in the class's dimension for Fourier."""
    kind = _regime(theorem).system
    return System(kind, klass.d if kind == FOURIER else 1)


@dataclass(frozen=True)
class RecoveryConfig:
    """A recovery's set-up; a class must match the regime's family and torus dimension."""

    system: System
    theorem: str
    n: int
    M: int
    klass: Optional[FunctionClass] = None
    c_sample: float = 1.0
    c_eta: float = 1.0
    eta_override: Optional[float] = None
    feas_tol: Optional[float] = None
    max_iters: int = 50_000
    step_ratio: float = 1.0

    def __post_init__(self) -> None:
        regime = _regime(self.theorem)
        if self.system.kind != regime.system:
            raise ValueError(
                f"regime {self.theorem!r} requires a {regime.system} system"
            )
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not (self.c_sample > 0 and self.c_eta > 0):
            raise ValueError("leading constants must be positive")
        if self.eta_override is not None and not self.eta_override >= 0:
            raise ValueError("eta must be >= 0")
        if self.klass is not None:
            expected = default_system(self.klass)
            if _family(expected.kind) != _family(regime.system):
                raise ValueError(
                    f"regime {self.theorem!r} samples the {regime.system} system, but this "
                    f"{self.klass.kind} class expands in the {expected.kind} system")
            if expected.dim != self.system.dim:
                raise ValueError(
                    f"this {self.klass.kind} class has dimension {self.klass.d}, "
                    f"but the system has dimension {self.system.dim}")


def search_set(config: RecoveryConfig) -> IndexSet:
    """The candidate index set the l1 program optimizes over: on the torus
    the box of radius (2d+1)M that the tensor quasi-projection maps into."""
    if config.theorem in (FOURIER3, FOURIER_GRID):
        d = config.system.dim
        return make_index_set(BOX, d=d, M=DlvpSpec.tensor(d, config.M).support_radius)
    if config.theorem == CHEBYSHEV_REGIME:
        return make_index_set(DEGREES, M=3 * config.M)
    return make_index_set(DEGREES, M=config.M)


def sample_count(config: RecoveryConfig) -> int:
    """Number of random samples the regime prescribes for (n, M).

    All logarithms are natural and floored at ln 2 so small arguments never
    zero out the budget.
    """
    n, M, c = config.n, config.M, config.c_sample
    g = _guarded_log
    if config.theorem in (FOURIER3, FOURIER_GRID):
        d = config.system.dim
        log_n_power = 2 if config.theorem == FOURIER_GRID else 3
        base = d * np.log(d + 1.0) * n * g(n) ** log_n_power * g(M)
    elif config.theorem == CHEBYSHEV_REGIME:
        base = 2.0 * n * g(n) ** 3 * g(M)
    else:
        base = 16.0 * np.pi * n * g(n) ** 3 * g(M + 1)
    return int(np.ceil(c * base))


def choose_eta(config: RecoveryConfig) -> float:
    """Noise level of the l1 program.

    Uses the override when given; otherwise combines the class's analytic
    best n-term bound and coefficient tail outside the cut-off,
    regime-weighted, times ``c_eta``.
    """
    if config.eta_override is not None:
        return float(config.eta_override)
    if config.klass is None:
        raise ValueError("automatic eta needs a function class")
    tau = _REGIMES[config.theorem].tau
    sigma_bar = analytic_best_term_bound(config.klass, config.n)
    tail_bar = analytic_tail_bound(config.klass, config.M)
    return float(config.c_eta * (tau * sigma_bar + (1.0 + tau) * tail_bar))


def build_matrix(config: RecoveryConfig, points) -> np.ndarray:
    """Dense measurement matrix over the search set; rows are sample points.

    The dense reference of the regime's operator: ``recover()`` uses it only
    for the Legendre regime, and solves the others on ``FourierTables``, in
    its complex form on the torus and its real form for Chebyshev.
    """
    pts = np.asarray(points)
    if pts.size == 0:
        raise ValueError("need at least one sample point")
    return basis_matrix(config.system, search_set(config), points)


def regime_plan(config: RecoveryConfig, seed: int) -> SamplePlan:
    """The regime's point draw: from the search box's lattice or the
    system's measure."""
    if _REGIMES[config.theorem].lattice:
        return SamplePlan(seed=seed, mode="grid", grid_size=search_set(config).half_width)
    return SamplePlan(seed=seed)


@dataclass(frozen=True)
class RecoveryResult:
    expansion: CoefficientExpansion
    eta: float
    samples_used: int
    solution: BpdnSolution
    theorem: str
    l2_err: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.solution.certified

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "eta": self.eta,
            "samples_used": self.samples_used,
            "certified": self.solution.certified,
            "objective": self.solution.objective,
            "residual_norm": self.solution.residual_norm,
            "iterations": self.solution.iterations,
            "stop": self.solution.stop,
            "duality_gap": self.solution.gap,
            "l2_error": self.l2_err,
            "expansion": self.expansion.to_json(),
        }


def recover(
    f_samples,
    config: RecoveryConfig,
    points,
    f_true: Optional[CoefficientExpansion] = None,
) -> RecoveryResult:
    """Solve the l1 program for one set of samples.

    ``f_samples`` are values of the target function at ``points``.  For the
    Legendre regime these are values of the raw function; the preconditioning
    weight is applied internally and the returned expansion is over the
    orthonormal Legendre family.  When the true expansion is passed, over
    the system of the returned expansion, the result carries the l2
    coefficient error.
    """
    y = np.asarray(f_samples).reshape(-1)
    pts = _point_array(config.system, points)
    m = pts.shape[0]
    if y.shape[0] != m:
        raise ValueError("sample count does not match the number of points")

    if config.theorem == LEGENDRE_REGIME:
        y = y * _legendre_weight(pts)
        out_system = legendre_raw_system()
    else:
        out_system = config.system

    if not np.iscomplexobj(y) or (config.system.kind != FOURIER and
                                  np.abs(y.imag).max(initial=0.0) == 0.0):
        y = y.real.astype(np.float64)

    # exact products from two small tables, without the m x N matrix; the
    # solver takes the real form's fast transform between checks
    columns = search_set(config)
    if config.system.kind == CHEBYSHEV:
        A = FourierTables.chebyshev(pts, len(columns))
    elif config.system.kind == FOURIER:
        A = FourierTables(pts, columns.half_width)
    else:
        A = build_matrix(config, pts)
    eta = choose_eta(config)
    problem = BpdnProblem(
        A, y, eta,
        feas_tol=config.feas_tol,
        max_iters=config.max_iters,
        step_ratio=config.step_ratio,
    )
    solution = solve_bpdn(problem)

    support = solution.z.nonzero()[0]
    # box rows and degrees as hashable tuples; System.key reads a 1-tuple as the degree
    keys = map(tuple, columns.at(support).reshape(support.size, columns.d).tolist())
    expansion = CoefficientExpansion(out_system, dict(zip(keys, solution.z[support])))

    err = None
    if f_true is not None:
        err = l2_error(expansion, f_true)
    return RecoveryResult(expansion, eta, m, solution, config.theorem, err)


# ---------------------------------------------------------------------------
# coefficient-space error


def l2_error(f: CoefficientExpansion, g: CoefficientExpansion) -> float:
    """l2 distance of two coefficient expansions over one system.

    Expansions over different systems raise, the two Legendre families
    included: ``recover()`` returns Legendre coefficients over the raw
    family, the one a Legendre class expands in.
    """
    if f.system != g.system:
        raise ValueError("cannot compare expansions over these systems")
    keys = set(f.coefficients) | set(g.coefficients)
    total = 0.0
    for key in keys:
        diff = f.coefficients.get(key, 0j) - g.coefficients.get(key, 0j)
        total += abs(diff) ** 2
    return float(np.sqrt(total))
