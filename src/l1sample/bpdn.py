"""Basis-pursuit denoising: min ||z||_1 subject to ||A z - y||_2 <= eta*sqrt(m).

The general solver is a primal-dual first-order method with a duality-gap
certificate; matrices with orthonormal columns (up to one common scale)
additionally get a closed-form solution used as an oracle in tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(eq=False)
class BpdnProblem:
    """Problem data.  ``feas_tol`` defaults to 1e-8 * (1 + ||y||_2).

    ``step_ratio`` skews the primal/dual step sizes (primal step is
    multiplied by it, dual step divided by it); their product, which is what
    the convergence condition constrains, is unchanged.  Values below one
    favour the dual variable, which speeds up runs whose stopping time is
    dominated by the feasibility certificate.
    """

    A: np.ndarray
    y: np.ndarray
    eta: float
    feas_tol: Optional[float] = None
    obj_tol: float = 1e-7
    max_iters: int = 50_000
    step_ratio: float = 1.0

    def __post_init__(self) -> None:
        A = np.asarray(self.A)
        y = np.asarray(self.y).reshape(-1)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d matrix")
        if y.shape[0] != A.shape[0]:
            raise ValueError("y length must match the number of rows of A")
        if not self.eta >= 0:
            raise ValueError("eta must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.obj_tol > 0:
            raise ValueError("obj_tol must be positive")
        if self.feas_tol is not None and not self.feas_tol > 0:
            raise ValueError("feas_tol must be positive")
        if not (np.isfinite(self.step_ratio) and self.step_ratio > 0):
            raise ValueError("step_ratio must be a positive finite number")
        if np.iscomplexobj(A) or np.iscomplexobj(y):
            A = A.astype(np.complex128, copy=False)
            y = y.astype(np.complex128, copy=False)
        else:
            A = A.astype(np.float64, copy=False)
            y = y.astype(np.float64, copy=False)
        if not _all_finite(A):
            raise ValueError("A must be finite")
        if not _all_finite(y):
            raise ValueError("y must be finite")
        self.A = A
        self.y = y

    @property
    def radius(self) -> float:
        """The residual bound eta * sqrt(m)."""
        return float(self.eta) * float(np.sqrt(self.A.shape[0]))

    @property
    def effective_feas_tol(self) -> float:
        if self.feas_tol is not None:
            return self.feas_tol
        return 1e-8 * (1.0 + float(np.linalg.norm(self.y)))


def _all_finite(x: np.ndarray) -> bool:
    # min and max propagate NaN and, unlike np.isfinite, need no x-sized temporary
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return all(np.isfinite(part.min(initial=0.0)) and np.isfinite(part.max(initial=0.0))
               for part in parts)


@dataclass(frozen=True)
class BpdnSolution:
    z: np.ndarray
    residual_norm: float
    objective: float
    iterations: int
    certified: bool
    gap: float


def soft_threshold_complex(v: np.ndarray, t: float) -> np.ndarray:
    """Entrywise v * max(1 - t/|v|, 0); shrinks moduli by t, keeps phases.

    Real input stays real.
    """
    if t < 0:
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v)
    a = np.abs(v)
    # the mask keeps the division exact on the selected branch and the
    # clamp stops 1 - t/a from rounding to a tiny negative (phase flip)
    scale = np.where(a > t, np.maximum(1.0 - t / np.where(a > t, a, 1.0), 0.0), 0.0)
    return v * scale


def _forward(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x over the support of x: the same sum with its zero terms left out."""
    s = x.nonzero()[0]
    return A.take(s, axis=1) @ x[s]


def _adjoint(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The exact dense product A^H w, reading A in place (no transposed copy)."""
    if A.dtype.kind != "c":
        return w @ A
    g = w.conj() @ A
    return np.conjugate(g, out=g)


def _operator_norm(A: np.ndarray, transform=None, iters: int = 60) -> float:
    """Power-method estimate of the spectral norm, deterministic start.

    With a transform, its fast products stand in for the dense ones.
    """
    if transform is None:
        forward, adjoint = functools.partial(np.matmul, A), functools.partial(_adjoint, A)
    else:
        forward, adjoint = transform.forward, transform.adjoint
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[1])
    if np.iscomplexobj(A):
        v = v + 1j * rng.standard_normal(A.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v = v / nv
    for _ in range(iters):
        w = adjoint(forward(v))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(forward(v)))


def _dual_objective(w: np.ndarray, AH_w: np.ndarray, y: np.ndarray, rho: float) -> float:
    """Lagrange dual value of the rescaled vector w / max(1, |A^H w|_inf)."""
    scale = max(1.0, float(np.abs(AH_w).max())) if AH_w.size else 1.0
    return (-float(np.real(np.vdot(w, y))) - rho * float(np.linalg.norm(w))) / scale


def _stalled(x: np.ndarray, x_prev: np.ndarray) -> bool:
    """Whether x moved by at most 1e-13 relative to its size since x_prev."""
    return (float(np.abs(x - x_prev).max(initial=0.0))
            <= 1e-13 * max(1.0, float(np.abs(x).max(initial=0.0))))


def solve_bpdn(problem: BpdnProblem, transform=None) -> BpdnSolution:
    """Primal-dual solve with a duality-gap stopping certificate.

    The problem is positively homogeneous in ``(y, radius)``, so it is first
    rescaled to unit ``||y||_2``; this keeps the fixed soft-threshold step
    meaningful for data of any magnitude, and the stall and gap tests then
    act at unit data scale.  Feasibility keeps its original-unit meaning
    exactly (the tolerance is rescaled along with the data).

    Iterates the over-relaxed primal-dual scheme (soft threshold as primal
    prox, projection-style shrink as dual prox) and certifies the returned
    point when it is feasible within ``feas_tol`` and either the duality gap
    is below ``obj_tol * max(1, objective)`` or the iteration has reached a
    numerically stationary point.  Runs that exhaust ``max_iters`` without a
    certificate return ``certified=False`` rather than raising.

    A is read in place and never copied.  The iterates are sparse, so the
    forward products (the step and every residual, including the returned
    one) multiply only the columns on the support of z; this is the dense
    sum without its zero terms.

    ``transform`` is an optional fast stand-in for the products with A (an
    object with ``forward(v) = A v`` and ``adjoint(w) = A^H w``, such as
    ``systems.ChebyshevTransform``).  It serves the norm estimate and the
    adjoint of every iteration but the checks (every 25th and the last).
    Those use the exact dense A^H w, so the gap, the stall test, the
    residual and the returned point behind a certificate rest on exact
    products.
    """
    A, y, rho = problem.A, problem.y, problem.radius
    m, N = A.shape
    if transform is not None and tuple(transform.shape) != (m, N):
        raise ValueError("the transform's shape does not match A")
    obj_tol = problem.obj_tol

    y_norm = float(np.linalg.norm(y))
    if y_norm <= rho:
        # z = 0 is feasible and no objective can beat ||0||_1
        return BpdnSolution(
            z=np.zeros(N, dtype=A.dtype),
            residual_norm=y_norm,
            objective=0.0,
            iterations=0,
            certified=True,
            gap=0.0,
        )

    scale = y_norm
    y = y / scale
    rho = rho / scale
    feas_tol = problem.effective_feas_tol / scale

    L = _operator_norm(A, transform)
    if L == 0.0:
        raise ValueError("A is numerically zero and y lies outside the radius")
    step = 0.95 / (1.05 * L)
    tau = step * problem.step_ratio
    sigma = step / problem.step_ratio

    sigma_y = sigma * y
    z = np.zeros(N, dtype=A.dtype)
    zbar = z.copy()
    w = np.zeros(m, dtype=A.dtype)
    z_prev_check = z.copy()
    w_prev_check = w.copy()
    gap = np.inf
    # the adjoint between checks; without a transform it is the dense one
    adjoint = _adjoint if transform is None else lambda _, w: transform.adjoint(w)

    for it in range(1, problem.max_iters + 1):
        check = it % 25 == 0 or it == problem.max_iters
        v = w + sigma * _forward(A, zbar) - sigma_y
        nv = float(np.linalg.norm(v))
        shrink = max(0.0, 1.0 - sigma * rho / nv) if nv > 0 else 0.0
        w = v * shrink
        AH_w = _adjoint(A, w) if check else adjoint(A, w)
        z_new = soft_threshold_complex(z - tau * AH_w, tau)
        zbar = 2.0 * z_new - z
        z = z_new

        if check:
            residual = float(np.linalg.norm(_forward(A, z) - y))
            feasible = residual <= rho + feas_tol
            objective = float(np.abs(z).sum())
            gap = objective - _dual_objective(w, AH_w, y, rho)
            if feasible and (gap <= obj_tol * max(1.0, objective)
                             or (_stalled(z, z_prev_check) and _stalled(w, w_prev_check))):
                return BpdnSolution(z * scale, residual * scale,
                                    objective * scale, it, True, gap * scale)
            z_prev_check = z.copy()
            w_prev_check = w.copy()

    residual = float(np.linalg.norm(_forward(A, z) - y))
    objective = float(np.abs(z).sum())
    return BpdnSolution(z * scale, residual * scale, objective * scale,
                        problem.max_iters, False, float(gap) * scale)


# ---------------------------------------------------------------------------
# closed form for orthonormal-column matrices


def bpdn_orthonormal_oracle(problem: BpdnProblem, gram_tol: float = 1e-10) -> BpdnSolution:
    """Exact solution when A^H A = c I for some scalar c > 0.

    In that case the constraint becomes a ball around the rescaled
    least-squares point u = A^H y / c and the minimizer is a soft threshold
    of u; the threshold solves a piecewise-quadratic scalar equation on the
    sorted moduli of u.
    """
    A, y, rho = problem.A, problem.y, problem.radius
    m, N = A.shape
    G = A.conj().T @ A
    c = float(np.real(np.trace(G))) / N
    if c <= 0:
        raise ValueError("A has numerically zero columns")
    if np.abs(G - c * np.eye(N)).max() > gram_tol * max(1.0, c):
        raise ValueError("columns are not orthogonal with a common scale")

    y_norm2 = float(np.real(np.vdot(y, y)))
    if np.sqrt(y_norm2) <= rho:
        return BpdnSolution(np.zeros(N, dtype=A.dtype), float(np.sqrt(y_norm2)),
                            0.0, 0, True, 0.0)

    u = (A.conj().T @ y) / c
    r0_sq = max(y_norm2 - c * float(np.real(np.vdot(u, u))), 0.0)
    if rho**2 < r0_sq - problem.effective_feas_tol**2:
        raise ValueError("the radius is below the least-squares residual; infeasible")
    R_sq = max(rho**2 - r0_sq, 0.0) / c

    a = np.sort(np.abs(u))
    prefix = np.concatenate(([0.0], np.cumsum(a**2)))
    if prefix[-1] <= R_sq:
        z = np.zeros(N, dtype=A.dtype)
    else:
        # phi(lam) = sum_i min(|u_i|, lam)^2 is piecewise quadratic and
        # increasing; find the segment where it crosses R_sq
        phi_at_a = prefix[:-1] + (N - np.arange(N)) * a**2
        j = int(np.searchsorted(phi_at_a, R_sq, side="left"))
        lam = float(np.sqrt(max(R_sq - prefix[j], 0.0) / (N - j)))
        z = soft_threshold_complex(u, lam)
    residual = float(np.linalg.norm(A @ z - y))
    return BpdnSolution(z, residual, float(np.abs(z).sum()), 0, True, 0.0)
