"""Basis-pursuit denoising: min ||z||_1 subject to ||A z - y||_2 <= eta*sqrt(m).

The general solver is a primal-dual first-order method with a duality-gap
certificate; matrices with orthonormal columns (up to one common scale)
additionally get a closed-form solution used as an oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(eq=False)
class BpdnProblem:
    """Problem data.  ``feas_tol`` defaults to 1e-8 * (1 + ||y||_2).

    ``step_ratio`` is the inverse of the initial primal weight: the solver
    starts with the primal step multiplied by it and the dual step divided
    by it.  Their product tau * sigma, which is what the convergence
    condition constrains, is fixed for the whole solve; the restarts
    re-balance the weight from there (see ``solve_bpdn``).  Values below one
    start in favour of the dual variable.
    """

    A: np.ndarray  # or an operator, perhaps with a fast stand-in; see solve_bpdn
    y: np.ndarray
    eta: float
    feas_tol: Optional[float] = None
    obj_tol: float = 1e-7
    max_iters: int = 50_000
    step_ratio: float = 1.0

    def __post_init__(self) -> None:
        # an operator (shape, dtype, forward, adjoint) checks its own data
        operator = not isinstance(self.A, np.ndarray) and hasattr(self.A, "adjoint")
        A = self.A if operator else np.asarray(self.A)
        y = np.asarray(self.y).reshape(-1)
        if len(A.shape) != 2:
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
        complex_data = np.iscomplexobj(A) or np.iscomplexobj(y)
        y = y.astype(np.complex128 if complex_data else np.float64, copy=False)
        if not operator:
            A = A.astype(y.dtype, copy=False)
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
    if t == 0:
        return v.copy()
    # moduli at or below t give 1 - t/t = 0; above it t/|v| <= 1 rounds to
    # at most 1, so the factor is never negative (no phase flip)
    return v * (1.0 - t / np.maximum(np.abs(v), t))


def _forward(A, x: np.ndarray) -> np.ndarray:
    """A @ x over the support of x: the same sum with its zero terms left out.

    An operator computes it with its own ``forward``; a full support reads
    the matrix in place.
    """
    if not isinstance(A, np.ndarray):
        return A.forward(x)
    s = x.nonzero()[0]
    if s.size == x.size:
        return A @ x
    return A.take(s, axis=1) @ x[s]


def _adjoint(A, w: np.ndarray) -> np.ndarray:
    """The exact product A^H w: an operator's ``adjoint``, or the dense
    product reading A in place (no transposed copy)."""
    if not isinstance(A, np.ndarray):
        return A.adjoint(w)
    if A.dtype.kind != "c":
        return w @ A
    g = w.conj() @ A
    return np.conjugate(g, out=g)


_NORM_STEPS = 60  # power-method steps of the norm estimate


def _operator_norm(A, dtype: np.dtype) -> float:
    """Power-method estimate of the spectral norm, deterministic start.

    The start is complex when ``dtype`` is.
    """
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[1])
    if dtype.kind == "c":
        v = v + 1j * rng.standard_normal(A.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v = v / nv
    for _ in range(_NORM_STEPS):
        w = _adjoint(A, _forward(A, v))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(_forward(A, v)))


def _dual_objective(w: np.ndarray, AH_w: np.ndarray, y: np.ndarray, rho: float) -> float:
    """Lagrange dual value of the rescaled vector w / max(1, |A^H w|_inf)."""
    scale = max(1.0, float(np.abs(AH_w).max())) if AH_w.size else 1.0
    return (-float(np.real(np.vdot(w, y))) - rho * float(np.linalg.norm(w))) / scale


# Adaptive restarts to the running average (Applegate et al., "Faster
# first-order primal-dual methods for linear programming using restarts and
# sharpness", Math. Program. 2023): at a check, restart when the candidate's
# KKT error is this fraction of its value at the last restart ...
_RESTART_SUFFICIENT = 0.2
# ... or this fraction, and has risen since the previous check ...
_RESTART_NECESSARY = 0.8
# ... or when the iterations since the restart are this share of all so far.
_RESTART_ARTIFICIAL = 0.36
# Primal-weight smoothing at each restart (Applegate et al., "Practical
# large-scale linear programming using primal-dual hybrid gradient",
# NeurIPS 2021): log omega moves this share of the way to log(|dw| / |dz|).
_WEIGHT_SMOOTHING = 0.5


def _kkt_error(z: np.ndarray, w: np.ndarray, residual: float, AH_w: np.ndarray,
               y: np.ndarray, rho: float, omega: float) -> float:
    """Primal infeasibility, dual infeasibility and duality gap of (z, w).

    The infeasibilities are gradients in w and in z, so they are weighted as
    the dual of the primal-weighted norm ``omega |z|^2 + |w|^2 / omega``.
    """
    primal = max(0.0, residual - rho)
    dual = max(0.0, float(np.abs(AH_w).max(initial=0.0)) - 1.0)
    gap = (float(np.abs(z).sum()) + float(np.real(np.vdot(w, y)))
           + rho * float(np.linalg.norm(w)))
    return float(np.sqrt(omega * primal * primal + dual * dual / omega + gap * gap))


def solve_bpdn(problem: BpdnProblem) -> BpdnSolution:
    """Restarted primal-dual solve with a duality-gap stopping certificate.

    The problem is positively homogeneous in ``(y, radius)``, so it is first
    rescaled to unit ``||y||_2``; this keeps the fixed soft-threshold step
    meaningful for data of any magnitude, and the gap test then acts at unit
    data scale.  Feasibility keeps its original-unit meaning exactly (the
    tolerance is rescaled along with the data).

    Iterates the over-relaxed primal-dual scheme (soft threshold as primal
    prox, projection-style shrink as dual prox) with steps
    ``tau = step / omega`` and ``sigma = step * omega``, so ``tau * sigma``
    stays fixed below ``1 / ||A||^2``.  Every 25th iteration and the last
    are checks.  A check certifies the current point when, and only when, it
    is feasible within ``feas_tol`` and the duality gap is at most
    ``obj_tol * max(1, objective)``.  The solve returns from a check, with
    that check's point, residual, objective and gap: certified, or
    uncertified when the residual or the gap is not finite, or when the
    check is the last of ``max_iters``.  An ``obj_tol`` below what rounding
    can reach therefore runs the whole budget and returns uncertified
    rather than raising.

    A check that does not certify may restart the iteration (Applegate et
    al., "Faster first-order primal-dual methods for linear programming
    using restarts and sharpness", Math. Program. 2023).  The candidate is
    the current point or the average of the iterates since the last
    restart, whichever has the smaller KKT error (primal infeasibility,
    dual infeasibility and the gap).  The iteration restarts from it when
    that error is at most 0.2 times its value at the last restart, or at
    most 0.8 times and risen since the previous check, or when the
    iterations since the restart are at least 0.36 of all so far.  Each
    restart re-balances the primal weight, ``omega <- sqrt(omega * |dw| /
    |dz|)`` over the moves since the last restart (Applegate et al.,
    "Practical large-scale linear programming using primal-dual hybrid
    gradient", NeurIPS 2021); it starts at ``1 / step_ratio``.

    ``problem.A`` is a dense matrix or an operator: an object with
    ``shape``, ``dtype``, ``forward(x) = A x`` and ``adjoint(w) = A^H w``,
    both exact up to rounding, such as ``systems.ChebyshevMatrix``.  A real
    operator takes complex data as its real and imaginary parts.  A is read
    in place and never copied.  The iterates are sparse, so the forward
    products (the step and every residual, including the returned one)
    multiply only the columns on the support of z; this is the dense sum
    without its zero terms.  The average's A^H w is the running sum of the
    loop's own adjoints, so restarts add one forward product per check and
    no adjoint.

    An operator may carry a fast stand-in for its products as ``A.fast``
    (the same interface, with products accurate to a known tolerance rather
    than to rounding); ``ChebyshevMatrix`` carries its nonuniform FFT.  The
    stand-in serves the norm estimate and the adjoint of every iteration
    but the checks (every 25th and the last).  Those use the exact A^H w, so
    the gap, the residual and the returned point behind a certificate rest
    on exact products.  A dense matrix is its own stand-in.
    """
    A, y, rho = problem.A, problem.y, problem.radius
    fast = getattr(A, "fast", A)
    m, N = A.shape
    dtype = np.result_type(A.dtype, y.dtype)
    obj_tol = problem.obj_tol

    y_norm = float(np.linalg.norm(y))
    if y_norm <= rho:
        # z = 0 is feasible and no objective can beat ||0||_1
        return BpdnSolution(
            z=np.zeros(N, dtype=dtype),
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

    L = _operator_norm(fast, dtype)
    if L == 0.0:
        raise ValueError("A is numerically zero and y lies outside the radius")
    step = 0.95 / (1.05 * L)
    omega = 1.0 / problem.step_ratio
    tau, sigma = step / omega, step * omega

    sigma_y = sigma * y
    z = np.zeros(N, dtype=dtype)
    zbar = z
    w = np.zeros(m, dtype=dtype)
    # the last restart point and its KKT error (z = w = 0 leaves only the
    # primal infeasibility ||y|| - rho = 1 - rho), the candidate's error at
    # the previous check, and the running sums behind the average since the
    # restart (A^H w summed over the loop's own adjoints)
    z_start, w_start, start_it = z, w, 0
    kkt_start, kkt_prev = np.sqrt(omega) * (1.0 - rho), np.inf
    z_sum, w_sum, AH_w_sum = np.zeros_like(z), np.zeros_like(w), np.zeros_like(z)

    for it in range(1, problem.max_iters + 1):
        check = it % 25 == 0 or it == problem.max_iters
        v = w + sigma * _forward(A, zbar) - sigma_y
        nv = float(np.linalg.norm(v))
        shrink = max(0.0, 1.0 - sigma * rho / nv) if nv > 0 else 0.0
        w = v * shrink
        AH_w = _adjoint(A if check else fast, w)
        z_new = soft_threshold_complex(z - tau * AH_w, tau)
        zbar = 2.0 * z_new - z
        z = z_new
        z_sum += z
        w_sum += w
        AH_w_sum += AH_w

        if check:
            residual = float(np.linalg.norm(_forward(A, z) - y))
            objective = float(np.abs(z).sum())
            gap = objective - _dual_objective(w, AH_w, y, rho)
            # the one exit: a certificate, a non-finite point or the last iteration
            finite = bool(np.isfinite(residual + gap))
            certified = (finite and residual <= rho + feas_tol
                         and gap <= obj_tol * max(1.0, objective))
            if certified or not finite or it == problem.max_iters:
                return BpdnSolution(z * scale, residual * scale,
                                    objective * scale, it, certified, gap * scale)
            count = it - start_it
            z_avg, w_avg = z_sum / count, w_sum / count
            avg_residual = float(np.linalg.norm(_forward(A, z_avg) - y))
            kkt_avg = _kkt_error(z_avg, w_avg, avg_residual, AH_w_sum / count, y, rho, omega)
            kkt_cur = _kkt_error(z, w, residual, AH_w, y, rho, omega)
            kkt = min(kkt_avg, kkt_cur)
            if (kkt <= _RESTART_SUFFICIENT * kkt_start
                    or kkt_prev < kkt <= _RESTART_NECESSARY * kkt_start
                    or count >= _RESTART_ARTIFICIAL * it):
                if kkt_avg < kkt_cur:
                    z, w = z_avg, w_avg
                dz = float(np.linalg.norm(z - z_start))
                dw = float(np.linalg.norm(w - w_start))
                if dz > 0.0 and dw > 0.0:
                    omega *= (dw / dz / omega) ** _WEIGHT_SMOOTHING
                    tau, sigma = step / omega, step * omega
                    sigma_y = sigma * y
                zbar = z
                z_start, w_start, start_it = z, w, it
                kkt_start, kkt_prev = kkt, np.inf
                for total in (z_sum, w_sum, AH_w_sum):
                    total.fill(0)
            else:
                kkt_prev = kkt


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
