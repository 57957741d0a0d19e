"""Basis-pursuit denoising: min ||z||_1 subject to ||A z - y||_2 <= eta*sqrt(m).

The general solver is a primal-dual first-order method with a duality-gap
certificate; matrices with orthonormal columns (up to one common scale)
additionally get a closed-form solution used as an oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

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

    A: np.ndarray  # or an operator on (T, .) stacks; see solve_bpdn_batch
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
            # the forward product gathers the support's columns: 36 us on a
            # C-ordered 250 x 3721 complex A, 7.8 ms on a Fortran-ordered one
            # (two cores)
            A = np.ascontiguousarray(A, dtype=y.dtype)
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
    """A solve's point and figures.  ``stop`` says why it stopped: ``inside``
    (y lies in the ball and z = 0), ``gap`` (a check certified the
    iterate), ``polished`` (a check certified the iterate's polished pair;
    see ``solve_bpdn_batch``), ``max_iters`` or ``nonfinite``.  The solution
    is ``certified`` unless it stopped at ``max_iters`` or ``nonfinite``."""

    z: np.ndarray
    residual_norm: float
    objective: float
    iterations: int
    gap: float
    stop: str

    @property
    def certified(self) -> bool:
        return self.stop not in ("max_iters", "nonfinite")


def soft_threshold_complex(v: np.ndarray, t: float) -> np.ndarray:
    """Entrywise v * max(1 - t/|v|, 0); shrinks moduli by t, keeps phases.

    Real input stays real.
    """
    if not t >= 0:
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v)
    if t == 0:
        return v.copy()
    # moduli at or below t give 1 - t/t = 0; above it t/|v| <= 1 rounds to
    # at most 1, so the factor is never negative (no phase flip)
    return v * (1.0 - t / np.maximum(np.abs(v), t))


class _Dense:
    """A dense matrix as an operator, read in place.  ``BpdnProblem`` holds
    it C-contiguous, so the support's columns gather from contiguous rows.

    Each row of a stack is its own matrix-vector product, so its value does
    not depend on the rows stacked with it; the solver gives it one trial.
    """

    def __init__(self, A: np.ndarray) -> None:
        self.A, self.shape, self.dtype = A, A.shape, A.dtype

    def forward(self, X: np.ndarray) -> np.ndarray:
        """A x over the support of each row x: the dense sum without its zero terms."""
        rows = []
        for x in X:
            s = x.nonzero()[0]
            rows.append(self.A @ x if s.size == x.size else self.A.take(s, axis=1) @ x[s])
        return rows[0][None] if len(rows) == 1 else np.stack(rows)

    def columns(self, t: int, support: np.ndarray) -> np.ndarray:
        """The columns ``support`` of A (one trial, t = 0)."""
        return self.A.take(support, axis=1)

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        """A^H w of each row w, as conj(conj(w) A): no transposed copy of A."""
        return np.stack([np.conjugate(w.conj() @ self.A) for w in W])


_NORM_STEPS = 60  # power-method steps of the norm estimate


def _operator_norm(A, dtype: np.dtype) -> float:
    """Power-method estimate of a one-trial operator's spectral norm, on a
    stack of one, from a deterministic start.

    The start is complex when ``dtype`` is.
    """
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[1])
    if dtype.kind == "c":
        v = v + 1j * rng.standard_normal(A.shape[1])
    V = (v / np.linalg.norm(v))[None]
    for _ in range(_NORM_STEPS):
        W = A.adjoint(A.forward(V))
        nw = np.linalg.norm(W)
        if nw == 0:
            return 0.0
        V = W / nw
    return float(np.linalg.norm(A.forward(V)))


def _row_dots(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re <w_t, y_t> for each row t of two stacks of one dtype, as a column.

    Each row is its own dot product, so a row's value does not depend on the
    rows stacked with it: the batch's bit-for-bit rule.
    """
    if W.dtype.kind == "c":
        W, Y = W.view(np.float64), Y.view(np.float64)
    return np.vecdot(W, Y)[:, None]


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The l2 norm of each row, as a column."""
    return np.sqrt(_row_dots(V, V))


def _abs_max(V: np.ndarray) -> np.ndarray:
    return np.abs(V).max(axis=1, keepdims=True)


# The one restart trigger, the "artificial" restart of Applegate et al.
# ("Faster first-order primal-dual methods for linear programming using
# restarts and sharpness", Math. Program. 2023): a check restarts once the
# iterations since the last restart are this share of all so far.
_RESTART_ARTIFICIAL = 0.36
# Primal-weight smoothing at each restart (Applegate et al., "Practical
# large-scale linear programming using primal-dual hybrid gradient",
# NeurIPS 2021): log omega moves this share of the way to log(|dw| / |dz|).
_WEIGHT_SMOOTHING = 0.5


def _values(Z: np.ndarray, W: np.ndarray, Y: np.ndarray, rho: np.ndarray):
    """||z||_1 and the Lagrange dual value -Re <w, y> - rho ||w|| of each (z, w)."""
    return np.abs(Z).sum(axis=1, keepdims=True), -_row_dots(W, Y) - rho * _row_norms(W)


def _kkt_errors(residual: np.ndarray, AH_W_max: np.ndarray, gap: np.ndarray,
                rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Primal infeasibility, dual infeasibility and duality gap of each (z, w),
    from its residual, ``|A^H w|_inf`` and gap ``||z||_1 + Re <w, y> + rho ||w||``.

    The infeasibilities are gradients in w and in z, so they are weighted as
    the dual of the primal-weighted norm ``omega |z|^2 + |w|^2 / omega``.
    """
    primal = np.maximum(0.0, residual - rho)
    dual = np.maximum(0.0, AH_W_max - 1.0)
    return np.sqrt(omega * primal * primal + dual * dual / omega + gap * gap)


def _check(residual: np.ndarray, objective: np.ndarray, value: np.ndarray,
           AH_W_max: np.ndarray, rho: np.ndarray, feas_tol: np.ndarray, obj_tol: float):
    """The certificate of each (z, w): its gap to the dual value of the
    rescaled w / max(1, |A^H w|_inf), whether the residual and the gap are
    finite, and whether z is feasible within ``feas_tol`` with a gap of at
    most ``obj_tol * max(1, objective)``."""
    gap = objective - value / np.maximum(1.0, AH_W_max)
    finite = np.isfinite(residual + gap)
    certified = (finite & (residual <= rho + feas_tol)
                 & (gap <= obj_tol * np.maximum(1.0, objective)))
    return gap, finite, certified


def _polish(A, t: int, z: np.ndarray, w: np.ndarray, y: np.ndarray, rho: float):
    """Trial t's pair (z, w) solved from BPDN's optimality conditions on the
    support S of z, or None where the polish declines.

    The conditions are A_S^H (A_S z - y) = -mu z / |z| and |A_S z - y| = rho,
    with w = (A_S z - y) / mu and the phase z / |z| (on real data, the sign).
    One QR of the columns, A_S = QR, gives the least-squares point z_ls =
    R^-1 Q^H y and its residual r_ls.  At rho = 0, z = z_ls and s = z / |z|,
    and w is the given w projected onto {A_S^H w = -s}.  At rho > 0, s is the
    phase of the given z on S, u = R^-H s, mu = sqrt((rho^2 - |r_ls|^2) /
    |u|^2), z = z_ls - mu R^-1 u and w = r_ls / mu - Q u.  The polish declines
    unless 1 <= |S| <= m, on an R singular to working precision, on rho^2 <=
    |r_ls|^2, and when a polished entry is exactly zero.
    """
    support = z.nonzero()[0]
    if not 1 <= support.size <= y.size:
        return None
    columns = A.columns(t, support)
    Q, R = np.linalg.qr(columns)
    diagonal = np.abs(np.diagonal(R))
    if not diagonal.min() > support.size * np.finfo(np.float64).eps * diagonal.max():
        return None
    coefficients = Q.conj().T @ y
    z_ls = np.linalg.solve(R, coefficients)
    if rho == 0:
        zp = z_ls
        if not zp.all():
            return None
        s = zp / np.abs(zp)
        wp = w + Q @ np.linalg.solve(R.conj().T, -s - columns.conj().T @ w)
    else:
        r_ls = Q @ coefficients - y
        slack = rho * rho - np.vdot(r_ls, r_ls).real
        if not slack > 0:
            return None
        u = np.linalg.solve(R.conj().T, z[support] / np.abs(z[support]))
        mu = np.sqrt(slack / np.vdot(u, u).real)
        zp = z_ls - mu * np.linalg.solve(R, u)
        if not zp.all():
            return None
        wp = r_ls / mu - Q @ u
    out = np.zeros_like(z)
    out[support] = zp
    return out, wp


def solve_bpdn(problem: BpdnProblem) -> BpdnSolution:
    """Restarted primal-dual solve with a duality-gap stopping certificate.

    The solve is the batch of one, ``solve_bpdn_batch([problem])[0]``; see
    there for the iteration, its restarts, the certificate and the
    operators A may be.
    """
    return solve_bpdn_batch([problem])[0]


def solve_bpdn_batch(problems: Sequence[BpdnProblem]) -> List[BpdnSolution]:
    """Solve problems that share their shape and settings in one loop.

    Returns one solution per problem, in input order, each equal bit for bit
    to what the batch of that problem alone returns (``solve_bpdn``).  The
    problems must agree on ``A.shape``, ``max_iters``, ``obj_tol`` and
    ``step_ratio``; ValueError otherwise.  A batch of more than one needs
    operators that stack (``systems.LatticeFourier``): a dense matrix or
    another operator solves alone.

    Each problem is positively homogeneous in ``(y, radius)``, so it is first
    rescaled to unit ``||y||_2``; this keeps the fixed soft-threshold step
    meaningful for data of any magnitude, and the gap test then acts at unit
    data scale.  Feasibility keeps its original-unit meaning exactly (the
    tolerance is rescaled along with the data).  A problem whose y lies in
    the ball returns z = 0 at once, certified, without a norm or a product.

    The loop iterates (T, N) and (T, m) stacks of the T trials still
    running: the over-relaxed primal-dual scheme (soft threshold as primal
    prox, projection-style shrink as dual prox) with steps ``tau = step /
    omega`` and ``sigma = step * omega``, so ``tau * sigma`` stays fixed
    below ``1 / ||A||^2``: ``step = 0.95 / (1.05 ||A||)``.  Every trial keeps
    its own scale, radius, ``feas_tol``, step, primal weight and restart
    point, and the trials reach the checks, every 25th iteration and the
    last, and the restarts together.  A check certifies a trial's current
    point when, and only when, it is feasible within ``feas_tol`` and the
    duality gap is at most ``obj_tol * max(1, objective)``.  The trial
    stops at a check, with that check's point, residual, objective and gap:
    certified, or uncertified when the residual or the gap is not finite,
    or when the check is the last of ``max_iters``; the stack then drops
    it.  An ``obj_tol`` below what rounding can reach therefore runs the
    whole budget and returns uncertified rather than raising.

    At every check, each trial that did not certify, and whose point is
    finite, is polished (``_polish``): BPDN's optimality conditions
    restricted to the support S of its iterate, A_S^H (A_S z - y) = -mu
    z / |z| and ||A_S z - y|| = rho, are solved from one QR of the
    support's columns, which the operator's ``columns`` gives.  This is the
    debiasing step of sparse solvers (Figueiredo, Nowak & Wright, IEEE J.
    Sel. Top. Signal Process. 2007) on BPDN's Pareto relation between mu and
    rho (van den Berg & Friedlander, SIAM J. Sci. Comput. 2008).  The
    polished pair (z, w) is checked by the same rule, on one exact forward
    product and one exact adjoint, shared by the polished trials through
    ``take``; a pair that passes stops its trial at that check, certified,
    and one that fails changes nothing.  Each trial polishes alone, so the
    bit-for-bit rule holds.  The polish declines where |S| is 0 or above m,
    on a singular R, on rho at or below the least-squares residual, and on
    an exactly zero polished entry.  The solution's ``stop`` says which exit
    a trial took.

    A check restarts the iteration of the trials it does not stop once the
    iterations since the last restart are at least 0.36 of all so far
    (Applegate et al., "Faster first-order primal-dual methods for linear
    programming using restarts and sharpness", Math. Program. 2023): at
    the checks at 25, 50, 100, 175, 275, 450 and so on.  Each trial
    restarts from the current point or the average of its iterates since
    the last restart, whichever has the smaller KKT error (primal
    infeasibility, dual infeasibility and the gap).  Each restart
    re-balances the primal weight, ``omega <- sqrt(omega * |dw| / |dz|)``
    over the moves since the last restart (Applegate et al., "Practical
    large-scale linear programming using primal-dual hybrid gradient",
    NeurIPS 2021); it starts at ``1 / step_ratio``.

    ``problem.A`` is a dense matrix or an operator.  An operator has
    ``shape`` (m, N), ``dtype``, ``forward(X)``, which takes a (T, N) stack
    to the (T, m) stack of the products A_t x_t, and ``adjoint(W)``, which
    takes a (T, m) stack to the (T, N) stack of A_t^H w_t.  Both are exact
    up to rounding and work row by row: a row's value does not depend on the
    rows stacked with it.  A real operator takes complex stacks too.
    ``columns(t, support)`` returns trial t's columns ``support`` as an (m,
    |support|) array, which the polish factors.  An
    operator may also have ``norms()``, each trial's exact ||A||; ``fast``, a
    stand-in with the same products accurate to a known tolerance rather
    than to rounding; and the class method ``stack(operators)`` with
    ``take(rows)``, which join and select trials, needed only by a batch of
    more than one.  ``systems.LatticeFourier`` has ``norms``, ``stack`` and
    ``take``; ``systems.FourierTables``, the Fourier matrix at any points,
    has only the products and columns, and its real form for Chebyshev,
    ``FourierTables.chebyshev``, also ``fast`` (a nonuniform FFT folded into
    a real DCT, one real FFT per row).  A dense matrix becomes a one-trial
    operator that reads it in place; ``BpdnProblem`` copies it once only
    when it is not C-contiguous (or not of the data's dtype).

    The iterates are sparse, so the forward products (the step and every
    residual, including the returned one) multiply only the columns on the
    support of z; this is the dense sum without its zero terms.  Each
    restart adds one forward product and one stand-in adjoint, both of the
    average.  ||A|| is ``norms()`` where the operator has it, and otherwise
    a 60-step power-method estimate on the stand-in (or on A), which the
    1.05 margin covers.  The stand-in also serves the adjoint of every
    iteration but the checks, and of each restart's average.  The checks
    use the exact A^H w, so the gap, the residual and the returned point
    behind a certificate rest on exact products.
    """
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    settings = (first.A.shape, first.max_iters, first.obj_tol, first.step_ratio)
    if any((p.A.shape, p.max_iters, p.obj_tol, p.step_ratio) != settings for p in problems):
        raise ValueError("a batch's problems must agree on the shape of A, "
                         "max_iters, obj_tol and step_ratio")
    N = first.A.shape[1]
    dtype = np.result_type(first.A.dtype, *(p.y.dtype for p in problems))
    solutions: List[Optional[BpdnSolution]] = [None] * len(problems)

    Y = np.stack([p.y for p in problems]).astype(dtype, copy=False)
    y_norm = _row_norms(Y)
    rho = np.array([[p.radius] for p in problems])
    inside = (y_norm <= rho)[:, 0]
    for i in np.flatnonzero(inside):
        # z = 0 is feasible and no objective can beat ||0||_1
        solutions[i] = BpdnSolution(np.zeros(N, dtype=dtype), float(y_norm[i, 0]),
                                    0.0, 0, 0.0, "inside")
    index = np.flatnonzero(~inside)
    if index.size == 0:
        return solutions

    if index.size > 1:
        if not hasattr(type(first.A), "stack"):
            raise ValueError("only operators that stack solve as a batch of more than one")
        A = type(first.A).stack([problems[i].A for i in index])
    else:
        A = problems[index[0]].A
        A = _Dense(A) if isinstance(A, np.ndarray) else A
    if hasattr(A, "norms"):
        L = A.norms()[:, None]
    else:
        L = np.array([[_operator_norm(getattr(A, "fast", A), dtype)]])
    if not np.all(L > 0.0):
        raise ValueError("A is numerically zero and y lies outside the radius")

    # per-trial state, one row per running trial; no two arrays share memory,
    # since the loop updates them in place
    scale = y_norm[index]
    Y = Y[index] / scale
    rho = rho[index] / scale
    feas_tol = np.array([[problems[i].effective_feas_tol] for i in index]) / scale
    step = 0.95 / (1.05 * L)
    omega = np.full_like(step, 1.0 / first.step_ratio)
    tau, sigma = step / omega, step * omega
    sigma_y = sigma * Y
    T = index.size
    Z, Zbar = np.zeros((T, N), dtype=dtype), np.zeros((T, N), dtype=dtype)
    W = np.zeros_like(Y)
    # the last restart point, its iteration (shared by the trials) and the
    # running sums behind the average since it
    Z_start, W_start, start_it = np.zeros_like(Z), np.zeros_like(W), 0
    Z_sum, W_sum = np.zeros_like(Z), np.zeros_like(W)
    max_iters, obj_tol = first.max_iters, first.obj_tol
    fast = getattr(A, "fast", A)
    any_radius, tiny = bool(rho.any()), np.finfo(np.float64).tiny

    for it in range(1, max_iters + 1):
        check = it % 25 == 0 or it == max_iters
        # w <- shrink of v = w + sigma (A zbar - y), the projection-style prox
        V = A.forward(Zbar)
        V *= sigma
        V += W
        V -= sigma_y
        if any_radius:  # with radius 0 the shrink is 1
            # nv = 0 means v = 0, and any shrink leaves w = 0
            V *= np.maximum(0.0, 1.0 - sigma * rho / np.maximum(_row_norms(V), tiny))
        W = V
        AH_W = (A if check else fast).adjoint(W)
        # z <- soft threshold of u = z - tau A^H w at tau; zbar <- 2 z_new - z
        U = np.multiply(AH_W, tau)
        np.subtract(Z, U, out=U)
        factor = np.abs(U)
        np.maximum(factor, tau, out=factor)
        np.divide(tau, factor, out=factor)
        np.subtract(1.0, factor, out=factor)
        U *= factor
        np.multiply(U, 2.0, out=Zbar)
        Zbar -= Z
        Z = U
        Z_sum += Z
        W_sum += W
        if not check:
            continue

        residual = _row_norms(A.forward(Z) - Y)
        objective, value = _values(Z, W, Y, rho)
        AH_W_max = _abs_max(AH_W)
        gap, finite, certified = _check(residual, objective, value, AH_W_max, rho, feas_tol,
                                        obj_tol)
        # the polished pairs of the trials that did not certify, checked by
        # the same rule on exact products; a pair that passes takes the
        # trial's place in this check's figures
        polished = np.zeros_like(certified)
        pairs = {j: pair for j in np.flatnonzero(finite & ~certified)
                 if (pair := _polish(A, j, Z[j], W[j], Y[j], rho[j, 0])) is not None}
        if pairs:
            rows = np.fromiter(pairs, dtype=np.intp)
            Z_p, W_p = map(np.stack, zip(*pairs.values()))
            A_p = A if rows.size == index.size else A.take(rows)
            p_residual = _row_norms(A_p.forward(Z_p) - Y[rows])
            p_objective, p_value = _values(Z_p, W_p, Y[rows], rho[rows])
            p_gap, _, passed = _check(p_residual, p_objective, p_value,
                                      _abs_max(A_p.adjoint(W_p)), rho[rows], feas_tol[rows],
                                      obj_tol)
            passed = passed[:, 0]
            rows = rows[passed]
            Z[rows], residual[rows], objective[rows], gap[rows] = (
                Z_p[passed], p_residual[passed], p_objective[passed], p_gap[passed])
            certified[rows] = polished[rows] = True
        # a trial's one exit: a certificate, a non-finite point or the last iteration
        done = (certified | ~finite)[:, 0] | (it == max_iters)
        if done.any():
            for j in np.flatnonzero(done):
                s = scale[j, 0]
                stop = (("polished" if polished[j, 0] else "gap") if certified[j, 0]
                        else "max_iters" if finite[j, 0] else "nonfinite")
                solutions[index[j]] = BpdnSolution(
                    Z[j] * s, float(residual[j, 0] * s), float(objective[j, 0] * s), it,
                    float(gap[j, 0] * s), stop)
            if done.all():
                return solutions
            keep = np.flatnonzero(~done)
            A = A.take(keep)
            fast = getattr(A, "fast", A)
            (index, scale, Y, rho, feas_tol, step, omega, tau, sigma, sigma_y, Z, Zbar, W,
             Z_start, W_start, Z_sum, W_sum, residual, objective, value, AH_W_max) = (
                x[keep] for x in (
                    index, scale, Y, rho, feas_tol, step, omega, tau, sigma, sigma_y, Z, Zbar,
                    W, Z_start, W_start, Z_sum, W_sum, residual, objective, value, AH_W_max))

        count = it - start_it
        if count < _RESTART_ARTIFICIAL * it:
            continue
        Z_avg, W_avg = Z_sum / count, W_sum / count
        avg_residual = _row_norms(A.forward(Z_avg) - Y)
        avg_objective, avg_value = _values(Z_avg, W_avg, Y, rho)
        # |A^H w_avg|_inf on the stand-in: it only picks the restart point
        kkt_avg = _kkt_errors(avg_residual, _abs_max(fast.adjoint(W_avg)),
                              avg_objective - avg_value, rho, omega)
        kkt_cur = _kkt_errors(residual, AH_W_max, objective - value, rho, omega)
        to_avg = (kkt_avg < kkt_cur)[:, 0]
        Z[to_avg], W[to_avg] = Z_avg[to_avg], W_avg[to_avg]
        dz, dw = _row_norms(Z - Z_start), _row_norms(W - W_start)
        reweight = (dz > 0.0) & (dw > 0.0)
        ratio = np.where(reweight, dw, 1.0) / np.where(reweight, dz, 1.0) / omega
        omega = np.where(reweight, omega * ratio**_WEIGHT_SMOOTHING, omega)
        tau, sigma = step / omega, step * omega
        sigma_y = sigma * Y
        Zbar[...] = Z_start[...] = Z
        W_start[...] = W
        start_it = it
        for total in (Z_sum, W_sum):
            total[...] = 0
    raise AssertionError("unreachable: the check at max_iters stops every trial")


# ---------------------------------------------------------------------------
# closed form for orthonormal-column matrices

_GRAM_TOL = 1e-10  # entrywise bound on |A^H A - c I| / max(1, c)


def bpdn_orthonormal_oracle(problem: BpdnProblem) -> BpdnSolution:
    """Exact solution when A^H A = c I for some scalar c > 0 (to ``_GRAM_TOL``).

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
    if np.abs(G - c * np.eye(N)).max() > _GRAM_TOL * max(1.0, c):
        raise ValueError("columns are not orthogonal with a common scale")

    y_norm2 = float(np.real(np.vdot(y, y)))
    if np.sqrt(y_norm2) <= rho:
        return BpdnSolution(np.zeros(N, dtype=A.dtype), float(np.sqrt(y_norm2)),
                            0.0, 0, 0.0, "inside")

    u = (A.conj().T @ y) / c
    r0_sq = max(y_norm2 - c * float(np.real(np.vdot(u, u))), 0.0)
    if rho**2 < r0_sq - problem.effective_feas_tol**2:
        raise ValueError("the radius is below the least-squares residual; infeasible")
    R_sq = max(rho**2 - r0_sq, 0.0) / c

    a = np.sort(np.abs(u))
    prefix = np.concatenate(([0.0], np.cumsum(a**2)))
    # a rounding guard: exactly, this means |y| <= rho, returned above, but rho
    # within ulps of |y| can reach it, and searchsorted would then give j = N
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
    return BpdnSolution(z, residual, float(np.abs(z).sum()), 0, 0.0, "gap")
