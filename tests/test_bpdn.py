"""Tests for the l1-minimization solver and its orthonormal-matrix oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sample import bpdn
from l1sample.bpdn import (
    BpdnProblem,
    BpdnSolution,
    _Dense,
    _polish,
    bpdn_orthonormal_oracle,
    soft_threshold_complex,
    solve_bpdn,
    solve_bpdn_batch,
)
from l1sample.systems import (
    FourierTables,
    LatticeFourier,
    basis_matrix,
    chebyshev_system,
    fourier_system,
    make_index_set,
)


def random_orthonormal_instance(rng, N=8, m=12, complex_data=True, obj_tol=1e-7):
    """A feasible instance with orthonormal columns and a radius strictly
    between the least-squares residual and ``norm(y)``."""
    if complex_data:
        G = rng.normal(size=(m, N)) + 1j * rng.normal(size=(m, N))
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
    else:
        G = rng.normal(size=(m, N))
        y = rng.normal(size=m)
    Q, _ = np.linalg.qr(G)
    u = Q.conj().T @ y
    r0_sq = float(np.linalg.norm(y) ** 2 - np.linalg.norm(u) ** 2)
    t = rng.uniform(0.05, 0.95)
    rho = np.sqrt(r0_sq + t * (np.linalg.norm(y) ** 2 - r0_sq))
    return BpdnProblem(Q, y, eta=rho / np.sqrt(m), obj_tol=obj_tol, step_ratio=0.0625)


# ---------------------------------------------------------------------------
# problem validation and bookkeeping


def test_problem_validation():
    A = np.eye(2)
    y = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        BpdnProblem(np.ones(3), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        BpdnProblem(A, np.ones(3), 0.1)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, -0.1)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, 0.1, max_iters=0)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, 0.1, obj_tol=0.0)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, 0.1, feas_tol=-1e-8)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, 0.1, step_ratio=0.0)
    with pytest.raises(ValueError):
        BpdnProblem(A, y, 0.1, step_ratio=np.inf)


def test_problem_rejects_nan_in_y():
    y = np.array([1.0, np.nan])
    with pytest.raises(ValueError, match="y must be finite"):
        BpdnProblem(np.eye(2), y, 0.0)


def test_problem_rejects_inf_in_A():
    A = np.array([[1.0, 0.0], [0.0, np.inf]], dtype=np.complex128)
    with pytest.raises(ValueError, match="A must be finite"):
        BpdnProblem(A, np.ones(2), 0.0)


def test_radius_and_default_feasibility_tolerance():
    A = np.eye(4)
    y = np.array([3.0, 0.0, 0.0, 0.0])
    prob = BpdnProblem(A, y, eta=0.5)
    assert prob.radius == 0.5 * 2.0
    assert prob.effective_feas_tol == 1e-8 * (1.0 + 3.0)
    tight = BpdnProblem(A, y, eta=0.5, feas_tol=1e-3)
    assert tight.effective_feas_tol == 1e-3


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_basics():
    v = np.array([3.0, -2.0, 0.5])
    out = soft_threshold_complex(v, 1.0)
    assert np.allclose(out, [2.0, -1.0, 0.0])
    assert out.dtype == v.dtype
    w = np.array([3.0 + 4.0j, 0.1j])
    out = soft_threshold_complex(w, 2.5)
    # modulus shrinks by t, phase is preserved
    assert abs(abs(out[0]) - 2.5) < 1e-14
    assert abs(out[0] / w[0] - 0.5) < 1e-14
    assert out[1] == 0.0
    with pytest.raises(ValueError):
        soft_threshold_complex(v, -0.5)


def test_soft_threshold_rejects_nan():
    with pytest.raises(ValueError, match="threshold must be >= 0"):
        soft_threshold_complex(np.array([3.0, -2.0]), float("nan"))


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-50, 50),
    im=st.floats(-50, 50),
    t=st.floats(0, 100),
)
def test_soft_threshold_shrinkage_property(re, im, t):
    v = np.array([complex(re, im)])
    out = soft_threshold_complex(v, t)[0]
    assert abs(abs(out) - max(abs(v[0]) - t, 0.0)) < 1e-12 * (1.0 + abs(v[0]))
    if abs(out) > 1e-150:
        # the argument of the output matches the input; angles sidestep
        # underflow in complex division near the subnormal range
        assert abs(np.angle(out) - np.angle(v[0])) < 1e-12


# ---------------------------------------------------------------------------
# solver behavior on closed-form instances


def test_identity_anchor_instance():
    A = np.eye(2)
    y = np.array([3.0, 0.0])
    prob = BpdnProblem(A, y, eta=1.0 / np.sqrt(2.0))
    assert abs(prob.radius - 1.0) < 1e-15
    sol = solve_bpdn(prob)
    assert sol.certified
    assert np.abs(sol.z - np.array([2.0, 0.0])).max() <= 1e-8
    assert abs(sol.residual_norm - 1.0) <= 1e-7
    assert abs(sol.objective - 2.0) <= 1e-7


def test_zero_solution_fast_path():
    A = np.eye(3)
    y = np.array([0.1, 0.2, 0.0])
    prob = BpdnProblem(A, y, eta=1.0)  # radius sqrt(3) > norm(y)
    sol = solve_bpdn(prob)
    assert sol.iterations == 0
    assert sol.certified and sol.stop == "inside"
    assert np.all(sol.z == 0)
    assert abs(sol.residual_norm - np.linalg.norm(y)) < 1e-15
    assert sol.objective == 0.0
    assert sol.gap == 0.0


def test_reported_residual_and_objective_are_consistent():
    rng = np.random.default_rng(3)
    prob = random_orthonormal_instance(rng)
    sol = solve_bpdn(prob)
    assert sol.certified
    recomputed = np.linalg.norm(prob.A @ sol.z - prob.y)
    assert abs(sol.residual_norm - recomputed) < 1e-10 * (1.0 + recomputed)
    assert abs(sol.objective - np.abs(sol.z).sum()) < 1e-10 * (1.0 + sol.objective)
    # feasibility within the certified tolerance
    assert sol.residual_norm <= prob.radius + prob.effective_feas_tol


def test_real_input_gives_real_iterates():
    rng = np.random.default_rng(5)
    prob = random_orthonormal_instance(rng, complex_data=False)
    sol = solve_bpdn(prob)
    assert not np.iscomplexobj(sol.z)


def test_uncertified_when_iteration_budget_is_tiny():
    rng = np.random.default_rng(9)
    prob = random_orthonormal_instance(rng)
    starved = BpdnProblem(prob.A, prob.y, prob.eta, max_iters=2)
    sol = solve_bpdn(starved)
    assert not sol.certified and sol.stop == "max_iters"
    assert sol.iterations == 2
    # the last iteration is a check, and the solve returns that check's figures
    recomputed = np.linalg.norm(prob.A @ sol.z - prob.y)
    assert sol.residual_norm == pytest.approx(recomputed, rel=1e-12)
    assert sol.objective == pytest.approx(np.abs(sol.z).sum(), rel=1e-12)


def test_non_finite_iterates_stop_at_the_next_check():
    # a valid but extreme primal weight overflows the dual iterate; the solve
    # stops uncertified at the first check instead of using up its budget
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 60))
    y = rng.standard_normal(20)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_bpdn(BpdnProblem(A, y, eta=0.1, step_ratio=1e-300))
    assert not sol.certified and sol.stop == "nonfinite"
    assert sol.iterations == 25
    assert not np.isfinite(sol.residual_norm + sol.gap)


@pytest.mark.filterwarnings("error")
def test_zero_matrix_with_y_outside_the_radius_raises():
    prob = BpdnProblem(np.zeros((3, 4)), np.array([1.0, 0.0, 0.0]), eta=0.1)
    with pytest.raises(ValueError, match="numerically zero"):
        solve_bpdn_batch([prob])
    # N = 0: the norm estimate's start vector is empty, and its power step is 0
    with pytest.raises(ValueError, match="A is numerically zero"):
        solve_bpdn(BpdnProblem(np.zeros((3, 0)), np.ones(3), 0.1))


# ---------------------------------------------------------------------------
# oracle


def test_oracle_identity_anchor_exact():
    A = np.eye(2)
    y = np.array([3.0, 0.0])
    sol = bpdn_orthonormal_oracle(BpdnProblem(A, y, eta=1.0 / np.sqrt(2.0)))
    assert sol.z.tolist() == [2.0, 0.0]
    assert sol.certified and sol.stop == "gap"
    assert sol.iterations == 0
    assert sol.gap == 0.0
    assert abs(sol.residual_norm - 1.0) < 1e-12


def test_oracle_zero_solution_inside_the_radius():
    y = np.array([0.1, 0.2])
    sol = bpdn_orthonormal_oracle(BpdnProblem(2.0 * np.eye(2), y, eta=1.0))
    assert sol.z.tolist() == [0.0, 0.0]
    assert sol.certified and sol.objective == 0.0 and sol.stop == "inside"
    assert sol.residual_norm == np.linalg.norm(y)


def test_oracle_rejects_non_orthogonal_columns():
    A = np.array([[1.0, 0.9], [0.0, 0.4359]])
    with pytest.raises(ValueError):
        bpdn_orthonormal_oracle(BpdnProblem(A, np.ones(2), 0.1))
    with pytest.raises(ValueError):
        bpdn_orthonormal_oracle(BpdnProblem(np.zeros((2, 2)), np.ones(2), 0.1))
    # the Gram matrix may differ from c I by 1e-10 relative to max(1, c)
    with pytest.raises(ValueError, match="not orthogonal"):
        bpdn_orthonormal_oracle(BpdnProblem(np.array([[1.0, 1e-8], [0.0, 1.0]]), np.ones(2), 0.1))
    problem = BpdnProblem(np.array([[1.0, 1e-12], [0.0, 1.0]]), np.ones(2), 0.1)
    sol = bpdn_orthonormal_oracle(problem)
    assert sol.certified and sol.residual_norm <= problem.radius + 1e-12


def test_oracle_rejects_infeasible_radius():
    # single orthonormal column; y is orthogonal to its range, so the
    # least-squares residual is norm(y) = 5 and no smaller radius is feasible
    A = np.array([[1.0], [0.0], [0.0]])
    y = np.array([0.0, 5.0, 0.0])
    prob = BpdnProblem(A, y, eta=1.0 / np.sqrt(3.0))
    with pytest.raises(ValueError):
        bpdn_orthonormal_oracle(prob)


def test_oracle_zero_radius_gives_least_squares_on_full_rank_square():
    A = np.eye(3)
    y = np.array([1.0, -2.0, 0.5])
    sol = bpdn_orthonormal_oracle(BpdnProblem(A, y, eta=0.0))
    assert np.abs(sol.z - y).max() < 1e-14


@pytest.mark.parametrize("complex_data", [True, False])
def test_solver_matches_oracle(complex_data):
    rng = np.random.default_rng(42 if complex_data else 43)
    for _ in range(5):
        prob = random_orthonormal_instance(
            rng, N=10, m=16, complex_data=complex_data, obj_tol=1e-9
        )
        fast = solve_bpdn(prob)
        exact = bpdn_orthonormal_oracle(prob)
        assert fast.certified
        denom = max(1.0, float(np.linalg.norm(exact.z)))
        assert np.linalg.norm(fast.z - exact.z) / denom <= 1e-6


# ---------------------------------------------------------------------------
# scaling and step-skew invariances


def test_solution_scales_linearly_with_data():
    rng = np.random.default_rng(17)
    prob = random_orthonormal_instance(rng)
    base = solve_bpdn(prob)
    for c in (1e-4, 1e4):
        scaled = BpdnProblem(
            prob.A, c * prob.y, c * prob.eta, step_ratio=prob.step_ratio
        )
        sol = solve_bpdn(scaled)
        assert sol.certified
        assert np.allclose(sol.z, c * base.z, rtol=1e-9, atol=1e-12 * c)
        assert sol.iterations == base.iterations


def test_step_ratio_variants_reach_the_same_solution():
    rng = np.random.default_rng(23)
    G = rng.normal(size=(16, 10)) + 1j * rng.normal(size=(16, 10))
    Q, _ = np.linalg.qr(G)
    y = rng.normal(size=16) + 1j * rng.normal(size=16)
    u = Q.conj().T @ y
    r0_sq = float(np.linalg.norm(y) ** 2 - np.linalg.norm(u) ** 2)
    rho = np.sqrt(r0_sq + 0.4 * (np.linalg.norm(y) ** 2 - r0_sq))
    exact = None
    for ratio in (1.0, 0.25, 0.0625):
        prob = BpdnProblem(Q, y, eta=rho / 4.0, step_ratio=ratio)
        if exact is None:
            exact = bpdn_orthonormal_oracle(prob)
        sol = solve_bpdn(prob)
        assert sol.certified
        denom = max(1.0, float(np.linalg.norm(exact.z)))
        assert np.linalg.norm(sol.z - exact.z) / denom <= 1e-6


# ---------------------------------------------------------------------------
# products: the support-only forward product and the in-place adjoint


@pytest.mark.parametrize("complex_data", [True, False])
@pytest.mark.parametrize("nnz", [0, 3, 40])
def test_products_match_the_dense_reference(complex_data, nnz):
    rng = np.random.default_rng(31 + nnz)
    m, N = 12, 40
    A = rng.normal(size=(m, N))
    x = np.zeros(N)
    x[rng.choice(N, nnz, replace=False)] = rng.normal(size=nnz)
    w = rng.normal(size=m)
    if complex_data:
        A = A + 1j * rng.normal(size=(m, N))
        x = x + 1j * (x != 0) * rng.normal(size=N)
        w = w + 1j * rng.normal(size=m)
    op = _Dense(A)
    for got, want in ((op.forward(x[None])[0], A @ x), (op.adjoint(w[None])[0], A.conj().T @ w)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# (m, N): one entry, a single block of the tables (N < 256) and several
@pytest.mark.parametrize("m, N", [(1, 1), (6, 97), (30, 768)])
@pytest.mark.parametrize("kind", ["dense", "complex dense", "tables", "transform"])
def test_stacked_products_equal_the_one_row_products(kind, m, N):
    rng = np.random.default_rng(m + N)
    A = rng.normal(size=(m, N))
    tables = FourierTables.chebyshev(np.cos(np.pi * rng.random(m)), N)
    op = {"dense": _Dense(A), "complex dense": _Dense(A + 1j * rng.normal(size=(m, N))),
          "tables": tables, "transform": tables.fast}[kind]
    X = rng.normal(size=(2, N)) * (rng.random((2, N)) < 0.4)
    X[1, 3:] = 0.0  # the tables gather this row's columns and take a GEMM for the other
    W = rng.normal(size=(2, m))
    for product, real in ((op.forward, X), (op.adjoint, W)):
        # a stack of two real rows and one of two complex rows, each row
        # against its own stack of one: equal bit for bit, so a trial's
        # value does not depend on the trials stacked with it
        for stack in (real, real + 1j * real[::-1]):
            got = product(stack)
            for t in range(2):
                assert np.array_equal(got[t], product(stack[t:t + 1])[0])
        if kind == "transform":
            # complex data runs as real rows: its parts are the real products
            complex_row = real[:1] + 1j * real[1:]
            got = product(complex_row)
            assert np.array_equal(got.real, product(real[:1]))
            assert np.array_equal(got.imag, product(real[1:]))


def _sparse_recovery_instance(rng, m, N, complex_data, s=4, max_iters=50_000):
    A = rng.normal(size=(m, N)) / np.sqrt(m)
    x = np.zeros(N)
    x[rng.choice(N, s, replace=False)] = rng.normal(size=s)
    if complex_data:
        A = A + 1j * rng.normal(size=(m, N)) / np.sqrt(m)
        x = x + 1j * (x != 0) * rng.normal(size=N)
    y = A @ x + 1e-3 * rng.normal(size=m)
    return BpdnProblem(A, y, eta=1e-3, step_ratio=0.0625, max_iters=max_iters)


@pytest.mark.parametrize("complex_data", [True, False])
def test_certified_residual_equals_the_dense_recompute(complex_data):
    rng = np.random.default_rng(47 if complex_data else 48)
    for _ in range(3):
        prob = _sparse_recovery_instance(rng, 30, 120, complex_data)
        sol = solve_bpdn(prob)
        assert sol.certified
        dense = np.linalg.norm(prob.A @ sol.z - prob.y)
        assert abs(sol.residual_norm - dense) <= 1e-12 * dense


@pytest.mark.parametrize("complex_data", [True, False])
def test_a_fortran_ordered_matrix_solves_like_its_c_ordered_copy(complex_data):
    rng = np.random.default_rng(71 if complex_data else 72)
    prob = _sparse_recovery_instance(rng, 30, 120, complex_data)
    assert BpdnProblem(prob.A, prob.y, eta=prob.eta).A is prob.A  # not copied
    fortran = BpdnProblem(np.asfortranarray(prob.A), prob.y, eta=prob.eta,
                          step_ratio=prob.step_ratio)
    assert fortran.A.flags.c_contiguous
    a, b = solve_bpdn(prob), solve_bpdn(fortran)
    for field in dataclasses.fields(BpdnSolution):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_solver_allocates_well_under_one_copy_of_A():
    rng = np.random.default_rng(53)
    prob = _sparse_recovery_instance(rng, 256, 4096, complex_data=False, max_iters=100)
    assert prob.A.nbytes >= 8 * 2**20
    tracemalloc.start()
    try:
        solve_bpdn(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < prob.A.nbytes / 2


# ---------------------------------------------------------------------------
# fast Chebyshev products in the iteration


class _CountingTransform:
    def __init__(self, transform):
        self.transform, self.shape, self.calls = transform, transform.shape, 0

    def forward(self, v):
        self.calls += 1
        return self.transform.forward(v)

    def adjoint(self, w):
        self.calls += 1
        return self.transform.adjoint(w)


def _chebyshev_instance(rng, m, N, complex_y, max_iters=50_000):
    x = np.cos(np.pi * rng.random(m))
    A = basis_matrix(chebyshev_system(), np.arange(N), x)
    c = np.zeros(N)
    c[rng.choice(N // 4, 4, replace=False)] = rng.normal(size=4)
    # noise well inside the radius eta * sqrt(m), so c is feasible
    y = A @ c + 3e-4 * rng.normal(size=m)
    if complex_y:
        y = y * (0.6 - 0.8j) + 3e-4j * rng.normal(size=m)
    return BpdnProblem(A, y, eta=1e-3, feas_tol=1e-6, step_ratio=0.0625,
                       max_iters=max_iters), x


@pytest.mark.parametrize("m, N, complex_y, max_iters", [
    (20, 61, False, 50_000),
    (40, 121, False, 50_000),
    (150, 901, False, 50_000),
    (40, 121, True, 50_000),
    (20, 61, False, 60),  # stops uncertified at the iteration budget
])
def test_transform_solve_matches_the_dense_solve(m, N, complex_y, max_iters):
    rng = np.random.default_rng(61 + m + N + complex_y)
    prob, x = _chebyshev_instance(rng, m, N, complex_y, max_iters)
    assert np.iscomplexobj(prob.A) == complex_y
    dense = solve_bpdn(prob)
    op = FourierTables.chebyshev(x, N)
    operator = BpdnProblem(op, prob.y, prob.eta, feas_tol=prob.feas_tol,
                           step_ratio=prob.step_ratio, max_iters=max_iters)
    assert operator.A.dtype == np.float64 and operator.y.dtype == prob.y.dtype
    exact_adjoints, adjoint = [], op.adjoint
    op.adjoint = lambda w: exact_adjoints.append(1) or adjoint(w)
    polishes, columns = [], op.columns
    op.columns = lambda t, support: polishes.append(1) or columns(t, support)
    op.fast = transform = _CountingTransform(op.fast)
    fast = solve_bpdn(operator)
    assert (fast.iterations, fast.certified, fast.stop) == (dense.iterations, dense.certified,
                                                             dense.stop)
    # the exact adjoint serves exactly the check iterations and the checks of
    # the polished pairs, one at every check of real data and none of
    # complex data at a radius; the transform the other iterations and the
    # 60-step power method (121 products)
    checks = sum(1 for it in range(1, fast.iterations + 1) if it % 25 == 0 or it == max_iters)
    assert len(polishes) == (0 if complex_y else checks)
    assert len(exact_adjoints) == checks + len(polishes)
    assert transform.calls == 121 + fast.iterations - checks
    assert fast.stop == ("gap" if complex_y else "polished" if fast.certified else "max_iters")
    assert fast.certified == (max_iters == 50_000)
    assert fast.z.dtype == dense.z.dtype
    assert np.linalg.norm(fast.z - dense.z) <= 1e-9 * np.linalg.norm(dense.z)
    recomputed = np.linalg.norm(prob.A @ fast.z - prob.y)
    assert abs(fast.residual_norm - recomputed) <= 1e-12 * recomputed


@pytest.mark.parametrize("complex_y", [False, True])
def test_operator_solve_matches_the_dense_solve(complex_y):
    m, N = 40, 121
    rng = np.random.default_rng(79 + complex_y)
    prob, x = _chebyshev_instance(rng, m, N, complex_y)
    operator = BpdnProblem(FourierTables.chebyshev(x, N), prob.y, prob.eta, feas_tol=prob.feas_tol,
                           step_ratio=prob.step_ratio)
    assert operator.A.dtype == np.float64 and operator.y.dtype == prob.y.dtype
    dense = solve_bpdn(prob)
    matrix_free = solve_bpdn(operator)
    assert dense.certified and matrix_free.certified
    assert matrix_free.iterations == dense.iterations
    assert matrix_free.z.dtype == dense.z.dtype
    assert np.linalg.norm(matrix_free.z - dense.z) <= 1e-9 * np.linalg.norm(dense.z)
    recomputed = np.linalg.norm(prob.A @ matrix_free.z - prob.y)
    assert abs(matrix_free.residual_norm - recomputed) <= 1e-12 * recomputed


# ---------------------------------------------------------------------------
# restarts and the primal weight


def test_restarts_cut_the_iterations_and_keep_the_solutions():
    rng = np.random.default_rng(71)
    orthonormal = [random_orthonormal_instance(rng, N=10, m=16, complex_data=c, obj_tol=1e-9)
                   for c in (True, False) for _ in range(3)]
    rng = np.random.default_rng(73)
    sparse = [_sparse_recovery_instance(rng, m, 120, c)
              for c in (True, False) for m in (20, 30, 40)]
    solutions = [solve_bpdn(prob) for prob in orthonormal + sparse]
    assert all(sol.certified for sol in solutions)
    for prob, sol in zip(orthonormal, solutions):
        exact = bpdn_orthonormal_oracle(prob)
        denom = max(1.0, float(np.linalg.norm(exact.z)))
        assert np.linalg.norm(sol.z - exact.z) / denom <= 1e-6
    # without restarts (a fixed primal weight of 1 / step_ratio) this set
    # takes 1,550 + 24,550 = 26,100 iterations
    assert sum(sol.iterations for sol in solutions) < 26_100 / 2


# ---------------------------------------------------------------------------
# batches of lattice problems


def _lattice_problem(seed, m=10, D=12, s=3, eta=0.0, max_iters=50_000, **kwargs):
    """Exact s-sparse recovery on m lattice points of the box |k| <= D."""
    rng = np.random.default_rng(seed)
    N = 2 * D + 1
    c = np.zeros(N, dtype=complex)
    c[rng.choice(N, s, replace=False)] = np.exp(2j * np.pi * rng.random(s))
    A = LatticeFourier(rng.integers(0, N, size=m) / N, D)
    return BpdnProblem(A, A @ c, eta=eta, step_ratio=0.0625, max_iters=max_iters, **kwargs)


def _same(a, b):
    return (np.array_equal(a.z, b.z) and a.z.dtype == b.z.dtype
            and (a.residual_norm, a.objective, a.iterations, a.certified, a.gap, a.stop)
            == (b.residual_norm, b.objective, b.iterations, b.certified, b.gap, b.stop))


def test_a_batch_returns_each_problems_own_solution():
    # seeds 24 and 26 need 625 and 925 iterations, the others 50 to 100,
    # each certified by its polished pair; at a shared budget of 390 the
    # batch drops trials at several checks, stops two uncertified at the
    # budget's last (off-grid) check, and returns one trial whose y lies in
    # the ball at once
    problems = [_lattice_problem(seed, max_iters=390) for seed in (24, 2, 17, 4, 26, 1)]
    problems.insert(3, _lattice_problem(3, eta=5.0, max_iters=390))
    batch = solve_bpdn_batch(problems)
    alone = [solve_bpdn(p) for p in problems]
    assert len(batch) == len(problems)
    assert all(_same(a, b) for a, b in zip(batch, alone))
    iterations = [sol.iterations for sol in batch]
    certified = [sol.certified for sol in batch]
    assert iterations[3] == 0 and certified[3]
    assert [it for it, ok in zip(iterations, certified) if not ok] == [390, 390]
    assert len({it for it, ok in zip(iterations, certified) if ok and it}) >= 3
    # trials polished at different checks equal their solo solves bit for bit
    assert len({sol.iterations for sol in batch if sol.stop == "polished"}) >= 3


def test_a_batch_needs_problems_that_agree():
    base = _lattice_problem(0)
    for other in (_lattice_problem(1, m=11), _lattice_problem(1, max_iters=100),
                  _lattice_problem(1, obj_tol=1e-6),
                  BpdnProblem(base.A, base.y, 0.0, step_ratio=1.0)):
        with pytest.raises(ValueError, match="agree"):
            solve_bpdn_batch([base, other])
    rng = np.random.default_rng(3)
    dense = [random_orthonormal_instance(rng) for _ in range(2)]
    with pytest.raises(ValueError, match="stack"):
        solve_bpdn_batch(dense)
    assert solve_bpdn_batch([]) == []


def test_lattice_solve_matches_the_dense_solve():
    for seed in range(4):
        prob = _lattice_problem(seed)
        box = make_index_set("box", d=1, M=12)
        A = basis_matrix(fourier_system(1), box, prob.A._points[0])
        dense = solve_bpdn(BpdnProblem(A, prob.y, 0.0, step_ratio=prob.step_ratio))
        fast = solve_bpdn(prob)
        assert dense.certified and fast.certified
        assert fast.iterations == dense.iterations
        assert np.linalg.norm(fast.z - dense.z) <= 1e-12 * np.linalg.norm(dense.z)



# ---------------------------------------------------------------------------
# support polishing


def _unit_instance(seed, complex_data, eta, m=50, N=120, s=4):
    """An s-sparse recovery scaled to ||y|| = 1, the solver's own units, with
    noise of 0.3 times the radius before the scaling; returns the problem
    and the scaled true coefficients."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, N)) / np.sqrt(m)
    x = np.zeros(N)
    x[rng.choice(N, s, replace=False)] = rng.choice([-1.0, 1.0], s) * rng.uniform(1.0, 2.0, s)
    if complex_data:
        A = A + 1j * rng.normal(size=(m, N)) / np.sqrt(m)
        x = x * np.exp(2j * np.pi * rng.random(N))
    noise = rng.normal(size=m)
    y = A @ x + 0.3 * eta * np.sqrt(m) * noise / np.linalg.norm(noise)
    scale = np.linalg.norm(y)
    return BpdnProblem(A, y / scale, eta=eta, step_ratio=0.0625), x / scale


def _certifies(prob, z, w):
    """The solver's certificate on dense products, restated: z feasible
    within feas_tol, and its gap to the dual value of w / max(1,
    |A^H w|_inf) at most obj_tol * max(1, ||z||_1)."""
    rho = prob.radius
    residual = np.linalg.norm(prob.A @ z - prob.y)
    objective = np.abs(z).sum()
    value = -np.real(np.vdot(w, prob.y)) - rho * np.linalg.norm(w)
    gap = objective - value / max(1.0, np.abs(prob.A.conj().T @ w).max())
    return residual <= rho + prob.effective_feas_tol and gap <= prob.obj_tol * max(1.0, objective)


_POLISHED = [(False, 0.0), (True, 0.0), (False, 1e-3)]  # (complex data, eta)


@pytest.mark.parametrize("complex_data, eta", _POLISHED)
def test_a_polished_point_solves_the_restricted_conditions(complex_data, eta, monkeypatch):
    for seed in range(3):
        prob, x = _unit_instance(seed, complex_data, eta)
        sol = solve_bpdn(prob)
        assert sol.certified and sol.stop == "polished"
        if eta == 0:
            assert np.linalg.norm(sol.z - x) <= 1e-12 * np.linalg.norm(x)
        support = sol.z.nonzero()[0]
        A_S, z_S = prob.A[:, support], sol.z[support]
        r = A_S @ z_S - prob.y
        # A_S^H (A_S z - y) = -mu sign(z) for one mu >= 0, and |A_S z - y| = rho
        mu = -(A_S.conj().T @ r) / (z_S / np.abs(z_S))
        assert np.abs(mu - mu.real.mean()).max() <= 1e-12
        assert mu.real.mean() > 0 if eta > 0 else abs(mu.real.mean()) <= 1e-12
        assert abs(np.linalg.norm(r) - prob.radius) <= 1e-12
        # the iteration alone certifies a point within its tolerance, later
        with monkeypatch.context() as patch:
            patch.setattr(bpdn, "_polish", lambda *args: None)
            plain = solve_bpdn(prob)
        assert plain.certified and plain.stop == "gap" and plain.iterations > sol.iterations
        assert np.linalg.norm(plain.z - sol.z) <= 1e-5 * np.linalg.norm(sol.z)


@pytest.mark.parametrize("complex_data, eta", _POLISHED)
def test_the_true_support_polishes_to_a_certificate_and_one_index_less_does_not(complex_data,
                                                                               eta):
    prob, x = _unit_instance(3, complex_data, eta)
    A, w = _Dense(prob.A), np.zeros(prob.A.shape[0], dtype=prob.y.dtype)
    z_p, w_p = _polish(A, 0, x, w, prob.y, prob.radius)
    support = x.nonzero()[0]
    assert np.array_equal(z_p.nonzero()[0], support)
    # the dual pair: A_S^H w = -sign(z) on the support
    signs = z_p[support] / np.abs(z_p[support])
    assert np.abs(prob.A[:, support].conj().T @ w_p + signs).max() <= 1e-12
    assert _certifies(prob, z_p, w_p)
    for k in support:
        fewer = x.copy()
        fewer[k] = 0
        pair = _polish(A, 0, fewer, w, prob.y, prob.radius)
        assert pair is None or not _certifies(prob, *pair)


def test_complex_data_with_a_radius_is_not_polished(monkeypatch):
    prob, x = _unit_instance(0, True, 1e-3)
    w = np.zeros(prob.A.shape[0], dtype=complex)
    assert _polish(_Dense(prob.A), 0, x, w, prob.y, prob.radius) is None
    monkeypatch.setattr(_Dense, "columns", lambda *args: pytest.fail("columns built"))
    polished = solve_bpdn(prob)
    monkeypatch.setattr(bpdn, "_polish", lambda *args: None)
    plain = solve_bpdn(prob)
    assert polished.certified and polished.stop == "gap"
    assert _same(polished, plain)


@pytest.mark.filterwarnings("error")
def test_the_polish_declines_on_an_exactly_zero_polished_entry():
    # rho = 0: y is the first column, so least squares on the first two
    # columns of the identity gives (1, 0) exactly, and 0 has no sign
    A, y = np.eye(3, 4), np.array([1.0, 0.0, 0.0])
    w = np.zeros(3)
    assert _polish(_Dense(A), 0, np.array([1.0, 1.0, 0.0, 0.0]), w, y, 0.0) is None
    # rho = 2 > 0 on the full support of the identity: r_ls = 0, |u|^2 = 4,
    # so mu = 1 exactly and the first entry 1 - mu is exactly zero
    A, y = np.eye(4), np.array([1.0, 2.0, 3.0, 4.0])
    assert _polish(_Dense(A), 0, np.ones(4), np.zeros(4), y, 2.0) is None
