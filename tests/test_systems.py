import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1sample import (
    SamplePlan,
    System,
    basis_matrix,
    chebyshev_system,
    draw_points,
    fourier_system,
    gram_matrix,
    legendre_preconditioned_system,
    legendre_raw_system,
    make_index_set,
)

from l1sample import systems
from l1sample.systems import FourierTables, LatticeFourier, _point_array

from util import arcsine_cdf, chebyshev_value, ks_statistic, legendre_value, uniform_cdf

SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# descriptors


def test_system_validation():
    with pytest.raises(ValueError):
        System("nope")
    with pytest.raises(ValueError):
        System("fourier", 0)
    with pytest.raises(ValueError):
        System("chebyshev", 2)
    assert fourier_system(3).dim == 3


# ---------------------------------------------------------------------------
# index sets


def test_box_cardinalities():
    assert len(make_index_set("box", d=2, M=3)) == 7**2
    assert len(make_index_set("box", d=3, M=1)) == 27


def test_degrees_and_membership():
    J = make_index_set("degrees", M=5)
    assert len(J) == 6
    assert J.at([0, 5]).tolist() == [0, 5]
    B = make_index_set("box", d=2, M=2)
    assert len(B) == 25
    assert B.at([0, 24]).tolist() == [[-2, -2], [2, 2]]


def test_degree_ranges_are_univariate():
    # a degree range is the search set of a polynomial system, which is
    # univariate, so d != 1 raises as it does for System
    assert make_index_set("degrees", d=1, M=3) == make_index_set("degrees", M=3)
    for d in (2, 3):
        with pytest.raises(ValueError, match="univariate"):
            make_index_set("degrees", d=d, M=3)


def test_indices_shapes_and_tuples():
    B = make_index_set("box", d=2, M=1)
    arr = B.indices()
    assert arr.shape == (9, 2)
    D = make_index_set("degrees", M=3)
    assert D.indices().tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("index_set", [
    make_index_set("box", d=1, M=3), make_index_set("box", d=2, M=2),
    make_index_set("box", d=3, M=3), make_index_set("degrees", M=6),
])
def test_index_set_at_names_positions_in_row_major_order(index_set):
    if index_set.kind == "degrees":
        expected = np.arange(index_set.M + 1)
    else:
        R = index_set.half_width
        expected = np.array(list(itertools.product(range(-R, R + 1), repeat=index_set.d)))
    assert np.array_equal(index_set.indices(), expected)
    positions = np.array([len(index_set) - 1, 0, 1, 1])
    assert np.array_equal(index_set.at(positions), expected[positions])
    assert index_set.at(np.array([], dtype=int)).shape == (0,) + expected.shape[1:]


def test_make_index_set_validation():
    with pytest.raises(ValueError):
        make_index_set("diamond", d=1, M=1)
    with pytest.raises(ValueError, match="unknown index-set kind"):
        make_index_set("search_box", d=1, M=1)
    with pytest.raises(ValueError):
        make_index_set("box", d=0, M=1)
    with pytest.raises(ValueError):
        make_index_set("box", d=1, M=0)


# ---------------------------------------------------------------------------
# basis evaluation


def test_fourier_matrix_values():
    sys_ = fourier_system(1)
    x = np.array([0.0, 0.25, 1 / 3, 0.9])
    A = basis_matrix(sys_, [(-1,), (0,), (2,)], x)
    expected = np.exp(2j * np.pi * np.outer(x, [-1, 0, 2]))
    assert np.abs(A - expected).max() < 1e-14
    assert np.abs(A).max() <= 1.0  # clamped, never above by even one ulp


def test_fourier_tensor_factorization():
    sys_ = fourier_system(2)
    pts = np.array([[0.1, 0.7], [0.35, 0.2]])
    A = basis_matrix(sys_, [(1, -2), (0, 3)], pts)
    for j, k in enumerate([(1, -2), (0, 3)]):
        expected = np.exp(2j * np.pi * (pts[:, 0] * k[0] + pts[:, 1] * k[1]))
        assert np.abs(A[:, j] - expected).max() < 1e-14


def test_chebyshev_matrix_against_closed_forms():
    sys_ = chebyshev_system()
    x = np.linspace(-1, 1, 41)
    A = basis_matrix(sys_, list(range(7)), x)
    assert np.abs(A[:, 0] - 1.0).max() == 0.0
    for n in range(1, 7):
        expected = SQRT2 * chebyshev_value(n, x)
        assert np.abs(A[:, n] - expected).max() < 1e-13


def test_chebyshev_frozen_value():
    # degree 2 at x=0: sqrt(2) * cos(2 * arccos 0) = -sqrt(2)
    val = basis_matrix(chebyshev_system(), [2], [0.0])[0, 0]
    assert val == -SQRT2


def test_legendre_raw_against_closed_forms():
    sys_ = legendre_raw_system()
    x = np.linspace(-1, 1, 41)
    A = basis_matrix(sys_, list(range(7)), x)
    for n in range(7):
        expected = np.sqrt(n + 0.5) * legendre_value(n, x)
        assert np.abs(A[:, n] - expected).max() < 1e-13


def test_legendre_preconditioned_is_weighted_raw():
    x = np.linspace(-0.99, 0.99, 31)
    raw = basis_matrix(legendre_raw_system(), list(range(9)), x)
    pre = basis_matrix(legendre_preconditioned_system(), list(range(9)), x)
    w = np.sqrt(np.pi) * (1.0 - x**2) ** 0.25
    assert np.abs(pre - raw * w[:, None]).max() < 1e-13


def test_legendre_preconditioned_frozen_value():
    # degree 0 at x=0: sqrt(pi) * sqrt(1/2) = sqrt(pi/2)
    val = basis_matrix(legendre_preconditioned_system(), [0], [0.0])[0, 0]
    assert abs(val - 1.2533141373155003) < 5e-16


def test_fourier_points_are_reduced_like_np_mod():
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
        rng.integers(-3, 4, 100).astype(float),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
         np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)],
    ])
    reduced = _point_array(fourier_system(1), x)[:, 0]
    assert np.array_equal(reduced.view(np.int64), np.mod(x, 1.0).view(np.int64))


@pytest.mark.parametrize("system, indices, points", [
    (fourier_system(1), [(-2,), (0,), (5,)], np.linspace(0.0, 0.9, 7)),
    (fourier_system(2), [(1, -2), (0, 3), (4, 4)], np.random.default_rng(0).random((7, 2))),
    (chebyshev_system(), [0, 2, 5], np.linspace(-1.0, 1.0, 7)),
    (legendre_preconditioned_system(), [0, 2, 5], np.linspace(-1.0, 1.0, 7)),
    (legendre_raw_system(), [0, 2, 5], np.linspace(-1.0, 1.0, 7)),
])
def test_basis_matrix_is_c_contiguous(system, indices, points):
    # the solver's forward product gathers the support's columns row by row
    A = basis_matrix(system, indices, points)
    assert A.shape == (7, 3)
    assert A.flags.c_contiguous


def test_index_arrays_are_read_by_the_key_rule():
    # as System.key: an integral float is its integer, any other non-integer
    # raises, and degrees may come as 1-tuples
    x = np.linspace(0.0, 0.9, 5)
    with pytest.raises(ValueError):
        basis_matrix(fourier_system(1), [0.5], x)
    with pytest.raises(ValueError):
        basis_matrix(chebyshev_system(), [1.5, 2.0], 2 * x - 1)
    with pytest.raises(ValueError):
        gram_matrix(fourier_system(2), [(0, 1), (0.5, 1)])
    assert np.array_equal(basis_matrix(fourier_system(1), [2.0, -1.0], x),
                          basis_matrix(fourier_system(1), [2, -1], x))
    t = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(basis_matrix(chebyshev_system(), [(3,), (0,)], t),
                          basis_matrix(chebyshev_system(), [3, 0], t))


# ---------------------------------------------------------------------------
# point sampling


def test_draw_points_ranges_and_reproducibility():
    pts = draw_points(fourier_system(2), 500, SamplePlan(seed=1))
    assert pts.shape == (500, 2)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    again = draw_points(fourier_system(2), 500, SamplePlan(seed=1))
    assert np.array_equal(pts, again)
    other = draw_points(fourier_system(2), 500, SamplePlan(seed=2))
    assert not np.array_equal(pts, other)


def test_draw_points_interval_uniform():
    pts = draw_points(legendre_raw_system(), 20_000, SamplePlan(seed=3))
    assert pts.min() >= -1.0 and pts.max() <= 1.0
    assert ks_statistic(pts, uniform_cdf(-1.0, 1.0)) < 0.02


def test_draw_points_arcsine():
    pts = draw_points(chebyshev_system(), 20_000, SamplePlan(seed=4))
    assert pts.min() >= -1.0 and pts.max() <= 1.0
    assert ks_statistic(pts, arcsine_cdf) < 0.02
    # the arcsine density piles mass near the endpoints
    assert np.mean(np.abs(pts) > 0.9) > 0.25


def test_grid_plan_lands_on_lattice():
    D = 16
    plan = SamplePlan(seed=5, mode="grid", grid_size=D)
    pts = draw_points(fourier_system(1), 300, plan)
    scaled = pts * (2 * D + 1)
    assert np.abs(scaled - np.round(scaled)).max() < 1e-12
    assert pts.min() >= 0.0 and pts.max() < 1.0


def test_grid_plan_needs_size():
    with pytest.raises(ValueError):
        SamplePlan(seed=0, mode="grid")
    with pytest.raises(ValueError):
        SamplePlan(seed=0, mode="nope")


# ---------------------------------------------------------------------------
# gram matrices


@pytest.mark.parametrize(
    "system,indices",
    [
        (fourier_system(1), make_index_set("box", d=1, M=4)),
        (fourier_system(2), make_index_set("box", d=2, M=2)),
        (chebyshev_system(), make_index_set("degrees", M=8)),
        (legendre_preconditioned_system(), make_index_set("degrees", M=8)),
        (legendre_raw_system(), make_index_set("degrees", M=8)),
    ],
)
def test_gram_identity(system, indices):
    G = gram_matrix(system, indices)
    assert np.abs(G - np.eye(len(indices))).max() < 1e-10


# ---------------------------------------------------------------------------
# properties


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=-50, max_value=50),
    x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_fourier_modulus_never_exceeds_one(k, x):
    val = basis_matrix(fourier_system(1), [(k,)], [x])[0, 0]
    assert abs(val) <= 1.0


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=100),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_chebyshev_bound_holds(n, x):
    val = basis_matrix(chebyshev_system(), [n], [x])[0, 0]
    assert abs(val) <= SQRT2 + 1e-12


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=100),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_preconditioned_legendre_bound_holds(n, x):
    val = basis_matrix(legendre_preconditioned_system(), [n], [x])[0, 0]
    assert abs(val) <= 4.0 * np.sqrt(np.pi) + 1e-9


# ---------------------------------------------------------------------------
# fast Chebyshev products


def _fold_points(rng, m, N):
    """m points in [-1, 1], the first ones on or near the ends: x = 1 and
    x = -1 centre the kernel on theta = 0 and theta = pi, and three angles
    within a few cells of each end (cells of pi / M, M <= 2.5 max(N, 8)
    grid points) put it across the fold there."""
    near = np.pi * np.array([0.5, 3.0, 7.0]) / (4 * max(N, 8))
    theta = np.concatenate(([0.0, np.pi], near, np.pi - near, np.pi * rng.random(m)))
    return np.cos(theta[:m])


# (53, 544): the smallest 5-smooth length >= 2N is odd (1125), and the grid
# takes the even 1152
@pytest.mark.parametrize("m, N", [(1, 1), (3, 2), (6, 97), (50, 300), (53, 544), (1616, 17377)])
@pytest.mark.parametrize("complex_data", [False, True])
def test_chebyshev_transform_matches_the_dense_products(m, N, complex_data):
    rng = np.random.default_rng(m + N)
    x = _fold_points(rng, m, N)
    A = basis_matrix(chebyshev_system(), np.arange(N), x)
    T = FourierTables.chebyshev(x, N).fast
    w, v = rng.normal(size=m), rng.normal(size=N)
    sparse = np.zeros(N)
    sparse[rng.choice(N, min(N, 3), replace=False)] = 1.0
    if complex_data:
        w = w + 1j * rng.normal(size=m)
        v = v + 1j * rng.normal(size=N)
        sparse = sparse * (0.6 - 0.8j)
    for got, want in ((T.adjoint(w[None])[0], w @ A), (T.forward(v[None])[0], A @ v),
                      (T.forward(sparse[None])[0], A @ sparse)):
        assert got.shape == want.shape
        assert np.iscomplexobj(got) == complex_data
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


# the products are each other's transpose: a permutation or fold error in
# one of them alone shows here
@pytest.mark.parametrize("m, N", [(331, 3073), (1616, 17377)])
@pytest.mark.parametrize("complex_data", [False, True])
def test_chebyshev_transform_products_are_transposes(m, N, complex_data):
    rng = np.random.default_rng(m + N + 2)
    T = FourierTables.chebyshev(_fold_points(rng, m, N), N).fast
    V, W = rng.normal(size=(2, N)), rng.normal(size=(2, m))
    if complex_data:
        V, W = V + 1j * rng.normal(size=(2, N)), W + 1j * rng.normal(size=(2, m))
    AV, AtW = T.forward(V), T.adjoint(W)
    for t in range(2):
        left, right = AV[t] @ W[t], V[t] @ AtW[t]
        assert abs(left - right) <= 1e-12 * np.linalg.norm(AV[t]) * np.linalg.norm(W[t])


def test_chebyshev_transform_validation():
    with pytest.raises(ValueError):
        FourierTables.chebyshev([0.5], 0)
    with pytest.raises(ValueError):
        FourierTables.chebyshev([1.5], 4)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            FourierTables.chebyshev([0.1, bad], 8)
    for empty in ([], np.empty(0)):
        with pytest.raises(ValueError, match="at least one sample point"):
            FourierTables.chebyshev(empty, 5)


@pytest.mark.parametrize("system, indices, points", [
    (chebyshev_system(), [1], [0.1, np.nan]),
    (legendre_raw_system(), [1], [0.1, np.inf]),
    (fourier_system(2), [(0, 1)], [[0.1, np.nan]]),
])
def test_non_finite_points_are_rejected(system, indices, points):
    with pytest.raises(ValueError, match="finite"):
        basis_matrix(system, indices, points)


# (m, N): the transform's cases, a single block (N < B = 256), whole blocks
# (N a multiple of B) and a last block of one degree
@pytest.mark.parametrize("m, N", [(1, 1), (3, 2), (6, 97), (50, 300), (1616, 17377),
                                  (20, 255), (30, 768), (20, 257)])
@pytest.mark.parametrize("complex_data", [False, True])
def test_chebyshev_matrix_matches_the_dense_products(m, N, complex_data):
    rng = np.random.default_rng(m + N + 1)
    x = np.cos(np.pi * rng.random(m))
    x[:2] = [1.0, -1.0][:m]
    A = basis_matrix(chebyshev_system(), np.arange(N), x)
    op = FourierTables.chebyshev(x, N)
    assert op.shape == (m, N) and op.dtype == np.float64
    w = rng.normal(size=m) + (1j * rng.normal(size=m) if complex_data else 0)
    cases = [(op.adjoint(w[None])[0], w @ A)]
    # empty, sparse and full supports, and one step of the gather and a column more
    step = systems._FORWARD_COLUMNS
    for size in sorted({0, min(5, N), min(step, N), min(step + 1, N), N}):
        v = _random_vector(rng, N, size, complex_data)
        cases += [(op.forward(v[None])[0], A @ v), (op @ v, A @ v)]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.iscomplexobj(got) == complex_data
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
    # the tables keep one half each, and nbytes counts the transform's arrays
    B = min(N, 256)
    tables = (-(-N // B) + B) * m * 16
    transform = sum(a.nbytes for a in vars(op.fast).values() if isinstance(a, np.ndarray))
    assert op._left.nbytes + op._right.nbytes == tables
    assert op.nbytes == tables + op._scale.nbytes + op._points.nbytes + transform


# ---------------------------------------------------------------------------
# lattice Fourier products


def _lattice_instance(rng, d, D, m):
    """Lattice points g / q with repeats, and the box's dense matrix."""
    q = 2 * D + 1
    points = rng.integers(0, q, size=(m, d)) / q
    points[1:3] = points[0]  # a point of multiplicity at least three
    box = make_index_set("box", d=d, M=D) if D else np.zeros((1, d), dtype=int)
    return points, basis_matrix(fourier_system(d), box, points)


# (d, D, m): the q = 1 edge (N = 1), small boxes, and the phase table's size
@pytest.mark.parametrize("d, D, m", [(1, 0, 3), (1, 1, 5), (1, 128, 160),
                                     (2, 0, 4), (2, 2, 30), (2, 4, 60)])
def test_lattice_fourier_matches_the_dense_products(d, D, m):
    rng = np.random.default_rng(100 * d + D + m)
    points, A = _lattice_instance(rng, d, D, m)
    N = A.shape[1]
    op = LatticeFourier(points, D)
    assert op.shape == (m, N) and op.dtype == np.complex128
    w = rng.normal(size=m) + 1j * rng.normal(size=m)
    full = rng.normal(size=N) + 1j * rng.normal(size=N)
    sparse = np.zeros(N, dtype=complex)
    sparse[rng.choice(N, min(N, 3), replace=False)] = 0.6 - 0.8j
    cases = [(op.adjoint(w[None])[0], A.conj().T @ w)]
    for v in (full, sparse):
        cases += [(op.forward(v[None])[0], A @ v), (op @ v, A @ v)]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(op @ np.zeros(N), np.zeros(m))
    # A A^H = N [x_l = x_l'], so the norm is exact
    assert op.norms()[0] == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


def test_lattice_fourier_stacks_trials_row_by_row():
    rng = np.random.default_rng(7)
    ops = [LatticeFourier(_lattice_instance(rng, 2, 2, 12)[0], 2) for _ in range(3)]
    stack = LatticeFourier.stack(ops)
    X = rng.normal(size=(3, 25)) + 1j * rng.normal(size=(3, 25))
    W = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
    for t, op in enumerate(ops):
        assert np.array_equal(stack.forward(X)[t], op.forward(X[t:t + 1])[0])
        assert np.array_equal(stack.adjoint(W)[t], op.adjoint(W[t:t + 1])[0])
        assert stack.norms()[t] == op.norms()[0]
    kept = stack.take(np.array([2, 0]))
    assert np.array_equal(kept.forward(X[[2, 0]]), stack.forward(X)[[2, 0]])
    assert np.array_equal(kept.adjoint(W[[2, 0]]), stack.adjoint(W)[[2, 0]])


def test_lattice_fourier_validation():
    with pytest.raises(ValueError, match="lattice"):
        LatticeFourier([0.0, 0.5], 1)  # 0.5 is not a multiple of 1/3
    with pytest.raises(ValueError, match="lattice"):
        LatticeFourier([1 / 3 + 1e-12], 1)  # off by more than rounding
    with pytest.raises(ValueError, match="finite"):
        LatticeFourier([0.0, np.nan], 1)
    with pytest.raises(ValueError):
        LatticeFourier([0.0], -1)
    for empty in ([], np.empty((0, 1)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="at least one sample point"):
            LatticeFourier(empty, 2)
    one, two = LatticeFourier([0.0, 1 / 3], 1), LatticeFourier([[0.0, 0.2]], 2)
    with pytest.raises(ValueError):
        LatticeFourier.stack([one, two])
    with pytest.raises(ValueError, match="one trial"):
        LatticeFourier.stack([one, one]) @ np.ones(3)



# ---------------------------------------------------------------------------
# Fourier products from per-axis tables


def _random_vector(rng, N, size, complex_data):
    """A vector with ``size`` random nonzeros."""
    v = np.zeros(N, dtype=complex if complex_data else float)
    support = rng.choice(N, size, replace=False)
    v[support] = rng.normal(size=size)
    if complex_data:
        v[support] += 1j * rng.normal(size=size)
    return v


# (d, D, m): N = 1; d = 1 with whole blocks (q = 9: B = P = 3) and with a last
# block past N (q = 11: B = 4, P = 3); torus2d-fit's 250 x 3721; d = 3, whose
# axes split into groups of P = 5 and Q = 25 columns
@pytest.mark.parametrize("d, D, m", [(1, 0, 3), (1, 4, 9), (1, 5, 12), (1, 40, 60),
                                     (2, 0, 4), (2, 3, 20), (2, 30, 250), (3, 2, 30)])
@pytest.mark.parametrize("lattice", [False, True])
@pytest.mark.parametrize("complex_data", [False, True])
def test_fourier_tables_match_the_dense_products(d, D, m, lattice, complex_data):
    rng = np.random.default_rng(100 * d + D + m + 2 * lattice + complex_data)
    q = 2 * D + 1
    points = rng.integers(0, q, size=(m, d)) / q if lattice else rng.random((m, d))
    box = make_index_set("box", d=d, M=D) if D else np.zeros((1, d), dtype=int)
    A = basis_matrix(fourier_system(d), box, points)
    N = A.shape[1]
    op = FourierTables(points, D)
    assert op.shape == (m, N) and op.dtype == np.complex128
    w = rng.normal(size=m) + (1j * rng.normal(size=m) if complex_data else 0)
    cases = [(op.adjoint(w[None])[0], A.conj().T @ w)]
    # empty, sparse and full supports, and either side of the switch from the
    # gathered rows to the GEMM
    limit = op._gather_limit
    for size in sorted({0, min(3, N), limit, limit + 1, N} - {N + 1}):
        v = _random_vector(rng, N, size, complex_data)
        cases += [(op.forward(v[None])[0], A @ v), (op @ v, A @ v)]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
    # each table once, no conjugate copy: P + Q rows of m complex numbers,
    # P Q >= N in d = 1 (B = ceil(sqrt(q)) columns per block), P Q = N in d >= 2
    B = math.isqrt(q - 1) + 1
    P, Q = (-(-q // B), B) if d == 1 else (q ** (d // 2), q ** (d - d // 2))
    assert op._left.nbytes + op._right.nbytes == (P + Q) * m * 16
    if d == 2:
        assert limit == q
    if (d, D) == (2, 30):
        assert op.nbytes < A.nbytes / 10


def test_fourier_tables_stack_trials_row_by_row():
    rng = np.random.default_rng(8)
    op = FourierTables(rng.random((40, 2)), 3)
    N = op.shape[1]
    # empty, sparse, at the switch, and full rows in one stack
    X = np.stack([_random_vector(rng, N, size, True) for size in (0, 4, 7, 8, N)])
    W = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
    forward, adjoint = op.forward(X), op.adjoint(W)
    for t in range(X.shape[0]):
        assert np.array_equal(forward[t], op.forward(X[t:t + 1])[0])
    for t in range(W.shape[0]):
        assert np.array_equal(adjoint[t], op.adjoint(W[t:t + 1])[0])


def test_fourier_tables_validation():
    with pytest.raises(ValueError, match="finite"):
        FourierTables([0.1, np.nan], 2)
    with pytest.raises(ValueError, match="finite"):
        FourierTables([[0.1, np.inf]], 2)
    with pytest.raises(ValueError):
        FourierTables([0.1], -1)
    with pytest.raises(ValueError):
        FourierTables(np.zeros((2, 2, 2)), 1)
    for empty in ([], np.empty((0, 1)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="at least one sample point"):
            FourierTables(empty, 2)
