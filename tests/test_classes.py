import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1sample import (
    CoefficientExpansion,
    FunctionClass,
    analytic_best_term_bound,
    analytic_tail_bound,
    basis_matrix,
    chebyshev_system,
    class_norm,
    default_system,
    evaluate_function,
    fourier_system,
    legendre_preconditioned_system,
    legendre_raw_system,
    make_index_set,
    poly_wiener,
    random_unit_function,
    sobolev_mixed,
    wiener_iso,
    wiener_mixed,
)
from l1sample.classes import _EVAL_CHUNK, _weights

from util import chebyshev_value, quadrature_l2_norm


# ---------------------------------------------------------------------------
# class descriptors


def test_class_validation():
    with pytest.raises(ValueError):
        FunctionClass("nope", 1.0)
    with pytest.raises(ValueError):
        wiener_mixed(0.0, 1)
    with pytest.raises(ValueError):
        wiener_mixed(1.0, 0)
    with pytest.raises(ValueError):
        wiener_iso(1.0, 1.5, 2)  # p > 1
    with pytest.raises(ValueError):
        wiener_iso(1.0, 0.0, 2)  # p = 0
    with pytest.raises(ValueError):
        sobolev_mixed(0.5, 1)  # needs r > 1/2
    with pytest.raises(ValueError):
        poly_wiener(-0.25, 1.0, 1.0)  # alpha not in {-1/2, 0}
    with pytest.raises(ValueError):
        FunctionClass("poly_wiener", 1.0, d=2, p=1.0, alpha=0.0)


def test_default_systems():
    assert default_system(wiener_mixed(1.0, 3)) == fourier_system(3)
    assert default_system(wiener_iso(1.0, 1.0, 2)) == fourier_system(2)
    assert default_system(sobolev_mixed(1.0, 2)) == fourier_system(2)
    assert default_system(poly_wiener(-0.5, 1.0, 1.0)) == chebyshev_system()
    assert default_system(poly_wiener(0.0, 1.0, 1.0)) == legendre_raw_system()


def test_index_weights():
    km = wiener_mixed(2.0, 2)
    assert _weights(km, [(1, -3)]).tolist() == [(2.0**2) * (4.0**2)]
    ki = wiener_iso(1.5, 1.0, 2)
    assert _weights(ki, [(1, -3)]).tolist() == [4.0**1.5]
    kp = poly_wiener(-0.5, 2.0, 1.0)
    assert _weights(kp, [3]).tolist() == [16.0]
    # an index reaches the weights through its system's key rule
    with pytest.raises(ValueError):
        default_system(km).key((1, 2, 3))  # wrong dimension
    with pytest.raises(ValueError):
        default_system(kp).key(-1)  # negative degree


@settings(deadline=None, max_examples=50)
@given(
    k1=st.integers(min_value=-40, max_value=40),
    k2=st.integers(min_value=-40, max_value=40),
    r=st.floats(min_value=0.25, max_value=3.0),
)
def test_weights_at_least_one(k1, k2, r):
    for klass in (wiener_mixed(r, 2), wiener_iso(r, 1.0, 2)):
        assert _weights(klass, [(k1, k2)])[0] >= 1.0


@settings(deadline=None, max_examples=50)
@given(
    k=st.integers(min_value=0, max_value=40),
    r=st.floats(min_value=0.25, max_value=3.0),
)
def test_weights_monotone_in_degree(k, r):
    w_k, w_next = _weights(poly_wiener(0.0, r, 1.0), [k, k + 1])
    assert w_next > w_k >= 1.0


# ---------------------------------------------------------------------------
# expansions


def test_expansion_key_handling():
    f = CoefficientExpansion(fourier_system(2), {(0, 1): 1.0, (2, -1): 2j})
    assert f.support() == [(0, 1), (2, -1)]
    assert f.coefficients == {(0, 1): 1.0, (2, -1): 2j}
    # one key rule, System.key: an int, a 1-tuple, a numpy int, an integral
    # float and a row of an index set's indices() name the same index in
    # d = 1 and for degrees
    for system, J in ((fourier_system(1), make_index_set("box", 1, 3)),
                      (chebyshev_system(), make_index_set("degrees", M=3))):
        spellings = (3, (3,), np.int64(3), 3.0)
        assert {system.key(k) for k in spellings + (J.indices()[-1],)} == {system.key(3)}
        g = CoefficientExpansion(system, {3: 2.0})
        for k in spellings:  # an array row is no dict key
            assert CoefficientExpansion(system, {k: 2.0}) == g
    # a wrong-dimension key, a negative degree and a non-integer raise,
    # naming the key
    fourier1, fourier2, poly = fourier_system(1), fourier_system(2), chebyshev_system()
    for system, key in ((fourier2, (0,)), (fourier2, (1, 2, 3)), (poly, -1),
                        (fourier2, (1.5, 0)), (fourier1, 2.7), (poly, (1, 2)),
                        (poly, 2.5), (poly, np.inf), (poly, "3")):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            CoefficientExpansion(system, {key: 1.0})
    # a polynomial expansion's JSON keeps each degree as a one-entry list
    g = CoefficientExpansion(chebyshev_system(), {0: 1.0, np.int64(4): 0.5 - 2j})
    obj = json.loads(json.dumps(g.to_json()))
    assert [idx for idx, _, _ in obj["entries"]] == [[0], [4]]


def test_expansion_norms_and_scaling():
    f = CoefficientExpansion(chebyshev_system(), {0: 3.0, 1: 4.0})
    klass = poly_wiener(-0.5, 1.0, 1.0)
    assert class_norm(klass, f) == 11.0
    g = f.scaled(2.0)
    assert g.coefficients == {0: 6.0, 1: 8.0}
    assert class_norm(klass, g) == 22.0
    assert len(g) == 2


# ---------------------------------------------------------------------------
# norms


def test_class_norms_match_hand_computation():
    f = CoefficientExpansion(fourier_system(1), {(0,): 1.0, (1,): -0.5, (3,): 2.0})
    # weights 1, 2, 4
    assert class_norm(wiener_mixed(1.0, 1), f) == 1.0 + 1.0 + 8.0
    assert class_norm(sobolev_mixed(1.0, 1), f) == np.sqrt(1 + 1 + 64.0)
    g = CoefficientExpansion(chebyshev_system(), {0: 1.0, 1: 1.0})
    # p = 1/2 quasi-norm: (sum sqrt(w|c|))^2 with weights 1, 2
    expected = (1.0 + np.sqrt(2.0)) ** 2
    assert abs(class_norm(poly_wiener(-0.5, 1.0, 0.5), g) - expected) < 1e-14


@settings(deadline=None, max_examples=40)
@given(
    c=st.floats(min_value=0.01, max_value=100.0),
    p=st.sampled_from([0.5, 0.75, 1.0]),
)
def test_class_norm_homogeneous(c, p):
    klass = poly_wiener(-0.5, 1.0, p)
    f = CoefficientExpansion(chebyshev_system(), {0: 0.3, 2: -1.2, 5: 0.7})
    assert np.isclose(
        class_norm(klass, f.scaled(c)), c * class_norm(klass, f), rtol=1e-12
    )


def test_random_unit_function_is_unit_norm():
    for klass in (
        wiener_mixed(1.0, 2),
        sobolev_mixed(1.0, 2),
        wiener_iso(1.0, 0.5, 2),
        poly_wiener(-0.5, 1.0, 0.5),
        poly_wiener(0.0, 2.0, 1.0),
    ):
        if klass.kind == "poly_wiener":
            J = make_index_set("degrees", M=20)
        else:
            J = make_index_set("box", d=2, M=4)
        f = random_unit_function(klass, J, sparsity=5, seed=7)
        assert len(f) == 5
        assert abs(class_norm(klass, f) - 1.0) < 1e-12


def test_random_unit_function_real_for_polynomials():
    klass = poly_wiener(-0.5, 1.0, 1.0)
    f = random_unit_function(klass, make_index_set("degrees", M=10), sparsity=4, seed=1)
    assert all(v.imag == 0.0 for v in f.coefficients.values())


def test_random_unit_function_seeded():
    klass = wiener_mixed(1.0, 1)
    J = make_index_set("box", d=1, M=10)
    f1 = random_unit_function(klass, J, sparsity=3, seed=5)
    f2 = random_unit_function(klass, J, sparsity=3, seed=5)
    f3 = random_unit_function(klass, J, sparsity=3, seed=6)
    assert f1 == f2
    assert f1 != f3


def test_head_placement_takes_smallest_weights():
    klass = poly_wiener(-0.5, 1.0, 0.5)
    J = make_index_set("degrees", M=50)
    f = random_unit_function(klass, J, sparsity=4, seed=0, placement="head")
    assert f.support() == [0, 1, 2, 3]
    klass2 = wiener_mixed(1.0, 1)
    B = make_index_set("box", d=1, M=10)
    g = random_unit_function(klass2, B, sparsity=3, seed=0, placement="head")
    # weights (1+|k|): the three smallest are k = -1, 0, 1 (0 has weight 1)
    assert g.support() == [(-1,), (0,), (1,)]
    with pytest.raises(ValueError):
        random_unit_function(klass, J, sparsity=2, placement="middle")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_fourier_expansion():
    f = CoefficientExpansion(fourier_system(1), {(1,): 1.0, (-1,): 1.0})
    x = np.array([0.0, 0.25, 0.4])
    vals = evaluate_function(f, x)
    assert np.abs(vals - 2.0 * np.cos(2 * np.pi * x)).max() < 1e-14


def test_evaluate_chebyshev_expansion():
    f = CoefficientExpansion(chebyshev_system(), {0: 0.5, 3: 2.0})
    x = np.linspace(-1, 1, 11)
    expected = 0.5 + 2.0 * np.sqrt(2.0) * chebyshev_value(3, x)
    assert np.abs(evaluate_function(f, x) - expected).max() < 1e-13


def test_evaluate_scalar_and_empty():
    f = CoefficientExpansion(fourier_system(1), {(2,): 1j})
    out = evaluate_function(f, 0.25)
    assert isinstance(out, complex)
    empty = CoefficientExpansion(fourier_system(1), {})
    assert evaluate_function(empty, 0.3) == 0j


@pytest.mark.parametrize("system, points", [
    (fourier_system(1), [0.1, np.nan]),
    (fourier_system(2), np.zeros((3, 3))),
    (chebyshev_system(), [0.0, 1.5]),
])
def test_evaluate_empty_expansion_still_checks_points(system, points):
    with pytest.raises(ValueError):
        evaluate_function(CoefficientExpansion(system, {}), points)


# ---------------------------------------------------------------------------
# Fourier synthesis from per-axis power tables


def _synthesis_bound(f: CoefficientExpansion) -> float:
    """The error bound of systems._fourier_synthesis: (24 (max |k|_1 + d)
    + 2 K) eps sum |c_k|, eps = 2^-53, for K terms."""
    idx, values = f.support_array(), f.values_array()
    norm1 = int(np.abs(idx).sum(axis=1).max())
    return (24 * (norm1 + idx.shape[1]) + 2 * len(values)) * 2.0**-53 * np.abs(values).sum()


def _random_expansion(indices, seed: int) -> CoefficientExpansion:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    keys = [tuple(int(v) for v in np.atleast_1d(k)) for k in indices]
    return CoefficientExpansion(fourier_system(len(keys[0])), dict(zip(keys, values)))


def _assert_matches_dense(f: CoefficientExpansion, points) -> None:
    # the dense formula's own error grows like the tables', so the two may
    # differ by twice the bound
    dense = basis_matrix(f.system, f.support_array(), points) @ f.values_array()
    vals = evaluate_function(f, points)
    assert vals.shape == dense.shape
    assert np.abs(vals - dense).max() <= 2 * _synthesis_bound(f)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_synthesis_matches_the_dense_matrix(d):
    rng = np.random.default_rng(80 + d)
    indices = np.unique(rng.integers(-40, 41, size=(25, d)), axis=0)
    f = _random_expansion(indices, 81 + d)
    _assert_matches_dense(f, rng.random((500, d)))


@pytest.mark.parametrize("indices", [
    [(0,)],
    [(-7,)],
    [(5,)],
    [(-3,), (0,), (4,)],
    [(-1000,), (-1,), (999,), (1000,)],
    [(0, 0)],
    [(-5, 0), (0, -5), (-2, -3)],
    [(3, -1000), (-1000, 1000), (7, 8), (0, 0)],
    [(-1, 0, 1), (1000, -2, 0), (0, 0, -999)],
    [(1024,), (-1023,), (5,)],  # past two digits of base 32
    [(10**6, -3), (-999_999, 10**5), (1, 1)],
])
def test_synthesis_of_zero_negative_mixed_and_large_indices(indices):
    d = len(indices[0])
    f = _random_expansion(indices, len(indices))
    _assert_matches_dense(f, np.random.default_rng(d).random((300, d)))


def test_synthesis_at_points_outside_the_cube_and_on_a_lattice():
    f = _random_expansion([(-4, 2), (0, 3), (5, -5), (1, 0)], 7)
    rng = np.random.default_rng(8)
    x = rng.random((200, 2))
    shifted = x + rng.integers(-5, 6, size=x.shape)
    _assert_matches_dense(f, shifted)
    assert np.abs(evaluate_function(f, shifted) - evaluate_function(f, x)).max() <= (
        2 * _synthesis_bound(f))
    q = 11
    grid = np.stack(np.meshgrid(np.arange(q), np.arange(q), indexing="ij"), axis=-1)
    _assert_matches_dense(f, grid.reshape(-1, 2) / q)
    # at the origin every factor is exactly 1
    assert abs(evaluate_function(f, (0.0, 0.0)) - f.values_array().sum()) <= 1e-15


def test_synthesis_at_a_scalar_point_and_of_the_empty_expansion():
    f = _random_expansion([(-4, 2), (0, 3)], 9)
    value = evaluate_function(f, (0.3, -0.45))
    assert isinstance(value, complex)
    assert value == evaluate_function(f, np.array([[0.3, -0.45]]))[0]
    g = _random_expansion([(2,), (-3,)], 10)
    assert evaluate_function(g, 0.7) == evaluate_function(g, [0.7])[0]
    empty = CoefficientExpansion(fourier_system(2), {})
    assert evaluate_function(empty, (0.1, 0.2)) == 0j
    out = evaluate_function(empty, np.zeros((5, 2)))
    assert out.shape == (5,) and not out.any()


@pytest.mark.parametrize("count", [1, _EVAL_CHUNK, _EVAL_CHUNK + 1, 3 * _EVAL_CHUNK + 17])
def test_synthesis_over_one_and_several_blocks(count):
    f = _random_expansion([(-6, 1), (2, 30), (0, 0), (-29, -7)], count)
    _assert_matches_dense(f, np.random.default_rng(count).random((count, 2)))


@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.sets(st.tuples(*[st.integers(-300, 300)] * d), min_size=1, max_size=6),
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * d), min_size=1, max_size=20),
    )),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_synthesis_matches_the_dense_matrix_anywhere(case, seed):
    indices, points = case
    _assert_matches_dense(_random_expansion(sorted(indices), seed), np.array(points))


def _long_double_values(idx: np.ndarray, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_k c_k exp(2 pi i <k, x>) in long double from the turns k_a x_a
    mod 1.  x_a splits at 2^-26, so each part's product with |k_a| < 2^26 is
    exact for x_a >= 1/2 and within 2^-53 turns below it."""
    high = np.floor(pts * 2.0**26) / 2.0**26
    turns = np.zeros((pts.shape[0], idx.shape[0]), dtype=np.longdouble)
    for part in (high, pts - high):
        for a in range(pts.shape[1]):
            turns += np.multiply.outer(part[:, a], idx[:, a].astype(float)) % 1
    phase = 8 * np.arctan(np.longdouble(1)) * (turns % 1)
    return ((np.cos(phase) + 1j * np.sin(phase)) * values).sum(axis=1)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("largest", [1000, 10**6])
def test_synthesis_is_no_less_accurate_than_the_direct_exponential(d, largest):
    rng = np.random.default_rng(90 + d)
    f = _random_expansion(np.unique(rng.integers(-largest, largest + 1, size=(30, d)), axis=0), d)
    idx, values = f.support_array(), f.values_array()
    pts = rng.random((4000, d))
    reference = _long_double_values(idx, values, pts)
    tables = np.abs(evaluate_function(f, pts) - reference).astype(float)
    direct = np.abs(basis_matrix(f.system, idx, pts) @ values - reference).astype(float)
    assert tables.max() <= _synthesis_bound(f)
    assert np.sqrt(np.mean(tables**2)) <= np.sqrt(np.mean(direct**2))


@pytest.mark.parametrize("system", [
    chebyshev_system(), legendre_preconditioned_system(), legendre_raw_system()])
def test_polynomial_values_are_the_dense_products_in_every_block(system):
    rng = np.random.default_rng(11)
    f = CoefficientExpansion(system, {int(k): complex(*rng.standard_normal(2))
                                      for k in rng.choice(60, 9, replace=False)})
    x = rng.uniform(-1.0, 1.0, 2 * _EVAL_CHUNK + 5)
    dense = basis_matrix(system, f.support_array(), x) @ f.values_array()
    assert np.array_equal(evaluate_function(f, x), dense)


# ---------------------------------------------------------------------------
# analytic bounds (derived anchors)


def test_best_term_bound_values():
    # mixed, d=1, r=1: n^(-3/2) * sqrt(log n)
    assert analytic_best_term_bound(wiener_mixed(1.0, 1), 4) == 0.125 * np.sqrt(np.log(4.0))
    # the guarded log keeps n=1 finite and positive
    assert analytic_best_term_bound(wiener_mixed(1.0, 1), 1) == np.sqrt(np.log(2.0))
    # chebyshev class, p=1, r=1: n^(-3/2), no log factor
    assert analytic_best_term_bound(poly_wiener(-0.5, 1.0, 1.0), 4) == 0.125
    # p=1/2 speeds it up to n^(-5/2)
    assert analytic_best_term_bound(poly_wiener(-0.5, 1.0, 0.5), 4) == 4.0**-2.5
    with pytest.raises(ValueError):
        analytic_best_term_bound(wiener_mixed(1.0, 1), 0)


def test_tail_bound_values():
    assert analytic_tail_bound(wiener_mixed(1.0, 1), 8) == 0.125
    assert analytic_tail_bound(poly_wiener(-0.5, 1.0, 1.0), 7) == 0.125
    # sobolev tail: positive, decreasing in M, and finite
    k = sobolev_mixed(1.0, 2)
    t4, t16 = analytic_tail_bound(k, 4), analytic_tail_bound(k, 16)
    assert 0 < t16 < t4 < np.inf
    with pytest.raises(ValueError):
        analytic_tail_bound(wiener_mixed(1.0, 1), 0)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=3, max_value=200))
def test_best_term_bound_nonincreasing(n):
    # monotone once log n exceeds the log-power/power ratio (here: n >= 3)
    klass = wiener_mixed(1.0, 2)
    assert analytic_best_term_bound(klass, n + 1) <= analytic_best_term_bound(klass, n)


# ---------------------------------------------------------------------------
# quadrature cross-checks (Parseval)


@pytest.mark.parametrize(
    "system,keys",
    [
        (fourier_system(1), {(0,): 1.0, (3,): 1j, (-2,): 0.5}),
        (fourier_system(2), {(0, 1): 1.0, (2, -1): -0.5}),
        (chebyshev_system(), {0: 1.0, 2: -0.7, 5: 0.3}),
        (legendre_raw_system(), {0: 1.0, 1: 2.0, 6: -1.0}),
        (legendre_preconditioned_system(), {0: 1.0, 4: 0.25}),
    ],
)
def test_quadrature_matches_parseval(system, keys):
    f = CoefficientExpansion(system, keys)
    assert abs(quadrature_l2_norm(f) - np.linalg.norm(f.values_array())) < 1e-12
