"""Tests for the fit/predict estimator front end."""

import tracemalloc

import numpy as np
import pytest

from l1sample import estimator
from l1sample.classes import _EVAL_CHUNK, CoefficientExpansion, evaluate_function
from l1sample.estimator import FunctionRecovery, NotFittedError, check_sample_values
from l1sample.systems import chebyshev_system, fourier_system, legendre_raw_system


def fourier_training_data(N=7):
    f = CoefficientExpansion(fourier_system(1), {(1,): 1.0, (-2,): 0.5j})
    pts = np.arange(N) / N
    return f, pts, evaluate_function(f, pts)


# ---------------------------------------------------------------------------
# input validation helpers


def test_check_sample_values():
    vals = check_sample_values([[1.0], [2.0]], 2)
    assert vals.shape == (2,)
    with pytest.raises(ValueError):
        check_sample_values([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        check_sample_values([1.0, np.inf], 2)


# ---------------------------------------------------------------------------
# parameter protocol


def test_get_params_round_trip():
    est = FunctionRecovery(n=6, c_eta=2.0)
    params = est.get_params()
    assert params["n"] == 6
    assert params["c_eta"] == 2.0
    clone = FunctionRecovery(**params)
    assert clone.get_params() == params


def test_set_params_updates_and_rejects_unknown():
    est = FunctionRecovery()
    out = est.set_params(n=9, eta=0.5)
    assert out is est
    assert est.n == 9 and est.eta == 0.5
    for name in ("sparsity", "c_sample", "obj_tol", "max_iters", "theorem"):
        with pytest.raises(ValueError):
            est.set_params(**{name: 3})


def test_instances_compare_by_identity_stay_hashable_and_show_their_parameters():
    a, b = FunctionRecovery(n=3), FunctionRecovery(n=3)
    assert a == a and a != b
    assert len({a, b}) == 2
    a.set_params(n=5)
    assert hash(a) == hash(a) and a in {a}
    assert repr(b).startswith("FunctionRecovery(system='fourier', dim=1,")
    assert "n=3," in repr(b)


# ---------------------------------------------------------------------------
# fitting and inference


def test_fit_predict_score_on_exact_fourier_data():
    f, pts, y = fourier_training_data()
    est = FunctionRecovery(system="fourier", dim=1, M=1, eta=0.0)
    out = est.fit(pts, y)
    assert out is est
    assert est.result_.certified
    assert est.n_features_in_ == 1
    # the full lattice determines the expansion exactly
    fresh = np.linspace(0.0, 1.0, 13)
    pred = est.predict(fresh)
    truth = evaluate_function(f, fresh)
    assert np.abs(pred - truth).max() < 1e-7
    assert est.score(pts, y) > -1e-14


# (regime, system of the true expansion, points): the Fourier lattice, and
# Chebyshev nodes for the polynomial regimes, whose expansion is in the
# Chebyshev polynomials and the raw Legendre polynomials
_CHEBYSHEV_NODES = np.cos(np.pi * (np.arange(12) + 0.5) / 12)


@pytest.mark.parametrize("regime, system, pts", [
    ("fourier", fourier_system(1), np.arange(7) / 7),
    ("chebyshev", chebyshev_system(), _CHEBYSHEV_NODES),
    ("legendre_preconditioned", legendre_raw_system(), _CHEBYSHEV_NODES),
], ids=["fourier", "chebyshev", "legendre"])
def test_fitted_attributes_are_consistent(regime, system, pts):
    keys = [(1,), (-2,)] if regime == "fourier" else [0, 2]
    f = CoefficientExpansion(system, dict(zip(keys, [1.0, 0.5j])))
    y = evaluate_function(f, pts)
    est = FunctionRecovery(system=regime, M=1 if regime == "fourier" else 4, eta=0.0).fit(pts, y)
    assert est.expansion_.system == system
    assert est.coefficients_.shape == (len(est.index_set_),)
    keys = [system.key(k) for k in est.index_set_.indices()]
    vec = {k: v for k, v in zip(keys, est.coefficients_) if v != 0}
    assert vec == est.expansion_.coefficients
    features = est.transform(pts)
    assert features.shape == (len(pts), len(est.index_set_))
    recombined = features @ est.coefficients_
    assert np.abs(recombined - y).max() < 1e-7
    # transform(X) @ coefficients_ is predict(X) at any points, not only the samples
    fresh = np.linspace(-0.9, 0.9, 5)
    assert np.abs(est.transform(fresh) @ est.coefficients_ - est.predict(fresh)).max() < 1e-12


def test_auto_cutoff_uses_class_rule():
    est = FunctionRecovery(system="fourier", dim=1, class_kind="wiener_mixed",
                           r=1.0, n=16, M=None, eta=0.0)
    config = est._build_config()
    assert config.M == 64  # 16^(3/2)


def test_class_of_another_family_fails_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(estimator, "recover", no_solve)
    x = np.linspace(-0.9, 0.9, 20)
    # the default class, wiener_mixed, expands in the Fourier system
    est = FunctionRecovery(system="chebyshev", n=4)
    with pytest.raises(ValueError) as info:
        est.fit(x, np.cos(x))
    assert "samples the chebyshev system" in str(info.value)
    assert "expands in the fourier system" in str(info.value)
    # the system is a kind string; a System instance is not one
    with pytest.raises(ValueError, match="unknown system kind"):
        FunctionRecovery(system=fourier_system(2), n=4).fit(np.zeros((5, 2)), np.ones(5))


def torus2d_fit():
    """A five-term expansion in d=2, fitted from its full 11 x 11 lattice."""
    f = CoefficientExpansion(fourier_system(2), {
        (0, 0): 1.0, (1, -2): 0.5j, (-3, 1): -0.25, (2, 2): 0.3, (-1, -1): 0.2})
    grid = np.arange(11) / 11.0
    pts = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    est = FunctionRecovery(system="fourier", dim=2, M=1, eta=0.0, step_ratio=0.0625)
    est.fit(pts, evaluate_function(f, pts))
    assert len(est.expansion_) == 5
    return f, est


def test_predict_holds_no_reduced_copy_of_the_points():
    _, est = torus2d_fit()
    X = np.random.default_rng(0).random((300_000, 2))
    tracemalloc.start()
    try:
        out = est.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus one block's tables and term factors (1.4 MB measured),
    # not another points-sized array (4.8 MB here)
    assert peak <= out.nbytes + 32 * 16 * _EVAL_CHUNK
    assert np.array_equal(out, evaluate_function(est.expansion_, X))


def test_score_holds_no_reduced_copy_of_the_points():
    f, est = torus2d_fit()
    X = np.random.default_rng(0).random((300_000, 2))
    vals = evaluate_function(f, X)
    tracemalloc.start()
    try:
        score = est.score(X, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the prediction, which the residual overwrites, and the moduli (7.2 MB
    # measured), not a separate residual or another points-sized array (4.8
    # MB here)
    assert peak <= 1.6 * vals.nbytes + 32 * 16 * _EVAL_CHUNK
    assert score == float(-np.mean(np.abs(est.predict(X) - vals) ** 2))


def test_fit_rejects_bad_input():
    _, pts, y = fourier_training_data()
    est = FunctionRecovery(system="fourier", dim=1, M=1, eta=0.0)
    bad = [([], []), (np.append(pts[1:], np.nan), y), (pts, np.append(y[1:], np.inf)),
           (pts, y[1:])]
    for X, values in bad:
        with pytest.raises(ValueError):
            est.fit(X, values)


def test_predict_and_transform_check_their_points():
    f = CoefficientExpansion(fourier_system(2), {(0, 1): 1.0})
    pts = np.stack(np.meshgrid(np.arange(4) / 4, np.arange(4) / 4), axis=-1).reshape(-1, 2)
    est = FunctionRecovery(system="fourier", dim=2, M=1, eta=0.0).fit(pts, evaluate_function(f, pts))
    X = [[0.1, 0.2], [0.3, 0.4]]
    assert est.predict(X).shape == (2,)
    assert est.transform(X).shape == (2, len(est.index_set_))
    for bad in ([], [[0.1, np.nan]], [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError):
            est.predict(bad)
        with pytest.raises(ValueError):
            est.transform(bad)


def test_chebyshev_path():
    f = CoefficientExpansion(chebyshev_system(), {0: 1.0, 3: -0.5})
    pts = np.cos(np.pi * (np.arange(25) + 0.5) / 25.0)
    y = evaluate_function(f, pts)
    est = FunctionRecovery(system="chebyshev", M=2, eta=0.0, step_ratio=0.0625)
    est.fit(pts, y)
    assert est.result_.certified
    fresh = np.linspace(-0.9, 0.9, 11)
    assert np.abs(est.predict(fresh) - evaluate_function(f, fresh)).max() < 1e-6


def test_legendre_path_predicts_raw_function():
    f = CoefficientExpansion(legendre_raw_system(), {0: 0.5, 2: 1.0})
    rng = np.random.default_rng(0)
    pts = np.sin(np.pi * (rng.uniform(-0.5, 0.5, size=40)))
    y = evaluate_function(f, pts)
    est = FunctionRecovery(system="legendre_preconditioned", M=4, eta=0.0,
                           step_ratio=0.0625)
    est.fit(pts, y)
    assert est.result_.certified
    assert est.expansion_.system.kind == "legendre_raw"
    fresh = np.linspace(-0.8, 0.8, 9)
    assert np.abs(est.predict(fresh) - evaluate_function(f, fresh)).max() < 1e-6


def test_unfitted_access_raises():
    est = FunctionRecovery()
    with pytest.raises(NotFittedError):
        est.predict([0.1])
    with pytest.raises(NotFittedError):
        est.transform([0.1])
    with pytest.raises(NotFittedError):
        est.score([0.1], [1.0])
    # NotFittedError doubles as both ValueError and AttributeError
    assert issubclass(NotFittedError, ValueError)
    assert issubclass(NotFittedError, AttributeError)


def test_unknown_system_kind_raises():
    est = FunctionRecovery(system="wavelet")
    with pytest.raises(ValueError):
        est.fit([0.1], [1.0])
