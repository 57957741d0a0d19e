"""Tests for the end-to-end sample-to-expansion recovery pipeline."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from l1sample import recovery, systems
from l1sample.bpdn import BpdnProblem, solve_bpdn
from l1sample.classes import (
    CoefficientExpansion,
    class_norm,
    evaluate_function,
    poly_wiener,
    random_unit_function,
    wiener_mixed,
)
from l1sample.estimator import FunctionRecovery
from l1sample.harness import ExperimentConfig, run_rate_experiment
from l1sample.recovery import (
    CHEBYSHEV_REGIME,
    FOURIER3,
    FOURIER_GRID,
    LEGENDRE_REGIME,
    RecoveryConfig,
    build_matrix,
    choose_eta,
    default_regime,
    l2_error,
    recover,
    regime_plan,
    sample_count,
    search_set,
)
from l1sample.systems import (
    SamplePlan,
    chebyshev_system,
    draw_points,
    fourier_system,
    legendre_preconditioned_system,
    legendre_raw_system,
    make_index_set,
)
from l1sample.vallee_poussin import DlvpSpec, chebyshev_lift

from util import quadrature_l2_norm


def grid_config(M=1, n=2, **kw):
    return RecoveryConfig(
        system=fourier_system(1), theorem=FOURIER_GRID, n=n, M=M, **kw
    )


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(fourier_system(1), "lstsq", n=2, M=2)
    with pytest.raises(ValueError):
        RecoveryConfig(chebyshev_system(), FOURIER3, n=2, M=2)
    with pytest.raises(ValueError):
        RecoveryConfig(fourier_system(1), FOURIER3, n=0, M=2)
    with pytest.raises(ValueError):
        RecoveryConfig(fourier_system(1), FOURIER3, n=2, M=0)
    with pytest.raises(ValueError):
        RecoveryConfig(fourier_system(1), FOURIER3, n=2, M=2, c_sample=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(fourier_system(1), FOURIER3, n=2, M=2, eta_override=-0.1)


def test_regime_system_pairing():
    RecoveryConfig(fourier_system(2), FOURIER3, n=2, M=2)
    RecoveryConfig(chebyshev_system(), CHEBYSHEV_REGIME, n=2, M=2)
    RecoveryConfig(legendre_preconditioned_system(), LEGENDRE_REGIME, n=2, M=2)
    with pytest.raises(ValueError):
        RecoveryConfig(legendre_raw_system(), LEGENDRE_REGIME, n=2, M=2)


@pytest.mark.parametrize("field", ["c_sample", "c_eta", "eta_override"])
def test_config_rejects_nan_constants(field):
    # NaN passes "< 0" and "<= 0"; it failed later in sample_count or the solve
    with pytest.raises(ValueError, match="positive|>= 0"):
        RecoveryConfig(fourier_system(1), FOURIER3, n=2, M=2, **{field: float("nan")})


def test_config_rejects_a_class_of_another_family():
    with pytest.raises(ValueError) as info:
        RecoveryConfig(chebyshev_system(), CHEBYSHEV_REGIME, n=4, M=8,
                       klass=wiener_mixed(1.0, 1))
    assert "regime 'chebyshev' samples the chebyshev system" in str(info.value)
    assert "wiener_mixed class expands in the fourier system" in str(info.value)
    # the preconditioned and the raw Legendre families share coefficients
    RecoveryConfig(legendre_preconditioned_system(), LEGENDRE_REGIME, n=4, M=8,
                   klass=poly_wiener(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="expands in the chebyshev system"):
        RecoveryConfig(legendre_preconditioned_system(), LEGENDRE_REGIME, n=4, M=8,
                       klass=poly_wiener(-0.5, 1.0, 1.0))


def test_config_rejects_a_fourier_class_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 1, but the system has dimension 2"):
        RecoveryConfig(fourier_system(2), FOURIER3, n=2, M=2, klass=wiener_mixed(1.0, 1))
    RecoveryConfig(fourier_system(2), FOURIER3, n=2, M=2, klass=wiener_mixed(1.0, 2))


def test_default_regime_counts_the_legendre_kinds_as_one_family():
    assert default_regime(fourier_system(3)) == FOURIER3
    assert default_regime(chebyshev_system()) == CHEBYSHEV_REGIME
    assert default_regime(legendre_preconditioned_system()) == LEGENDRE_REGIME
    assert default_regime(legendre_raw_system()) == LEGENDRE_REGIME


# ---------------------------------------------------------------------------
# search sets


def test_search_sets_by_regime():
    four = search_set(RecoveryConfig(fourier_system(2), FOURIER3, n=2, M=3))
    assert four.kind == "box"
    assert len(four) == (2 * 5 * 3 + 1) ** 2
    # on the torus, the box the tensor quasi-projection maps into
    for d in (1, 2, 3):
        for theorem in (FOURIER3, FOURIER_GRID):
            J = search_set(RecoveryConfig(fourier_system(d), theorem, n=2, M=2))
            assert J == make_index_set("box", d, DlvpSpec.tensor(d, 2).support_radius)
            assert J.half_width == (2 * d + 1) * 2
    cheb = search_set(RecoveryConfig(chebyshev_system(), CHEBYSHEV_REGIME, n=2, M=4))
    assert cheb.kind == "degrees"
    assert len(cheb) == 3 * 4 + 1
    leg = search_set(
        RecoveryConfig(legendre_preconditioned_system(), LEGENDRE_REGIME, n=2, M=4)
    )
    assert len(leg) == 4 + 1


# ---------------------------------------------------------------------------
# sample budget


def test_sample_count_frozen_grid_example():
    cfg = grid_config(M=27, n=8, c_sample=2.0)
    # ceil(2 * 1 * ln 2 * 8 * (ln 8)^2 * ln 27), computed independently
    oracle = int(
        np.ceil(2.0 * 1.0 * np.log(2.0) * 8 * np.log(8.0) ** 2 * np.log(27.0))
    )
    assert oracle == 159
    assert sample_count(cfg) == 159


def test_sample_count_guards_and_linearity():
    tiny = RecoveryConfig(fourier_system(1), FOURIER3, n=1, M=1)
    assert sample_count(tiny) >= 1
    base = RecoveryConfig(fourier_system(2), FOURIER3, n=6, M=9, c_sample=1.0)
    double = RecoveryConfig(fourier_system(2), FOURIER3, n=6, M=9, c_sample=2.0)
    m1, m2 = sample_count(base), sample_count(double)
    assert 2 * m1 - 1 <= m2 <= 2 * m1


def test_sample_count_one_log_cheaper_on_the_grid():
    cont = RecoveryConfig(fourier_system(1), FOURIER3, n=16, M=16)
    grid = grid_config(M=16, n=16)
    assert sample_count(grid) < sample_count(cont)


# ---------------------------------------------------------------------------
# noise rule


def test_choose_eta_frozen_mixed_example():
    cfg = RecoveryConfig(
        fourier_system(1), FOURIER3, n=4, M=8, klass=wiener_mixed(1.0, 1)
    )
    oracle = np.e * 4.0**-1.5 * np.sqrt(np.log(4.0)) + (1.0 + np.e) / 8.0
    assert abs(choose_eta(cfg) - oracle) < 1e-15
    assert round(choose_eta(cfg), 4) == 0.8649


def test_choose_eta_override_and_errors():
    cfg = grid_config(eta_override=0.1, klass=wiener_mixed(1.0, 1))
    assert choose_eta(cfg) == 0.1
    assert choose_eta(grid_config(eta_override=0.0)) == 0.0
    with pytest.raises(ValueError):
        choose_eta(grid_config())  # Auto mode without a class


def test_choose_eta_decreases_in_n_and_M():
    def eta(n, M):
        return choose_eta(
            RecoveryConfig(
                fourier_system(1), FOURIER3, n=n, M=M, klass=wiener_mixed(1.0, 1)
            )
        )

    assert eta(4, 8) > eta(8, 8) > eta(16, 8)
    assert eta(4, 8) > eta(4, 16) > eta(4, 32)


def test_choose_eta_scales_with_constant():
    def eta(c):
        return choose_eta(
            RecoveryConfig(
                fourier_system(1), FOURIER3, n=4, M=8, klass=wiener_mixed(1.0, 1),
                c_eta=c,
            )
        )

    assert abs(eta(0.25) - 0.25 * eta(1.0)) < 1e-15


# ---------------------------------------------------------------------------
# matrix assembly and point drawing


def test_build_matrix_shape_and_bound():
    cfg = RecoveryConfig(fourier_system(1), FOURIER3, n=2, M=2)
    pts = np.linspace(0.0, 1.0, 7, endpoint=False)
    A = build_matrix(cfg, pts)
    assert A.shape == (7, len(search_set(cfg)))
    assert np.abs(A).max() <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        build_matrix(cfg, np.empty(0))


@pytest.mark.parametrize("system, theorem", [
    (fourier_system(2), FOURIER3),
    (fourier_system(1), FOURIER_GRID),
    (chebyshev_system(), CHEBYSHEV_REGIME),
    (legendre_preconditioned_system(), LEGENDRE_REGIME),
])
def test_recover_from_no_points_raises(system, theorem):
    cfg = RecoveryConfig(system, theorem, n=2, M=2, eta_override=0.1)
    points = np.empty((0, system.dim)) if system.kind == systems.FOURIER else np.empty(0)
    with pytest.raises(ValueError, match="need at least one sample point"):
        recover(np.empty(0), cfg, points)


@pytest.mark.parametrize("system, theorem", [
    (fourier_system(1), FOURIER_GRID),
    (fourier_system(2), FOURIER_GRID),
    (fourier_system(1), FOURIER3),
    (fourier_system(2), FOURIER3),
    (chebyshev_system(), CHEBYSHEV_REGIME),
    (legendre_preconditioned_system(), LEGENDRE_REGIME),
])
def test_regime_plan_draws_the_regime_points(system, theorem):
    cfg = RecoveryConfig(system, theorem, n=4, M=4)
    m = sample_count(cfg)
    pts = draw_points(cfg.system, m, regime_plan(cfg, seed=1))
    if system.kind == "fourier":
        assert pts.shape == (m, system.dim)
        assert pts.min() >= 0.0 and pts.max() < 1.0
        # the lattice (1/q){0..q-1}^d of the search box's side q
        q = 2 * search_set(cfg).half_width + 1
        on_lattice = np.abs(pts * q - np.round(pts * q)).max() < 1e-9
        assert on_lattice == (theorem == FOURIER_GRID)
    else:
        assert pts.shape == (m,)
        assert pts.min() >= -1.0 and pts.max() <= 1.0


# ---------------------------------------------------------------------------
# recovery end to end


def full_lattice(N):
    return np.arange(N) / N


def test_exact_recovery_on_full_grid():
    # noiseless, invertible: the l1 solution is the unique preimage
    cfg = grid_config(M=1, n=2, eta_override=0.0)
    J = search_set(cfg)
    N = len(J)
    f_true = CoefficientExpansion(
        fourier_system(1), {(-2,): 1.5, (1,): 1j, (3,): -0.25}
    )
    pts = full_lattice(N)
    y = evaluate_function(f_true, pts)
    result = recover(y, cfg, pts, f_true=f_true)
    assert result.certified
    assert result.samples_used == N
    assert result.l2_err <= 1e-8
    keys = {cfg.system.key(k) for k in J.indices()}
    assert set(result.expansion.coefficients) <= keys


def test_zero_samples_give_zero_reconstruction():
    cfg = grid_config(M=1, n=2, eta_override=0.0)
    pts = full_lattice(7)
    result = recover(np.zeros(7), cfg, pts)
    assert result.expansion.coefficients == {}
    assert result.certified
    assert result.solution.iterations == 0
    # an empty support names no degree either
    cfg = RecoveryConfig(chebyshev_system(), CHEBYSHEV_REGIME, n=2, M=3, eta_override=0.0)
    assert recover(np.zeros(5), cfg, np.linspace(-1.0, 1.0, 5)).expansion.coefficients == {}


def test_recovered_error_within_constant_times_eta():
    # single-spike members of the unit ball recover to within a small
    # multiple of the automatic noise level
    klass = wiener_mixed(1.0, 1)
    worst = 0.0
    for seed in range(5):
        cfg = RecoveryConfig(
            fourier_system(1), FOURIER3, n=4, M=8, klass=klass,
            c_sample=3.0, step_ratio=0.0625,
        )
        J = search_set(cfg)
        f = random_unit_function(klass, J, sparsity=1, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(0.0, 1.0, size=sample_count(cfg))
        y = evaluate_function(f, pts)
        result = recover(y, cfg, pts, f_true=f)
        assert result.certified
        worst = max(worst, result.l2_err / result.eta)
    assert worst <= 10.0


def test_noise_perturbation_moves_error_by_at_most_2_eta():
    # full-lattice rows make the columns orthogonal with a common scale, so
    # the minimizer moves by at most 2 eta when samples are perturbed by
    # noise of norm eta * sqrt(m)
    f_true = CoefficientExpansion(fourier_system(1), {(0,): 1.0, (2,): -0.5j})
    eta = 0.01
    cfg = grid_config(M=1, n=2, eta_override=eta)
    N = len(search_set(cfg))
    pts = full_lattice(N)
    y = evaluate_function(f_true, pts)
    rng = np.random.default_rng(0)
    e = rng.normal(size=N) + 1j * rng.normal(size=N)
    e *= eta * np.sqrt(N) / np.linalg.norm(e)
    result = recover(y + e, cfg, pts, f_true=f_true)
    assert result.certified
    assert result.l2_err <= 2.0 * eta + 1e-6


def test_chebyshev_recovery_allocates_well_under_one_matrix():
    # the Chebyshev products come from small tables and a fast transform;
    # no m x N matrix is built
    cfg = RecoveryConfig(chebyshev_system(), CHEBYSHEV_REGIME, n=4, M=1365,
                         eta_override=1e-3, feas_tol=1e-6, step_ratio=0.0625)
    m, N = 400, len(search_set(cfg))
    f_true = CoefficientExpansion(chebyshev_system(), {1: 1.0, 7: -0.5, 40: 0.25})
    pts = draw_points(chebyshev_system(), m, SamplePlan(seed=5))
    y = evaluate_function(f_true, pts).real
    tracemalloc.start()
    try:
        result = recover(y, cfg, pts, f_true=f_true)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.certified
    assert result.l2_err <= 1e-2
    assert peak < 8 * m * N / 4


@pytest.mark.parametrize("d, theorem", [(2, FOURIER3), (1, FOURIER_GRID)])
def test_fourier_recovery_builds_no_m_by_n_matrix(monkeypatch, d, theorem):
    # the solve runs on per-axis power tables, with the dense solve's
    # iterations and, up to rounding, its point
    cfg = RecoveryConfig(fourier_system(d), theorem, n=3, M=2, eta_override=1e-3,
                         step_ratio=0.0625)
    m, N = 40 if d == 1 else 60, len(search_set(cfg))
    keys = [(1,), (-2,), (0,)] if d == 1 else [(1, 0), (-2, 2), (0, -1)]
    f_true = CoefficientExpansion(fourier_system(d), dict(zip(keys, (1.0, 0.5j, -0.25))))
    pts = draw_points(cfg.system, m, regime_plan(cfg, 3))
    y = evaluate_function(f_true, pts)
    shapes = []
    original = systems.basis_matrix

    def recording(*args):
        A = original(*args)
        shapes.append(A.shape)
        return A

    for module in (systems, recovery):
        monkeypatch.setattr(module, "basis_matrix", recording)
    result = recover(y, cfg, pts, f_true=f_true)
    assert result.certified and result.l2_err <= 1e-2
    assert all(shape[1] < N for shape in shapes)
    A = build_matrix(cfg, pts)
    assert shapes[-1] == (m, N)  # the recording sees the dense reference
    dense = solve_bpdn(BpdnProblem(A, y, result.eta, max_iters=cfg.max_iters,
                                   step_ratio=cfg.step_ratio))
    assert result.solution.iterations == dense.iterations
    assert np.abs(result.solution.z - dense.z).max() <= 1e-9


@pytest.mark.parametrize("system, theorem, keys", [
    (fourier_system(1), FOURIER3, [(1,), (-2,), (0,)]),
    (fourier_system(2), FOURIER3, [(1, 0), (-2, 2), (0, -1)]),
    (chebyshev_system(), CHEBYSHEV_REGIME, [0, 3, 5]),
], ids=["d=1", "d=2", "degrees"])
def test_recover_names_the_keys_from_the_support_alone(monkeypatch, system, theorem, keys):
    cfg = RecoveryConfig(system, theorem, n=3, M=2, eta_override=1e-3, step_ratio=0.0625)
    f_true = CoefficientExpansion(system, dict(zip(keys, (1.0, 0.5, -0.25))))
    pts = draw_points(system, 60, regime_plan(cfg, 4))
    y = evaluate_function(f_true, pts)
    original = systems.IndexSet.indices

    def indices(index_set):
        if index_set == search_set(cfg):
            raise AssertionError("recover listed every index of the search set")
        return original(index_set)

    monkeypatch.setattr(systems.IndexSet, "indices", indices)
    result = recover(y, cfg, pts)
    monkeypatch.undo()
    # the keys the whole index array names, in d = 1 and 2 and for degrees
    z = result.solution.z
    every_key = [system.key(k) for k in search_set(cfg).indices()]
    support = z.nonzero()[0]
    assert support.size >= len(keys)
    assert result.expansion.coefficients == {every_key[i]: complex(z[i]) for i in support}


def test_front_end_settings_reach_the_solver(monkeypatch):
    problems = []
    original = recovery.solve_bpdn

    def recording(problem):
        problems.append(problem)
        return original(problem)

    monkeypatch.setattr(recovery, "solve_bpdn", recording)
    defaults = {f.name: f.default for f in fields(BpdnProblem)}
    run_rate_experiment(ExperimentConfig(
        wiener_mixed(1.0, 1), (2, 4), trials_per_n=2, c_sample=0.5, c_eta=0.1,
        feas_tol=1e-5, max_iters=300, step_ratio=0.125))
    assert len(problems) == 4
    assert all((p.feas_tol, p.max_iters, p.step_ratio, p.obj_tol)
               == (1e-5, 300, 0.125, defaults["obj_tol"]) for p in problems)
    problems.clear()
    f_true = CoefficientExpansion(fourier_system(1), {(1,): 1.0, (-2,): 0.5j})
    pts = full_lattice(7)
    FunctionRecovery(M=1, eta=0.0, step_ratio=0.5).fit(pts, evaluate_function(f_true, pts))
    [p] = problems
    assert (p.feas_tol, p.max_iters, p.step_ratio, p.obj_tol) == (
        defaults["feas_tol"], defaults["max_iters"], 0.5, defaults["obj_tol"])


def test_legendre_path_returns_raw_expansion():
    f_true = CoefficientExpansion(
        legendre_raw_system(), {0: 0.3, 2: -1.0, 5: 0.7, 7: 0.2, 8: -0.4}
    )
    cfg = RecoveryConfig(
        legendre_preconditioned_system(), LEGENDRE_REGIME, n=5, M=8,
        eta_override=0.0,
    )
    pts = draw_points(
        legendre_preconditioned_system(), 60, SamplePlan(seed=3, mode="continuous")
    )
    y = evaluate_function(f_true, pts)  # raw function values
    result = recover(y, cfg, pts, f_true=f_true)
    assert result.certified
    assert result.expansion.system.kind == "legendre_raw"
    assert result.l2_err <= 1e-6


def test_result_json_fields():
    cfg = grid_config(M=1, n=2, eta_override=0.0)
    pts = full_lattice(7)
    result = recover(np.zeros(7), cfg, pts)
    payload = result.to_json()
    for key in (
        "theorem", "eta", "samples_used", "certified", "objective",
        "residual_norm", "iterations", "stop", "duality_gap", "l2_error", "expansion",
    ):
        assert key in payload
    assert payload["theorem"] == FOURIER_GRID
    assert payload["certified"] is True
    assert payload["stop"] == "inside"


# ---------------------------------------------------------------------------
# coefficient-space error


def test_l2_error_basics():
    f = CoefficientExpansion(fourier_system(1), {(1,): 1.0})
    assert l2_error(f, f) == 0.0
    g = CoefficientExpansion(fourier_system(1), {(2,): 1.0})
    assert abs(l2_error(f, g) - np.sqrt(2.0)) < 1e-15


def test_l2_error_matches_quadrature():
    f = CoefficientExpansion(fourier_system(1), {(0,): 1.0, (3,): 2j})
    g = CoefficientExpansion(fourier_system(1), {(0,): 0.5, (-1,): 1.0})
    diff = CoefficientExpansion(
        fourier_system(1),
        {
            k: f.coefficients.get(k, 0j) - g.coefficients.get(k, 0j)
            for k in set(f.coefficients) | set(g.coefficients)
        },
    )
    assert abs(l2_error(f, g) - quadrature_l2_norm(diff)) <= 1e-8


def test_l2_error_rejects_unrelated_systems():
    # l2_error compares expansions over one system: even the raw and the
    # preconditioned Legendre families, which share coefficients, and a
    # Chebyshev expansion and its lift, which has the same l2 norm, raise
    raw = CoefficientExpansion(legendre_raw_system(), {0: 1.0, 3: -2.0})
    pre = CoefficientExpansion(legendre_preconditioned_system(), {0: 1.0, 3: -2.0})
    cheb = CoefficientExpansion(chebyshev_system(), {0: 0.5, 2: 1.0})
    f2 = CoefficientExpansion(fourier_system(2), {(0, 0): 1.0})
    f1 = CoefficientExpansion(fourier_system(1), {(0,): 1.0})
    for f, g in ((raw, pre), (cheb, chebyshev_lift(cheb)), (f2, cheb), (raw, f1)):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="cannot compare expansions over these systems"):
                l2_error(a, b)


# ---------------------------------------------------------------------------
# Legendre truncation


def test_truncation_tail_inequality():
    # a unit spike just above the cut-off: its l2 tail is 1, and the class
    # tail bound (1+M)^{-r} times the norm (2+M) is >= 1
    M = 6
    f = CoefficientExpansion(legendre_raw_system(), {M + 1: 1.0})
    klass = poly_wiener(0.0, 1.0, 1.0)
    assert abs(class_norm(klass, f) - (2.0 + M)) < 1e-12
    kept = CoefficientExpansion(f.system, {k: v for k, v in f.coefficients.items() if k <= M})
    assert kept.coefficients == {}
    tail = l2_error(f, kept)
    assert tail <= (1.0 + M) ** -1.0 * class_norm(klass, f) + 1e-12
