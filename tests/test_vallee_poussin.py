"""Tests for the trapezoidal frequency filters and their kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sample.classes import CoefficientExpansion, evaluate_function
from l1sample.systems import chebyshev_system, fourier_system
from l1sample.vallee_poussin import (
    DlvpSpec,
    apply_quasi_projection,
    chebyshev_lift,
    dlvp_coeff,
    kernel_l1_norm,
    kernel_values,
)

from util import reference_dlvp_coeff


# ---------------------------------------------------------------------------
# filter coefficients


@pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 5), (8, 4)])
def test_coeff_matches_reference(n, m):
    for k in range(-(n + m + 3), n + m + 4):
        assert dlvp_coeff(n, m, k) == reference_dlvp_coeff(n, m, k)


def test_coeff_is_the_three_cases_bit_for_bit():
    for n in range(21):
        for m in range(n + 1):
            for k in range(-(n + m + 5), n + m + 6):
                assert dlvp_coeff(n, m, k).hex() == reference_dlvp_coeff(n, m, k).hex()


def test_coeff_validation():
    with pytest.raises(ValueError):
        dlvp_coeff(2, 3, 0)
    with pytest.raises(ValueError):
        dlvp_coeff(2, -1, 0)
    # an index is read by System.key: 5.9 is no frequency, 2.0 is 2
    with pytest.raises(ValueError, match="5.9"):
        DlvpSpec.tensor(1, 2).coeff(5.9)
    with pytest.raises(ValueError, match="1.5"):
        dlvp_coeff(2, 1, 1.5)
    assert dlvp_coeff(2, 1, 2.0) == dlvp_coeff(2, 1, 2)
    assert DlvpSpec.tensor(2, 1).coeff((2.0, -5)) == DlvpSpec.tensor(2, 1).coeff((2, 5))


def test_coeff_frozen_values():
    # ramp value for (n, m) = (2, 1) at |k| = 2: (2 + 1 + 1 - 2) / 3
    assert dlvp_coeff(2, 1, 2) == 2.0 / 3.0
    assert dlvp_coeff(2, 1, -2) == 2.0 / 3.0
    # tensor pair for d = 2, M = 1 is (n, m) = (3, 2); at k = (2, 5) the
    # axis factors are 4/5 and 1/5
    assert DlvpSpec.tensor(2, 1).coeff((2, 5)) == (4.0 / 5.0) * (1.0 / 5.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    m=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=-100, max_value=100),
)
def test_coeff_shape_properties(n, m, k):
    if m > n:
        n, m = m, n
    a = dlvp_coeff(n, m, k)
    assert 0.0 <= a <= 1.0
    assert a == dlvp_coeff(n, m, -k)
    if abs(k) <= n - m:
        assert a == 1.0
    if abs(k) > n + m:
        assert a == 0.0
    if n - m < abs(k) <= n + m:
        assert 0.0 < a < 1.0


# ---------------------------------------------------------------------------
# filter specs


def test_spec_validation():
    with pytest.raises(ValueError):
        DlvpSpec(2, 3)
    with pytest.raises(ValueError):
        DlvpSpec(2, -1)
    with pytest.raises(ValueError):
        DlvpSpec(2, 1, 0)
    with pytest.raises(ValueError):
        DlvpSpec.tensor(2, 0)


def test_tensor_spec_parameters():
    spec = DlvpSpec.tensor(3, 8)
    assert (spec.n, spec.m, spec.d) == (32, 24, 3)
    assert spec.support_radius == 56
    uni = DlvpSpec.univariate(4, 2)
    assert (uni.n, uni.m, uni.d) == (4, 2, 1)


def test_l1_norm_bound_formula_and_uniform_constant():
    assert DlvpSpec(4, 2).l1_norm_bound() == 9.0 / 5.0
    assert DlvpSpec(6, 4, 2).l1_norm_bound() == (13.0 / 9.0) ** 2
    # the tensor pair keeps the closed-form bound below e for every d, M
    for d in range(1, 7):
        for M in range(1, 9):
            assert DlvpSpec.tensor(d, M).l1_norm_bound() <= np.e


def test_coeff_dimension_mismatch():
    spec = DlvpSpec.tensor(2, 1)
    with pytest.raises(ValueError):
        spec.coeff((1, 2, 3))
    with pytest.raises(ValueError):
        spec.coeff(1)


# ---------------------------------------------------------------------------
# quasi-projection on expansions


def test_quasi_projection_fixed_point():
    spec = DlvpSpec.tensor(2, 3)
    f = CoefficientExpansion(
        fourier_system(2),
        {(0, 0): 1.5, (3, -3): 2j, (-1, 2): 0.25 - 1j},
    )
    g = apply_quasi_projection(spec, f)
    assert g.coefficients == f.coefficients
    assert g.system == f.system


def test_quasi_projection_ramp_and_cutoff():
    spec = DlvpSpec.univariate(2, 1)
    f = CoefficientExpansion(
        fourier_system(1), {(1,): 1.0, (2,): 3.0, (3,): 5.0, (4,): 7.0}
    )
    g = apply_quasi_projection(spec, f)
    # degree 1 reproduced, 2 and 3 scaled by the ramp, 4 dropped
    assert g.coefficients == {(1,): 1.0, (2,): (2.0 / 3.0) * 3.0, (3,): (1.0 / 3.0) * 5.0}
    assert len(g.support()) <= len(f.support())


def test_quasi_projection_rejects_wrong_input():
    spec = DlvpSpec.univariate(2, 1)
    cheb = CoefficientExpansion(chebyshev_system(), {0: 1.0})
    with pytest.raises(ValueError):
        apply_quasi_projection(spec, cheb)
    f2 = CoefficientExpansion(fourier_system(2), {(0, 0): 1.0})
    with pytest.raises(ValueError):
        apply_quasi_projection(spec, f2)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_values_direct_sum():
    spec = DlvpSpec.univariate(2, 1)
    x = np.array([0.0, 0.1, 0.37, 0.5])
    expected = (
        1.0
        + 2.0 * np.cos(2 * np.pi * x)
        + 2.0 * (2.0 / 3.0) * np.cos(4 * np.pi * x)
        + 2.0 * (1.0 / 3.0) * np.cos(6 * np.pi * x)
    )
    assert np.abs(kernel_values(spec, x) - expected).max() < 1e-12
    # the (0, 0) filter keeps only the constant: K = 1
    assert kernel_values(DlvpSpec(0, 0), x).tolist() == [1.0] * 4
    # a multi-dimensional x keeps its shape, at every radius
    assert kernel_values(DlvpSpec(2, 1), np.zeros((2, 3))).shape == (2, 3)
    grid = np.linspace(0.0, 0.5, 6).reshape(2, 3)
    for other in (spec, DlvpSpec(0, 0)):
        values = kernel_values(other, grid)
        assert values.shape == (2, 3)
        assert np.array_equal(values.reshape(-1), kernel_values(other, grid.reshape(-1)))


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (4, 2), (8, 4), (5, 5)])
def test_kernel_peak_and_mean(n, m):
    spec = DlvpSpec.univariate(n, m)
    # K(0) = sum of all filter coefficients = 2n + 1
    assert abs(kernel_values(spec, 0.0)[0] - (2 * n + 1)) < 1e-10
    # the mean over one period is the zero coefficient, exactly 1
    t = np.arange(1024) / 1024.0
    assert abs(np.mean(kernel_values(spec, t)) - 1.0) < 1e-12


def test_fejer_kernel_nonnegative_unit_mass():
    spec = DlvpSpec.univariate(6, 6)
    t = np.arange(4096) / 4096.0
    assert kernel_values(spec, t).min() > -1e-10
    assert abs(kernel_l1_norm(spec) - 1.0) < 1e-10


def test_partial_sum_kernel_mass_exceeds_one():
    # m = 0 is the raw partial sum; its kernel changes sign and the Lebesgue
    # constant is strictly larger than 1
    spec = DlvpSpec.univariate(4, 0)
    norm = kernel_l1_norm(spec)
    assert norm > 1.2
    assert norm <= spec.l1_norm_bound()


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (8, 4)])
def test_kernel_mass_within_closed_form_bound(n, m):
    spec = DlvpSpec.univariate(n, m)
    assert kernel_l1_norm(spec) <= spec.l1_norm_bound() + 1e-9


def test_tensor_kernel_mass_below_e():
    spec = DlvpSpec.tensor(2, 2)
    norm = kernel_l1_norm(spec)
    assert norm <= np.e + 1e-3
    # tensor norm is the d-th power of the univariate norm
    uni = kernel_l1_norm(DlvpSpec(spec.n, spec.m, 1))
    assert abs(norm - uni**2) < 1e-12


# ---------------------------------------------------------------------------
# cosine <-> exponential coefficient maps


def test_lift_frozen_single_mode():
    f = CoefficientExpansion(chebyshev_system(), {1: 1.0})
    g = chebyshev_lift(f)
    assert g.system == fourier_system(1)
    assert g.coefficients == {(1,): 1.0 / np.sqrt(2.0), (-1,): 1.0 / np.sqrt(2.0)}


def test_lift_constant_term_unchanged():
    f = CoefficientExpansion(chebyshev_system(), {0: 2.5})
    g = chebyshev_lift(f)
    assert g.coefficients == {(0,): 2.5}


def test_lift_preserves_l2_norm_and_round_trips():
    rng = np.random.default_rng(7)
    coeffs = {int(n): float(v) for n, v in zip([0, 1, 3, 7], rng.normal(size=4))}
    f = CoefficientExpansion(chebyshev_system(), coeffs)
    g = chebyshev_lift(f)
    fro = sum(abs(v) ** 2 for v in f.coefficients.values())
    lifted = sum(abs(v) ** 2 for v in g.coefficients.values())
    assert abs(fro - lifted) < 1e-14
    # degree n maps to the frequencies +-n with beta_n / sqrt(2), and 0 to 0,
    # so the lift is read back term by term
    assert set(g.coefficients) == {(0,)} | {(s * n,) for n in (1, 3, 7) for s in (1, -1)}
    assert g.coefficients[(0,)] == f.coefficients[0]
    for n in (1, 3, 7):
        assert g.coefficients[(n,)] == g.coefficients[(-n,)] == f.coefficients[n] / np.sqrt(2.0)


def test_lift_matches_change_of_variables():
    # evaluating the Chebyshev expansion at cos(2 pi t) must agree with
    # evaluating its lift at t
    rng = np.random.default_rng(11)
    f = CoefficientExpansion(
        chebyshev_system(), {0: 0.5, 2: float(rng.normal()), 5: float(rng.normal())}
    )
    g = chebyshev_lift(f)
    t = np.linspace(0.0, 1.0, 41)
    cheb_vals = evaluate_function(f, np.cos(2 * np.pi * t))
    four_vals = evaluate_function(g, t)
    assert np.abs(cheb_vals - four_vals).max() < 1e-12


def test_lift_rejects_wrong_systems():
    with pytest.raises(ValueError):
        chebyshev_lift(CoefficientExpansion(fourier_system(1), {(0,): 1.0}))
