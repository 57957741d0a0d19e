import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1sample import (
    DiagonalSpec,
    best_n_term_l2,
    geometric_decay,
    pietsch_diag_an,
    power_decay,
    sigma_s_l1,
    stechkin_bound,
)

from util import brute_best_n_term_l2, brute_sigma_s_l1


# ---------------------------------------------------------------------------
# best-term errors against exhaustive enumeration


def _random_vectors(max_len=8, count=25, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # mix in ties and zeros to exercise the ordering rules
        if n > 2:
            v[1] = v[0]
            v[2] = 0.0
        out.append(v)
    return out


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_sigma_s_l1_matches_enumeration(s):
    for v in _random_vectors():
        assert np.isclose(sigma_s_l1(v, s), brute_sigma_s_l1(v, s), atol=1e-13)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_best_n_term_l2_matches_enumeration(n):
    for v in _random_vectors(seed=1):
        assert np.isclose(best_n_term_l2(v, n), brute_best_n_term_l2(v, n), atol=1e-13)


def test_best_term_frozen_values():
    assert best_n_term_l2((3.0, 2.0, 1.0), 1) == np.sqrt(5.0)
    assert sigma_s_l1((3.0, 2.0, 1.0), 1) == 3.0
    assert sigma_s_l1((1.0, 1.0, 1.0), 5) == 0.0
    with pytest.raises(ValueError):
        sigma_s_l1((1.0,), -1)
    with pytest.raises(ValueError):
        best_n_term_l2((1.0,), -1)


# ---------------------------------------------------------------------------
# Stechkin


def test_stechkin_frozen_values():
    assert stechkin_bound(0.5, 4) == 0.25
    assert stechkin_bound(1.0, 7) == 1.0
    assert stechkin_bound(0.5, 2, quasi_norm=3.0) == 1.5
    with pytest.raises(ValueError):
        stechkin_bound(1.5, 1)
    with pytest.raises(ValueError):
        stechkin_bound(0.5, 0)


def test_stechkin_rejects_nan_quasi_norm():
    with pytest.raises(ValueError, match="quasi_norm must be nonnegative"):
        stechkin_bound(0.5, 4, quasi_norm=float("nan"))


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([0.5, 1.0]),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stechkin_dominates_sigma(p, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(15) * 10.0 ** rng.integers(-3, 3, size=15)
    quasi = float((np.abs(v) ** p).sum() ** (1.0 / p))
    assert sigma_s_l1(v, n) <= stechkin_bound(p, n, quasi) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Pietsch approximation numbers


def test_pietsch_frozen_geometric_values():
    diag = geometric_decay(0.5)
    a1, cut1 = pietsch_diag_an(diag, 1)
    a2, cut2 = pietsch_diag_an(diag, 2)
    assert a1 == 1.0 and not cut1
    assert a2 == 0.4472135954999579 and not cut2  # sqrt(1/5)
    assert a2 == np.sqrt(1.0 / 5.0)


def test_pietsch_explicit_array_matches_spec_object():
    gamma = geometric_decay(0.5).values(600)
    a_spec, _ = pietsch_diag_an(geometric_decay(0.5), 3)
    a_arr, _ = pietsch_diag_an(gamma, 3)
    assert np.isclose(a_spec, a_arr, rtol=1e-14)


def test_pietsch_validation():
    with pytest.raises(ValueError):
        pietsch_diag_an(np.array([1.0, -1.0]), 1)
    with pytest.raises(ValueError):
        pietsch_diag_an(np.array([1.0, 2.0]), 1)  # increasing
    with pytest.raises(ValueError):
        pietsch_diag_an(np.array([1.0]), 2)  # too short
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            pietsch_diag_an(np.array([1.0, bad, 0.5]), 1)
    with pytest.raises(ValueError, match="finite"):
        pietsch_diag_an(np.array([np.inf, 1.0, 0.5]), 1)
    with pytest.raises(ValueError):
        pietsch_diag_an(geometric_decay(0.5), 0)
    with pytest.raises(ValueError):
        DiagonalSpec("nope", 1.0)
    with pytest.raises(ValueError):
        geometric_decay(1.5)


def test_power_decay_rejects_nan():
    with pytest.raises(ValueError, match="power decay needs exponent >= 0"):
        power_decay(float("nan"))


def test_pietsch_monotone_in_n():
    diag = power_decay(1.0)
    vals = [pietsch_diag_an(diag, n)[0] for n in range(1, 30)]
    assert all(b <= a * (1 + 1e-14) for a, b in zip(vals, vals[1:]))


def test_pietsch_power_decay_lower_bound():
    # a_n * n^r stays bounded away from zero for gamma_j = j^(-r)
    for r in (0.5, 1.0):
        diag = power_decay(r)
        products = []
        for n in range(1, 65):
            a_n, at_cut = pietsch_diag_an(diag, n)
            assert not at_cut
            products.append(a_n * n**r)
        assert min(products) >= 0.5


def test_pietsch_cutoff_flag():
    # constant diagonal, n = 3: (h-2)/h increases with h, so the maximum
    # sits at the end of the search range and the flag must say so
    a, at_cut = pietsch_diag_an(np.ones(50), 3)
    assert at_cut
    assert np.isclose(a, np.sqrt(48.0 / 50.0))


def test_pietsch_brute_force_cross_check():
    # direct evaluation of the defining sup on a small explicit diagonal
    gamma = np.array([1.0, 0.8, 0.5, 0.5, 0.25, 0.125, 0.1, 0.05])
    for n in (1, 2, 3):
        expected = 0.0
        for h in range(n, len(gamma) + 1):
            expected = max(
                expected,
                np.sqrt((h - n + 1) / np.sum(gamma[:h] ** -2.0)),
            )
        got, _ = pietsch_diag_an(gamma, n)
        assert np.isclose(got, expected, rtol=1e-14)
