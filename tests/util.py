"""Independent brute-force oracles and closed forms used by the tests.

Everything here is deliberately naive (exhaustive enumeration, textbook
closed forms) so that failures point at the library, not at the test helper.
"""

from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss

from l1sample.classes import evaluate_function
from l1sample.systems import FOURIER, LEGENDRE_RAW


# ---------------------------------------------------------------------------
# exhaustive best-term errors


def brute_sigma_s_l1(values, s: int) -> float:
    """min over all index sets S with |S| <= s of  sum_{i not in S} |v_i|."""
    a = np.abs(np.asarray(values, dtype=np.complex128).reshape(-1))
    n = a.size
    if s >= n:
        return 0.0
    best = np.inf
    for keep in combinations(range(n), s):
        rest = a.sum() - a[list(keep)].sum()
        best = min(best, rest)
    return float(best)


def brute_best_n_term_l2(values, n_terms: int) -> float:
    """min over all index sets S with |S| <= n of  l2 norm outside S."""
    a = np.abs(np.asarray(values, dtype=np.complex128).reshape(-1))
    n = a.size
    if n_terms >= n:
        return 0.0
    sq = a**2
    best = np.inf
    for keep in combinations(range(n), n_terms):
        rest = sq.sum() - sq[list(keep)].sum()
        best = min(best, rest)
    return float(np.sqrt(max(best, 0.0)))


# ---------------------------------------------------------------------------
# classical orthogonal polynomials, hardcoded low degrees


def chebyshev_value(n: int, x):
    """cos(n arccos x) via the explicit polynomial forms, n <= 6."""
    x = np.asarray(x, dtype=float)
    forms = {
        0: lambda t: np.ones_like(t),
        1: lambda t: t,
        2: lambda t: 2 * t**2 - 1,
        3: lambda t: 4 * t**3 - 3 * t,
        4: lambda t: 8 * t**4 - 8 * t**2 + 1,
        5: lambda t: 16 * t**5 - 20 * t**3 + 5 * t,
        6: lambda t: 32 * t**6 - 48 * t**4 + 18 * t**2 - 1,
    }
    return forms[n](x)


def legendre_value(n: int, x):
    """Legendre P_n with the standard normalization P_n(1) = 1, n <= 6."""
    x = np.asarray(x, dtype=float)
    forms = {
        0: lambda t: np.ones_like(t),
        1: lambda t: t,
        2: lambda t: (3 * t**2 - 1) / 2,
        3: lambda t: (5 * t**3 - 3 * t) / 2,
        4: lambda t: (35 * t**4 - 30 * t**2 + 3) / 8,
        5: lambda t: (63 * t**5 - 70 * t**3 + 15 * t) / 8,
        6: lambda t: (231 * t**6 - 315 * t**4 + 105 * t**2 - 5) / 16,
    }
    return forms[n](x)


# ---------------------------------------------------------------------------
# distribution checks


def arcsine_cdf(x):
    """CDF of the arcsine (Chebyshev) measure on [-1, 1]."""
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    return (2.0 / np.pi) * np.arcsin(np.sqrt((x + 1.0) / 2.0))


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between the empirical CDF and cdf."""
    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = x.size
    F = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def uniform_cdf(lo: float, hi: float):
    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    return cdf


# ---------------------------------------------------------------------------
# slow-but-sure de la Vallee Poussin reference


def reference_dlvp_coeff(n: int, m: int, k: int) -> float:
    """Filter weight by its defining three cases."""
    a = abs(k)
    if a <= n - m:
        return 1.0
    if a <= n + m:
        return (n + m + 1 - a) / (2 * m + 1)
    return 0.0


# ---------------------------------------------------------------------------
# quadrature norms (cross-checks for Parseval identities)


def quadrature_l2_norm(f) -> float:
    """L2 norm of the expansion in the system's orthogonality measure,
    computed by quadrature rather than through Parseval: for order n (the
    largest absolute frequency component or degree), 2n + 1 nodes per torus
    axis, 2n + 8 Gauss nodes for ``legendre_raw`` and 4n + 64 for the
    arcsine-measure systems."""
    kind = f.system.kind
    order = int(np.abs(f.support_array()).max()) if f.coefficients else 0
    if kind == FOURIER:
        nodes = 2 * order + 1
        axes = [np.arange(nodes) / nodes] * f.system.dim
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(grid, axis=-1).reshape(-1, f.system.dim)
        vals = evaluate_function(f, pts)
        return float(np.sqrt(np.mean(np.abs(vals) ** 2)))
    if kind == LEGENDRE_RAW:
        nodes = 2 * order + 8
        x, w = leggauss(nodes)
        vals = evaluate_function(f, x)
        return float(np.sqrt(np.sum(w * np.abs(vals) ** 2)))
    # arcsine-measure systems: substitute x = cos(pi*theta); the pushforward
    # of the uniform theta-measure is exactly the arcsine measure
    nodes = 4 * order + 64
    t, w = leggauss(nodes)
    theta = 0.5 * (t + 1.0)
    x = np.cos(np.pi * theta)
    vals = evaluate_function(f, x)
    return float(np.sqrt(np.sum(0.5 * w * np.abs(vals) ** 2)))
