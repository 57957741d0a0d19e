"""Trapezoidal frequency filters and their kernels.

The univariate filter with parameters n >= m >= 0 multiplies the k-th
Fourier coefficient by

    a_k = 1                               |k| <= n - m,
    a_k = (n + m + 1 - |k|) / (2m + 1)    n - m < |k| <= n + m,
    a_k = 0                               otherwise,

so it reproduces trigonometric polynomials of degree n - m and cuts off at
degree n + m.  m = 0 gives the raw Fourier partial sum, m = n the Fejer
mean.  Multivariate filters are coordinatewise products; the standard
tensor pair for a box of radius M in d dimensions is
(n, m) = ((d+1)M, dM), whose kernel has L1 norm below e uniformly in d
and M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import CoefficientExpansion
from .systems import CHEBYSHEV, FOURIER, fourier_system


def dlvp_coeff(n: int, m: int, k: int) -> float:
    """Univariate filter coefficient a_k for parameters (n, m), k an integer."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    a = abs(fourier_system(1).key(k)[0])
    if a <= n - m:
        return 1.0
    if a <= n + m:
        return (n + m + 1 - a) / (2 * m + 1)
    return 0.0


@dataclass(frozen=True)
class DlvpSpec:
    """A coordinatewise product of d copies of the (n, m) filter."""

    n: int
    m: int
    d: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @staticmethod
    def univariate(n: int, m: int) -> "DlvpSpec":
        return DlvpSpec(n, m, 1)

    @staticmethod
    def tensor(d: int, M: int) -> "DlvpSpec":
        """The pair (n, m) = ((d+1)M, dM) reproducing the box of radius M."""
        if M < 1:
            raise ValueError("M must be >= 1")
        return DlvpSpec((d + 1) * M, d * M, d)

    @property
    def support_radius(self) -> int:
        """Largest per-axis frequency the filter passes."""
        return self.n + self.m

    def coeff(self, k) -> float:
        """The product of the per-axis coefficients at k, a key of the d-torus."""
        out = 1.0
        for comp in fourier_system(self.d).key(k):
            out *= dlvp_coeff(self.n, self.m, comp)
            if out == 0.0:
                return 0.0
        return out

    def l1_norm_bound(self) -> float:
        """Closed-form bound ((2n+1)/(2m+1))^d for the kernel's L1 norm."""
        return ((2 * self.n + 1) / (2 * self.m + 1)) ** self.d


def apply_quasi_projection(spec: DlvpSpec, f: CoefficientExpansion) -> CoefficientExpansion:
    """Multiply each Fourier coefficient by its filter value.

    Indices with filter value 0 are dropped; coefficients in the
    reproduction region are kept bitwise, with no float multiply.
    """
    if f.system.kind != FOURIER:
        raise ValueError("the frequency filter acts on Fourier expansions")
    if f.system.dim != spec.d:
        raise ValueError("filter dimension does not match the expansion")
    out = {}
    for key, value in f.coefficients.items():
        a = spec.coeff(key)
        if a == 0.0:
            continue
        out[key] = value if a == 1.0 else a * value
    return CoefficientExpansion(f.system, out)


def kernel_values(spec: DlvpSpec, x) -> np.ndarray:
    """Univariate kernel K(x) = 1 + 2 sum_k a_k cos(2 pi k x)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    freqs = np.arange(1, spec.support_radius + 1)
    if freqs.size == 0:
        return np.ones_like(xs)
    a = np.array([dlvp_coeff(spec.n, spec.m, k) for k in freqs])
    return 1.0 + 2.0 * np.cos(2.0 * np.pi * np.outer(xs, freqs)) @ a


def kernel_l1_norm(spec: DlvpSpec) -> float:
    """L1([0,1)^d) norm of the convolution kernel.

    Computed as the d-th power of the univariate norm; the univariate
    integral of |K| uses the periodic trapezoid rule on 32 nodes per kernel
    degree, plus one.
    """
    nodes = 32 * spec.support_radius + 1
    t = np.arange(nodes) / nodes
    univariate = float(np.mean(np.abs(kernel_values(spec, t))))
    return univariate**spec.d


# ---------------------------------------------------------------------------
# cosine -> exponential coefficient map


def chebyshev_lift(f: CoefficientExpansion) -> CoefficientExpansion:
    """Rewrite a Chebyshev expansion as a univariate Fourier expansion.

    Substituting x = cos(2 pi t) turns sqrt(2) cos(n arccos x) into
    (exp(2 pi i n t) + exp(-2 pi i n t)) / sqrt(2), so degree n maps to the
    frequency pair +-n with coefficients beta_n / sqrt(2); the constant term
    maps to frequency 0 unchanged.  The map preserves l2 norms.
    """
    if f.system.kind != CHEBYSHEV:
        raise ValueError("lift is defined for Chebyshev expansions")
    out = {}
    for deg, value in f.coefficients.items():
        if deg == 0:
            out[(0,)] = value
        else:
            half = value / np.sqrt(2.0)
            out[(deg,)] = half
            out[(-deg,)] = half
    return CoefficientExpansion(fourier_system(1), out)
