"""Best-term widths and related reference quantities.

These are the quantities recovery errors get compared against: best s-term
errors in plain and weighted sequence norms, the Stechkin bound that links
l^p quasi-norms to l1 tails, and approximation numbers of diagonal operators
between weighted l2 spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .classes import (
    SOBOLEV_MIXED,
    WIENER_MIXED,
    CoefficientExpansion,
    FunctionClass,
    _sequence_norm,
    _weighted_moduli,
)

POWER = "power"
GEOMETRIC = "geometric"


def _moduli(x) -> np.ndarray:
    if isinstance(x, CoefficientExpansion):
        return np.abs(x.values_array())
    return np.abs(np.asarray(x, dtype=np.complex128).reshape(-1))


def _largest_first(values: np.ndarray) -> np.ndarray:
    """Indices ordering values descending, ties broken by lower index."""
    return np.lexsort((np.arange(values.size), -values))


def sigma_s_l1(x, s: int) -> float:
    """l1 error of the best s-term approximation: the sum of all but the
    s largest moduli."""
    if s < 0:
        raise ValueError("s must be >= 0")
    a = _moduli(x)
    if s >= a.size:
        return 0.0
    order = _largest_first(a)
    return float(a[order[s:]].sum())


def best_n_term_l2(x, n: int) -> float:
    """l2 error of the best n-term approximation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = _moduli(x)
    if n >= a.size:
        return 0.0
    order = _largest_first(a)
    return float(np.sqrt((a[order[n:]] ** 2).sum()))


def _class_best_term(klass: FunctionClass, f: CoefficientExpansion, n: int) -> float:
    """Best n-term error in the class (quasi-)norm: the norm of f without
    its n largest terms by weighted modulus."""
    a = _weighted_moduli(klass, f)
    return _sequence_norm(klass, a[_largest_first(a)[n:]])


def best_n_term_weighted(klass: FunctionClass, f: CoefficientExpansion, n: int) -> float:
    """Best n-term error in the class norm.

    The class norms are coordinatewise monotone, so keeping the n largest
    weighted moduli is exactly optimal.  Supported for the weighted-l1 and
    weighted-l2 classes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if klass.kind not in (WIENER_MIXED, SOBOLEV_MIXED):
        raise ValueError("weighted best-term errors are defined for the "
                         "weighted-l1 and weighted-l2 classes")
    return _class_best_term(klass, f, n)


def stechkin_bound(p: float, n: int, quasi_norm: float = 1.0) -> float:
    """n^(1 - 1/p) * ||x||_p, an upper bound for the best n-term l1 error
    of any sequence with the given l^p quasi-norm (0 < p <= 1)."""
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not quasi_norm >= 0:
        raise ValueError("quasi_norm must be nonnegative")
    return float(n ** (1.0 - 1.0 / p) * quasi_norm)


# ---------------------------------------------------------------------------
# diagonal operators


@dataclass(frozen=True)
class DiagonalSpec:
    """A positive non-increasing diagonal sequence gamma_j, j >= 1."""

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in (POWER, GEOMETRIC):
            raise ValueError(f"unknown diagonal kind: {self.kind!r}")
        if self.kind == POWER and not self.parameter >= 0:
            raise ValueError("power decay needs exponent >= 0")
        if self.kind == GEOMETRIC and not 0 < self.parameter <= 1:
            raise ValueError("geometric decay needs ratio in (0, 1]")

    def values(self, h: int) -> np.ndarray:
        j = np.arange(1, h + 1, dtype=float)
        if self.kind == POWER:
            return j**-self.parameter
        return self.parameter ** (j - 1.0)


def power_decay(r: float) -> DiagonalSpec:
    return DiagonalSpec(POWER, float(r))


def geometric_decay(ratio: float) -> DiagonalSpec:
    return DiagonalSpec(GEOMETRIC, float(ratio))


def pietsch_diag_an(
    diag: Union[DiagonalSpec, np.ndarray],
    n: int,
    h_max: int = 10_000,
) -> Tuple[float, bool]:
    """n-th approximation number of the diagonal operator gamma between a
    weighted l2 space and l2:

        a_n = sup_{h >= n} sqrt((h - n + 1) / sum_{j <= h} gamma_j^(-2)).

    The supremum is searched over h in [n, h_max].  The second return value
    flags whether the maximum sat at the cutoff h_max, in which case the
    search range was too small to certify the supremum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(diag, DiagonalSpec):
        gamma = diag.values(h_max)
        # fast geometric decay underflows to exact zero; the supremum can
        # never sit that far out, so the search range is safely truncated
        nonpos = np.nonzero(gamma <= 0.0)[0]
        if nonpos.size:
            gamma = gamma[: nonpos[0]]
    else:
        gamma = np.asarray(diag, dtype=float).reshape(-1)
        h_max = gamma.size
        if not np.isfinite(gamma).all():
            raise ValueError("diagonal values must be finite")
        if np.any(gamma <= 0):
            raise ValueError("diagonal values must be positive")
    if gamma.size < n:
        raise ValueError("need at least n diagonal values")
    if np.any(np.diff(gamma) > 0):
        raise ValueError("diagonal values must be non-increasing")
    with np.errstate(over="ignore"):
        inv_sq = gamma**-2.0
    S = np.cumsum(inv_sq)[n - 1 :]
    counts = np.arange(1, S.size + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        vals = np.sqrt(counts / S)
    vals = np.nan_to_num(vals, nan=0.0)
    best = int(np.argmax(vals))
    return float(vals[best]), bool(best == S.size - 1)


# ---------------------------------------------------------------------------
# two-step best-term bound

_RTOL = 1e-12  # relative rounding slack of the product bound


@dataclass(frozen=True)
class ProductBoundResult:
    lhs: float
    factor1: float
    factor2: float
    holds: bool

    @property
    def bound(self) -> float:
        return self.factor1 * self.factor2


def product_bound_check(
    f: CoefficientExpansion,
    n1: int,
    n2: int,
    intermediate_class: FunctionClass,
    target_class: Optional[FunctionClass] = None,
) -> ProductBoundResult:
    """Check the two-step best-term inequality on a concrete function:

        e(n1 + n2; f, target) <= e(n1; f, intermediate)
                                 * e(n2; residual / factor1, target)

    where e(n; g, norm) is the best n-term error of g in that norm and the
    residual is f minus its best n1-term part in the intermediate norm.
    The target norm is plain l2 when no target class is given.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("term counts must be >= 0")

    def target_error(g: CoefficientExpansion, n: int) -> float:
        if target_class is None:
            return best_n_term_l2(g, n)
        return _class_best_term(target_class, g, n)

    a = _weighted_moduli(intermediate_class, f)
    dropped = _largest_first(a)[n1:]
    factor1 = _sequence_norm(intermediate_class, a[dropped])
    lhs = target_error(f, n1 + n2)
    if factor1 == 0.0:
        return ProductBoundResult(lhs, 0.0, 0.0, holds=lhs <= _RTOL)
    items = f.items()
    residual = {items[i][0]: (1.0 / factor1) * items[i][1] for i in dropped}
    factor2 = target_error(CoefficientExpansion(f.system, residual), n2)
    bound = factor1 * factor2
    return ProductBoundResult(lhs, factor1, factor2, holds=lhs <= bound * (1 + _RTOL))
