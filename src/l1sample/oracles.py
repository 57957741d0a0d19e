"""Best-term widths and related reference quantities.

These are the quantities recovery errors get compared against: best s-term
errors in plain sequence norms, the Stechkin bound that links l^p
quasi-norms to l1 tails, and approximation numbers of diagonal operators
between weighted l2 spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

POWER = "power"
GEOMETRIC = "geometric"


def _moduli(x) -> np.ndarray:
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
