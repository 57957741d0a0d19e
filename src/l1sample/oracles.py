"""Best-term widths and related reference quantities.

These are the quantities recovery errors get compared against: best s-term
errors in plain sequence norms, the Stechkin bound that links l^p
quasi-norms to l1 tails, and approximation numbers of diagonal operators
between weighted l2 spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

POWER = "power"
GEOMETRIC = "geometric"


def _tail(x, s: int) -> np.ndarray:
    """The moduli of x past its s largest, ties broken by lower index."""
    a = np.abs(np.asarray(x, dtype=np.complex128).reshape(-1))
    return a[np.lexsort((np.arange(a.size), -a))[s:]]


def sigma_s_l1(x, s: int) -> float:
    """l1 error of the best s-term approximation: the sum of all but the
    s largest moduli."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return float(_tail(x, s).sum())


def best_n_term_l2(x, n: int) -> float:
    """l2 error of the best n-term approximation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(np.sqrt((_tail(x, n) ** 2).sum()))


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


def pietsch_diag_an(diag: DiagonalSpec, n: int, h_max: int = 10_000) -> Tuple[float, bool]:
    """n-th approximation number of the diagonal operator gamma between a
    weighted l2 space and l2:

        a_n = sup_{h >= n} sqrt((h - n + 1) / sum_{j <= h} gamma_j^(-2)).

    The diagonal is given as a ``DiagonalSpec``, and the supremum is searched
    over h in [n, h_max].  The second return value flags whether the maximum
    sat at the cutoff h_max, in which case the search range was too small to
    certify the supremum.
    """
    if not isinstance(diag, DiagonalSpec):
        raise TypeError("the diagonal must be a DiagonalSpec")
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = diag.values(h_max)
    # fast geometric decay underflows to exact zero; the supremum can never
    # sit that far out, so the search range is safely truncated
    nonpos = np.nonzero(gamma <= 0.0)[0]
    if nonpos.size:
        gamma = gamma[: nonpos[0]]
    if gamma.size < n:
        raise ValueError("need at least n diagonal values")
    with np.errstate(over="ignore"):
        S = np.cumsum(gamma**-2.0)[n - 1 :]
    counts = np.arange(1, S.size + 1, dtype=float)
    vals = np.sqrt(counts / S)
    best = int(np.argmax(vals))
    return float(vals[best]), bool(best == S.size - 1)
