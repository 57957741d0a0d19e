"""Coefficient-defined smoothness classes and finite expansions.

A function class assigns every admissible index a weight >= 1 and measures
functions by a weighted sequence norm of their coefficients:

* ``wiener_mixed``: weighted l1, weight prod_j (1+|k_j|)^r.
* ``wiener_iso``: weighted l^p quasi-norm (0 < p <= 1),
  weight (1+|k|_inf)^r.
* ``sobolev_mixed``: weighted l2, same tensor weight as wiener_mixed,
  r > 1/2.
* ``poly_wiener``: weighted l^p over polynomial degrees, weight (1+n)^r;
  the ``alpha`` tag (-1/2 or 0) selects the Chebyshev or Legendre family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .systems import (
    FOURIER,
    System,
    _fourier_synthesis,
    _index_array,
    _point_array,
    _synthesis_plan,
    _torus_rows,
    basis_matrix,
    chebyshev_system,
    fourier_system,
    legendre_raw_system,
)

WIENER_MIXED = "wiener_mixed"
WIENER_ISO = "wiener_iso"
SOBOLEV_MIXED = "sobolev_mixed"
POLY_WIENER = "poly_wiener"

_CLASS_KINDS = (WIENER_MIXED, WIENER_ISO, SOBOLEV_MIXED, POLY_WIENER)

# Points per block in evaluate_function.  A Fourier block's power tables,
# rows and terms are cache-bound: a torus2d-fit predict (10 terms, |k_a| <=
# 30, d = 2, 10^6 points; median of 30 on two cores) took 0.18 / 0.15 / 0.145
# / 0.149 / 0.16 / 0.17 / 0.30 s in blocks of 1k / 2k / 4k / 8k / 16k / 32k /
# 64k points, against 0.57 s for the direct exponentials in blocks of 64k.
# Polynomial values do not depend on the block size.
_EVAL_CHUNK = 4_096


@dataclass(frozen=True)
class FunctionClass:
    kind: str
    r: float
    d: int = 1
    p: Optional[float] = None
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _CLASS_KINDS:
            raise ValueError(f"unknown class kind: {self.kind!r}")
        if not self.r > 0:
            raise ValueError("smoothness r must be positive")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind in (WIENER_ISO, POLY_WIENER):
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("need 0 < p <= 1")
        if self.kind == SOBOLEV_MIXED and not self.r > 0.5:
            raise ValueError("sobolev_mixed needs r > 1/2")
        if self.kind == POLY_WIENER:
            if self.alpha not in (-0.5, 0.0):
                raise ValueError("alpha must be -1/2 or 0")
            if self.d != 1:
                raise ValueError("poly_wiener is univariate")


def wiener_mixed(r: float, d: int) -> FunctionClass:
    return FunctionClass(WIENER_MIXED, r, d)


def wiener_iso(r: float, p: float, d: int) -> FunctionClass:
    return FunctionClass(WIENER_ISO, r, d, p=p)


def sobolev_mixed(r: float, d: int) -> FunctionClass:
    return FunctionClass(SOBOLEV_MIXED, r, d)


def poly_wiener(alpha: float, r: float, p: float) -> FunctionClass:
    return FunctionClass(POLY_WIENER, r, 1, p=p, alpha=float(alpha))


def default_system(klass: FunctionClass) -> System:
    """The orthonormal family a class's coefficients refer to."""
    if klass.kind == POLY_WIENER:
        return chebyshev_system() if klass.alpha == -0.5 else legendre_raw_system()
    return fourier_system(klass.d)


def _weights(klass: FunctionClass, idx: np.ndarray) -> np.ndarray:
    idx = np.asarray(idx)
    if klass.kind == POLY_WIENER:
        return (1.0 + idx.astype(float)) ** klass.r
    if klass.kind in (WIENER_MIXED, SOBOLEV_MIXED):
        return np.prod((1.0 + np.abs(idx)) ** klass.r, axis=1)
    return (1.0 + np.abs(idx).max(axis=1)) ** klass.r


# ---------------------------------------------------------------------------
# expansions


class CoefficientExpansion:
    """A finite complex expansion sum_k c_k b_k over one system.

    Every key given to the constructor is read by ``System.key``: a d-tuple
    of ints for Fourier systems, a nonnegative int degree for polynomial
    systems.
    """

    def __init__(self, system: System, coefficients: Mapping):
        self.system = system
        self.coefficients = {}
        for index, value in coefficients.items():
            key = system.key(index)
            if key in self.coefficients:
                raise ValueError(f"duplicate index {key!r}")
            self.coefficients[key] = complex(value)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientExpansion)
            and self.system == other.system
            and self.coefficients == other.coefficients
        )

    def items(self):
        return sorted(self.coefficients.items())

    def support(self) -> list:
        return sorted(self.coefficients.keys())

    def support_array(self) -> np.ndarray:
        keys = self.support()
        if self.system.kind == FOURIER and not keys:
            return np.zeros((0, self.system.dim), dtype=np.int64)
        return np.asarray(keys, dtype=np.int64)

    def values_array(self) -> np.ndarray:
        return np.asarray([v for _, v in self.items()], dtype=np.complex128)

    def scaled(self, factor: complex) -> "CoefficientExpansion":
        return CoefficientExpansion(
            self.system, {k: factor * v for k, v in self.coefficients.items()}
        )

    def to_json(self) -> dict:
        entries = []
        for key, value in self.items():
            idx = list(key) if isinstance(key, tuple) else [key]
            entries.append([idx, value.real, value.imag])
        return {"system": self.system.to_json(), "entries": entries}


def _sequence_norm(klass: FunctionClass, a: np.ndarray) -> float:
    """The class's l1 / l2 / l^p (quasi-)norm of already weighted moduli."""
    if klass.kind == WIENER_MIXED:
        return float(a.sum())
    if klass.kind == SOBOLEV_MIXED:
        return float(np.sqrt((a**2).sum()))
    p = klass.p
    return float((a**p).sum() ** (1.0 / p))


def _weighted_moduli(klass: FunctionClass, f: CoefficientExpansion) -> np.ndarray:
    return _weights(klass, f.support_array()) * np.abs(f.values_array())


def class_norm(klass: FunctionClass, f: CoefficientExpansion) -> float:
    """Weighted l1 / l2 / l^p (quasi-)norm of the coefficients."""
    return _sequence_norm(klass, _weighted_moduli(klass, f))


def random_unit_function(
    klass: FunctionClass,
    support,
    sparsity: Optional[int] = None,
    seed: int = 0,
    placement: str = "random",
) -> CoefficientExpansion:
    """A random member of the class's unit sphere supported on the given set.

    Coefficients are Gaussian draws divided by the index weight, then the
    whole vector is rescaled to unit class norm.  Polynomial systems use real
    Gaussians so that sample vectors stay exactly real.

    ``placement`` selects where a sparse support lands: ``"random"`` draws it
    uniformly from the given set, ``"head"`` takes the smallest-weight
    indices (ties broken toward earlier positions).  Head placement gives the
    largest-norm members the class ball has at that sparsity, which keeps
    test functions well above any noise floor; random placement spreads mass
    onto heavily down-weighted indices and can produce members with
    vanishingly small norms.
    """
    if placement not in ("random", "head"):
        raise ValueError("placement must be 'random' or 'head'")
    system = default_system(klass)
    idx = _index_array(system, support)
    N = idx.shape[0]
    if N == 0:
        raise ValueError("support must be non-empty")
    rng = np.random.default_rng(seed)
    if sparsity is not None:
        if not 1 <= sparsity <= N:
            raise ValueError("sparsity must be between 1 and the support size")
        if placement == "head":
            order = np.argsort(_weights(klass, idx), kind="stable")
            sel = np.sort(order[:sparsity])
        else:
            sel = np.sort(rng.choice(N, size=sparsity, replace=False))
        idx = idx[sel]
        N = sparsity
    if system.kind == FOURIER:
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    else:
        g = rng.standard_normal(N).astype(np.complex128)
    keys = map(tuple, idx.reshape(N, system.dim).tolist())
    values = g / _weights(klass, idx)
    f = CoefficientExpansion(system, dict(zip(keys, values)))
    norm = class_norm(klass, f)
    if norm == 0.0:
        raise ValueError("degenerate draw with zero norm")
    return f.scaled(1.0 / norm)


def evaluate_function(f: CoefficientExpansion, points):
    """Pointwise values sum_k c_k b_k(t).  Scalar in, scalar out.

    Values are computed a block of points at a time: Fourier values from
    per-axis power tables (``systems._fourier_synthesis``, whose index work
    ``systems._synthesis_plan`` does once per call), polynomial values as
    ``basis_matrix(...) @ c``.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0 or (
        f.system.kind == FOURIER and pts.ndim == 1 and f.system.dim > 1
    )
    if f.system.kind == FOURIER:
        pts = _torus_rows(pts, f.system.dim, "point")
    pts = np.atleast_1d(pts)
    vals = np.zeros(pts.shape[0], dtype=np.complex128)
    support, values = f.support_array(), f.values_array()
    if f.system.kind == FOURIER:
        plan = _synthesis_plan(support)
    for start in range(0, pts.shape[0], _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        if f.system.kind == FOURIER:
            block = _point_array(f.system, pts[start:stop])
            vals[start:stop] = _fourier_synthesis(plan, values, block)
        else:
            vals[start:stop] = basis_matrix(f.system, support, pts[start:stop]) @ values
    return complex(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# analytic worst-case bounds used by automatic noise-level selection


def _guarded_log(x: float) -> float:
    return float(np.log(max(x, 2.0)))


def best_term_exponents(klass: FunctionClass) -> Tuple[float, float]:
    """Exponent pair (a, b) of the class's best n-term width: the worst-case
    uniform-norm best n-term error over the unit ball is n^a log(n)^b."""
    r, d = klass.r, klass.d
    if klass.kind == WIENER_MIXED:
        return -(r + 0.5), (d - 1) * r + 0.5
    if klass.kind == SOBOLEV_MIXED:
        return -r, (d - 1) * r + 0.5
    if klass.kind == WIENER_ISO:
        return -(r / d + 1.0 / klass.p - 0.5), 0.0
    if klass.alpha == -0.5:
        return -(r + 1.0 / klass.p - 0.5), 0.0
    return -(r + 1.0 / klass.p - 1.0), 0.0


def analytic_best_term_bound(klass: FunctionClass, n: int) -> float:
    """Upper bound for the worst-case uniform-norm best n-term error over
    the class's unit ball."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = best_term_exponents(klass)
    return n**a * _guarded_log(n) ** b


def _tail_power_sum(s: float, start: int) -> float:
    """Upper bound for sum_{i >= start} i^(-s), s > 1."""
    cutoff = start + 50_000
    i = np.arange(start, cutoff)
    partial = float((i.astype(float) ** -s).sum())
    remainder = cutoff ** -s + cutoff ** (1.0 - s) / (s - 1.0)
    return partial + remainder


def tail_exponent(klass: FunctionClass) -> float:
    """Decay exponent t of the unit ball's coefficient tail: O(M^-t) outside
    the cut-off M (see analytic_tail_bound)."""
    return klass.r - 0.5 if klass.kind == SOBOLEV_MIXED else klass.r


def analytic_tail_bound(klass: FunctionClass, M: int) -> float:
    """Upper bound for the unit ball's l1 coefficient tail outside the box
    (or degree range) of parameter M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    r = klass.r
    if klass.kind == WIENER_MIXED:
        return float(M**-r)
    if klass.kind in (WIENER_ISO, POLY_WIENER):
        return float((1.0 + M) ** -r)
    # sobolev_mixed: Cauchy-Schwarz against the weight, tail of the weight
    # series bounded from above
    S = 1.0 + 2.0 * _tail_power_sum(2.0 * r, 2)
    T = 2.0 * _tail_power_sum(2.0 * r, M + 2)
    inner = max(S - T, 0.0)
    return float(np.sqrt(max(S**klass.d - inner**klass.d, 0.0)))
