"""Estimator-style front end: fit points/values, predict anywhere.

``FunctionRecovery`` follows the familiar fit/predict/transform protocol
with plain-value constructor parameters and ``get_params``/``set_params``,
so it slots into pipelines and parameter sweeps without this package taking
a dependency on any particular ML framework.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .classes import (
    FunctionClass,
    evaluate_function,
)
from .harness import box_parameter
from .recovery import (
    RecoveryConfig,
    default_regime,
    recover,
    search_set,
)
from .systems import (
    FOURIER,
    System,
    basis_matrix,
)


class NotFittedError(ValueError, AttributeError):
    """predict/transform/score was called before fit."""


def _nonempty(X) -> np.ndarray:
    X = np.asarray(X)
    if X.size == 0:
        raise ValueError("need at least one sample point")
    return X


def check_sample_values(y, n_points: int) -> np.ndarray:
    """Flatten sample values, check finiteness and the length against X."""
    vals = np.asarray(y).reshape(-1)
    if vals.shape[0] != n_points:
        raise ValueError("X and y disagree on the number of samples")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample values must be finite")
    return vals


@dataclass(eq=False)
class FunctionRecovery:
    """Recover a sparse coefficient expansion from point samples.

    Parameters mirror the recovery config: the measurement system's kind
    string and ``dim``, the torus dimension (also the class's), the
    function-class parameters driving the automatic noise level, the target
    sparsity n and cut-off M; the sampling regime is the system's
    (``recovery.default_regime``).  ``eta`` overrides the automatic noise
    level; ``M=None`` applies the class's cut-off rule to n.
    A class is built only when one of the two is left out, and the config
    then checks it against the regime: its family and, on the torus, its
    dimension must be the system's.  The sample budget is the caller's:
    ``fit`` solves with every point it is given, under ``BpdnProblem``'s
    tolerances and iteration cap.

    After ``fit(X, y)`` the instance exposes ``expansion_`` (the recovered
    expansion), ``coefficients_`` (aligned to ``index_set_``, the search
    set: on the torus the box of radius (2d+1)M), and ``result_`` (the full
    recovery record).  Instances compare by identity.
    """

    system: str = FOURIER
    dim: int = 1
    class_kind: str = "wiener_mixed"
    r: float = 1.0
    p: Optional[float] = None
    alpha: Optional[float] = None
    n: int = 4
    M: Optional[int] = None
    c_eta: float = 1.0
    eta: Optional[float] = None
    step_ratio: float = 1.0

    # -- parameter protocol -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "FunctionRecovery":
        names = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in names:
                raise ValueError(
                    f"invalid parameter {name!r} for FunctionRecovery"
                )
            setattr(self, name, value)
        return self

    # -- fitting ------------------------------------------------------------

    def _resolved_class(self) -> FunctionClass:
        return FunctionClass(
            self.class_kind,
            float(self.r),
            d=int(self.dim),
            p=None if self.p is None else float(self.p),
            alpha=None if self.alpha is None else float(self.alpha),
        )

    def _build_config(self) -> RecoveryConfig:
        system = System(str(self.system), int(self.dim) if self.system == FOURIER else 1)
        klass = None
        if self.eta is None or self.M is None:
            klass = self._resolved_class()
        M = self.M if self.M is not None else box_parameter(klass, int(self.n))
        return RecoveryConfig(
            system=system,
            theorem=default_regime(system),
            n=int(self.n),
            M=int(M),
            klass=klass,
            c_eta=float(self.c_eta),
            eta_override=None if self.eta is None else float(self.eta),
            step_ratio=float(self.step_ratio),
        )

    def fit(self, X, y) -> "FunctionRecovery":
        config = self._build_config()
        # recover() and BpdnProblem reject empty, non-finite and mismatched input
        result = recover(y, config, X)
        self.config_ = config
        self.result_ = result
        self.expansion_ = result.expansion
        self.index_set_ = search_set(config)
        # indexed like the search set; where() drops the signed zeros
        z = result.solution.z
        self.coefficients_ = np.where(z != 0, z, 0).astype(np.complex128)
        self.n_features_in_ = config.system.dim
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "result_"):
            raise NotFittedError("this FunctionRecovery instance is not fitted yet")

    # -- inference ----------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Values of the recovered expansion at new points (complex dtype),
        checked and reduced a block at a time by ``evaluate_function``."""
        self._check_fitted()
        return np.atleast_1d(evaluate_function(self.expansion_, _nonempty(X)))

    def transform(self, X) -> np.ndarray:
        """Basis features over the fitted index set, one row per point, in
        the expansion's system: ``transform(X) @ coefficients_`` is
        ``predict(X)``, the raw Legendre polynomials in the Legendre regime."""
        self._check_fitted()
        return basis_matrix(self.expansion_.system, self.index_set_, _nonempty(X))

    def score(self, X, y) -> float:
        """Negative mean squared error of the prediction (higher is better)."""
        pred = self.predict(X)
        vals = check_sample_values(y, len(pred))
        # the residual overwrites the prediction and the squares its moduli
        moduli = np.abs(np.subtract(pred, vals, out=pred))
        return float(-np.mean(np.square(moduli, out=moduli)))
