"""Per-layer tracing from outside the package.

The package binds its functions with ``from ... import``, so each caller
looks a function up in its own module.  ``Tracer.install`` therefore
replaces every binding of a traced function, in every module of the
package, with one timing wrapper, and ``uninstall`` puts the originals back.
Spans nest: a span's self time is its duration minus the spans it opened.
Work the tracer does for itself (the independent solve checks) is taken out
of every open span.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc

import numpy as np

import l1sample
from l1sample import bpdn, classes, estimator, harness, recovery, systems, vallee_poussin

import checks

MB = float(2**20)

_MODULES = (l1sample, bpdn, classes, systems, recovery, vallee_poussin, harness, estimator)

# (defining module, function name, span name)
_TARGETS = (
    (bpdn, "solve_bpdn", "bpdn.solve"),
    (bpdn, "_operator_norm", "bpdn.norm"),
    (systems, "basis_matrix", "systems.basis_matrix"),
    (systems, "draw_points", "systems.draw_points"),
    (classes, "random_unit_function", "classes.random_unit_function"),
    (classes, "evaluate_function", "classes.evaluate_function"),
    (recovery, "recover", "recovery.recover"),
    (recovery, "build_matrix", "recovery.build_matrix"),
    (recovery, "l2_error", "recovery.l2_error"),
    (vallee_poussin, "chebyshev_lift", "vallee_poussin.chebyshev_lift"),
)

# tracemalloc costs about a microsecond per allocation, which would swamp
# the loop of a small solve (4x on the phase table); allocations are traced
# only in the first solve of each matrix shape, and only when its matrix is
# at least this large
ALLOC_TRACE_MIN_BYTES = 2**20

# products per PD iteration: forward and adjoint, plus the residual check
# every 25 iterations
_PRODUCTS_PER_ITER = 2.0 + 1.0 / 25.0

# per-layer metric -> unit, in the order the benchmark prints them
UNITS = {
    "harness.self_s": "s",
    "harness.trials": "count",
    "bpdn.iters": "count",
    "bpdn.solves": "count",
    "bpdn.certified": "count",
    "bpdn.loop_s": "s",
    "bpdn.iter_us": "us",
    "bpdn.gflops": "GFLOP/s",
    "bpdn.norm_s": "s",
    "bpdn.nnz_p50": "count",
    "bpdn.alloc_peak_mb": "MB",
    "recovery.build_matrix_s": "s",
    "systems.basis_matrix_s": "s",
    "systems.basis_matrix_mb": "MB",
    "systems.draw_points_s": "s",
    "classes.random_unit_function_s": "s",
    "classes.evaluate_function_s": "s",
    "classes.evaluate_mpts_per_s": "Mpts/s",
    "recovery.recover_self_s": "s",
    "recovery.l2_error_s": "s",
    "vallee_poussin.chebyshev_lift_s": "s",
    "estimator.fit_s": "s",
    "estimator.predict_s": "s",
    "trace.overhead_s": "s",
}


def _problem(args, kwargs):
    return args[0] if args else kwargs["problem"]


class _Frame:
    __slots__ = ("name", "children", "excluded")

    def __init__(self, name):
        self.name = name
        self.children = 0.0
        self.excluded = 0.0


class Tracer:
    """Collects spans, counts and independent solve checks."""

    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.hook_s = 0.0
        self.stack = []
        self.solves = []  # (iterations, certified, nnz, flops, alloc bytes)
        self.harness_solves = 0
        self.matrix_bytes = 0
        self.points = 0
        self.alloc_shapes = set()
        self.errors = []
        self._saved = []

    # -- spans ------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        frame = _Frame(name)
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0 - frame.excluded
            self.stack.pop()
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame.children
            if self.stack:
                self.stack[-1].children += elapsed

    def _first_large(self, A):
        key = (A.shape, A.dtype.str)
        if A.nbytes < ALLOC_TRACE_MIN_BYTES or key in self.alloc_shapes:
            return False
        self.alloc_shapes.add(key)
        return True

    def _untimed(self, hook, *args):
        t0 = time.perf_counter()
        hook(*args)
        spent = time.perf_counter() - t0
        self.hook_s += spent
        for frame in self.stack:
            frame.excluded += spent

    # -- hooks run after a traced call, outside its timing --------------------

    def _after_solve(self, args, kwargs, solution, alloc):
        problem = _problem(args, kwargs)
        m, N = problem.A.shape
        per_product = (8.0 if np.iscomplexobj(problem.A) else 2.0) * m * N
        self.solves.append((
            solution.iterations,
            solution.certified,
            int(np.count_nonzero(solution.z)),
            solution.iterations * _PRODUCTS_PER_ITER * per_product,
            alloc,
        ))
        if any(frame.name == "harness" for frame in self.stack):
            self.harness_solves += 1
        self.errors.extend(checks.check_solve(problem, solution))

    def _after_matrix(self, args, kwargs, matrix, alloc):
        self.matrix_bytes = max(self.matrix_bytes, matrix.nbytes)

    def _after_evaluate(self, args, kwargs, values, alloc):
        self.points += int(np.size(values))

    # -- installation -----------------------------------------------------------

    def _wrapper(self, name, fn):
        hook = {
            "bpdn.solve": self._after_solve,
            "systems.basis_matrix": self._after_matrix,
            "classes.evaluate_function": self._after_evaluate,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = 0
            if name != "bpdn.solve" or not self._first_large(_problem(args, kwargs).A):
                out = self.span(name, fn, *args, **kwargs)
            else:
                tracemalloc.start()
                try:
                    out = self.span(name, fn, *args, **kwargs)
                    alloc = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            if hook is not None:
                self._untimed(hook, args, kwargs, out, alloc)
            return out

        return traced

    def install(self):
        """Replace every binding of each traced function."""
        for module, attr, name in _TARGETS:
            original = getattr(module, attr)
            traced = self._wrapper(name, original)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    # -- report -----------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round, without trace.overhead_s."""
        per = 1.0 / rounds

        def total(name):
            return self.total.get(name, 0.0) * per

        def own(name):
            return self.self_time.get(name, 0.0) * per

        iters = sum(s[0] for s in self.solves) * per
        loop_s = own("bpdn.solve")
        evaluate_s = total("classes.evaluate_function")
        return {
            "harness.self_s": own("harness"),
            "harness.trials": self.harness_solves * per,
            "bpdn.iters": iters,
            "bpdn.solves": len(self.solves) * per,
            "bpdn.certified": sum(1 for s in self.solves if s[1]) * per,
            "bpdn.loop_s": loop_s,
            "bpdn.iter_us": loop_s / iters * 1e6 if iters else 0.0,
            "bpdn.gflops": sum(s[3] for s in self.solves) * per / loop_s / 1e9 if loop_s else 0.0,
            "bpdn.norm_s": total("bpdn.norm"),
            "bpdn.nnz_p50": float(statistics.median(s[2] for s in self.solves)) if self.solves else 0.0,
            "bpdn.alloc_peak_mb": max((s[4] for s in self.solves), default=0) / MB,
            "recovery.build_matrix_s": total("recovery.build_matrix"),
            "systems.basis_matrix_s": total("systems.basis_matrix"),
            "systems.basis_matrix_mb": self.matrix_bytes / MB,
            "systems.draw_points_s": total("systems.draw_points"),
            "classes.random_unit_function_s": total("classes.random_unit_function"),
            "classes.evaluate_function_s": evaluate_s,
            "classes.evaluate_mpts_per_s": self.points * per / evaluate_s / 1e6 if evaluate_s else 0.0,
            "recovery.recover_self_s": own("recovery.recover"),
            "recovery.l2_error_s": total("recovery.l2_error"),
            "vallee_poussin.chebyshev_lift_s": total("vallee_poussin.chebyshev_lift"),
            "estimator.fit_s": total("estimator.fit"),
            "estimator.predict_s": total("estimator.predict"),
        }
