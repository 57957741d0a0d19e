"""Print the outputs of a fixed set of seeded experiments, for comparing commits.

Runs small rate sweeps, phase tables, ``FunctionRecovery`` fits and
``l1sample recover`` calls through the public API and the CLI entry point,
and prints every report in full.  After each fit it prints ``predict`` at
fixed points, ``score`` on the training points and ``transform`` at the
first seven of the fixed points; one d=2 fit predicts at more points than
``evaluate_function`` takes in one block, so the comparison covers the
blocked synthesis.  A d=3 fit and a d=2 ``fourier_grid`` recovery cover the
Fourier tables' Khatri-Rao products and lattice points.  Fourier expansions
with |k_a| >= 1024 and negative keys, evaluated by ``evaluate_function`` in
d=1 and d=2, cover the synthesis's digits past the first two.
Under every rate and phase section it prints that section's total solver
iterations and its count of each ``stop`` value, read from every
``bpdn.solve_bpdn_batch`` call the section makes (``solve_bpdn`` and the
phase table's batches both go through it).
Run it on two checkouts and compare the files:

    PYTHONPATH=src python tools/dump_outputs.py > before.txt
    (other checkout) PYTHONPATH=src python tools/dump_outputs.py > after.txt
    PYTHONPATH=src python tools/dump_outputs.py --compare before.txt after.txt

A refactor that claims unchanged results should leave the files identical
(``cmp``).  A change that reorders floating-point sums may move floats in
their last digits; ``--compare`` accepts that and nothing else: every token
that is not a float (text, integers, counts, flags) must match exactly, and
floats must agree within ``--rtol`` and ``--atol`` (default 1e-6 and 1e-12).
It prints every mismatch with its section and both values, then the largest
relative float difference and the largest share of the tolerance used,
max |x - y| / (atol + rtol |x|) (1 at the gate), and exits 1 if there was
any mismatch:

    PYTHONPATH=src python tools/dump_outputs.py --compare before.txt after.txt --rtol 1e-4
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import re
import sys

import numpy as np

from l1sample import (
    CoefficientExpansion,
    ExperimentConfig,
    FunctionRecovery,
    SamplePlan,
    chebyshev_system,
    draw_points,
    evaluate_function,
    fourier_system,
    legendre_preconditioned_system,
    poly_wiener,
    random_unit_function,
    report_text,
    run_phase_experiment,
    run_rate_experiment,
    sobolev_mixed,
    wiener_iso,
    wiener_mixed,
)
from l1sample import bpdn, cli, harness

STEP = 0.0625

RATE_CASES = {
    "wiener_mixed fourier3": ExperimentConfig(
        wiener_mixed(1.0, 1), (2, 4, 8), trials_per_n=3, seed_base=5,
        step_ratio=STEP),
    "wiener_mixed fourier_grid": ExperimentConfig(
        wiener_mixed(1.0, 1), (2, 4, 8), trials_per_n=3, theorem="fourier_grid",
        seed_base=6, step_ratio=STEP),
    "chebyshev head feas_tol=1e-6": ExperimentConfig(
        poly_wiener(-0.5, 1.0, 0.5), (2, 4, 8), trials_per_n=2, sparsity="head",
        feas_tol=1e-6, seed_base=7, step_ratio=STEP),
    "legendre full": ExperimentConfig(
        poly_wiener(0.0, 1.0, 1.0), (2, 4), trials_per_n=2, sparsity="full",
        seed_base=8, step_ratio=STEP),
    "wiener_iso d=2": ExperimentConfig(
        wiener_iso(1.0, 1.0, 2), (2, 4), trials_per_n=2, seed_base=9,
        step_ratio=STEP),
    "wiener_mixed eta=0 max_iters=200": ExperimentConfig(
        wiener_mixed(1.0, 1), (4, 8, 16), trials_per_n=4, seed_base=10,
        eta_override=0.0, max_iters=200, step_ratio=STEP),
    # the only class whose cut-off rule divides by the r - 1/2 tail exponent
    "sobolev_mixed r=0.75": ExperimentConfig(
        sobolev_mixed(0.75, 1), (2, 4, 8), trials_per_n=2, seed_base=12,
        step_ratio=STEP),
    # complex data at a radius whose solves polish: d=2, n=4, lattice points
    "wiener_mixed d=2 fourier_grid head": ExperimentConfig(
        wiener_mixed(1.0, 2), (4,), trials_per_n=2, theorem="fourier_grid",
        sparsity="head", c_eta=0.01, seed_base=11, step_ratio=STEP),
    # one trial of the acceptance suite's Chebyshev p=1/2 sweep (criterion 7)
    "chebyshev p=1/2 n=8,16": ExperimentConfig(
        poly_wiener(-0.5, 1.0, 0.5), (8, 16), trials_per_n=1, c_sample=0.07,
        c_eta=0.1, sparsity="head", feas_tol=1e-6, seed_base=0, step_ratio=STEP),
}

PHASE_CASES = {
    "phase d=1 N=257": dict(system=fourier_system(1), N=257, s=5,
                            m_grid=(8, 16, 24, 40), trials=6, seed=3),
    "phase d=2 N=9": dict(system=fourier_system(2), N=9, s=2,
                          m_grid=(3, 6, 9), trials=5, seed=4),
}

# estimator fits with the default cut-off (M=None):
# (estimator parameters, true function's class, its support, system the points
# are drawn for, point count, seed, factor the samples are multiplied by,
# optionally the number of points predict is printed at)
FIT_CASES = {
    "fit fourier d=2": (
        dict(system="fourier", dim=2, class_kind="wiener_mixed", r=1.0, n=2),
        wiener_mixed(1.0, 2), [(0, 0), (1, -2), (-3, 1), (2, 2)], fourier_system(2),
        60, 13, 1),
    "fit chebyshev": (
        dict(system="chebyshev", class_kind="poly_wiener", alpha=-0.5, r=1.0, p=0.5,
             n=3),
        poly_wiener(-0.5, 1.0, 0.5), [0, 2, 5, 9], chebyshev_system(), 30, 14, 1),
    # a complex multiple of a real function: the solve runs on complex samples
    "fit chebyshev complex samples": (
        dict(system="chebyshev", class_kind="poly_wiener", alpha=-0.5, r=1.0, p=0.5,
             n=3),
        poly_wiener(-0.5, 1.0, 0.5), [0, 1, 4, 7], chebyshev_system(), 30, 16,
        0.6 - 0.8j),
    "fit legendre_preconditioned": (
        dict(system="legendre_preconditioned", class_kind="poly_wiener", alpha=0.0,
             r=1.0, p=1.0, n=6),
        poly_wiener(0.0, 1.0, 1.0), [0, 1, 3, 4], legendre_preconditioned_system(),
        40, 15, 1),
    # predict at more points than one block of evaluate_function
    "fit fourier d=2 predict 5000": (
        dict(system="fourier", dim=2, class_kind="wiener_mixed", r=1.0, n=3),
        wiener_mixed(1.0, 2), [(0, 0), (3, -4), (-5, 2), (6, 6), (-1, -7)],
        fourier_system(2), 80, 17, 1, 5000),
    # in d = 3 the Fourier tables' two axis groups differ in size (15 and 225 rows)
    "fit fourier d=3": (
        dict(system="fourier", dim=3, class_kind="wiener_mixed", r=1.0, n=2, M=1),
        wiener_mixed(1.0, 3), [(0, 0, 0), (1, -2, 0), (-3, 1, 2)], fourier_system(3),
        70, 18, 1),
}
# points predict is printed at by default; above that, every PREDICT_STRIDE-th
# value is printed along with the norm and the largest modulus of all
PREDICT_POINTS = 7
PREDICT_STRIDE = 25

# Fourier expansions evaluated by evaluate_function: (dimension, keys, seed of
# the coefficients and the points, point count).  Past max |k_a| = 1023 the
# synthesis takes base-32 digits of |k_a|, one power table each: four at
# max |k_a| = 10^6 on every axis here, and negative keys take conjugates.
SYNTHESIS_CASES = {
    "synthesis d=1 |k| >= 1024": (
        1, [0, 1, -1, 1023, -1024, 1025, 40_000, -123_456, -999_999, 1_000_000], 19, 40),
    "synthesis d=2 |k| >= 1024": (
        2, [(0, 0), (3, -5_000), (-1_024, 7), (65_537, -65_537), (-2, 1_000_000),
            (-777_777, -31)], 20, 40),
}

RECOVER_BASE = ["recover", "--class-kind", "wiener_mixed", "--r", "1", "--n", "4",
                "--step-ratio", str(STEP)]
RECOVER_CASES = {
    f"recover seed={seed}{' ' + ' '.join(extra) if extra else ''}":
        RECOVER_BASE + ["--seed", str(seed)] + extra
    for seed in (0, 1, 2)
    for extra in ([], ["--sparsity", "2"])
}
RECOVER_CASES["recover fourier_grid M=6"] = RECOVER_BASE + [
    "--theorem", "fourier_grid", "--M", "6", "--seed", "11"]
RECOVER_CASES["recover fourier_grid d=2"] = RECOVER_BASE + [
    "--theorem", "fourier_grid", "--d", "2", "--c-eta", "0.001", "--c-sample", "2",
    "--seed", "12"]


def _fit(params: dict, klass, support, point_system, m: int, seed: int,
         factor: complex, predict_points: int = PREDICT_POINTS) -> str:
    est = FunctionRecovery(c_eta=1e-3, step_ratio=STEP, **params)
    f = random_unit_function(klass, support, seed=seed)
    pts = draw_points(point_system, m, SamplePlan(seed))
    y = factor * evaluate_function(f, pts)
    est.fit(pts, y)
    new_pts = draw_points(point_system, predict_points, SamplePlan(seed + 1000))
    values = est.predict(new_pts)
    if predict_points > PREDICT_POINTS:
        predicted = (f"predict at {predict_points} points: norm {float(np.linalg.norm(values))!r}"
                     f" max modulus {float(np.abs(values).max())!r}\n"
                     f"predict every {PREDICT_STRIDE}th {_pairs(values[::PREDICT_STRIDE])}\n")
    else:
        predicted = f"predict {_pairs(values)}\n"
    features = est.transform(new_pts[:PREDICT_POINTS])
    return (f"theorem {est.config_.theorem} M {est.config_.M}\n"
            f"coefficients {_pairs(est.coefficients_)}\n" + predicted
            + f"score on the training points {est.score(pts, y)!r}\n"
            + f"transform {features.shape} {_pairs(features.ravel())}\n"
            + json.dumps(est.result_.to_json(), indent=2, sort_keys=True) + "\n")


def _synthesis(dim: int, keys, seed: int, count: int) -> str:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    f = CoefficientExpansion(fourier_system(dim), dict(zip(keys, values)))
    pts = draw_points(f.system, count, SamplePlan(seed))
    return f"values {_pairs(evaluate_function(f, pts))}\n"


@contextlib.contextmanager
def _solves():
    """Collect the solutions of every ``solve_bpdn_batch`` call inside, also
    those made through the name ``harness`` imported."""
    solutions, solve = [], bpdn.solve_bpdn_batch

    def recorded(problems):
        out = solve(problems)
        solutions.extend(out)
        return out

    bpdn.solve_bpdn_batch = harness.solve_bpdn_batch = recorded
    try:
        yield solutions
    finally:
        bpdn.solve_bpdn_batch = harness.solve_bpdn_batch = solve


def _solver_line(solutions) -> str:
    stops = collections.Counter(sol.stop for sol in solutions)
    return (f"solver iterations {sum(sol.iterations for sol in solutions)} "
            f"stops {json.dumps(dict(sorted(stops.items())))}\n")


def _pairs(values) -> str:
    """Complex values as a JSON list of [real, imaginary] pairs."""
    return json.dumps([[z.real, z.imag] for z in np.asarray(values)])


def _section(title: str, text: str) -> None:
    sys.stdout.write(f"== {title}\n{text}")


# a number token; it is a float when it has a decimal point or an exponent
_NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
_SECTION = re.compile(r"^== (.*)\n", re.MULTILINE)


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _sections(text: str):
    """The (title, body) pairs of a dump, in order."""
    parts = _SECTION.split(text)
    return list(zip(parts[1::2], parts[2::2]))


def compare(before: str, after: str, rtol: float = 1e-6, atol: float = 1e-12) -> int:
    """Compare two dumps: exact outside floats, floats within rtol and atol.

    Prints each mismatch as ``section: key before vs after`` and returns 1 if
    there was any.
    """
    a_sections, b_sections = _sections(before), _sections(after)
    if len(a_sections) != len(b_sections):
        print(f"section counts differ: {len(a_sections)} vs {len(b_sections)}")
        return 1
    numbers, floats, mismatches, worst, share = 0, 0, 0, 0.0, 0.0
    for (title, a_text), (b_title, b_text) in zip(a_sections, b_sections):
        if title != b_title:
            print(f"section titles differ: {title!r} vs {b_title!r}")
            mismatches += 1
        a_parts, b_parts = _NUMBER.split(a_text), _NUMBER.split(b_text)
        if len(a_parts) != len(b_parts):
            print(f"{title}: token counts differ: {len(a_parts)} vs {len(b_parts)}")
            mismatches += 1
            continue
        numbers += len(a_parts) // 2
        for i, (a, b) in enumerate(zip(a_parts, b_parts)):
            # split() puts the captured number tokens at the odd positions;
            # the text before a number ends with its key
            key = a_parts[i - 1].rsplit("\n", 1)[-1].strip() if i else ""
            if i % 2 and _is_float(a) and _is_float(b):
                x, y = float(a), float(b)
                floats += 1
                if x != y:
                    worst = max(worst, abs(x - y) / max(abs(x), atol))
                    share = max(share, abs(x - y) / (atol + rtol * abs(x)))
                if abs(x - y) > atol + rtol * abs(x):
                    print(f"{title}: {key} {a} vs {b}")
                    mismatches += 1
            elif a != b:
                print(f"{title}: {key} {a!r} vs {b!r}" if i % 2 else f"{title}: {a!r} vs {b!r}")
                mismatches += 1
    verdict = f"{mismatches} mismatches" if mismatches else "match"
    print(f"{verdict}: {numbers} numbers, {floats} floats, "
          f"largest relative float difference {worst:.3g}, "
          f"largest share of the tolerance {share:.3g}")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--rtol", type=float, default=1e-6)
    parser.add_argument("--atol", type=float, default=1e-12)
    args = parser.parse_args()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return compare(fa.read(), fb.read(), args.rtol, args.atol)
    for title, config in RATE_CASES.items():
        with _solves() as solutions:
            report = run_rate_experiment(config)
        _section(title, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
                 + _solver_line(solutions))
        _section(title + " csv", report_text(report, "csv"))
    for title, kwargs in PHASE_CASES.items():
        with _solves() as solutions:
            report = run_phase_experiment(step_ratio=STEP, **kwargs)
        _section(title, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
                 + _solver_line(solutions))
    for title, case in FIT_CASES.items():
        _section(title, _fit(*case))
    for title, case in SYNTHESIS_CASES.items():
        _section(title, _synthesis(*case))
    for title, argv in RECOVER_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        _section(f"{title} (exit {code})", out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
