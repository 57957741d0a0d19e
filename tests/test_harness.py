"""Tests for the experiment driver: rules, exponents, fits, and reports."""

import dataclasses
import json
import math

import pytest

from l1sample import harness
from l1sample.bpdn import solve_bpdn_batch
from l1sample.classes import (
    analytic_best_term_bound,
    default_system,
    poly_wiener,
    sobolev_mixed,
    wiener_iso,
    wiener_mixed,
)
from l1sample.harness import (
    CSV_HEADER,
    PHASE_SUCCESS_THRESHOLD,
    ExperimentConfig,
    RateReport,
    RateRow,
    box_parameter,
    fit_slope,
    m_rule_exponent,
    predicted_rate,
    rate_transfer,
    regime_system,
    report_text,
    run_phase_experiment,
    run_rate_experiment,
)
from l1sample.recovery import (
    CHEBYSHEV_REGIME,
    FOURIER3,
    LEGENDRE_REGIME,
    default_regime,
)
from l1sample.systems import chebyshev_system, fourier_system


# ---------------------------------------------------------------------------
# regime selection and cut-off rules


def test_default_regime_by_class():
    def regime(klass):
        return default_regime(default_system(klass))

    assert regime(wiener_mixed(1.0, 1)) == FOURIER3
    assert regime(sobolev_mixed(1.0, 2)) == FOURIER3
    assert regime(wiener_iso(1.0, 1.0, 2)) == FOURIER3
    assert regime(poly_wiener(-0.5, 1.0, 1.0)) == CHEBYSHEV_REGIME
    assert regime(poly_wiener(0.0, 1.0, 1.0)) == LEGENDRE_REGIME


def test_regime_system_dimensions():
    assert regime_system(FOURIER3, wiener_mixed(1.0, 3)) == fourier_system(3)
    assert regime_system(CHEBYSHEV_REGIME, poly_wiener(-0.5, 1.0, 1.0)) == (
        chebyshev_system()
    )
    assert regime_system(LEGENDRE_REGIME, poly_wiener(0.0, 1.0, 1.0)).kind == (
        "legendre_preconditioned"
    )
    with pytest.raises(ValueError, match="unknown sampling regime"):
        regime_system("bogus", wiener_mixed(1.0, 1))


@pytest.mark.parametrize("klass, theorem, sampled, expanded", [
    (wiener_mixed(1.0, 2), "chebyshev", "chebyshev", "fourier"),
    (poly_wiener(-0.5, 1.0, 0.5), "fourier3", "fourier", "chebyshev"),
    (poly_wiener(0.0, 1.0, 1.0), "chebyshev", "chebyshev", "legendre_raw"),
    (poly_wiener(-0.5, 1.0, 1.0), "legendre", "legendre_preconditioned", "chebyshev"),
])
def test_regime_of_another_family_fails_before_any_trial(monkeypatch, klass, theorem,
                                                         sampled, expanded):
    def no_solve(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "recover", no_solve)
    config = ExperimentConfig(klass, (2,), theorem=theorem)
    with pytest.raises(ValueError) as info:
        run_rate_experiment(config)
    message = str(info.value)
    assert f"samples the {sampled} system" in message
    assert f"expands in the {expanded} system" in message


def test_cut_off_exponents():
    assert m_rule_exponent(wiener_mixed(1.0, 1)) == 1.5
    assert m_rule_exponent(sobolev_mixed(1.0, 2)) == 2.0
    assert m_rule_exponent(wiener_iso(1.0, 1.0, 2)) == 1.0
    assert m_rule_exponent(poly_wiener(-0.5, 1.0, 0.5)) == 2.5
    # exponent 1 + 1/(pr) - 1/r = 1 for the Legendre family at p = r = 1
    assert m_rule_exponent(poly_wiener(0.0, 1.0, 1.0)) == 1.0


def test_box_parameter_values_and_guard():
    klass = wiener_mixed(1.0, 1)
    # 16^1.5 = 64 exactly; the additive guard keeps floor from losing one
    assert box_parameter(klass, 16) == 64
    assert box_parameter(klass, 32) == 181
    assert box_parameter(klass, 1) == 3  # floor at 3
    assert box_parameter(poly_wiener(0.0, 1.0, 1.0), 8) == 8
    with pytest.raises(ValueError):
        box_parameter(klass, 0)


# the exponent is the best-term power over the tail exponent, a quotient that
# may differ from the closed form per class in its last bit; the cut-offs and
# the m-indexed pair may not
@pytest.mark.parametrize(
    "klass,exponent,cut_offs,m_pair",
    [
        (wiener_mixed(1.5, 2), 1.3333333333333333, (3, 16, 101), (-2.0, 8.0)),
        (sobolev_mixed(0.75, 1), 3.0, (8, 512, 32768), (-0.75, 2.75)),
        (sobolev_mixed(1.5, 3), 1.5, (3, 22, 181), (-1.5, 8.0)),
        (wiener_iso(0.75, 0.5, 2), 2.5, (5, 181, 5792), (-1.875, 5.625)),
        (wiener_iso(1.5, 1.0, 3), 0.6666666666666667, (3, 4, 10), (-1.0, 3.0)),
        (poly_wiener(-0.5, 2.0, 0.5), 1.75, (3, 38, 430), (-3.5, 10.5)),
        (poly_wiener(0.0, 1.5, 1.0), 0.9999999999999999, (3, 8, 32), (-1.5, 4.5)),
        (poly_wiener(0.0, 0.75, 0.5), 2.333333333333333, (5, 128, 3250), (-1.75, 5.25)),
    ],
)
def test_cut_off_rule_and_m_rate_for_r_other_than_one(klass, exponent, cut_offs, m_pair):
    assert m_rule_exponent(klass) == pytest.approx(exponent, rel=1e-15)
    assert tuple(box_parameter(klass, n) for n in (2, 8, 32)) == cut_offs
    assert predicted_rate(klass, "m") == m_pair


# ---------------------------------------------------------------------------
# predicted exponents


@pytest.mark.parametrize(
    "klass",
    [wiener_mixed(1.5, d) for d in (1, 2, 3)]
    + [sobolev_mixed(0.75, d) for d in (1, 2, 3)]
    + [wiener_iso(0.75, 0.5, d) for d in (1, 2, 3)]
    + [poly_wiener(-0.5, 2.0, 0.5), poly_wiener(0.0, 1.5, 1.0)],
)
def test_best_term_bound_evaluates_the_predicted_pair(klass):
    # the noise rule's bound and the reported slope come from one exponent pair
    a, b = predicted_rate(klass, "n")
    for n in range(1, 301):
        assert analytic_best_term_bound(klass, n) == n**a * math.log(max(n, 2)) ** b


def test_predicted_rate_in_n():
    assert predicted_rate(wiener_mixed(1.0, 2)) == (-1.5, 1.5)
    assert predicted_rate(poly_wiener(-0.5, 1.0, 1.0)) == (-1.5, 0.0)
    assert predicted_rate(poly_wiener(0.0, 1.0, 0.5)) == (-2.0, 0.0)
    assert predicted_rate(sobolev_mixed(1.0, 3)) == (-1.0, 2.5)
    assert predicted_rate(wiener_iso(1.0, 1.0, 2)) == (-1.0, 0.0)
    with pytest.raises(ValueError):
        predicted_rate(wiener_mixed(1.0, 1), index="k")


@pytest.mark.parametrize(
    "r,d,expected",
    [(1.0, 1.0, (-1.5, 5.0)), (1.0, 2.0, (-1.5, 6.0)), (2.0, 3.0, (-2.5, 12.0)),
     (0.75, 2.0, (-1.25, 5.0)), (1.5, 1.0, (-2.0, 6.5))],
)
def test_predicted_rate_in_m_for_mixed_classes(r, d, expected):
    # the m-indexed pair is (-(r+1/2), 3(r+1/2) + (d-1)r + 1/2), exactly
    pair = predicted_rate(wiener_mixed(r, int(d)), index="m")
    assert pair == expected
    assert pair == (-(r + 0.5), 3 * (r + 0.5) + (d - 1) * r + 0.5)


def test_rate_transfer_frozen_example():
    out = rate_transfer(1.0, 3.0, 1.5, 1.5)
    assert out.m_rate == -1.5
    assert out.m_log_power == 6.0
    assert out.constant == (4.0 * 1.0 * 2.0**3.0) ** 1.5
    assert abs(out.constant - 181.01933598375618) < 1e-11


def test_rate_transfer_degenerate_and_validation():
    out = rate_transfer(1.0, 0.0, 1.0, 0.7)
    assert (out.m_rate, out.m_log_power, out.constant) == (-1.0, 0.7, 4.0)
    with pytest.raises(ValueError):
        rate_transfer(0.5, 3.0, 1.5, 1.5)
    with pytest.raises(ValueError):
        rate_transfer(1.0, -1.0, 1.5, 1.5)
    with pytest.raises(ValueError):
        rate_transfer(1.0, 3.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        rate_transfer(1.0, 3.0, 1.5, -0.1)


@pytest.mark.parametrize("position", range(4))
def test_rate_transfer_rejects_nan(position):
    args = [1.0, 3.0, 1.5, 1.5]
    args[position] = float("nan")
    with pytest.raises(ValueError):
        rate_transfer(*args)


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power_law():
    ns = [4, 8, 16, 32, 64]
    errors = [n**-1.5 for n in ns]
    assert abs(fit_slope(ns, errors) - (-1.5)) < 1e-12


def test_fit_slope_log_factor_bias():
    ns = [4, 8, 16, 32, 64]
    errors = [n**-1.5 * math.log(n) ** 1.5 for n in ns]
    slope = fit_slope(ns, errors)
    # the log factor biases the fit upward, but by less than 0.6
    assert -1.5 < slope < -0.9


def test_fit_slope_drops_smallest_n_only_with_four_points():
    ns = [4, 8, 16]
    errors = [1.0, 1.0, 1.0]
    assert fit_slope(ns, errors) == 0.0
    # an outlier at the smallest n is ignored once four points are available
    ns = [4, 8, 16, 32]
    errors = [50.0] + [n**-2.0 for n in ns[1:]]
    assert abs(fit_slope(ns, errors) - (-2.0)) < 1e-12


def test_fit_slope_skips_bad_values_and_degenerates_to_none():
    assert fit_slope([4, 8], [float("nan"), 1.0]) is None
    assert fit_slope([4, 8, 16], [float("inf"), 0.0, 1.0]) is None
    assert fit_slope([], []) is None
    assert fit_slope([4, 8], [0.5, 0.25]) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# report containers


def test_rate_row_json_round_trip_with_nan():
    row = RateRow(4, 10, float("nan"), float("nan"), float("nan"), 0.0)
    payload = row.to_json()
    assert payload == {"n": 4, "m": 10, "median_error": None, "q25": None, "q75": None,
                       "success_fraction": 0.0}
    assert json.loads(json.dumps(payload)) == payload


def test_rate_report_json_round_trip():
    report = RateReport(
        rows=(RateRow(4, 10, 0.5, 0.4, 0.6, 1.0), RateRow(8, 30, 0.2, 0.1, 0.3, 0.9)),
        fitted_slope=-1.25,
        predicted_n=(-1.5, 0.5),
        predicted_m=(-1.5, 5.0),
        uncertified_trials=1,
    )
    payload = report.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["predicted_n"] == [-1.5, 0.5] and payload["uncertified_trials"] == 1
    assert RateReport(rows=()).to_json() == {
        "rows": [], "fitted_slope": None, "predicted_n": None, "predicted_m": None,
        "uncertified_trials": None}


def test_report_text_csv_format():
    report = RateReport(rows=(RateRow(4, 10, 1.0 / 3.0, 0.25, 0.5, 1.0),))
    lines = report_text(report, "csv").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[1] == "10"
    # 17 significant digits survive the string round trip exactly
    assert float(fields[2]) == 1.0 / 3.0


def test_report_columns_are_the_row_fields():
    assert CSV_HEADER == ",".join(f.name for f in dataclasses.fields(RateRow))
    row = RateRow(4, 10, 0.1, float("nan"), 0.3, 0.5)
    assert report_text(RateReport(rows=(row,)), "csv").splitlines()[1] == (
        "4,10,0.10000000000000001,nan,0.29999999999999999,0.5")
    assert row.to_json() == {"n": 4, "m": 10, "median_error": 0.1, "q25": None, "q75": 0.3,
                             "success_fraction": 0.5}


def test_a_row_in_which_no_trial_certifies():
    # quantiles over no certified error are NaN, and no trial succeeds
    rows, uncertified = harness._run_rows(
        0, 3, [(4, 10, lambda seeds: [None] * len(seeds)),
               (8, 20, lambda seeds: [1e-6, None, 1.0])], PHASE_SUCCESS_THRESHOLD)
    assert uncertified == 4
    assert math.isnan(rows[0].median_error) and math.isnan(rows[0].q25)
    assert math.isnan(rows[0].q75) and rows[0].success_fraction == 0.0
    assert rows[1].median_error == pytest.approx(0.5 + 5e-7)
    assert rows[1].success_fraction == pytest.approx(1 / 3)


def test_report_text_empty_and_json():
    assert report_text(RateReport(rows=()), "csv") == CSV_HEADER + "\n"
    report = RateReport(rows=(RateRow(4, 10, 0.5, 0.4, 0.6, 1.0),), fitted_slope=-1.0)
    assert json.loads(report_text(report, "json")) == report.to_json()
    with pytest.raises(ValueError):
        report_text(report, "yaml")


# ---------------------------------------------------------------------------
# experiment configs


def test_experiment_config_validation():
    klass = wiener_mixed(1.0, 1)
    with pytest.raises(ValueError):
        ExperimentConfig(klass=klass, n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(klass=klass, n_values=(4, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(klass=klass, n_values=(8, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(klass=klass, n_values=(4,), trials_per_n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(klass=klass, n_values=(4,), sparsity="middle")
    with pytest.raises(ValueError, match=">= 1"):
        ExperimentConfig(klass=klass, n_values=(0,))


def test_rate_experiment_smoke_and_reproducibility():
    cfg = ExperimentConfig(
        klass=wiener_mixed(1.0, 1),
        n_values=(2, 4),
        trials_per_n=2,
        c_sample=0.5,
        c_eta=0.1,
        step_ratio=0.0625,
    )
    report = run_rate_experiment(cfg)
    assert [row.n for row in report.rows] == [2, 4]
    assert all(row.m >= 1 for row in report.rows)
    assert all(0.0 <= row.success_fraction <= 1.0 for row in report.rows)
    assert report.predicted_n == (-1.5, 0.5)
    assert report.predicted_m == (-1.5, 5.0)
    again = run_rate_experiment(cfg)
    assert json.dumps(again.to_json()) == json.dumps(report.to_json())


# ---------------------------------------------------------------------------
# phase experiments


def test_phase_experiment_validation():
    with pytest.raises(ValueError):
        run_phase_experiment(chebyshev_system(), 9, 2, (5,), 2)
    with pytest.raises(ValueError):
        run_phase_experiment(fourier_system(1), 8, 2, (5,), 2)  # not 2D+1
    with pytest.raises(ValueError):
        run_phase_experiment(fourier_system(1), 9, 10, (5,), 2)  # s > N
    with pytest.raises(ValueError):
        run_phase_experiment(fourier_system(1), 9, 2, (5,), 0)
    with pytest.raises(ValueError):
        run_phase_experiment(fourier_system(1), 9, 2, (0,), 2)


def test_phase_experiment_checks_the_whole_grid_before_solving(monkeypatch):
    calls = []

    def counting_solve(problems):
        calls.append(problems)
        return solve_bpdn_batch(problems)

    # the phase table solves each row as one batch
    monkeypatch.setattr(harness, "solve_bpdn_batch", counting_solve)
    run_phase_experiment(fourier_system(1), 9, 1, (27,), 2, step_ratio=0.0625)
    assert len(calls) == 1 and len(calls[0]) == 2
    calls.clear()
    with pytest.raises(ValueError, match="sample counts"):
        run_phase_experiment(fourier_system(1), 257, 5, (160, 0), 50)
    assert calls == []


def test_phase_experiment_oversampled_grid_succeeds():
    report = run_phase_experiment(
        fourier_system(1), N=9, s=1, m_grid=(27,), trials=5, step_ratio=0.0625
    )
    row = report.rows[0]
    assert row.n == 1 and row.m == 27
    assert row.success_fraction == 1.0
    assert row.median_error <= PHASE_SUCCESS_THRESHOLD


def test_phase_experiment_below_information_bound_fails():
    report = run_phase_experiment(
        fourier_system(1), N=9, s=2, m_grid=(1,), trials=3, step_ratio=0.0625
    )
    assert report.rows[0].success_fraction == 0.0


def test_phase_experiment_two_dimensional_box():
    report = run_phase_experiment(
        fourier_system(2), N=9, s=1, m_grid=(27,), trials=3, step_ratio=0.0625
    )
    assert report.rows[0].success_fraction == 1.0


def test_chebyshev_n4_trials_that_ran_out_of_iterations_certify():
    # (seed_base, trial) of criterion 7's p = 1/2 sweep at n = 4 (row 0)
    # whose solves used up the 50,000-iteration budget without restarts
    for seed_base, t in ((0, 11), (0, 91), (0, 94), (1, 69), (1, 87)):
        config = ExperimentConfig(
            klass=poly_wiener(-0.5, 1.0, 0.5), n_values=(4, 8, 16, 32), trials_per_n=100,
            c_sample=0.07, c_eta=0.1, sparsity="head", feas_tol=1e-6, step_ratio=0.0625,
            seed_base=seed_base)
        rc = harness._recovery_config(config, 4)
        result = harness._rate_trial(config, rc, harness._trial_seeds(seed_base, 0, t))
        assert result.certified, (seed_base, t, result.solution.iterations)
