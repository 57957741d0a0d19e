"""Command line interface: argument parsing, INI config merging, output
routing (stdout / files / L1SAMPLE_OUTPUT_DIR), strict mode, and the
oracle subcommand's CSV contract."""

import json
import subprocess

import numpy as np
import pytest

from l1sample import cli, harness
from l1sample.classes import wiener_mixed
from l1sample.harness import ExperimentConfig, run_rate_experiment
from l1sample.oracles import pietsch_diag_an, power_decay, sigma_s_l1, stechkin_bound


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser basics


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_invalid_class_kind_exits_2(capsys):
    code, _out, err = run_cli(
        ["recover", "--class-kind", "bogus", "--n", "2"], capsys
    )
    assert code == 2
    assert "l1sample: error:" in err


# ---------------------------------------------------------------------------
# recover


TINY_RECOVER = [
    "recover",
    "--class-kind", "wiener_mixed",
    "--r", "1",
    "--n", "2",
    "--M", "1",
    "--eta", "0.0",
    "--seed", "0",
    "--step-ratio", "0.0625",
]


def test_recover_writes_json_to_stdout(capsys):
    code, out, _err = run_cli(TINY_RECOVER, capsys)
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {
        "theorem",
        "eta",
        "samples_used",
        "certified",
        "objective",
        "residual_norm",
        "iterations",
        "duality_gap",
        "l2_error",
        "expansion",
    }
    assert obj["certified"] is True
    assert obj["eta"] == 0.0
    assert obj["samples_used"] >= 1
    assert isinstance(obj["expansion"], dict)


def test_recover_is_deterministic_for_a_seed(capsys):
    code1, out1, _ = run_cli(TINY_RECOVER, capsys)
    code2, out2, _ = run_cli(TINY_RECOVER, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("theorem", ["fourier3", "fourier_grid"])
def test_recover_is_trial_zero_of_the_rate_sweep(theorem, capsys):
    seed, n = 7, 4
    code, out, _err = run_cli([
        "recover", "--class-kind", "wiener_mixed", "--r", "1", "--n", str(n),
        "--theorem", theorem, "--seed", str(seed), "--step-ratio", "0.0625",
    ], capsys)
    assert code == 0
    obj = json.loads(out)
    report = run_rate_experiment(ExperimentConfig(
        wiener_mixed(1.0, 1), (n,), trials_per_n=1, theorem=theorem,
        seed_base=seed, step_ratio=0.0625,
    ))
    (row,) = report.rows
    assert obj["certified"] is (row.success_fraction == 1.0)
    assert obj["certified"]
    assert obj["l2_error"] == row.median_error
    assert obj["samples_used"] == row.m


def test_recover_output_file_respects_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path))
    code, out, _err = run_cli(TINY_RECOVER + ["--output", "run.json"], capsys)
    assert code == 0
    assert out == ""
    obj = json.loads((tmp_path / "run.json").read_text())
    assert obj["certified"] is True


def test_absolute_output_path_ignores_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    code, _out, _err = run_cli(TINY_RECOVER + ["--output", str(target)], capsys)
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "elsewhere").exists()


def test_strict_exits_2_when_solver_is_uncertified(capsys):
    # a wildly unbalanced primal/dual step split stalls the solver inside
    # its iteration budget, so the run finishes without a certificate
    argv = [a for a in TINY_RECOVER]
    argv[argv.index("--step-ratio") + 1] = "1e6"
    code, out, _err = run_cli(argv + ["--strict"], capsys)
    assert code == 2
    assert json.loads(out)["certified"] is False


def test_without_strict_uncertified_still_exits_0(capsys):
    argv = [a for a in TINY_RECOVER]
    argv[argv.index("--step-ratio") + 1] = "1e6"
    code, out, _err = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["certified"] is False


# ---------------------------------------------------------------------------
# INI config merging


def test_config_supplies_values_and_flags_win(tmp_path, capsys):
    config = tmp_path / "oracle.ini"
    config.write_text(
        "[oracle]\nwhich = stechkin\np = 0.5\nn_values = 1,4\n"
    )
    # config only: p = 0.5
    code, out, _err = run_cli(["oracle", "--config", str(config)], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "oracle,n,value,attained"
    values = [float(line.split(",")[2]) for line in rows[1:]]
    assert values == [stechkin_bound(0.5, 1, 1.0), stechkin_bound(0.5, 4, 1.0)]

    # explicit flag beats the config value
    code, out, _err = run_cli(
        ["oracle", "--config", str(config), "--p", "0.25"], capsys
    )
    assert code == 0
    values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert values == [stechkin_bound(0.25, 1, 1.0), stechkin_bound(0.25, 4, 1.0)]
    assert values != [stechkin_bound(0.5, 1, 1.0), stechkin_bound(0.5, 4, 1.0)]


def test_strict_can_come_from_the_config_file(tmp_path, capsys):
    config = tmp_path / "recover.ini"
    config.write_text(
        "[recover]\n"
        "class_kind = wiener_mixed\n"
        "r = 1\n"
        "n = 2\n"
        "M = 1\n"
        "eta = 0.0\n"
        "seed = 0\n"
        "step_ratio = 1e6\n"
        "strict = true\n"
    )
    code, out, _err = run_cli(["recover", "--config", str(config)], capsys)
    assert code == 2
    assert json.loads(out)["certified"] is False

    # the flag overrides the config's step split, fixing the run
    code, out, _err = run_cli(
        ["recover", "--config", str(config), "--step-ratio", "0.0625"], capsys
    )
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _out, err = run_cli(
        ["oracle", "--config", str(tmp_path / "nope.ini")], capsys
    )
    assert code == 2
    assert "cannot read config file" in err


# ---------------------------------------------------------------------------
# rates / phase plumbing


TINY_RATES = [
    "rates",
    "--class-kind", "wiener_mixed",
    "--r", "1",
    "--n-values", "2,4",
    "--trials", "2",
    "--c-sample", "0.5",
    "--c-eta", "0.1",
    "--step-ratio", "0.0625",
]


def test_rates_csv_to_stdout(capsys):
    code, out, _err = run_cli(TINY_RATES, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,median_error,q25,q75,success_fraction"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert int(first[0]) == 2 and int(second[0]) == 4
    assert 0.0 <= float(first[5]) <= 1.0


def test_rates_json_to_file(tmp_path, capsys):
    target = tmp_path / "rates.json"
    code, out, _err = run_cli(
        TINY_RATES + ["--format", "json", "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert [row["n"] for row in report["rows"]] == [2, 4]
    assert report["uncertified_trials"] == 0
    assert report["predicted_n"] is not None


TINY_PHASE = ["phase", "--N", "9", "--s", "1", "--m-grid", "27", "--trials", "2"]


def test_rates_nan_constant_exits_2_before_any_trial(monkeypatch, capsys):
    monkeypatch.setattr(harness, "recover", lambda *args, **kwargs: pytest.fail("a trial ran"))
    code, _out, err = run_cli(TINY_RATES + ["--c-eta", "nan"], capsys)
    assert code == 2
    assert "leading constants must be positive" in err


def test_rates_bad_format_exits_2(tmp_path, monkeypatch, capsys):
    # the format, from a flag or the config file, is checked before any trial runs
    for name in ("run_rate_experiment", "run_phase_experiment"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a trial ran"))
    config = tmp_path / "phase.ini"
    config.write_text("[phase]\nformat = yaml\n")
    for argv in (TINY_RATES + ["--format", "xml"], TINY_PHASE + ["--format", "xml"],
                 TINY_PHASE + ["--config", str(config)]):
        code, _out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("l1sample: error:") and "format" in err


def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys):
    # the output, from a flag or under L1SAMPLE_OUTPUT_DIR, is checked with the
    # format, before any trial runs
    for name in ("run_rate_experiment", "run_phase_experiment", "_rate_trial"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a trial ran"))
    missing = tmp_path / "no" / "such"
    target = missing / "out.csv"
    for argv in (TINY_PHASE, TINY_RATES, TINY_RECOVER):
        code, out, err = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("l1sample: error:") and str(target) in err
        assert len(err.splitlines()) == 1
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(missing))
    code, _out, err = run_cli(TINY_PHASE + ["--output", "out.csv"], capsys)
    assert code == 2 and str(target) in err
    # an existing directory is not a file to write
    code, _out, _err = run_cli(TINY_PHASE + ["--output", str(tmp_path)], capsys)
    assert code == 2


def test_phase_json_report(capsys):
    code, out, _err = run_cli(
        [
            "phase",
            "--N", "9",
            "--s", "1",
            "--m-grid", "27",
            "--trials", "2",
            "--seed", "0",
            "--step-ratio", "0.0625",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert (row["n"], row["m"]) == (1, 27)
    assert row["success_fraction"] == 1.0


def test_phase_rejects_bad_box(capsys):
    # 8 is not (2D+1)**d for any half-width D
    code, _out, err = run_cli(["phase", "--N", "8"], capsys)
    assert code == 2
    assert "l1sample: error:" in err


# ---------------------------------------------------------------------------
# oracle subcommand


def test_oracle_pietsch_rows_match_library(capsys):
    code, out, _err = run_cli(
        [
            "oracle",
            "--which", "pietsch",
            "--decay", "power",
            "--parameter", "1.5",
            "--n-values", "1,2,4",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "oracle,n,value,attained"
    spec = power_decay(1.5)
    for line, n in zip(lines[1:], (1, 2, 4)):
        name, n_text, value, flag = line.split(",")
        expected, at_cutoff = pietsch_diag_an(spec, n)
        assert name == "pietsch"
        assert int(n_text) == n
        assert float(value) == expected
        assert flag == str(int(at_cutoff))


def test_oracle_sigma_l1_uses_the_given_vector(capsys):
    code, out, _err = run_cli(
        [
            "oracle",
            "--which", "sigma_l1",
            "--values", "4,1,3,2",
            "--n-values", "0,1,2",
        ],
        capsys,
    )
    assert code == 0
    vec = np.array([4.0, 1.0, 3.0, 2.0])
    values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert values == [sigma_s_l1(vec, n) for n in (0, 1, 2)]


def test_oracle_sigma_l1_without_values_exits_2(capsys):
    code, _out, err = run_cli(["oracle", "--which", "sigma_l1"], capsys)
    assert code == 2
    assert "needs --values" in err


def test_oracle_unknown_kind_exits_2(capsys):
    code, _out, err = run_cli(["oracle", "--which", "kolmogorov"], capsys)
    assert code == 2
    assert "unknown oracle" in err


def test_oracle_unknown_decay_exits_2(capsys):
    code, _out, err = run_cli(
        ["oracle", "--which", "pietsch", "--decay", "cubic"], capsys
    )
    assert code == 2
    assert "unknown decay" in err


def test_oracle_geometric_decay_runs(capsys):
    code, out, _err = run_cli(
        [
            "oracle",
            "--which", "pietsch",
            "--decay", "geometric",
            "--parameter", "0.5",
            "--n-values", "1,2",
        ],
        capsys,
    )
    assert code == 0
    values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert values[0] > values[1] > 0.0


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_is_installed():
    proc = subprocess.run(
        [
            "l1sample",
            "oracle",
            "--which", "stechkin",
            "--p", "1.0",
            "--n-values", "1,2",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "oracle,n,value,attained"
