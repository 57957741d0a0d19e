"""Command line interface.

Subcommands:

* ``recover``: one seeded synthetic recovery run, JSON output.
* ``rates``: an error-decay sweep over n, CSV or JSON report.
* ``phase``: a success-probability table over sample counts.
* ``oracle``: reference width values (best-term, Stechkin, diagonal
  approximation numbers) as CSV rows.

Every option can also be supplied through an INI config file (one section
per subcommand, keys named like the long flags); explicit flags win.  The
``L1SAMPLE_OUTPUT_DIR`` environment variable prefixes relative output
paths; without ``--output`` reports go to stdout.  With ``--strict`` the
exit code is 2 whenever any solver trial finished uncertified.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from typing import Optional

import numpy as np

from .classes import FunctionClass
from .harness import (
    ExperimentConfig,
    _rate_trial,
    _recovery_config,
    _trial_seeds,
    check_report_format,
    report_text,
    run_phase_experiment,
    run_rate_experiment,
)
from .oracles import (
    geometric_decay,
    pietsch_diag_an,
    power_decay,
    sigma_s_l1,
    stechkin_bound,
)
from .systems import fourier_system

ENV_OUTPUT_DIR = "L1SAMPLE_OUTPUT_DIR"


def _int_list(text: str):
    return tuple(int(v) for v in str(text).replace(" ", "").split(",") if v)


def _float_list(text: str):
    return tuple(float(v) for v in str(text).replace(" ", "").split(",") if v)


# options of the two subcommands that run the rate trial
_TRIAL_OPTS = {
    "class_kind": (str, "wiener_mixed"),
    "r": (float, 1.0),
    "p": (float, None),
    "alpha": (float, None),
    "d": (int, 1),
    "theorem": (str, None),
    "c_sample": (float, 1.0),
    "c_eta": (float, 1.0),
    "eta": (float, None),
    "seed": (int, 0),
    "step_ratio": (float, 1.0),
    "output": (str, None),
}

_RECOVER_OPTS = {
    **_TRIAL_OPTS,
    "n": (int, 4),
    "M": (int, None),
    "sparsity": (int, None),
}

_RATES_OPTS = {
    **_TRIAL_OPTS,
    "n_values": (_int_list, (4, 8, 16, 32)),
    "trials": (int, 10),
    "sparsity_mode": (str, "n"),
    "format": (str, "csv"),
}

_PHASE_OPTS = {
    "d": (int, 1),
    "N": (int, 257),
    "s": (int, 5),
    "m_grid": (_int_list, (40, 80, 120, 160)),
    "trials": (int, 100),
    "seed": (int, 0),
    "step_ratio": (float, 1.0),
    "format": (str, "csv"),
    "output": (str, None),
}

_ORACLE_OPTS = {
    "which": (str, "pietsch"),
    "decay": (str, "power"),
    "parameter": (float, 1.0),
    "h_max": (int, 10_000),
    "n_values": (_int_list, (1, 2, 4, 8)),
    "values": (_float_list, None),
    "p": (float, 1.0),
    "quasi_norm": (float, 1.0),
    "output": (str, None),
}

_SECTIONS = {
    "recover": _RECOVER_OPTS,
    "rates": _RATES_OPTS,
    "phase": _PHASE_OPTS,
    "oracle": _ORACLE_OPTS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1sample",
        description="Sparse function recovery from point samples by l1 minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SECTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--strict", action="store_true", default=None,
                       help="exit 2 if any solver trial is uncertified")
        for dest, (conv, _default) in opts.items():
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, type=conv, default=None)
    return parser


def _load_config(path: str) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    config.optionxform = str
    parsed = config.read(path)
    if not parsed:
        raise ValueError(f"cannot read config file: {path}")
    return config


def _merge(args, section: str, config: Optional[configparser.ConfigParser]) -> dict:
    opts = _SECTIONS[section]
    merged = {}
    for dest, (conv, default) in opts.items():
        value = getattr(args, dest)
        if value is None and config is not None and config.has_option(section, dest):
            value = conv(config.get(section, dest))
        merged[dest] = default if value is None else value
    strict = args.strict
    if strict is None and config is not None and config.has_option(section, "strict"):
        strict = config.getboolean(section, "strict")
    merged["strict"] = bool(strict)
    if "format" in merged:  # both checks come before any trial runs
        check_report_format(merged["format"])
    merged["output"] = _output_path(merged["output"])
    return merged


def _output_path(path: Optional[str]) -> Optional[str]:
    """``path`` under ``L1SAMPLE_OUTPUT_DIR``; ValueError unless it can be written."""
    if path is None:
        return None
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base:
        path = os.path.join(base, path)  # an absolute path drops the base
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise ValueError(f"cannot write output {path}: not a file in a writable directory")
    return path


def _write_text(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _experiment_config(opts: dict, n_values, **fields) -> ExperimentConfig:
    return ExperimentConfig(
        klass=FunctionClass(opts["class_kind"], opts["r"], d=opts["d"], p=opts["p"],
                            alpha=opts["alpha"]),
        n_values=n_values,
        theorem=opts["theorem"],
        c_sample=opts["c_sample"],
        c_eta=opts["c_eta"],
        eta_override=opts["eta"],
        seed_base=opts["seed"],
        step_ratio=opts["step_ratio"],
        **fields,
    )


def _cmd_recover(opts: dict) -> int:
    config = _experiment_config(opts, (opts["n"],), trials_per_n=1)
    # trial 0 of row 0 of the matching rate sweep
    rc = _recovery_config(config, opts["n"], M=opts["M"])
    result = _rate_trial(config, rc, _trial_seeds(opts["seed"], 0, 0), opts["sparsity"])
    _write_text(json.dumps(result.to_json(), indent=2) + "\n", opts["output"])
    if opts["strict"] and not result.certified:
        return 2
    return 0


def _cmd_rates(opts: dict) -> int:
    config = _experiment_config(opts, tuple(opts["n_values"]), trials_per_n=opts["trials"],
                                sparsity=opts["sparsity_mode"])
    report = run_rate_experiment(config)
    _write_text(report_text(report, opts["format"]), opts["output"])
    if opts["strict"] and report.uncertified_trials:
        return 2
    return 0


def _cmd_phase(opts: dict) -> int:
    report = run_phase_experiment(
        fourier_system(opts["d"]),
        N=opts["N"],
        s=opts["s"],
        m_grid=tuple(opts["m_grid"]),
        trials=opts["trials"],
        seed=opts["seed"],
        step_ratio=opts["step_ratio"],
    )
    _write_text(report_text(report, opts["format"]), opts["output"])
    if opts["strict"] and report.uncertified_trials:
        return 2
    return 0


def _cmd_oracle(opts: dict) -> int:
    which = opts["which"]
    rows = []
    if which == "pietsch":
        if opts["decay"] == "power":
            spec = power_decay(opts["parameter"])
        elif opts["decay"] == "geometric":
            spec = geometric_decay(opts["parameter"])
        else:
            raise ValueError(f"unknown decay kind: {opts['decay']!r}")
        for n in opts["n_values"]:
            value, at_cutoff = pietsch_diag_an(spec, n, h_max=opts["h_max"])
            rows.append(("pietsch", n, value, int(at_cutoff)))
    elif which == "sigma_l1":
        if not opts["values"]:
            raise ValueError("sigma_l1 needs --values")
        vec = np.asarray(opts["values"], dtype=float)
        for n in opts["n_values"]:
            rows.append(("sigma_l1", n, sigma_s_l1(vec, n), ""))
    elif which == "stechkin":
        for n in opts["n_values"]:
            rows.append(("stechkin", n, stechkin_bound(opts["p"], n, opts["quasi_norm"]), ""))
    else:
        raise ValueError(f"unknown oracle: {which!r}")
    lines = ["oracle,n,value,attained"]
    for name, n, value, flag in rows:
        lines.append("%s,%d,%.17g,%s" % (name, n, value, flag))
    _write_text("\n".join(lines) + "\n", opts["output"])
    return 0


_HANDLERS = {
    "recover": _cmd_recover,
    "rates": _cmd_rates,
    "phase": _cmd_phase,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else None
        opts = _merge(args, args.command, config)
        return _HANDLERS[args.command](opts)
    except (ValueError, OSError) as exc:
        print(f"l1sample: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
