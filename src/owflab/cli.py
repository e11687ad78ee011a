"""Command-line front door: tables, audits, experiments, and the acceptance
suite, emitting CSV or JSON.

Flags are the one input: a run is a function of its flags, all randomness
flows through the documented seed expansion, and each report records the
flags that ran.  Exit status encodes the outcome:
0 clean, 1 when a verification found violations, 2 for a refused argument,
3 for a crash.  A refusal, raised here or in the package, is a ValueError,
BudgetError or TapeExhausted, and ``main`` prints it as one line on stderr,
``owflab: <reason>``; argparse reports a malformed flag itself.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import acceptance, bitsampler, languages, owf, threshold, turing
from .errors import BudgetError, TapeExhausted
from .report import Table, render

# (type, choices) of each flag.  argparse applies them to the flags given but
# not to a Command's defaults; tests/test_cli.py holds the defaults to them.
FLAG_TYPES = {
    "seed": (int, None),
    "beta": (int, None),
    "alpha": (str, None),
    "n": (int, None),
    "ell": (int, None),
    "trials": (int, None),
    "oracle": (str, None),
    "k_profile": (str, tuple(bitsampler.K_PROFILES)),
    "format": (str, ("csv", "json")),
    "out": (str, None),
}

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owflab",
        description="verification tables and experiments for the "
        "threshold-sampling construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for key, default in command.flags.items():
            kind, choices = FLAG_TYPES[key]
            cmd.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=kind,
                choices=choices,
                default=default,
                help="rational like 8 or 50/3" if key == "alpha" else None,
            )
    return parser


# The --oracle spellings besides power:R, the r-th powers.  An entry reads
# languages when a command runs, not at import, so that a traced run gets
# the SQ and power_oracle it swapped in.  A report names its oracle by the
# spelling that ran.
ORACLES = {
    "sq": lambda: languages.SQ,
    "cube": lambda: languages.power_oracle(3),
    "sigma-star": lambda: languages.SIGMA_STAR,
    "empty": lambda: languages.EMPTY,
}


def _resolve_oracle(name: str) -> languages.LanguageOracle:
    if name in ORACLES:
        return ORACLES[name]()
    # R is ASCII digits without a leading zero, so that one oracle has one
    # spelling: int() alone would also take "0_3", "+3", "03" and " 3".
    prefix, _, degree = name.partition(":")
    if prefix == "power" and degree.isascii() and degree.isdigit() and degree[0] != "0":
        return languages.power_oracle(int(degree))
    raise ValueError(f"unknown oracle {name!r}")


def _parse_alpha(value) -> Fraction | None:
    if value is None:
        return None
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"alpha {value!r} has a zero denominator") from None


def _write(out: str, fmt: str, command: str, fields: dict) -> None:
    try:
        with contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w") as fh:
            render(fmt, command, fields, fh)
            fh.flush()
    except OSError as exc:
        if out == "-" and isinstance(exc, BrokenPipeError):
            # The reader closed stdout early, as `| head` does: the rest of
            # the report is unwanted, not refused, and the run's status
            # stands.  stdout goes to devnull so that its flush at exit
            # meets no closed pipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return
        raise ValueError(f"cannot write the output: {exc}") from None


def _cmd_density(cfg: dict) -> tuple[dict, bool]:
    oracle = _resolve_oracle(cfg["oracle"])
    limit = cfg["ell"]
    rows = list(languages.density_csv_rows(oracle, limit))
    violations = 0
    for x, dens, _, _ in rows:
        if x >= oracle.x0 and not (
            languages.lower_bound_holds(oracle, x, dens)
            and languages.upper_bound_holds(x, dens)
        ):
            violations += 1
    return {
        "oracle": cfg["oracle"],
        "limit": limit,
        "violations": violations,
        "rows": Table(("x", "dens", "lower_bound", "upper_bound"), rows),
    }, not violations


def _cmd_threshold(cfg: dict) -> tuple[dict, bool]:
    n_max = cfg["n"]
    sandwich_rows = list(threshold.sandwich_grid(n_max))
    grid_rows = [(v.N, v.good, v.theta, v.m, v.regime, v.holds)
                 for v in threshold.bollobas_grid(min(n_max, 200))]
    violations = sum(not row[-1] for row in sandwich_rows)
    violations += sum(row[-1] is False for row in grid_rows)
    return {
        "n_max": n_max,
        "violations": violations,
        "sandwich": Table(
            ("N", "good", "mstar", "mu_lower", "mu_upper", "pr_at_mstar",
             "pr_after_mstar", "sandwich_ok"),
            sandwich_rows,
        ),
        "bollobas_grid": Table(("N", "good", "theta", "m", "regime", "holds"), grid_rows),
    }, not violations


def _cmd_verify_all(cfg: dict) -> tuple[dict, bool]:
    config = acceptance.VerifyConfig(
        seed=cfg["seed"], trials=cfg["trials"], k_profile=cfg["k_profile"]
    )
    acceptance.check_config(config)  # refuses a bad seed or trials before C1
    results = []
    for crit in acceptance.CRITERIA:
        result = acceptance.run_criterion(crit.ident, config)
        print(result.line(), file=sys.stderr)
        results.append(result)
    return acceptance.report_fields(results, config), all(r.passed for r in results)


def _cmd_sample(cfg: dict) -> tuple[dict, bool]:
    oracle = _resolve_oracle(cfg["oracle"])
    alpha = _parse_alpha(cfg["alpha"])
    report = owf.sampling_error_experiment(
        cfg["n"],
        cfg["beta"],
        oracle,
        cfg["trials"],
        cfg["seed"],
        alpha=alpha,
        k_profile=cfg["k_profile"],
    )
    fields = report.to_json_dict()
    # The alpha that ran, derived from beta when the flag is left out.
    ran = threshold.sampler_params(cfg["n"], cfg["beta"], alpha).alpha
    fields["params"].update(seed=cfg["seed"], oracle=cfg["oracle"], alpha=str(ran))
    return fields, True


def _cmd_owf(cfg: dict) -> tuple[dict, bool]:
    tape = bitsampler.BitTape.from_seed(cfg["seed"], cfg["ell"])
    out = owf.owf_evaluate(
        tape, cfg["beta"], k_profile=cfg["k_profile"], alpha=_parse_alpha(cfg["alpha"])
    )
    return {
        "ell": cfg["ell"],
        "beta": cfg["beta"],
        "alpha": str(out.params.alpha),
        "k_profile": cfg["k_profile"],
        "seed": cfg["seed"],
        "n": out.n,
        "N": out.params.N,
        "m": out.params.m,
        "m_degenerate": out.params.m_degenerate,
        "bits_consumed": out.bits_consumed,
        "sets": [list(s.members) for s in out.sets],
    }, True


def _cmd_census(cfg: dict) -> tuple[dict, bool]:
    rows = list(turing.census_csv_rows(cfg["ell"]))
    return {"rows": Table(("length", "diagonal_count", "header_classes"), rows)}, True


class Command(NamedTuple):
    """An owflab command: the handler, which returns the report's fields and
    whether the run found no violations; the help line; and each flag the
    run reads, with the default its argparse subparser holds.  A command
    without --format writes JSON, since its report nests lists and objects
    that CSV cannot hold."""

    run: Callable[[dict], tuple[dict, bool]]
    help: str
    flags: dict


COMMANDS = {
    "density": Command(_cmd_density, "density table up to x = ELL",
                       {"oracle": "sq", "ell": 1000, "format": "csv", "out": "-"}),
    "threshold": Command(_cmd_threshold, "sandwich table and regime grid, N in [4, N]",
                         {"n": 100, "format": "csv", "out": "-"}),
    "verify-all": Command(_cmd_verify_all, "run the acceptance suite",
                          {"seed": 1, "trials": 10_000, "k_profile": "practical",
                           "format": "csv", "out": "-"}),
    "sample": Command(_cmd_sample, "sampling-error experiment report",
                      {"seed": 1, "n": 2, "beta": 2, "alpha": None, "trials": 10_000,
                       "oracle": "sq", "k_profile": "practical", "out": "-"}),
    "owf": Command(_cmd_owf, "evaluate the bit encoder once",
                   {"seed": 1, "ell": 600, "beta": 1, "alpha": "8", "k_profile": "paper",
                    "out": "-"}),
    "census": Command(_cmd_census, "diagonal census up to ELL",
                      {"ell": turing.CENSUS_LENGTH_GUARD, "format": "csv", "out": "-"}),
}


def _settings(args: argparse.Namespace) -> dict:
    """The run's settings: each flag its command declares, as parsed."""
    return {key: getattr(args, key) for key in COMMANDS[args.command].flags}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _settings(args)
        fields, passed = COMMANDS[args.command].run(cfg)
        _write(cfg["out"], cfg.get("format", "json"), args.command, fields)
        return EXIT_OK if passed else EXIT_VIOLATIONS
    except (BudgetError, TapeExhausted, ValueError) as exc:
        print(f"owflab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse's own exit: 2 for a bad flag, 0 after -h.
        return exc.code
    except Exception as exc:
        # A crash must not read as a verdict (exit 1) or as bad usage.
        print(f"owflab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
