"""Command-line front door: tables, audits, experiments, and the acceptance
suite, emitting CSV or JSON.

Every run is reproducible from its configuration: all randomness flows
through the documented seed expansion.  Exit status encodes the outcome:
0 clean, 1 when a verification found violations, 2 for usage errors
(including a bad value in a --config file), 3 when the program crashed on
an unexpected exception, which is reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import acceptance, bitsampler, languages, owf, threshold, turing
from .errors import BudgetError, DegenerateParameters, TapeExhausted

DEFAULTS = {
    "seed": 1,
    "beta": 2,
    "alpha": None,
    "n": 100,
    "ell": 1000,
    "trials": 10_000,
    "oracle": "sq",
    "k_profile": "practical",
    "format": "csv",
    "out": "-",
}

# Per-command defaults layered over the globals (sample's n is a base size,
# not a table limit).
PER_COMMAND_DEFAULTS = {
    "sample": {"n": 2, "format": "json"},
    "owf": {"ell": 600, "beta": 1, "alpha": "8", "format": "json",
            "k_profile": "paper"},
    "census": {"ell": turing.CENSUS_LENGTH_GUARD},
}

# Commands whose report nests lists and objects, which a CSV table cannot hold.
JSON_ONLY = ("sample", "owf")

# (type, choices) of each shared flag.  argparse applies them to flags, and
# _merge_config holds --config file values to the same.
FLAG_TYPES = {
    "seed": (int, None),
    "beta": (int, None),
    "alpha": (str, None),
    "n": (int, None),
    "ell": (int, None),
    "trials": (int, None),
    "oracle": (str, None),
    "k_profile": (str, ("paper", "practical")),
    "format": (str, ("csv", "json")),
    "out": (str, None),
}

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of flag defaults (flags win)")
    for key, (kind, choices) in FLAG_TYPES.items():
        common.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=kind,
            choices=choices,
            help="rational like 8 or 50/3" if key == "alpha" else None,
        )

    parser = argparse.ArgumentParser(
        prog="owflab",
        description="verification tables and experiments for the "
        "threshold-sampling construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("density", parents=[common], help="density table up to x = ELL")
    sub.add_parser(
        "threshold", parents=[common], help="sandwich table and regime grid, N in [4, N]"
    )
    sub.add_parser("verify-all", parents=[common], help="run the acceptance suite")
    sub.add_parser("sample", parents=[common], help="sampling-error experiment report")
    sub.add_parser("owf", parents=[common], help="evaluate the bit encoder once")
    sub.add_parser("census", parents=[common], help="diagonal census up to ELL")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    merged.update(PER_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise SystemExit(f"cannot read config file: {exc}") from None
        if not isinstance(file_values, dict):
            raise SystemExit("the config file must hold a JSON object")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            _check_config_value(key, value)
        merged.update(file_values)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _check_config_value(key: str, value) -> None:
    """Refuse a file value the flag would not accept.  JSON values are
    already typed, so they are checked rather than converted: "7" is not an
    integer, and true is not one either.  null keeps a default of null."""
    kind, choices = FLAG_TYPES[key]
    if value is None and DEFAULTS[key] is None:
        return
    if type(value) is not kind:
        want = "an integer" if kind is int else "a string"
        raise SystemExit(f"config key {key!r}: {value!r} is not {want}")
    if choices and value not in choices:
        raise SystemExit(f"config key {key!r}: {value!r} is not one of {list(choices)}")


def _resolve_oracle(name: str) -> languages.LanguageOracle:
    if name == "sq":
        return languages.SQ
    if name == "cube":
        return languages.power_oracle(3)
    if name.startswith("power:"):
        return languages.power_oracle(int(name.split(":", 1)[1]))
    if name in ("sigma-star", "all"):
        return languages.sigma_star_oracle()
    if name == "empty":
        return languages.empty_oracle()
    raise SystemExit(f"unknown oracle {name!r}")


def _parse_alpha(value) -> Fraction | None:
    if value is None:
        return None
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise SystemExit(f"alpha {value!r} has a zero denominator") from None


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write the output: {exc}") from None


class Table(NamedTuple):
    """A report table: ``columns`` are its CSV header and the keys of its
    JSON row objects."""

    columns: tuple[str, ...]
    rows: list[tuple]


def _plain(value):
    """A value as it stands in a CSV cell or the comment line."""
    if isinstance(value, bool):
        return int(value)
    if value is None:
        return ""
    if isinstance(value, dict):
        return json.dumps(value)
    return value


def render(fmt: str, command: str, fields: dict, *, timestamp: bool = True) -> str:
    """Serialize one report: the scalars and Tables in ``fields``, in order.

    JSON is ``timestamp`` and then ``fields``, each Table as a list of row
    objects.  CSV is a ``# generated`` line, a ``# owflab COMMAND k=v ...``
    line of the scalars (none when there are none), then each Table as a
    header and its rows, each Table after the first under ``# NAME``."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if fmt == "json":
        payload = {"timestamp": stamp} if timestamp else {}
        for name, value in fields.items():
            if isinstance(value, Table):
                value = [dict(zip(value.columns, row)) for row in value.rows]
            payload[name] = value
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    if timestamp:
        out.write(f"# generated {stamp}\n")
    scalars = [f"{k}={_plain(v)}" for k, v in fields.items() if not isinstance(v, Table)]
    if scalars:
        out.write(f"# owflab {command} {' '.join(scalars)}\n")
    writer = csv.writer(out, lineterminator="\n")
    tables = [(k, v) for k, v in fields.items() if isinstance(v, Table)]
    for i, (name, table) in enumerate(tables):
        if i:
            out.write(f"# {name.replace('_', ' ')}\n")
        writer.writerow(table.columns)
        writer.writerows([_plain(v) for v in row] for row in table.rows)
    return out.getvalue()


def _cmd_density(cfg: dict) -> int:
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
    fields = {
        "oracle": oracle.name,
        "limit": limit,
        "violations": violations,
        "rows": Table(("x", "dens", "lower_bound", "upper_bound"), rows),
    }
    _write(cfg["out"], render(cfg["format"], "density", fields))
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_threshold(cfg: dict) -> int:
    n_max = cfg["n"]
    sandwich_rows = []
    violations = 0
    for N, good, mstar, lo, up, pr_at, pr_after in threshold.threshold_table_rows(n_max):
        ok = max(0, lo) <= mstar <= up
        if not ok:
            violations += 1
        sandwich_rows.append(
            (N, good, mstar, lo, up, float(pr_at), float(pr_after), ok)
        )
    grid_rows = []
    for v in threshold.bollobas_grid(min(n_max, 200)):
        grid_rows.append((v.N, v.good, int(v.theta), v.m, v.regime, v.holds))
        if v.holds is False:
            violations += 1
    fields = {
        "n_max": n_max,
        "violations": violations,
        "sandwich": Table(
            ("N", "good", "mstar", "mu_lower", "mu_upper", "pr_at_mstar",
             "pr_after_mstar", "sandwich_ok"),
            sandwich_rows,
        ),
        "bollobas_grid": Table(("N", "good", "theta", "m", "regime", "holds"), grid_rows),
    }
    _write(cfg["out"], render(cfg["format"], "threshold", fields))
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_verify_all(cfg: dict) -> int:
    config = acceptance.VerifyConfig(
        seed=cfg["seed"],
        trials=cfg["trials"],
        owf_trials=cfg["trials"],
        k_profile=cfg["k_profile"],
    )
    results = []
    for crit in acceptance.CRITERIA:
        result = acceptance.run_criterion(crit.ident, config)
        print(result.line(), file=sys.stderr)
        results.append(result)
    fields = acceptance.report_fields(results, config)
    _write(cfg["out"], render(cfg["format"], "verify-all", fields))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATIONS


def _cmd_sample(cfg: dict) -> int:
    oracle = _resolve_oracle(cfg["oracle"])
    report = owf.sampling_error_experiment(
        cfg["n"],
        cfg["beta"],
        oracle,
        cfg["trials"],
        cfg["seed"],
        alpha=_parse_alpha(cfg["alpha"]),
        k_profile=cfg["k_profile"],
    )
    _write(cfg["out"], render("json", "sample", report.to_json_dict()))
    return EXIT_OK


def _cmd_owf(cfg: dict) -> int:
    ell = cfg["ell"]
    w = bitsampler.expand_seed_bits(cfg["seed"], ell)
    out = owf.owf_evaluate(
        w, cfg["beta"], k_profile=cfg["k_profile"], alpha=_parse_alpha(cfg["alpha"])
    )
    fields = {
        "ell": ell,
        "beta": cfg["beta"],
        "n": out.n,
        "N": out.params.N,
        "m": out.params.m,
        "m_degenerate": out.params.m_degenerate,
        "bits_consumed": out.bits_consumed,
        "sets": [list(s.members) for s in out.sets],
    }
    _write(cfg["out"], render("json", "owf", fields))
    return EXIT_OK


def _cmd_census(cfg: dict) -> int:
    # A length past turing.CENSUS_LENGTH_GUARD raises BudgetError: exit 2.
    rows = list(turing.census_csv_rows(cfg["ell"]))
    fields = {"rows": Table(("length", "diagonal_count", "header_classes"), rows)}
    _write(cfg["out"], render(cfg["format"], "census", fields))
    return EXIT_OK


_COMMANDS = {
    "density": _cmd_density,
    "threshold": _cmd_threshold,
    "verify-all": _cmd_verify_all,
    "sample": _cmd_sample,
    "owf": _cmd_owf,
    "census": _cmd_census,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        if args.command in JSON_ONLY and cfg["format"] != "json":
            raise SystemExit(f"owflab {args.command} writes JSON only, not --format csv")
        return _COMMANDS[args.command](cfg)
    except (BudgetError, DegenerateParameters, TapeExhausted, ValueError) as exc:
        print(f"owflab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse signals usage errors with code 2 already; normalize
        # string payloads (our own raises) to the usage exit code.
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if exc.code is not None else EXIT_OK
    except Exception as exc:
        # A crash must not read as a verdict (exit 1) or as bad usage.
        print(f"owflab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    # Run main from the package module, not from this __main__ copy of it:
    # acceptance builds its Table from owflab.cli, and render checks for it.
    from owflab.cli import main as package_main

    sys.exit(package_main())
