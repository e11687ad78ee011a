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
import json
import sys
import time
from fractions import Fraction
from typing import Sequence

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
    "sample": {"n": 2},
    "owf": {"ell": 600, "beta": 1, "alpha": "8", "format": "json",
            "k_profile": "paper"},
}

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
    return Fraction(value)


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write the output: {exc}") from None


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _cmd_density(cfg: dict) -> int:
    oracle = _resolve_oracle(cfg["oracle"])
    limit = cfg["ell"]
    rows = list(languages.density_csv_rows(oracle, limit)) if limit >= 1 else []
    violations = 0
    for x, dens, _, _ in rows:
        if x >= oracle.x0 and not (
            languages.lower_bound_holds(oracle, x, dens)
            and languages.upper_bound_holds(x, dens)
        ):
            violations += 1
    if cfg["format"] == "json":
        text = json.dumps(
            {
                "timestamp": _timestamp(),
                "oracle": oracle.name,
                "limit": limit,
                "violations": violations,
                "rows": [
                    {"x": x, "dens": dens, "lower": lo, "upper": up}
                    for x, dens, lo, up in rows
                ],
            },
            indent=2,
        ) + "\n"
    else:
        lines = [
            f"# generated {_timestamp()}",
            f"# owflab density oracle={oracle.name} limit={limit} "
            f"violations={violations}",
            "x,dens,lower_bound,upper_bound",
        ]
        lines += [f"{x},{dens},{lo!r},{up!r}" for x, dens, lo, up in rows]
        text = "\n".join(lines) + "\n"
    _write(cfg["out"], text)
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
    if cfg["format"] == "json":
        text = json.dumps(
            {
                "timestamp": _timestamp(),
                "n_max": n_max,
                "violations": violations,
                "sandwich": [
                    {
                        "N": N, "good": g, "mstar": ms, "mu_lower": lo,
                        "mu_upper": up, "pr_at_mstar": pa, "pr_after": pf,
                        "ok": ok,
                    }
                    for N, g, ms, lo, up, pa, pf, ok in sandwich_rows
                ],
                "bollobas_grid": [
                    {
                        "N": N, "good": g, "theta": th, "m": m,
                        "regime": reg, "holds": holds,
                    }
                    for N, g, th, m, reg, holds in grid_rows
                ],
            },
            indent=2,
        ) + "\n"
    else:
        lines = [
            f"# generated {_timestamp()}",
            f"# owflab threshold n_max={n_max} violations={violations}",
            "N,good,mstar,mu_lower,mu_upper,pr_at_mstar,pr_after_mstar,sandwich_ok",
        ]
        lines += [
            f"{N},{g},{ms},{lo},{up},{pa!r},{pf!r},{int(ok)}"
            for N, g, ms, lo, up, pa, pf, ok in sandwich_rows
        ]
        lines.append("# bollobas grid")
        lines.append("N,good,theta,m,regime,holds")
        lines += [
            f"{N},{g},{th},{m},{reg},{'' if holds is None else int(holds)}"
            for N, g, th, m, reg, holds in grid_rows
        ]
        text = "\n".join(lines) + "\n"
    _write(cfg["out"], text)
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
    text = acceptance.render_report(results, config, cfg["format"])
    _write(cfg["out"], text)
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
    payload = {"timestamp": _timestamp(), **report.to_json_dict()}
    _write(cfg["out"], json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_owf(cfg: dict) -> int:
    ell = cfg["ell"]
    w = bitsampler.expand_seed_bits(cfg["seed"], ell)
    out = owf.owf_evaluate(
        w, cfg["beta"], k_profile=cfg["k_profile"], alpha=_parse_alpha(cfg["alpha"])
    )
    payload = {
        "timestamp": _timestamp(),
        "ell": ell,
        "beta": cfg["beta"],
        "n": out.n,
        "N": out.params.N,
        "m": out.params.m,
        "m_degenerate": out.params.m_degenerate,
        "bits_consumed": out.bits_consumed,
        "sets": [list(s.members) for s in out.sets],
    }
    _write(cfg["out"], json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_census(cfg: dict) -> int:
    max_len = min(cfg["ell"], turing.CENSUS_LENGTH_GUARD)
    rows = list(turing.census_csv_rows(max_len))
    if cfg["format"] == "json":
        text = json.dumps(
            {
                "timestamp": _timestamp(),
                "rows": [
                    {"length": l, "diagonal_count": c, "header_classes": h}
                    for l, c, h in rows
                ],
            },
            indent=2,
        ) + "\n"
    else:
        lines = [
            f"# generated {_timestamp()}",
            "length,diagonal_count,header_classes",
        ]
        lines += [f"{l},{c},{h}" for l, c, h in rows]
        text = "\n".join(lines) + "\n"
    _write(cfg["out"], text)
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
    sys.exit(main())
