import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from owflab import acceptance, cli, languages, report, threshold, turing
from owflab.cli import main


def run_cli(args):
    return main(args)


def strip_timestamps(text):
    return "\n".join(
        line
        for line in text.splitlines()
        if "timestamp" not in line and not line.startswith("# generated")
    )


def without_timestamp(text):
    """``text`` less its ``# generated`` line or its JSON ``timestamp`` key,
    byte for byte otherwise."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not line.startswith(("# generated ", '  "timestamp": '))
    )


def csv_tables(text):
    """The tables of a CSV report in file order, each a list of rows with
    its header first.  A comment line ends a table."""
    blocks = [[]]
    for line in text.splitlines(keepends=True):
        if line.startswith("#"):
            blocks.append([])
        else:
            blocks[-1].append(line)
    return [list(csv.reader(block)) for block in blocks if block]


def as_cell(value):
    """A JSON value as the CSV report writes it."""
    if isinstance(value, bool):
        return str(int(value))
    return "" if value is None else str(value)


def test_density_csv(tmp_path):
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--oracle", "sq", "--ell", "50", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "x,dens,lower_bound,upper_bound"
    assert len(lines) == 3 + 50
    assert lines[3].startswith("1,0,")
    # row for x = 25 carries the third square
    assert lines[2 + 25].startswith("25,3,")


def test_density_empty_limit(tmp_path):
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--ell", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "x,dens,lower_bound,upper_bound"


def test_density_full_language_flags_violations(tmp_path):
    out = tmp_path / "density.csv"
    code = run_cli(
        ["density", "--oracle", "sigma-star", "--ell", "100", "--out", str(out)]
    )
    assert code == 1  # the sqrt ceiling fails everywhere; reported via exit


def test_malformed_power_oracle_is_named(capsys):
    assert run_cli(["density", "--oracle", "power:x", "--ell", "10"]) == 2
    assert capsys.readouterr().err == "owflab: unknown oracle 'power:x'\n"


@pytest.mark.parametrize("degree", ["0_3", "+3", "03", " 3"])
def test_power_oracle_degree_has_one_spelling(capsys, degree):
    # int() reads each of these as 3, so a report would name the cube
    # oracle by a spelling of its own.
    name = f"power:{degree}"
    assert run_cli(["density", "--oracle", name, "--ell", "10", "--format", "json"]) == 2
    assert capsys.readouterr() == ("", f"owflab: unknown oracle {name!r}\n")


@pytest.mark.parametrize("command", ["density", "sample"])
def test_power_oracle_degree_past_the_bound_is_usage_error(capsys, command):
    # power:R builds 2**R per member test; R = 10**6 took 20 s at --ell 10000.
    assert run_cli([command, "--oracle", "power:1000000", "--out", "-"]) == 2
    assert capsys.readouterr() == ("", "owflab: power oracles need 2 <= r <= 64\n")


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_threshold_table(tmp_path):
    out = tmp_path / "threshold.csv"
    assert run_cli(["threshold", "--n", "20", "--out", str(out)]) == 0
    text = out.read_text()
    assert "N,good,mstar,mu_lower,mu_upper" in text
    assert "\n4,2,1,0,2," in text  # the hand-checked (4, 2) row
    assert "# bollobas grid" in text


def test_threshold_empty_range(tmp_path):
    out = tmp_path / "threshold.csv"
    assert run_cli(["threshold", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "N,good,mstar,mu_lower,mu_upper,pr_at_mstar,pr_after_mstar,sandwich_ok"
    assert lines[3] == "# bollobas grid"


def test_census_rows(tmp_path):
    out = tmp_path / "census.csv"
    assert run_cli(["census", "--ell", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "length,diagonal_count,header_classes"
    assert "4,16,4" in lines
    assert "8,256,8" in lines


def test_census_refuses_lengths_past_the_guard(tmp_path, capsys):
    out = tmp_path / "census.csv"
    too_long = str(turing.CENSUS_LENGTH_GUARD + 1)
    assert run_cli(["census", "--ell", too_long, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
    # Without --ell the census runs up to the guard.
    assert run_cli(["census", "--out", str(out)]) == 0
    (table,) = csv_tables(out.read_text())
    assert [row[0] for row in table[1:]] == [
        str(length) for length in range(1, turing.CENSUS_LENGTH_GUARD + 1)
    ]


CENSUS_4 = {
    "csv": """\
length,diagonal_count,header_classes
1,2,1
2,4,2
3,8,4
4,16,4
""",
    "json": """\
{
  "rows": [
    {
      "length": 1,
      "diagonal_count": 2,
      "header_classes": 1
    },
    {
      "length": 2,
      "diagonal_count": 4,
      "header_classes": 2
    },
    {
      "length": 3,
      "diagonal_count": 8,
      "header_classes": 4
    },
    {
      "length": 4,
      "diagonal_count": 16,
      "header_classes": 4
    }
  ]
}
""",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_census_golden(tmp_path, fmt):
    out = tmp_path / f"census.{fmt}"
    assert run_cli(["census", "--ell", "4", "--format", fmt, "--out", str(out)]) == 0
    assert without_timestamp(out.read_text()) == CENSUS_4[fmt]


# SHA-256 of reports whose every value comes from exact integer routines,
# timestamp removed; a refactor of those routines must leave them unchanged.
# The density entry names its oracle as the flag spells it, "cube".
REPORT_DIGESTS = {
    ("threshold", "--n", "60", "--format", "csv"): (
        "fc2a64004a72c97ef1c9a30b6324947d71c37fb5b77e661d4d5858b1028ec560"
    ),
    ("threshold", "--n", "60", "--format", "json"): (
        "6f9c00a841f3d12066c83368905f42db914b2dd16c13de75577a779f185433e1"
    ),
    ("density", "--oracle", "cube", "--ell", "5000", "--format", "csv"): (
        "4939f5552003a38a37722c01bfa88695db0cc41308b31c6fe361309fc4560143"
    ),
    # The paper profile's draws read a few leading bits of k = N**2 + 2; these
    # digests were written by draws that read all k bits.
    ("sample", "--n", "4", "--k-profile", "paper", "--trials", "1000", "--seed", "11"): (
        "85eb5ac28408082b4ce6c459182375c060381ca7852254133fc84a585b6d6a14"
    ),
    ("sample", "--n", "6", "--k-profile", "paper", "--trials", "1000", "--seed", "11"): (
        "ac289733500d8705922b4e259a4633f44a4ce409c5d2650c1de7795623623c0d"
    ),
}


@pytest.mark.parametrize("args", list(REPORT_DIGESTS), ids=" ".join)
def test_report_digests(tmp_path, args):
    out = tmp_path / "report"
    assert run_cli(list(args) + ["--out", str(out)]) == 0
    text = without_timestamp(out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[args]


@pytest.mark.parametrize("oracle", [*cli.ORACLES, "power:2", "power:5"])
def test_density_report_reruns_from_its_own_header(tmp_path, oracle):
    # The oracle a report names is one --oracle takes, and it is the one
    # that ran: a second run from the header writes the same report.
    reports = []
    for run in range(2):
        out = tmp_path / f"density{run}.csv"
        code = run_cli(["density", "--oracle", oracle, "--ell", "300", "--out", str(out)])
        reports.append((code, without_timestamp(out.read_text())))
        header = dict(
            item.split("=", 1) for item in out.read_text().splitlines()[1].split()[3:]
        )
        oracle = header["oracle"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "args, tables",
    [
        (["density", "--ell", "30"], ["rows"]),
        (["threshold", "--n", "12"], ["sandwich", "bollobas_grid"]),
        (["census", "--ell", "6"], ["rows"]),
        (["verify-all", "--trials", "1000"], ["criteria"]),
    ],
)
def test_csv_and_json_carry_the_same_rows(tmp_path, monkeypatch, args, tables):
    fast = ("C6", "C8", "C9", "C10")
    monkeypatch.setattr(
        acceptance, "CRITERIA", tuple(c for c in acceptance.CRITERIA if c.ident in fast)
    )
    reports = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert run_cli(args + ["--format", fmt, "--out", str(out)]) == 0
        reports[fmt] = out.read_text()
    payload = json.loads(reports["json"])
    expected = []
    for name in tables:
        rows = payload[name]
        assert rows
        expected.append(
            [list(rows[0])] + [[as_cell(v) for v in row.values()] for row in rows]
        )
    assert csv_tables(reports["csv"]) == expected


def rendered(fmt, command, fields):
    """The report ``render`` writes, without its timestamp."""
    out = io.StringIO()
    report.render(fmt, command, fields, out, timestamp=False)
    return out.getvalue()


def test_criterion_detail_survives_csv():
    detail = 'max "41" of 41, 0 failures'
    result = acceptance.CriterionResult("C0", "quoted", False, detail, 0.0, 1.0)
    config = acceptance.VerifyConfig(seed=3, trials=7, k_profile="practical")
    fields = acceptance.report_fields([result], config)
    text = rendered("csv", "verify-all", fields)
    assert text.splitlines()[0] == (
        '# owflab verify-all config={"seed": 3, "trials": 7, "owf_trials": 7, '
        '"k_profile": "practical"} all_passed=0'
    )
    assert csv_tables(text) == [
        [["id", "name", "passed", "detail"], ["C0", "quoted", "0", detail]]
    ]


def test_a_missing_value_renders_empty_in_csv_and_null_in_json():
    fields = {"rows": report.Table(("x", "holds"), [(1, None), (2, True)])}
    csv_text = rendered("csv", "demo", fields)
    assert csv_text == "x,holds\n1,\n2,1\n"
    json_text = rendered("json", "demo", fields)
    assert json.loads(json_text) == {
        "rows": [{"x": 1, "holds": None}, {"x": 2, "holds": True}]
    }
    assert '"holds": null' in json_text


@pytest.mark.parametrize("n_rows", [0, 1, 257])
def test_json_tables_match_a_dumps_of_their_row_objects(n_rows):
    # render hands the encoder each row's object as it reaches it; the text
    # must be what json.dumps makes of the row objects built in full.
    rows = [(x, x % 3 == 0, None if x % 5 else "five") for x in range(n_rows)]
    fields = {"n": n_rows, "rows": report.Table(("x", "holds", "note"), rows)}
    expected = {"n": n_rows, "rows": [dict(zip(("x", "holds", "note"), r)) for r in rows]}
    assert rendered("json", "demo", fields) == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_reader_that_closes_the_pipe_leaves_the_run_status(fmt):
    # The report is about 0.9 MB, far past a pipe's buffer, so the run is
    # still writing when its reader goes.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "owflab.cli", "density", "--ell", "30000", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("command", ["sample", "owf"])
def test_json_only_commands_refuse_csv(tmp_path, capsys, command):
    # A JSON-only command has no --format flag at all.
    out = tmp_path / "report.csv"
    assert run_cli([command, "--format", "csv", "--out", str(out)]) == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


SAMPLE_N2 = """\
{
  "params": {
    "n": 2,
    "beta": 2,
    "N": 16,
    "m": 1,
    "good_count": 2,
    "trials": 1000,
    "k_profile": "practical",
    "seed": 11,
    "oracle": "power:2",
    "alpha": "8"
  },
  "miss0": 0.12,
  "miss1": 0.861,
  "exact0": 0.125,
  "exact1": 0.865,
  "z0": -0.47809144373375745,
  "z1": -0.5185629788417315,
  "criterion_value": 0.981
}
"""


def test_sample_report(tmp_path):
    out = tmp_path / "sample.json"
    code = run_cli(
        [
            "sample", "--n", "2", "--beta", "2", "--trials", "1000",
            "--seed", "11", "--oracle", "power:2", "--alpha", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    # Every value comes from exact integers and correctly rounded float
    # operations, so these bytes hold on every platform.
    assert without_timestamp(out.read_text()) == SAMPLE_N2


def test_owf_command(tmp_path):
    out = tmp_path / "owf.json"
    code = run_cli(
        ["owf", "--ell", "600", "--beta", "1", "--alpha", "8",
         "--k-profile", "paper", "--seed", "99", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 2
    assert payload["sets"] == [[4], [3]]  # frozen evaluator vector
    assert payload["bits_consumed"] == 156
    assert list(payload)[:7] == ["timestamp", "ell", "beta", "alpha", "k_profile", "seed", "n"]
    assert (payload["alpha"], payload["k_profile"], payload["seed"]) == ("8", "paper", 99)


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--n", "2", "--trials", "1000", "--seed", "11", "--oracle", "power:2"],
        ["owf"],
    ],
    ids=["sample", "owf"],
)
def test_reports_name_the_alpha_they_ran(tmp_path, args):
    # At n=2 both alphas clamp m to 1, and at the owf defaults they give the
    # same sets, so only the recorded configuration tells the runs apart.
    reports = {}
    for alpha in ("8", "16", "50/3"):
        out = tmp_path / f"{alpha.replace('/', '_')}.json"
        assert run_cli(args + ["--alpha", alpha, "--out", str(out)]) == 0
        reports[alpha] = json.loads(without_timestamp(out.read_text()))
    for alpha, payload in reports.items():
        assert payload.get("params", payload)["alpha"] == alpha
    assert len({json.dumps(r) for r in reports.values()}) == 3


def test_sample_without_alpha_records_the_derived_alpha(tmp_path):
    out = tmp_path / "sample.json"
    args = ["sample", "--n", "2", "--beta", "3", "--trials", "1000", "--out", str(out)]
    assert run_cli(args) == 0
    params = json.loads(out.read_text())["params"]
    assert params["alpha"] == "18"  # 4*3/(3-2) + 2*3
    assert (params["seed"], params["oracle"]) == (1, "sq")


def test_owf_infeasible_tape_is_reported(capsys):
    # At the bottom of an n-band the tape cannot fund the rounds; the CLI
    # turns the exhaustion diagnostic into a usage error.
    assert run_cli(["owf", "--ell", "80", "--k-profile", "practical"]) == 2


def test_owf_reads_its_seeded_input_without_spelling_it_out(capsys):
    # The evaluator reads the seed's bits as a tape, so memory does not grow
    # with --ell: a 10**7-bit input that cannot fund its rounds is refused
    # without its 10**7 characters ever being built.
    tracemalloc.start()
    try:
        code = run_cli(["owf", "--ell", "10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "owflab: payload 01010100001100 needs 105432852 tape bits, "
        "the input has 9999986\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--trials", "1000", "--alpha", "1/0"],
        ["owf", "--alpha", "1/0"],
    ],
    ids=["sample-flag", "owf-flag"],
)
def test_zero_denominator_alpha_is_usage_error(capsys, args):
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero denominator" in err


def test_oversized_alpha_is_usage_error(capsys):
    assert run_cli(["owf", "--alpha", "100001"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "above 100000" in err


def test_verify_all_refuses_too_few_trials_before_any_criterion(tmp_path, capsys):
    # C7's error experiment needs 1000 trials; verify-all says so before C1
    # runs, so no criterion line is printed and no report is written.
    out = tmp_path / "report.csv"
    assert run_cli(["verify-all", "--trials", "999", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "PASS" not in err and "FAIL" not in err
    assert err == "owflab: the error experiment needs trials >= 1000\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64 - 4)])
def test_verify_all_refuses_an_out_of_range_seed_before_any_criterion(
    tmp_path, capsys, seed
):
    # C7 seeds its tapes with seed + n for n up to 4, and a tape seed fits
    # in 64 unsigned bits; 2**64 - 5 is the largest seed every criterion takes.
    out = tmp_path / "report.csv"
    assert run_cli(["verify-all", "--trials", "1000", "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "owflab: verify-all needs 0 <= seed <= 2**64 - 5\n"
    assert not out.exists()


def test_the_largest_verify_all_seed_runs_every_seeded_criterion():
    config = acceptance.VerifyConfig(seed=2**64 - 5, trials=1000, k_profile="practical")
    for ident in ("C7", "C8", "C10"):
        assert acceptance.run_criterion(ident, config).passed, ident


# Every refusal, whether the CLI or the package raises it, and the arguments
# that provoke it.
REFUSALS = {
    "unknown-oracle": ["density", "--oracle", "nope"],
    "alpha-zero-denominator": ["owf", "--alpha", "1/0"],
    "unwritable-out": ["census", "--ell", "4", "--out", "{tmp}/no/x.csv"],
    "out-full": ["density", "--ell", "30000", "--format", "json", "--out", "/dev/full"],
    "seed": ["verify-all", "--trials", "1000", "--seed", "-1"],
    "trials": ["verify-all", "--trials", "999"],
    "alpha-at-most-one": ["owf", "--alpha", "1"],
    "alpha-guard": ["owf", "--alpha", "100001"],
    "census-guard": ["census", "--ell", str(turing.CENSUS_LENGTH_GUARD + 1)],
    "threshold-guard": ["threshold", "--n", str(threshold.SANDWICH_MAX_N + 1)],
    "density-guard": ["density", "--ell", str(languages.DENSITY_TABLE_LIMIT + 1)],
    "tape-exhausted": ["owf", "--ell", "80", "--k-profile", "practical"],
    # n = 3 and m = 4: the b=1 branch cannot draw m of n.
    "b1-infeasible": ["owf", "--ell", "400000000", "--beta", "3", "--alpha", "100",
                      "--k-profile", "practical"],
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_prints_one_owflab_line(tmp_path, capsys, case):
    args = [arg.format(tmp=tmp_path) for arg in REFUSALS[case]]
    assert run_cli(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("owflab: "), err


def test_census_refuses_a_long_ell_before_any_census(monkeypatch):
    # --ell 15 used to simulate every word of lengths 1 to 14 first.
    lengths = []
    census = turing.diagonal_census
    monkeypatch.setattr(
        turing, "diagonal_census", lambda length: lengths.append(length) or census(length)
    )
    assert run_cli(["census", "--ell", str(turing.CENSUS_LENGTH_GUARD + 1)]) == 2
    assert lengths == []
    assert run_cli(["census", "--ell", "3", "--out", os.devnull]) == 0
    assert lengths == [1, 2, 3]


def test_threshold_refuses_n_past_the_bound_before_any_row(tmp_path, monkeypatch):
    walks = []
    walk = threshold._threshold_walk
    monkeypatch.setattr(
        threshold, "_threshold_walk", lambda N, good: walks.append(N) or walk(N, good)
    )
    out = tmp_path / "threshold.csv"
    too_big = str(threshold.SANDWICH_MAX_N + 1)
    assert run_cli(["threshold", "--n", too_big, "--out", str(out)]) == 2
    assert walks == [] and not out.exists()
    assert run_cli(["threshold", "--n", "5", "--out", str(out)]) == 0
    assert set(walks) == {4, 5}


@pytest.mark.parametrize(
    "args",
    [
        ["verify-all", "--trials", "1000", "--oracle", "cube"],
        ["census", "--seed", "4"],
        ["density", "--trials", "5"],
        ["owf", "--config", "f.json"],
    ],
    ids=["verify-all-oracle", "census-seed", "density-trials", "owf-config-file"],
)
def test_unread_flag_or_config_key_is_usage_error(tmp_path, capsys, args):
    # A run must not report parameters it never used.  Flags are the one
    # input, so --config is argparse's unknown flag like any other.
    out = tmp_path / "report"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert "unrecognized arguments: " + " ".join(args[-2:]) in capsys.readouterr().err
    assert not out.exists()


class RecordingConfig(dict):
    """A run's settings that record the keys read from them."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


TINY_RUNS = {
    "density": ["--ell", "10"],
    "threshold": ["--n", "6"],
    "verify-all": ["--trials", "1000"],
    "sample": ["--trials", "1000"],
    "owf": [],
    "census": ["--ell", "4"],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_declared_flag_is_read(tmp_path, monkeypatch, command):
    # A flag the command accepts but never reads would let a run claim
    # parameters it did not use.
    monkeypatch.setattr(
        acceptance, "CRITERIA", tuple(c for c in acceptance.CRITERIA if c.ident == "C6")
    )
    configs = []
    settings = cli._settings

    def recording_settings(args):
        configs.append(RecordingConfig(settings(args)))
        return configs[-1]

    # main reads out and format from the same settings the handler gets.
    monkeypatch.setattr(cli, "_settings", recording_settings)
    args = [command, *TINY_RUNS[command], "--out", str(tmp_path / "report")]
    assert run_cli(args) == 0
    (cfg,) = configs
    assert cfg.read == set(cli.COMMANDS[command].flags)


def test_every_default_has_its_flags_type_and_choice():
    # argparse converts a string default by the flag's type and checks no
    # default against its choices, so the table itself is held to them here.
    for name, command in cli.COMMANDS.items():
        for key, default in command.flags.items():
            kind, choices = cli.FLAG_TYPES[key]
            if default is None:
                assert key == "alpha", (name, key)
                continue
            assert type(default) is kind, (name, key, default)
            assert choices is None or default in choices, (name, key, default)


def readme_defaults():
    """The README's table of flags and defaults, as {command: {flag: value}};
    a flag without a value, such as sample's --alpha, maps to None."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command      | flags and defaults |\n", 1)[1].split("\n\n", 1)[0]
    commands = {}
    for line in table.splitlines()[1:]:
        _, name, spec, _ = line.split("|")
        spec = re.sub(r"\([^)]*\)", "", spec)  # a note such as "(derived from ...)"
        words = " ".join(re.findall(r"`([^`]*)`", spec)).split()
        flags = {}
        for i, word in enumerate(words):
            if word.startswith("--"):
                value = words[i + 1] if i + 1 < len(words) else None
                flags[word] = None if value is None or value.startswith("--") else value
        commands[name.strip().strip("`")] = flags
    return commands


def test_readme_defaults_table_matches_the_commands():
    expected = {
        name: {
            "--" + key.replace("_", "-"): None if default is None else str(default)
            for key, default in command.flags.items()
        }
        for name, command in cli.COMMANDS.items()
    }
    assert readme_defaults() == expected


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = [
        shlex.split(line) for line in block.splitlines() if line.startswith("owflab ")
    ]
    assert {words[1] for words in examples} == set(cli.COMMANDS)
    parser = cli._build_parser()
    for words in examples:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(words)}")


def test_crash_has_its_own_exit_code(monkeypatch, capsys):
    def crash(cfg):
        raise KeyError("boom")

    crashing = cli.COMMANDS["census"]._replace(run=crash)
    monkeypatch.setitem(cli.COMMANDS, "census", crashing)
    assert run_cli(["census"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KeyError" in err


@pytest.mark.slow
def test_verify_all_reports_are_deterministic(tmp_path):
    # End-to-end determinism of the verify pipeline through the real CLI,
    # at a reduced trial count to keep the double run affordable.
    outputs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "owflab.cli", "verify-all",
                "--seed", "5", "--trials", "1000", "--format", "json",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_text())
    assert strip_timestamps(outputs[0]) == strip_timestamps(outputs[1])
    payload = json.loads(outputs[0])
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 12
