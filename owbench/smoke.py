"""Smoke test for owbench itself.

    python3 owbench/smoke.py

Run from the root of an owflab checkout.  It runs every workload at a tiny
size (seven criteria, 50 grid pairs, three trial pairs, twenty evaluations) with
and without tracing, and checks the metric names and units against
BENCHMARK.json, the digest plumbing, that deliberately altered outputs are
counted as failed, and the tracer's own checks.  Exits 0 when all hold; takes
under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from owflab import acceptance, owf, threshold  # noqa: E402

SMOKE = workloads.SIZES["smoke"]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"owbench smoke: FAILED: {message}")


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(manifest["command"] == ["python3", "owbench/run.py"], "command")
    check([w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS), "workloads")
    declared = {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
    check(declared == run.END_TO_END, f"end_to_end {declared} != {run.END_TO_END}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    check(declared == tracer.PER_LAYER, "per_layer metrics differ from tracer.PER_LAYER")


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    line = json.loads(out.stdout.splitlines()[-1])
    stem = run.results_stem(workload, seed, trace, "smoke")
    return line, json.loads((run.RESULTS_DIR / f"{stem}.json").read_text())


def check_runs() -> None:
    for workload in run.WORKLOADS:
        digests = []
        for trace, declared in ((0, run.END_TO_END), (1, tracer.PER_LAYER)):
            line, record = run_bench(workload, 1, trace)
            check(
                set(line) == {"correct", "attempted", "failed", "metrics"},
                f"{workload}: result keys {sorted(line)}",
            )
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            check(
                units == {name: unit for name, (unit, _) in declared.items()},
                f"{workload} trace {trace}: metric names or units {units}",
            )
            check(
                line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                f"{workload} trace {trace}: {line['failed']} of {line['attempted']} failed",
            )
            check(record["environment"]["nproc"] >= 1, "environment not recorded")
            digests.append(record["digest"])
            if trace:
                tracer.check_expected_work(workload, record["layers"])
        check(digests[0] == digests[1], f"{workload}: tracing changed the output digest")
        _, other = run_bench(workload, 2, 0)
        check(other["digest"] != digests[0], f"{workload}: the seed does not reach the inputs")


def check_altered_outputs() -> None:
    work_dir = run.RESULTS_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    evaluate, calls = owf.owf_evaluate, []

    def shifted_third_evaluation(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            first = out.sets[0]
            moved = owf.InstanceSet((first.members[0] % first.urn_bound + 1,), first.urn_bound)
            out = dataclasses.replace(out, sets=(moved,) + out.sets[1:])
        return out

    with mock.patch.object(owf, "owf_evaluate", shifted_third_evaluation):
        result = workloads.run_pass("encode-20k", 1, SMOKE, work_dir)
    check(result.failed == 1, f"encode-20k: altered evaluation counted {result.failed}")

    ptsamp, rounds = owf.ptsamp, []

    def shifted_third_round(*args, **kwargs):
        instance, tape = ptsamp(*args, **kwargs)
        rounds.append(None)
        if len(rounds) == 3:
            instance = owf.InstanceSet((instance.members[0] % instance.urn_bound + 1,), instance.urn_bound)
        return instance, tape

    with mock.patch.object(owf, "ptsamp", shifted_third_round):
        result = workloads.run_pass("sample-n6", 1, SMOKE, work_dir)
    check(result.failed == 1, f"sample-n6: altered round counted {result.failed}")

    mu_bounds, pairs = threshold.mu_bounds, []

    def wider_third_bound(*args, **kwargs):
        bounds = mu_bounds(*args, **kwargs)
        pairs.append(None)
        return bounds._replace(upper=bounds.upper + 1) if len(pairs) == 3 else bounds

    with mock.patch.object(threshold, "mu_bounds", wider_third_bound):
        result = workloads.run_pass("threshold-grid", 1, SMOKE, work_dir)
    check(result.failed == 1, f"threshold-grid: altered bound counted {result.failed}")

    c6 = acceptance._BY_IDENT["C6"]
    failing = dataclasses.replace(c6, run=lambda config: (False, "altered"))
    with mock.patch.dict(acceptance._BY_IDENT, {"C6": failing}):
        result = workloads.run_pass("verify-lite", 1, SMOKE, work_dir)
    check(result.failed == 1, f"verify-lite: failing criterion counted {result.failed}")

    passes = [
        {"ops": 7, "failed": 0, "digest": "a", "problems": []},
        {"ops": 7, "failed": 0, "digest": "b", "problems": []},
        {"problems": ["worker exit 1"]},
    ]
    check(run.count_failures(passes, "a") == (21, 14), "digest mismatch accounting")


def check_tracer() -> None:
    ptsamp = owf.ptsamp
    missing = (("owf", "no_such_function", "owf.no_such_function"),)
    with mock.patch.object(tracer, "SPANS", tracer.SPANS + missing):
        try:
            with tracer.Tracer():
                check(False, "a missing name on the wrap list was not reported")
        except tracer.TraceError:
            pass
    check(owf.ptsamp is ptsamp, "the tracer left a wrapper installed")

    idle = {name: 1 for name in tracer.PER_LAYER}
    idle["bitsampler.fisher_yates.calls"] = 0
    try:
        tracer.check_expected_work("sample-n6", idle)
        check(False, "a zero metric on an expected layer was not reported")
    except tracer.TraceError:
        pass


def main() -> int:
    check_manifest()
    check_runs()
    check_altered_outputs()
    check_tracer()
    print("owbench smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
