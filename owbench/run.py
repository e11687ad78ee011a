"""owbench: the owflab benchmark.

Run from the root of an owflab checkout:

    python3 owbench/run.py [--workload verify-lite|threshold-grid|sample-n6|encode-20k|all]
                           [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop in one process at a time.  A run repeats passes of
the workload (see workloads.py), each in a fresh interpreter and each starting
when the previous one has ended, until ``--seconds`` would be exceeded (at
least two passes, or one round of a traced run).  Before the passes it starts
the interpreter several times for set-up alone.

Every pass cuts its timed region into the same segments, one per operation
or finer (see workloads.py), and ``wall_s`` is the sum over segments of each
segment's fastest time among the run's passes.  On a shared host the same
code runs at one of two speeds about 1.5x apart, switching within fractions
of a second as other tenants come and go, and the share of time spent at the
slow speed drifts over minutes.  A whole pass mixes both speeds in a share
that moves with the drift; a short segment timed in many passes is caught at
the fast speed at least once, and that speed holds (see CHOICES.md).  Every
pass time is kept in the results file.

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes and reports the per-layer metrics,
including the traced-to-plain wall-time ratio.  Every pass checks the
program's outputs, and every pass of a run must give the same output digest;
at the default seed that digest must equal the one pinned in pinned.json.
An operation fails if it raises, if its check fails or if its digest differs.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The run's results, with the Python version, the core count and the
owflab commit, go to owbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKER = BENCH_DIR / "worker.py"

WORKLOADS = ("verify-lite", "threshold-grid", "sample-n6", "encode-20k")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MIN_PASSES = 2
RUN_DEADLINE_S = 170  # a single-workload run ends well inside 180 s

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="owbench", description="benchmark for owflab; see the module docstring"
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=("full", "smoke"),
        help="smoke runs tiny passes to test the benchmark itself",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (ROOT / "src" / "owflab" / "__init__.py").is_file():
            raise BenchError(f"no owflab sources under {ROOT / 'src'}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            run_workload(name, args.seed, args.seconds, args.trace, args.size)
            for name in names
        ]
    except BenchError as exc:
        print(f"owbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[0]["line"]
    else:
        line = {
            "correct": all(r["line"]["correct"] for r in results),
            "attempted": sum(r["line"]["attempted"] for r in results),
            "failed": sum(r["line"]["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": value
                for r in results
                for name, value in r["line"]["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    deadline = monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = [_spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = results_stem(workload, seed, trace, size)
    plain, traced = [], []
    start = monotonic()
    while True:
        plain.append(_spawn(base, deadline))
        if trace:
            spans = [] if traced else ["--spans", str(RESULTS_DIR / f"{stem}-spans.csv.gz")]
            traced.append(_spawn(base + ["--trace", "1"] + spans, deadline))
        elapsed = monotonic() - start
        per_round = elapsed / len(plain)
        if monotonic() + per_round > deadline:
            break
        # A traced run needs one round; plain runs take the fastest of several.
        if len(plain) >= (1 if trace else MIN_PASSES) and elapsed + per_round > seconds:
            break

    done = [p for p in plain if "wall_s" in p]
    if not done:
        raise BenchError(f"{workload}: no pass completed: {plain[0]['problems']}")
    pinned = _pinned_digest(workload, seed, size)
    reference = pinned or done[0]["digest"]
    attempted, failed = count_failures(plain + traced, reference)
    # Every plain pass starts a fresh interpreter too, so its time to ready
    # is one more set-up sample, taken at another moment of the run.
    setups += [p["setup_s"] for p in done]
    # Each segment's fastest time over the passes, summed: the pass as it
    # runs with the least interference from the rest of the host.
    segments = [p.pop("segments") for p in done]
    for p in traced:
        p.pop("segments", None)
    if len({len(s) for s in segments}) != 1:
        cuts = sorted({len(s) for s in segments})
        raise BenchError(f"{workload}: the passes were cut into {cuts} segments")
    wall = sum(min(times) for times in zip(*segments))
    e2e = {
        "wall_s": wall,
        "ops_per_s": done[0]["ops"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in done),
        "fastest_pass_wall_s": min(p["wall_s"] for p in done),
        "median_pass_wall_s": statistics.median(p["wall_s"] for p in done),
        "segments": len(segments[0]),
    }
    metrics = {name: (e2e[name], unit) for name, (unit, _) in END_TO_END.items()}
    layers = _layer_metrics(workload, size, done, traced) if trace else None
    if trace:
        metrics = {name: (layers[name], unit) for name, (unit, _) in tracer.PER_LAYER.items()}

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "run_seconds": seconds,
        "environment": _environment(),
        "digest": reference,
        "pinned_digest": pinned,
        "failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "layers": layers,
        "setup_samples_s": setups,
        "passes": plain,
        "traced_passes": traced,
        "line": line,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    print(f"{workload} failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"{workload} digest {reference}" + (" (pinned)" if pinned else ""))
    return record


def results_stem(workload: str, seed: int, trace: int, size: str) -> str:
    """File name stem of a run's results under RESULTS_DIR."""
    return f"{workload}-seed{seed}-trace{trace}" + ("" if size == "full" else f"-{size}")


def count_failures(passes: list[dict], reference: str) -> tuple[int, int]:
    """(attempted, failed) operations over the passes of a run.  A pass whose
    digest differs from the reference, or that reported nothing, fails whole;
    every pass does the same number of operations."""
    ops = next(p["ops"] for p in passes if "ops" in p)
    attempted = failed = 0
    for p in passes:
        p.setdefault("ops", ops)
        if p.get("digest") != reference:
            p["failed"] = p["ops"]
            p["problems"].append(f"digest differs from {reference}")
        attempted += p["ops"]
        failed += p["failed"]
    return attempted, failed


def _layer_metrics(workload: str, size: str, plain: list, traced: list) -> dict:
    runs = [p for p in traced if "layers" in p]
    if len(runs) != len(traced):
        raise BenchError(f"{workload}: a traced pass failed: {traced}")
    layers = {}
    for name in runs[0]["layers"]:
        values = [r["layers"][name] for r in runs]
        if name not in tracer.COUNT_METRICS:
            layers[name] = statistics.median(values)
        elif len(set(values)) == 1:
            layers[name] = values[0]
        else:
            raise BenchError(f"{workload}: {name} differs between traced passes: {values}")
    layers["trace_overhead_ratio"] = min(r["wall_s"] for r in runs) / min(
        p["wall_s"] for p in plain
    )
    if size == "full":
        try:
            tracer.check_expected_work(workload, layers)
        except tracer.TraceError as exc:
            raise BenchError(str(exc)) from None
    return layers


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker; return its pass result plus ``setup_s``, the time
    from starting the interpreter to its ``ready`` line.  A setup-only worker
    that fails is fatal; a failed pass is returned as failed."""
    setup_only = "--setup-only" in args
    cmd = [sys.executable, str(WORKER)] + args
    ready = line = b""
    started = monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0
    )
    try:
        ready = _read_line(proc, deadline)
        setup_s = monotonic() - started
        line = b"" if setup_only or ready != b"ready\n" else _read_line(proc, deadline)
        code = proc.wait(timeout=max(1.0, deadline - monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        code = f"timed out ({exc})"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != b"ready\n" or code != 0:
        if setup_only:
            raise BenchError(f"worker set-up failed (exit {code}): {' '.join(cmd)}")
        return {"problems": [f"worker exit {code}"]}
    if setup_only:
        return {"setup_s": setup_s}
    result = json.loads(line)
    result["setup_s"] = setup_s
    return result


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(0.0, deadline - monotonic())):
            raise TimeoutError("no output before the run deadline")
    return proc.stdout.readline()


def _pinned_digest(workload: str, seed: int, size: str) -> str | None:
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    if seed != pinned["seed"] or size != "full":
        return None
    return pinned["digests"][workload]


def _environment() -> dict:
    src = ROOT / "src" / "owflab"
    sources = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "owflab_commit": commit,
        "owflab_sources_sha256": sources.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
