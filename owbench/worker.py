"""One pass of one owbench workload, in a fresh interpreter.

Started by run.py from the root of an owflab checkout.  The worker imports
``owflab`` from the checkout's ``src`` directory, prints ``ready`` once set-up
is over (the end of the benchmark's set-up time), runs one pass and prints the
pass result as one JSON line.  With ``--setup-only`` it stops after ``ready``.
Everything else the program prints goes to standard error, so standard output
carries only these two lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "results" / "work"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced pass's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    channel = sys.stdout
    sys.stdout = sys.stderr
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import owflab

    if not Path(owflab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"owflab was imported from {owflab.__file__}, not from {SRC}")
    import tracer
    import workloads

    size = workloads.SIZES[args.size]
    with tracer.Tracer() if args.trace else contextlib.nullcontext() as traced:
        print("ready", file=channel, flush=True)
        if args.setup_only:
            return 0
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        result = workloads.run_pass(args.workload, args.seed, size, WORK_DIR)
    payload = result.to_json_dict()
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced is not None:
        payload["layers"] = traced.metrics()
        if args.spans:
            payload["spans"] = traced.write_spans(args.spans)
    print(json.dumps(payload), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
