"""Each owbench workload's smoke-size pass, run in process under the tracer.

The benchmark's tracer refuses a pass in which a layer the workload is meant
to exercise reads zero, so a refactor that takes ``draw_integer``,
``expand_seed_bits``, ``select_subset`` or ``sampler_params`` off the call
path breaks the benchmark.  This runs the same check on every workload at
its smallest size, with the plain pass alongside for the digest and the
overhead ratio.  It only imports owbench.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "owbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from owflab import owf, threshold  # noqa: E402


def _fresh_caches():
    # A benchmark pass runs in a fresh interpreter, so its caches start cold.
    threshold.sampler_params.cache_clear()
    owf._round.cache_clear()


@pytest.mark.parametrize("workload", list(tracer.EXPECTED_WORK))
def test_smoke_pass_keeps_every_expected_layer_on_the_call_path(workload, tmp_path):
    size = workloads.SIZES["smoke"]
    _fresh_caches()
    plain = workloads.run_pass(workload, 1, size, tmp_path)
    _fresh_caches()
    with tracer.Tracer() as traced:
        result = workloads.run_pass(workload, 1, size, tmp_path)
    assert plain.failed == result.failed == 0, plain.problems + result.problems
    assert result.digest == plain.digest
    metrics = traced.metrics()
    metrics["trace_overhead_ratio"] = result.wall_s / plain.wall_s
    tracer.check_expected_work(workload, metrics)
