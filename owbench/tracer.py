"""Per-layer tracing of owflab from outside the package.

The tracer replaces public functions of the ``owflab`` modules with wrappers
for the duration of one traced pass, and restores them afterwards.  A name is
replaced in its defining module and in every other ``owflab`` module that
bound the same object with ``from .x import y`` (for example
``owf.select_subset``), so every call site sees the wrapper.

Three kinds of wrapper:

- spans, for layer boundaries: start, end and parent are kept in memory and
  written out at the end; a span's self time is its duration minus the time
  its child spans and timed leaves cover;
- counters, for hot leaf calls (``draw_integer``, ``member``, ``simulate``,
  ``hashlib.sha256`` as seen from ``bitsampler``), which only count;
- timed leaves, for the ``words`` primitives, which count and add their time
  to the ``words`` layer and to their caller's child time, but keep no record.

A name on the wrap list that does not exist, and a metric that stays zero on
a workload where the layer is expected to work, are errors: a renamed or
bypassed function must not read as a layer that costs nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """The wrap list or the traced counts do not match the program."""


# (module, attribute, span name): each becomes a span.  ``owf.ptsamp`` and
# the private ``owf._ptsamp_traced`` it calls (which the sampling experiment
# calls directly) share one span name; a span entered again directly under
# itself is not opened twice.
SPANS = (
    ("cli", "main", "cli.main"),
    ("owf", "ptsamp", "owf.ptsamp"),
    ("owf", "_ptsamp_traced", "owf.ptsamp"),
    ("owf", "owf_evaluate", "owf.owf_evaluate"),
    ("owf", "binary_search_invert", "owf.binary_search_invert"),
    ("bitsampler", "fisher_yates", "bitsampler.fisher_yates"),
    ("bitsampler", "bias_profile", "bitsampler.bias_profile"),
    ("bitsampler", "permutation_distribution", "bitsampler.permutation_distribution"),
    ("threshold", "mu_bounds", "threshold.mu_bounds"),
    ("threshold", "mu_bounds_exact", "threshold.mu_bounds_exact"),
    ("threshold", "exact_threshold", "threshold.exact_threshold"),
    ("threshold", "hit_probability", "threshold.hit_probability"),
    ("threshold", "bollobas_check", "threshold.bollobas_check"),
    ("threshold", "sampler_params", "threshold.sampler_params"),
    ("turing", "diagonal_census", "turing.diagonal_census"),
)
WORDS_LEAVES = ("goedel_inverse", "goedel_number", "gn_of_integer", "word_value")

# The criteria verify-lite runs.  C3 and C4 (their steps are threshold-grid's
# operation), C7 (the sampling experiment, whose trial pair is sample-n6's
# operation) and C11 (a re-run of C5, C7, C8 and C10) are left out: each takes
# more than a second and the whole pass must repeat often in one run.
CRITERIA = ("C1", "C2", "C5", "C6", "C8", "C9", "C10")

# Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    **{f"acceptance.{c}.wall_s": ("s", "lower") for c in CRITERIA},
    "cli.main.self_s": ("s", "lower"),
    "owf.ptsamp.calls": ("count", "lower"),
    "owf.ptsamp.self_s": ("s", "lower"),
    "owf.owf_evaluate.calls": ("count", "lower"),
    "owf.owf_evaluate.self_s": ("s", "lower"),
    "owf.binary_search_invert.self_s": ("s", "lower"),
    "bitsampler.expand_seed_bits.calls": ("count", "lower"),
    "bitsampler.expand_seed_bits.self_s": ("s", "lower"),
    "bitsampler.sha_blocks": ("count", "lower"),
    "bitsampler.bits_expanded": ("bit", "lower"),
    "bitsampler.tape_bits_consumed": ("bit", "lower"),
    "bitsampler.hashed_per_consumed_bit": ("ratio", "lower"),
    "bitsampler.draw_integer.calls": ("count", "lower"),
    "bitsampler.fisher_yates.calls": ("count", "lower"),
    "bitsampler.fisher_yates.self_s": ("s", "lower"),
    "bitsampler.select_subset.calls": ("count", "lower"),
    "bitsampler.select_subset.self_s": ("s", "lower"),
    "bitsampler.select_subset.useful_draw_ratio": ("ratio", "higher"),
    "bitsampler.bias_profile.self_s": ("s", "lower"),
    "bitsampler.permutation_distribution.self_s": ("s", "lower"),
    **{
        f"threshold.{fn}.{measure}": (unit, "lower")
        for fn in (
            "mu_bounds",
            "mu_bounds_exact",
            "exact_threshold",
            "hit_probability",
            "bollobas_check",
            "sampler_params",
        )
        for measure, unit in (("calls", "count"), ("self_s", "s"))
    },
    "languages.member.calls": ("count", "lower"),
    "languages.density_scan.self_s": ("s", "lower"),
    "words.goedel_inverse.calls": ("count", "lower"),
    "words.gn_of_integer.calls": ("count", "lower"),
    "words.self_s": ("s", "lower"),
    "turing.diagonal_census.self_s": ("s", "lower"),
    "turing.simulate.calls": ("count", "lower"),
    "turing.simulate.steps": ("count", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}

# Metrics that count work rather than time it.  They must repeat exactly
# between traced passes on the same inputs.
COUNT_METRICS = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bit")
) + ("bitsampler.hashed_per_consumed_bit", "bitsampler.select_subset.useful_draw_ratio")

_SAMPLER_PATH = (
    "owf.ptsamp.calls",
    "owf.ptsamp.self_s",
    "bitsampler.tape_bits_consumed",
    "bitsampler.draw_integer.calls",
    "bitsampler.fisher_yates.calls",
    "bitsampler.fisher_yates.self_s",
    "bitsampler.select_subset.calls",
    "bitsampler.select_subset.self_s",
    "bitsampler.select_subset.useful_draw_ratio",
    "threshold.sampler_params.calls",
    "threshold.sampler_params.self_s",
)
_SEEDED_TAPES = (
    "bitsampler.expand_seed_bits.calls",
    "bitsampler.expand_seed_bits.self_s",
    "bitsampler.sha_blocks",
    "bitsampler.bits_expanded",
    "bitsampler.hashed_per_consumed_bit",
)

_THRESHOLD_GRID = tuple(
    f"threshold.{fn}.{measure}"
    for fn in ("mu_bounds", "exact_threshold", "hit_probability", "bollobas_check")
    for measure in ("calls", "self_s")
)

# Metrics that must be non-zero on each full-size workload: the layers that
# workload is expected to exercise.  verify-lite reaches every layer but the
# threshold grid's functions.
EXPECTED_WORK = {
    "verify-lite": tuple(m for m in PER_LAYER if m not in _THRESHOLD_GRID),
    "threshold-grid": _THRESHOLD_GRID + ("trace_overhead_ratio",),
    "sample-n6": _SAMPLER_PATH + _SEEDED_TAPES + ("trace_overhead_ratio",),
    "encode-20k": _SAMPLER_PATH
    + ("owf.owf_evaluate.calls", "owf.owf_evaluate.self_s", "trace_overhead_ratio"),
}


class _CountingHashlib:
    """Stands in for ``hashlib`` inside ``owflab.bitsampler``."""

    def __init__(self, real, sha256):
        self._real = real
        self.sha256 = sha256

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counters for one traced pass.  Use as a context manager:
    the wrappers are installed on entry and removed on exit."""

    def __init__(self):
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.wall_s: defaultdict[str, float] = defaultdict(float)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [name, span id, child seconds, start]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, functools.partial(self._span, name))
        self._patch("acceptance", "run_criterion", self._criterion)
        self._patch("bitsampler", "select_subset", self._select_subset)
        self._patch("bitsampler", "expand_seed_bits", self._expand_seed_bits)
        self._patch(
            "bitsampler",
            "draw_integer",
            functools.partial(self._counter, "bitsampler.draw_integer.calls"),
        )
        self._patch(
            "bitsampler",
            "hashlib",
            lambda real: _CountingHashlib(
                real, self._counter("bitsampler.sha_blocks", real.sha256)
            ),
        )
        self._patch("turing", "simulate", self._simulate)
        self._patch("languages", "density_scan", self._density_scan)
        # The oracles: C2 scans SQ; the sampling experiment builds power:2.
        self._patch("languages", "SQ", self._counted_oracle)
        self._patch("languages", "power_oracle", self._oracle_factory)
        for leaf in WORDS_LEAVES:
            self._patch("words", leaf, functools.partial(self._leaf, leaf))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"owflab.{module_name}")
        try:
            original = getattr(module, attr)
        except AttributeError:
            raise TraceError(
                f"{module.__name__}.{attr} is on the wrap list but does not exist"
            ) from None
        replacement = make(original)
        for mod in _owflab_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, replacement)

    def _restore(self) -> None:
        while self._patches:
            mod, name, value = self._patches.pop()
            setattr(mod, name, value)

    # -- span bookkeeping ---------------------------------------------

    def _open(self, name: str) -> list:
        sid = len(self._span_start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1][1] if self._stack else -1)
        start = perf_counter()
        self._span_start.append(start)
        self._span_end.append(start)
        frame = [name, sid, 0.0, start]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, sid, child, start = frame
        self._span_end[sid] = end
        duration = end - start
        self.counts[f"{name}.calls"] += 1
        self.wall_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _leaf(self, leaf: str, fn):
        counts, layer_s, stack = self.counts, self.self_s, self._stack
        key = f"words.{leaf}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                counts[key] += 1
                layer_s["words"] += duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    # -- wrappers with their own measures -----------------------------

    def _criterion(self, fn):
        # Criteria run from inside another criterion (C11 re-runs four of
        # them) are part of the enclosing criterion's time.
        @functools.wraps(fn)
        def wrapper(ident, *args, **kwargs):
            if any(f[0].startswith("acceptance.") for f in self._stack):
                return fn(ident, *args, **kwargs)
            frame = self._open(f"acceptance.{ident}")
            try:
                return fn(ident, *args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _select_subset(self, fn):
        counts = self.counts

        def observed(tape, m, *args, **kwargs):
            cursor = tape.cursor
            draws = counts["bitsampler.draw_integer.calls"]
            result = fn(tape, m, *args, **kwargs)
            counts["bitsampler.tape_bits_consumed"] += tape.cursor - cursor
            counts["select_subset.m_total"] += m
            counts["select_subset.draws"] += (
                counts["bitsampler.draw_integer.calls"] - draws
            )
            return result

        return self._span("bitsampler.select_subset", functools.wraps(fn)(observed))

    def _expand_seed_bits(self, fn):
        counts = self.counts

        def observed(seed, nbits, *args, **kwargs):
            counts["bitsampler.bits_expanded"] += nbits
            return fn(seed, nbits, *args, **kwargs)

        return self._span("bitsampler.expand_seed_bits", functools.wraps(fn)(observed))

    def _simulate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["turing.simulate.calls"] += 1
            counts["turing.simulate.steps"] += result.steps
            return result

        return wrapper

    def _density_scan(self, fn):
        # A generator: each resumption is a span, so the consumer's own work
        # between items stays with the consumer.
        name = "languages.density_scan"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                yield item

        return wrapper

    def _counted_oracle(self, oracle):
        return dataclasses.replace(
            oracle, member=self._counter("languages.member.calls", oracle.member)
        )

    def _oracle_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._counted_oracle(fn(*args, **kwargs))

        return wrapper

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_ratio``."""
        c = self.counts
        out: dict[str, float] = {}
        for name in PER_LAYER:
            if name == "trace_overhead_ratio":
                continue
            if name.startswith("acceptance."):
                out[name] = self.wall_s[name[: -len(".wall_s")]]
            elif name == "words.self_s":
                out[name] = self.self_s["words"]
            elif name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            else:
                out[name] = c[name]
        consumed = c["bitsampler.tape_bits_consumed"]
        out["bitsampler.hashed_per_consumed_bit"] = (
            256 * c["bitsampler.sha_blocks"] / consumed if consumed else 0.0
        )
        draws = c["select_subset.draws"]
        out["bitsampler.select_subset.useful_draw_ratio"] = (
            c["select_subset.m_total"] / draws if draws else 0.0
        )
        return out

    def write_spans(self, path) -> int:
        """Write every recorded span as CSV (gzip): id, parent, name, start
        and end in seconds from the first span.  Returns the span count."""
        n = len(self._span_start)
        base = self._span_start[0] if n else 0.0
        names, parents = self._names, self._span_parent
        starts, ends, name_ids = self._span_start, self._span_end, self._span_name
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(n):
                fh.write(
                    f"{i},{parents[i]},{names[name_ids[i]]},"
                    f"{starts[i] - base:.9f},{ends[i] - base:.9f}\n"
                )
        return n


def check_expected_work(workload: str, metrics: dict[str, float]) -> None:
    """Raise TraceError if a metric the workload should move reads zero."""
    idle = [name for name in EXPECTED_WORK[workload] if not metrics.get(name)]
    if idle:
        raise TraceError(
            f"{workload}: no work traced in {', '.join(idle)}; a wrapped name "
            "is no longer on the call path"
        )


def _owflab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "owflab" or name.startswith("owflab."))
    ]
