"""The quantitative acceptance suite.

Each criterion is an executable check with a fixed scale and a wall-clock
budget; the CLI's verify-all command and the pytest acceptance module both
run exactly these functions.  Reports deliberately exclude timings so that
two runs with the same configuration serialize to identical bytes (the
timestamp is confined to a single header field).
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import bitsampler, languages, owf, reduction, threshold, turing, words
from .report import Table, render

# Diagonal-language census under the fixed code format (computed once by
# exhaustive simulation, then pinned; every word at these lengths decodes to
# the canonical reject machine, which rejects itself in one step).
FROZEN_DIAGONAL_CENSUS = {4: 16, 6: 64, 8: 256}


@dataclass
class VerifyConfig:
    seed: int
    trials: int  # C7's trials per branch and C8's evaluations
    k_profile: str


@dataclass
class CriterionResult:
    ident: str
    name: str
    passed: bool
    detail: str
    elapsed: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.ident:>3} {self.name:<28} "
            f"[{self.elapsed:6.1f}s / {self.limit:.0f}s]  {self.detail}"
        )


def _criterion_1(config: VerifyConfig) -> tuple[bool, str]:
    top = 2**17
    bad = 0
    # Index range 1..2**17 - 1 is exactly the words of length <= 16, and the
    # word of index idx has length idx.bit_length() - 1, so one pass over the
    # indices covers both directions.
    for idx in range(1, top + 1):
        w = words.goedel_inverse(idx)
        if words.goedel_number(w) != idx or len(w) != idx.bit_length() - 1:
            bad += 1
    return bad == 0, f"{top} indices and all words of length <= 16; {bad} failures"


def _first_walk_mismatch(jumps: list[int], limit: int) -> int | None:
    """First x in [1, limit] where dens counted from the square walk's jumps
    differs from density_scan's count over SQ, or None."""
    walked = 0
    for x, dens in languages.density_scan(languages.SQ, limit):
        if walked < len(jumps) and jumps[walked] == x:
            walked += 1
        if dens != walked:
            return x
    return None


def _criterion_2(config: VerifyConfig) -> tuple[bool, str]:
    # The ceiling at the jumps of dens, cross-checked against the scan below
    # 2**12; see the languages module docstring.
    jumps = list(languages.power_jumps(2, 10**5))
    upper_bad = languages.ceiling_violations(jumps, 10**5)
    mismatch = _first_walk_mismatch(jumps, 2**12)
    ratio_bad = 0
    for y in range(1, 10**6 + 1):
        g = words.gn_of_integer(y)
        if not y <= g <= 5 * y:
            ratio_bad += 1
    detail = (
        f"dens_sq <= floor(sqrt(x)) on [1, 1e5]: {upper_bad} violations; "
        f"gn(y)/y in [1, 5] on [1, 1e6]: {ratio_bad} violations"
    )
    if mismatch is not None:
        detail += f"; square walk and density scan differ first at x = {mismatch}"
    return upper_bad == 0 and ratio_bad == 0 and mismatch is None, detail


def _criterion_3(config: VerifyConfig) -> tuple[bool, str]:
    oks = [row[-1] for row in threshold.sandwich_grid(400)]
    violations = oks.count(False)
    return violations == 0, (
        f"{len(oks)} (N, good) pairs with N in [4, 400]: "
        f"{violations} sandwich violations"
    )


def _criterion_4(config: VerifyConfig) -> tuple[bool, str]:
    holds = [v.holds for v in threshold.bollobas_grid(200)]
    violations = holds.count(False)
    return violations == 0, (
        f"{len(holds)} exact inequality checks over N in [10, 200], theta in "
        f"{{1, 2, 4}}: {violations} violations"
    )


def _criterion_5(config: VerifyConfig) -> tuple[bool, str]:
    violations = 0
    cases = 0
    for k in range(2, 21):
        for r in range(2, 65):
            cases += 1
            if not bitsampler.bias_profile(k, r).within_bound:
                violations += 1
    return violations == 0, (
        f"{cases} (k, range) pairs, k in [2, 20], range in [2, 64]: "
        f"{violations} deviations above 2**(-k+1)"
    )


def _criterion_6(config: VerifyConfig) -> tuple[bool, str]:
    bad = []
    for N in (2, 3, 4, 5):
        dist = bitsampler.permutation_distribution(N, bitsampler.paper_k(N))
        if not dist.within_bound:
            bad.append(N)
    return not bad, (
        "every draw sequence at N in {2..5}, k = N**2+2 meets the "
        f"(1-2**-N)**N / N! floor; failures at N = {bad or 'none'}"
    )


_C7_SIZES = (2, 3, 4)  # C7's base sizes n; its run at n seeds tapes with seed + n


def check_config(config: VerifyConfig) -> None:
    """Refuse a config C7 cannot run: too few trials, or a seed + n past 2**64 - 1."""
    if config.trials < owf.MIN_TRIALS:
        raise ValueError(f"the error experiment needs trials >= {owf.MIN_TRIALS}")
    top = max(_C7_SIZES) + 1
    if not 0 <= config.seed <= 2**64 - top:
        raise ValueError(f"verify-all needs 0 <= seed <= 2**64 - {top}")


def _criterion_7(config: VerifyConfig) -> tuple[bool, str]:
    worst = 0.0
    parts = []
    for n in _C7_SIZES:
        report = owf.sampling_error_experiment(
            n,
            2,
            languages.power_oracle(2),
            config.trials,
            config.seed + n,
            alpha=8,
            k_profile=config.k_profile,
        )
        worst = max(worst, abs(report.z0), abs(report.z1))
        parts.append(f"n={n}: z0={report.z0:+.2f} z1={report.z1:+.2f}")
    return worst <= 4.0, (
        f"{config.trials} trials/branch vs exact hypergeometrics; "
        + "; ".join(parts)
    )


def _criterion_8(config: VerifyConfig) -> tuple[bool, str]:
    ell, beta = 600, 1
    shapes = set()
    for t in range(config.trials):
        tape = bitsampler.BitTape.from_seed(config.seed, ell, stream=t)
        out = owf.owf_evaluate(tape, beta, k_profile="paper", alpha=8)
        shapes.add(
            (
                out.n,
                tuple(len(s.members) for s in out.sets),
                tuple(s.urn_bound for s in out.sets),
            )
        )
        if len(shapes) > 1:
            break
    ok = len(shapes) == 1
    shape = next(iter(shapes))
    return ok, (
        f"{config.trials} evaluations at (ell={ell}, beta={beta}): "
        f"{len(shapes)} distinct shape(s); n={shape[0]}, |W|={shape[1][0]}, "
        f"N={shape[2][0]}"
    )


def _criterion_9(config: VerifyConfig) -> tuple[bool, str]:
    measured = {length: turing.diagonal_census(length) for length in (4, 6, 8)}
    ok = measured == FROZEN_DIAGONAL_CENSUS
    return ok, f"exhaustive census {measured} vs frozen {FROZEN_DIAGONAL_CENSUS}"


def _criterion_10(config: VerifyConfig) -> tuple[bool, str]:
    rng = random.Random(config.seed)
    bound = 10**12
    cap = math.ceil(math.log2(bound)) + 1

    def decider(y: int, upper: int) -> bool:
        root = math.isqrt(y)
        return root * root == y and root <= upper

    failures = 0
    max_queries = 0
    for _ in range(1000):
        x = rng.randrange(1, 10**6 + 1)
        res = owf.binary_search_invert(x * x, decider, bound)
        max_queries = max(max_queries, res.queries)
        if res.preimage != x or res.queries > cap:
            failures += 1
    return failures == 0, (
        f"1000 random squares <= 1e12 inverted; max {max_queries} of "
        f"{cap} allowed decider calls; {failures} failures"
    )


def _criterion_11(config: VerifyConfig) -> tuple[bool, str]:
    # Determinism of the verify pipeline: re-run the seed-dependent criteria
    # twice at a bounded scale and compare the serialized reports byte for
    # byte (modulo the timestamp header, which is excluded here).  The
    # seed-independent criteria are pure integer functions and enter the
    # report unchanged by construction.
    sub = VerifyConfig(seed=config.seed, trials=1000, k_profile=config.k_profile)
    idents = ("C5", "C7", "C8", "C10")
    blobs = []
    for _ in range(2):
        results = [run_criterion(ident, sub) for ident in idents]
        fields = report_fields(results, sub)
        text = io.StringIO()
        render("json", "verify-all", fields, text, timestamp=False)
        blobs.append(text.getvalue())
    ok = blobs[0] == blobs[1]
    return ok, (
        f"criteria {', '.join(idents)} re-run twice at trials={sub.trials}: "
        f"reports {'byte-identical' if ok else 'DIFFER'}"
    )


def _criterion_12(config: VerifyConfig) -> tuple[bool, str]:
    # The switch from L_D to its image in the squares: the block reduction
    # lands every short word on a square, strictly increasing in (length,
    # value) order, and the image of L_D is at least as dense as L_D.
    code, lam = "1011001110", 3
    values = [
        reduction.reduce_phi(format(v, f"0{length}b"), code, lam)
        for length in range(1, 13)
        for v in range(2**length)
    ]
    off_squares = sum(not languages.SQ.member(words.min_word(v)) for v in values)
    unordered = sum(a >= b for a, b in zip(values, values[1:]))
    # At a minimal threshold the two counts are equal by construction, since
    # phi is increasing on minimal words.  A threshold zero-padded to 12 bits
    # ranks above every shorter member, so there the image count runs ahead.
    minimal = [words.min_word(v) for v in range(16, 2**12 + 1, 16)]
    padded = [format(v, "012b") for v in range(16, 2**11, 16)]
    counts = reduction.density_transfer_check(
        turing.diagonal_member, code, lam, 2**12, minimal + padded
    )
    violations = sum(source > image for source, image in counts)
    ahead = sum(source < image for source, image in counts)
    ok = off_squares == unordered == violations == 0
    return ok, (
        f"{len(values)} words of length <= 12 under phi: {off_squares} images "
        f"off the squares, {unordered} order breaks; L_D transfer at "
        f"{len(minimal)} minimal and {len(padded)} zero-padded thresholds "
        f"<= 2**12: {violations} violations, image count ahead at {ahead}"
    )


@dataclass(frozen=True)
class Criterion:
    ident: str
    name: str
    limit_seconds: float
    run: Callable[[VerifyConfig], tuple[bool, str]] = field(repr=False)


CRITERIA: tuple[Criterion, ...] = (
    Criterion("C1", "goedel-bijection", 10, _criterion_1),
    Criterion("C2", "density-bounds", 30, _criterion_2),
    Criterion("C3", "threshold-sandwich", 300, _criterion_3),
    Criterion("C4", "bollobas-inequalities", 120, _criterion_4),
    Criterion("C5", "single-draw-bias", 60, _criterion_5),
    Criterion("C6", "permutation-floor", 60, _criterion_6),
    Criterion("C7", "sampler-vs-exact", 600, _criterion_7),
    Criterion("C8", "output-shape-secrecy", 120, _criterion_8),
    Criterion("C9", "diagonal-census", 120, _criterion_9),
    Criterion("C10", "inversion-demo", 5, _criterion_10),
    Criterion("C11", "report-determinism", 120, _criterion_11),
    Criterion("C12", "density-transfer", 10, _criterion_12),
)

_BY_IDENT = {c.ident: c for c in CRITERIA}


def run_criterion(ident: str, config: VerifyConfig) -> CriterionResult:
    crit = _BY_IDENT[ident]
    start = time.perf_counter()
    passed, detail = crit.run(config)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        ident=crit.ident,
        name=crit.name,
        passed=passed,
        detail=detail,
        elapsed=elapsed,
        limit=crit.limit_seconds,
    )


def report_fields(results: list[CriterionResult], config: VerifyConfig) -> dict:
    """The verify-all report as fields for ``report.render``."""
    rows = [(r.ident, r.name, r.passed, r.detail) for r in results]
    return {
        # The report keeps owf_trials, C8's evaluation count, which is trials.
        "config": {"seed": config.seed, "trials": config.trials,
                   "owf_trials": config.trials, "k_profile": config.k_profile},
        "criteria": Table(("id", "name", "passed", "detail"), rows),
        "all_passed": all(r.passed for r in results),
    }
