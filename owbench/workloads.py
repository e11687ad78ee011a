"""The owbench workloads: inputs made from the seed, one timed pass, checks.

A pass is a fixed list of operations on the inputs generated from the
benchmark seed.  Each pass runs in a fresh interpreter (see worker.py), so the
import of mpmath and every in-process cache are paid again, as a command-line
user pays them.  The passes of one run repeat the same inputs, so they must
all give the same output digest; and they cut the timed region at the same
points, so that run.py can take each segment's fastest time over the run.

- ``verify-lite``: ``owflab verify-all --trials 1000 --format json`` through
  ``owflab.cli.main``, with the criteria C1, C2, C5, C6, C8, C9 and C10.
  One operation is one criterion.  Cut at each criterion and at each call
  of the functions in ``VERIFY_CUTS``.
- ``threshold-grid``: C3's step, ``exact_threshold(N, good)`` and
  ``mu_bounds(N, good/N, check_sandwich=False)``, on 4000 (N, good) pairs
  drawn from C3's grid (4 <= N <= 400, 1 <= good < N); for the pairs that
  are also in C4's grid (10 <= N <= 200), C4's step too: ``bollobas_check``
  below and above m* at theta = 1, 2, 4.  One operation is one pair, timed
  on its own.
- ``sample-n6``: the trial pair of ``owflab sample --n 6 --beta 2 --alpha 8
  --k-profile practical``: for each branch b a seeded tape
  (``BitTape.from_seed(seed, need_b, stream=2t+b)``) and one ``owf.ptsamp``
  round, 100 trial pairs.  One operation is one trial pair, timed in four
  segments: each tape and each round.
- ``encode-20k``: ``owf.owf_evaluate(w, 2, k_profile="paper", alpha=8)`` on
  1000 words of 20000 bits each.  One operation is one evaluation, timed on
  its own.

``verify-lite`` hands the benchmark seed to owflab as ``--seed``, so a pass
can be repeated by hand with the same CLI command.  ``threshold-grid`` and
``encode-20k`` draw their inputs from ``random.Random(seed)``; ``sample-n6``
uses the seed for its tapes, as ``owflab sample --seed`` does.  Inputs are
made and outputs checked off the clock; ``encode-20k`` makes each word just
before its call, so only one 20 kbit word is live at a time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from owflab import acceptance, bitsampler, cli, owf, threshold
from tracer import CRITERIA

TRIALS = 1000  # verify-all's smallest trial count for the sampling criteria

# threshold-grid: C3's grid, and the part of it that is C4's grid.
GRID_N = (4, 400)
BOLLOBAS_N = (10, 200)
THETAS = (1, 2, 4)

# encode-20k: ell = 20000 at beta = 2 gives n = 2 payload bits
# (2**12 + 2 * 2**4 + 2 <= 20000 < 3**12), an urn of N = n**4 = 16 and the
# clamped draw count m = 1 (mu_lower(16, 1/4) = 0); the paper profile draws
# with k = N**2 + 2 bits from the urn and k = n**2 + 2 from the thinned urn.
ELL, BETA, ALPHA = 20_000, 2, 8
ENCODE_N, ENCODE_URN, ENCODE_M = 2, 16, 1

# sample-n6: n = 6 is the smallest base size whose draw count leaves the
# clamp of 1 (beta = 2, alpha = 8): N = n**4 = 1296 and m = 2.  The practical
# profile draws with k = ceil(log2 N) + 64 bits.
SAMPLE_N, SAMPLE_URN, SAMPLE_M = 6, 1296, 2


@dataclass(frozen=True)
class Size:
    criteria: tuple[str, ...]  # verify-lite criteria
    grid_pairs: int
    sample_trials: int
    evaluations: int


SIZES = {
    "full": Size(criteria=CRITERIA, grid_pairs=4000, sample_trials=100, evaluations=1000),
    # Tiny passes for the smoke test: every workload's code path.
    "smoke": Size(
        criteria=CRITERIA,
        grid_pairs=50,
        sample_trials=3,
        evaluations=20,
    ),
}


@dataclass
class PassResult:
    wall_s: float  # the timed region
    ops: int
    failed: int
    digest: str
    problems: list[str]
    # The timed region cut into segments: the same cuts in every pass of a
    # run, and the durations sum to wall_s.
    segments: list[float]

    def to_json_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "ops": self.ops,
            "failed": self.failed,
            "digest": self.digest,
            "problems": self.problems[:10],
            "segments": self.segments,
        }


def run_pass(workload: str, seed: int, size: Size, work_dir: Path) -> PassResult:
    return _PASSES[workload](seed, size, work_dir)


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# verify-lite is cut at the start of each criterion and of each call of these
# functions: C5's (k, range) cases, C8's evaluations and C10's inversions, a
# few hundred microseconds each.  C1 and C2 (0.3 s each) have no call of that
# size to cut at.
VERIFY_CUTS = (
    (acceptance, "run_criterion"),
    (bitsampler, "bias_profile"),
    (owf, "owf_evaluate"),
    (owf, "binary_search_invert"),
)


@contextlib.contextmanager
def _marked(module, attr: str, marks: list[float]):
    """Append perf_counter() to ``marks`` on each call of ``module.attr``
    for as long as the context lasts.  The wrapper costs well under a
    microsecond per call; the calls it cuts at take 0.1 ms or more."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        marks.append(perf_counter())
        return fn(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def _verify_pass(seed: int, size: Size, work_dir: Path) -> PassResult:
    argv = ["verify-all", "--seed", str(seed), "--trials", str(TRIALS), "--format", "json"]
    out = work_dir / "verify-lite.json"
    out.unlink(missing_ok=True)  # never read an earlier pass's report
    everything = acceptance.CRITERIA
    acceptance.CRITERIA = tuple(c for c in everything if c.ident in size.criteria)
    marks: list[float] = []
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            for module, attr in VERIFY_CUTS:
                stack.enter_context(_marked(module, attr, marks))
            start = perf_counter()
            code = cli.main(argv + ["--out", str(out)])
            end = perf_counter()
    finally:
        acceptance.CRITERIA = everything
    cuts = [start, *marks, end]
    segments = [b - a for a, b in zip(cuts, cuts[1:])]
    report = json.loads(out.read_text())
    report.pop("timestamp", None)

    expected_ids = list(size.criteria)
    ops = len(expected_ids)
    broken = []  # problems that make the whole report wrong
    config = {"seed": seed, "trials": TRIALS, "owf_trials": TRIALS, "k_profile": "practical"}
    if report.get("config") != config:
        broken.append(f"config {report.get('config')} != {config}")
    rows = report.get("criteria", [])
    if [r.get("id") for r in rows] != expected_ids:
        broken.append(f"criteria {[r.get('id') for r in rows]} != {expected_ids}")
    failing = [r.get("id") for r in rows if r.get("passed") is not True]
    if report.get("all_passed") is not (not failing) or code != (1 if failing else 0):
        broken.append(f"exit code {code} and all_passed disagree with the criteria")
    failed = ops if broken else len(failing)
    problems = broken + [f"{ident} failed" for ident in failing]
    return PassResult(end - start, ops, failed, _digest(report), problems, segments)


def _grid_pass(seed: int, size: Size, work_dir: Path) -> PassResult:
    rng = random.Random(seed)
    pairs = []
    for _ in range(size.grid_pairs):
        N = rng.randint(*GRID_N)
        pairs.append((N, rng.randint(1, N - 1)))
    digest = hashlib.sha256()
    segments = []
    failed = 0
    problems = []
    for N, good in pairs:
        start = perf_counter()
        try:
            mstar = threshold.exact_threshold(N, good)
            mb = threshold.mu_bounds(N, Fraction(good, N), check_sandwich=False)
            verdicts = [
                threshold.bollobas_check(N, good, theta, m, mstar=mstar)
                for theta, m in _bollobas_cases(N, mstar)
            ]
        except Exception as exc:  # a pair that raises is a failed operation
            segments.append(perf_counter() - start)
            failed += 1
            problems.append(f"(N, good) = ({N}, {good}): {type(exc).__name__}: {exc}")
            digest.update(f"error {type(exc).__name__}\n".encode())
            continue
        segments.append(perf_counter() - start)
        record = [N, good, mstar, mb.lower, mb.upper, mb.lower_clamped]
        record.append([[v.regime, v.holds] for v in verdicts])
        digest.update(json.dumps(record).encode() + b"\n")
        expected = reference_grid(N, good)
        sandwich = mb.lower_clamped <= mstar <= mb.upper
        if record != expected or not sandwich or any(h is False for _, h in record[-1]):
            failed += 1
            problems.append(f"(N, good) = ({N}, {good}): {record} != reference {expected}")
    return PassResult(sum(segments), len(pairs), failed, digest.hexdigest(), problems, segments)


def _bollobas_cases(N: int, mstar: int) -> list[tuple[int, int]]:
    """C4's (theta, m) checks for one pair: m*/theta below the threshold and
    theta(m* + 1) above it, where that is a draw count."""
    if not BOLLOBAS_N[0] <= N <= BOLLOBAS_N[1]:
        return []
    cases = []
    for theta in THETAS:
        cases.append((theta, mstar // theta))
        if theta * (mstar + 1) <= N:
            cases.append((theta, theta * (mstar + 1)))
    return cases


def reference_grid(N: int, good: int) -> list:
    """[N, good, m*, lower, upper, lower_clamped, [[regime, holds], ...]] in
    exact integer arithmetic.

    m* = max{k : Pr(Q_k) <= 1/2}, where Pr(Q_k) <= 1/2 iff
    2 * C(N - good, k) >= C(N, k).  The bounds are lower = floor(1 + N - good
    - r) and upper = ceil(N - r) with r**good = N! / ((N - good)! * 2), so
    upper = N - floor(r) and lower = 1 + N - good - ceil(r).  With the miss
    probability q = C(N - good, m) / C(N, m), Bollobas's inequalities at an
    integer theta are q**theta * 2 >= 1 below the threshold (m <= m*/theta)
    and q * 2**theta <= 1 above it (m >= theta(m* + 1))."""
    mstar = 0
    while mstar < N - good and 2 * math.comb(N - good, mstar + 1) >= math.comb(N, mstar + 1):
        mstar += 1
    twice = math.perm(N, good)  # 2 * r**good
    estimate = (math.lgamma(N + 1) - math.lgamma(N - good + 1) - math.log(2)) / good
    floor_r = int(math.exp(estimate))
    while 2 * (floor_r + 1) ** good <= twice:
        floor_r += 1
    while 2 * floor_r**good > twice:
        floor_r -= 1
    ceil_r = floor_r if 2 * floor_r**good == twice else floor_r + 1
    lower = 1 + N - good - ceil_r
    verdicts = []
    for theta, m in _bollobas_cases(N, mstar):
        miss, total = math.comb(N - good, m), math.comb(N, m)
        if m * theta <= mstar:
            verdicts.append(["below", 2 * miss**theta >= total**theta])
        else:
            verdicts.append(["above", miss * 2**theta <= total])
    return [N, good, mstar, lower, N - floor_r, max(0, lower), verdicts]


def _sample_pass(seed: int, size: Size, work_dir: Path) -> PassResult:
    n = SAMPLE_N
    params = threshold.sampler_params(n, BETA, ALPHA)
    need = [owf.round_consumption(b, params, "practical") for b in (0, 1)]
    digest = hashlib.sha256()
    segments = []
    failed = 0
    problems = []
    for t in range(size.sample_trials):
        # Four segments per trial pair: each tape and each round.
        cuts = [perf_counter()]
        try:
            tape0 = bitsampler.BitTape.from_seed(seed, need[0], stream=2 * t)
            cuts.append(perf_counter())
            w0, tape0 = owf.ptsamp(0, n, tape0, params, "practical")
            cuts.append(perf_counter())
            tape1 = bitsampler.BitTape.from_seed(seed, need[1], stream=2 * t + 1)
            cuts.append(perf_counter())
            w1, tape1 = owf.ptsamp(1, n, tape1, params, "practical")
        except Exception as exc:  # a trial pair that raises is a failed operation
            failed += 1
            problems.append(f"trial {t}: {type(exc).__name__}: {exc}")
            digest.update(f"error {type(exc).__name__}\n".encode())
            continue
        finally:
            cuts += [perf_counter()] * (5 - len(cuts))
            segments += [b - a for a, b in zip(cuts, cuts[1:])]
        record = [list(w0.members), tape0.cursor, list(w1.members), tape1.cursor]
        digest.update(json.dumps(record).encode() + b"\n")
        expected = reference_sample(seed, t)
        if (params.N, params.m) != (SAMPLE_URN, SAMPLE_M) or record != expected:
            failed += 1
            problems.append(f"trial {t}: {record} != reference {expected}")
    return PassResult(
        sum(segments), size.sample_trials, failed, digest.hexdigest(), problems, segments
    )


def reference_sample(seed: int, t: int) -> list:
    """[set for b=0, bits consumed, set for b=1, bits consumed] of trial t,
    from the documented rules alone: tape bits are SHA-256 blocks over
    (seed, stream, counter), read MSB first; each selection takes the first m
    positions of a Fisher-Yates pass with k-bit subinterval draws and consumes
    the whole pass; b=1 first thins the urn to n elements."""
    n, N, m = SAMPLE_N, SAMPLE_URN, SAMPLE_M
    k_urn, k_thin = (N - 1).bit_length() + 64, (n - 1).bit_length() + 64
    urn = list(range(1, N + 1))
    tape0 = _seed_bits(seed, 2 * t, m * k_urn)
    chosen0, used0 = _reference_select(tape0, 0, urn, m, k_urn)
    tape1 = _seed_bits(seed, 2 * t + 1, N * k_urn + m * k_thin)
    thinned, pos = _reference_select(tape1, 0, urn, n, k_urn)
    chosen1, used1 = _reference_select(tape1, pos, thinned, m, k_thin)
    return [chosen0, used0, chosen1, used1]


def _seed_bits(seed: int, stream: int, nbits: int) -> str:
    prefix = seed.to_bytes(8, "big") + stream.to_bytes(8, "big")
    raw = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range((nbits + 255) // 256)
    )
    return format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")[:nbits]


def _encode_pass(seed: int, size: Size, work_dir: Path) -> PassResult:
    rng = random.Random(seed)
    digest = hashlib.sha256()
    segments = []
    failed = 0
    problems = []
    for i in range(size.evaluations):
        word = format(rng.getrandbits(ELL), f"0{ELL}b")
        start = perf_counter()
        try:
            out = owf.owf_evaluate(word, BETA, k_profile="paper", alpha=ALPHA)
        except Exception as exc:  # an evaluation that raises is a failed operation
            segments.append(perf_counter() - start)
            failed += 1
            problems.append(f"evaluation {i}: {type(exc).__name__}: {exc}")
            digest.update(f"error {type(exc).__name__}\n".encode())
            continue
        segments.append(perf_counter() - start)
        record = [out.n, [list(s.members) for s in out.sets], out.bits_consumed]
        digest.update(json.dumps(record).encode() + b"\n")
        expected = reference_encode(word)
        if record != expected:
            failed += 1
            problems.append(f"evaluation {i}: {record} != reference {expected}")
    return PassResult(
        sum(segments), size.evaluations, failed, digest.hexdigest(), problems, segments
    )


def reference_encode(word: str) -> list:
    """[n, sets, bits_consumed] of the encoder at (ell=20000, beta=2,
    alpha=8, paper profile), from the documented rules alone: each payload
    bit selects the first m positions of a Fisher-Yates pass over the urn
    1..N with k-bit subinterval draws (r * R >> k), and a pass always
    consumes R * k bits; bit 1 first thins the urn to n elements."""
    n, N, m = ENCODE_N, ENCODE_URN, ENCODE_M
    urn = list(range(1, N + 1))
    pos = n
    sets = []
    for bit in word[:n]:
        if bit == "1":
            thinned, pos = _reference_select(word, pos, urn, n, N * N + 2)
            chosen, pos = _reference_select(word, pos, thinned, m, n * n + 2)
        else:
            chosen, pos = _reference_select(word, pos, urn, m, N * N + 2)
        sets.append(chosen)
    return [n, sets, pos - n]


def _reference_select(bits: str, pos: int, urn: list, m: int, k: int):
    remaining = list(range(len(urn)))
    picked = []
    for j in range(m):
        r = int(bits[pos + j * k : pos + (j + 1) * k], 2)
        picked.append(remaining.pop((r * len(remaining)) >> k))
    return sorted(urn[p] for p in picked), pos + len(urn) * k


_PASSES = {
    "verify-lite": _verify_pass,
    "threshold-grid": _grid_pass,
    "sample-n6": _sample_pass,
    "encode-20k": _encode_pass,
}
WORKLOADS = tuple(_PASSES)
