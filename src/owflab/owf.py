"""Threshold sampling and the bit-encoding evaluator built on it.

A single bit b is encoded as a set W of m Goedel indices: for b = 0 the m
elements are drawn from the full urn {1..N} with N = n**(2*beta), where m
stays below the hit threshold and W most likely misses the target language;
for b = 1 the urn is first thinned to n surviving elements, relative to
which the same m exceeds the threshold and W most likely contains a member.
Both branches emit sets of identical cardinality from the same index space,
so the output's shape carries no information about the bit.

The evaluator splits its input, a word over 0/1 or a BitTape read from its
cursor on, into n leading payload bits and a bit tape, then chains the
per-bit sampler, handing each round the tape remainder of the previous one.
A round reads cost0 = N*k(N) bits for b = 0 and cost1 = cost0 + n*k(n) for
b = 1, so an input needs

    n*cost0 + weight(payload)*(cost1 - cost0)

tape bits, its ``bits_consumed``, which gives away the payload's weight.
Everything downstream of the input is deterministic, so equal inputs give
equal outputs and equal input lengths give equal output shapes.

The result objects, InstanceSet and OwfOutput, are frozen and slotted
dataclasses that check what they hold when built, each at the cost of what
it holds: a set of two or more members is tested for sorted and distinct
(one of at most one is both as it stands), every set's two ends against
its urn, and an output's shape by comparing each set with the first.

The hardness story this models is not asserted here: the experiments measure
miss rates against exact hypergeometric values and report them.  The
inversion demo shows the complementary direction: with a membership decider
for the graph language {(y, N) : some x <= N has g(x) = y}, a preimage is
recovered with logarithmically many decisions by bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .bitsampler import BitTape, paper_k, profile_k, select_subset
from .errors import (
    DegenerateParameters,
    InvariantViolation,
    TapeExhausted,
)
from .languages import LanguageOracle
from .threshold import (
    SamplerParams,
    hit_probability,
    sampler_params,
)
from .words import Word, goedel_inverse

MIN_TRIALS = 1000  # the fewest trials per branch the error experiment runs


@dataclass(frozen=True, slots=True)
class InstanceSet:
    """A drawn set of Goedel indices from the urn {1..urn_bound}."""

    members: tuple[int, ...]  # sorted, distinct
    urn_bound: int

    def __post_init__(self):
        members = self.members
        # At most one member is sorted and distinct as it stands.
        if len(members) > 1 and list(members) != sorted(set(members)):
            raise InvariantViolation(f"members {members} not sorted and distinct")
        # Sorted, so the range check needs only the two ends.
        if members and not (1 <= members[0] and members[-1] <= self.urn_bound):
            raise InvariantViolation(
                f"members {members} outside the urn [1, {self.urn_bound}]"
            )


@dataclass(frozen=True, slots=True)
class OwfOutput:
    sets: tuple[InstanceSet, ...]
    n: int
    bits_consumed: int
    params: SamplerParams

    def __post_init__(self):
        if self.sets:
            first = self.sets[0]
            card, bound = len(first.members), first.urn_bound
            for w in self.sets:
                if len(w.members) != card or w.urn_bound != bound:
                    raise InvariantViolation("output shape must not vary")


def compute_n(ell: int, beta: int) -> int:
    """Largest i with i + N*paper_k(N) <= ell, where N = i**(2*beta).

    The budget is the i payload bits and one b=0 round at the paper k, not
    the input's need n*cost0 + weight(payload)*(cost1 - cost0), so most
    inputs under the paper profile cannot cover it; ``owf_evaluate`` checks
    that need before any round."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if ell < 4:
        raise ValueError("inputs must have length >= 4 (the i = 1 cost)")
    i = 2
    while i + (N := i ** (2 * beta)) * paper_k(N) <= ell:
        i += 1
    return i - 1


class _Round(NamedTuple):
    """The constants of a sampler round at one (n, N, k profile)."""

    k_urn: int  # bits per draw from the full urn of N
    k_thinned: int  # bits per draw from the thinned urn of n
    cost0: int  # tape cost of a b=0 round
    cost1: int  # tape cost of a b=1 round

    def cost(self, b: int) -> int:
        return self.cost1 if b == 1 else self.cost0


@functools.lru_cache(maxsize=256)
def _round(n: int, N: int, k_profile: str) -> _Round:
    """A round's two per-draw bit counts and its tape cost for each bit: one
    Fisher-Yates pass over the urn of N, and for b=1 a second one over the
    thinned urn of n.  Keyed on ints and the profile name, which hash fast;
    a SamplerParams would hash its Fraction alpha on every lookup."""
    k_urn, k_thinned = profile_k(k_profile, N), profile_k(k_profile, n)
    cost0 = N * k_urn
    return _Round(k_urn, k_thinned, cost0, cost0 + n * k_thinned)


def round_consumption(b: int, params: SamplerParams, k_profile: str) -> int:
    """Exact tape cost of one sampler round for bit b: N draws of k(N) bits,
    plus n draws of k(n) bits when b = 1."""
    return _round(params.n, params.N, k_profile).cost(b)


def _require_b1_feasible(params: SamplerParams) -> None:
    if not params.b1_feasible:
        raise DegenerateParameters(
            f"draw count m={params.m} exceeds the thinned urn size n={params.n}; "
            "the b=1 branch cannot produce |W|=m"
        )


def _ptsamp_traced(
    b: int,
    n: int,
    tape: BitTape,
    params: SamplerParams,
    k_profile: str = "paper",
) -> tuple[InstanceSet, Sequence[int]]:
    if b not in (0, 1):
        raise ValueError("b must be a bit")
    if params.n != n:
        raise ValueError("params were built for a different base size")
    N, m = params.N, params.m
    rnd = _round(n, N, k_profile)
    need = rnd.cost(b)
    if tape.remaining() < need:
        raise TapeExhausted(
            f"branch b={b} needs {need} bits, tape has {tape.remaining()}"
        )
    full_urn = range(1, N + 1)
    if b == 1:
        _require_b1_feasible(params)
        urn = select_subset(tape, n, full_urn, rnd.k_urn)
        picked = select_subset(tape, m, urn, rnd.k_thinned)
    else:
        urn = full_urn
        picked = select_subset(tape, m, full_urn, rnd.k_urn)
    return InstanceSet(picked, N), urn


def ptsamp(
    b: int,
    n: int,
    tape: BitTape,
    params: SamplerParams,
    k_profile: str = "paper",
) -> tuple[InstanceSet, BitTape]:
    """One probabilistic threshold-sampling round; returns the drawn set and
    the tape remainder (same tape object, cursor advanced)."""
    instance, _ = _ptsamp_traced(b, n, tape, params, k_profile)
    return instance, tape


def owf_evaluate(
    w: Word | BitTape,
    beta: int,
    k_profile: str = "paper",
    alpha: Fraction | int | None = None,
) -> OwfOutput:
    """Evaluate the bit encoder on input w = payload || tape: a word, or a
    BitTape read from its cursor to its end, which the rounds advance.

    Deterministic in the input's bits.  The input needs n*cost0 +
    weight(payload)*(cost1 - cost0) tape bits, its ``bits_consumed``; when
    the tape holds fewer, TapeExhausted is raised before any round.  So is
    DegenerateParameters when the payload has a 1 bit and the b=1 branch
    cannot draw m of n.  Either refusal leaves the cursor just past the n
    payload bits.
    """
    tape = w if isinstance(w, BitTape) else BitTape(w)  # a word must be over 0/1
    start = tape.cursor
    n = compute_n(tape.remaining(), beta)
    params = sampler_params(n, beta, alpha)
    payload = tape.take(n)
    rnd = _round(n, params.N, k_profile)
    need = n * rnd.cost0 + payload.bit_count() * (rnd.cost1 - rnd.cost0)
    if tape.remaining() < need:
        raise TapeExhausted(
            f"payload {payload:0{n}b} needs {need} tape bits, "
            f"the input has {tape.remaining()}"
        )
    if payload:
        _require_b1_feasible(params)
    sets = []
    for i in range(n):
        b = payload >> (n - 1 - i) & 1
        instance, _ = _ptsamp_traced(b, n, tape, params, k_profile)
        sets.append(instance)
    return OwfOutput(
        sets=tuple(sets), n=n, bits_consumed=tape.cursor - start - n, params=params
    )


def hit_test(instance: InstanceSet, oracle: LanguageOracle) -> bool:
    """Verification-side membership: does the set contain an oracle member?
    (Evaluation never calls this; that is the whole point.)"""
    return any(oracle.member(goedel_inverse(i)) for i in instance.members)


@dataclass(frozen=True)
class BijectivityReport:
    """Measured sampling-error rates against their exact hypergeometric
    values, and their sum, the pairwise-collision criterion.  The tape bits
    a run reads are not recorded: they are ``trials`` times the two round
    costs of ``round_consumption``, fixed by the inputs."""

    n: int
    beta: int
    trials: int
    k_profile: str
    miss0: float  # frequency of W hitting the language although b = 0
    miss1: float  # frequency of W missing the language although b = 1
    exact0: float  # exact Pr(hit | b=0) from the urn composition
    exact1: float  # mean exact Pr(miss | b=1) over the measured thinned urns
    z0: float
    z1: float
    criterion_value: float  # miss0 + miss1; its expectation is exactly 1
    m: int
    N: int
    good_count: int

    def to_json_dict(self) -> dict:
        # The remaining fields are already in report order.
        fields = asdict(self)
        params = ("n", "beta", "N", "m", "good_count", "trials", "k_profile")
        return {"params": {key: fields.pop(key) for key in params}, **fields}


def _z_score(observed: int, expected: float | Fraction, var: float) -> float:
    """(observed - expected) / sqrt(var); at zero variance 0 or infinity."""
    if var > 0:
        return (observed - float(expected)) / math.sqrt(var)
    return 0.0 if observed == expected else math.inf


def sampling_error_experiment(
    n: int,
    beta: int,
    oracle: LanguageOracle,
    trials: int,
    seed: int,
    *,
    alpha: Fraction | int | None = None,
    k_profile: str = "practical",
) -> BijectivityReport:
    """Run both sampler branches with fresh disjoint tapes per trial and
    compare miss frequencies against exact hypergeometric values.

    The b=0 oracle value is Pr(Q_m) for the full urn's measured good count;
    for b=1 each trial's thinned urn is measured and contributes its exact
    conditional miss probability, so the comparison is against the actual
    urn compositions rather than any asymptotic bound.  Trial tapes derive
    from (seed, trial, branch), making aggregates independent of execution
    order.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"the error experiment needs trials >= {MIN_TRIALS}")
    params = sampler_params(n, beta, alpha)
    _require_b1_feasible(params)
    N, m = params.N, params.m
    good_positions = frozenset(
        i for i in range(1, N + 1) if oracle.member(goedel_inverse(i))
    )
    good = len(good_positions)
    exact0 = hit_probability(N, good, m)

    need0 = round_consumption(0, params, k_profile)
    need1 = round_consumption(1, params, k_profile)
    # A thinned urn's good count g takes n + 1 values: price each once.
    miss_given = [1 - hit_probability(n, g, m) for g in range(n + 1)]
    var_given = [float(p) * float(1 - p) for p in miss_given]
    urns_by_good = [0] * (n + 1)
    hits0 = 0
    misses1 = 0
    exact1_var = 0.0
    for t in range(trials):
        tape0 = BitTape.from_seed(seed, need0, stream=2 * t)
        w0, _ = _ptsamp_traced(0, n, tape0, params, k_profile)
        if not good_positions.isdisjoint(w0.members):
            hits0 += 1
        tape1 = BitTape.from_seed(seed, need1, stream=2 * t + 1)
        w1, urn1 = _ptsamp_traced(1, n, tape1, params, k_profile)
        if good_positions.isdisjoint(w1.members):
            misses1 += 1
        g_t = len(good_positions.intersection(urn1))
        urns_by_good[g_t] += 1
        exact1_var += var_given[g_t]  # in trial order: sum() rounds otherwise
    exact1_sum = sum(count * p for count, p in zip(urns_by_good, miss_given))

    p0 = float(exact0)
    z0 = _z_score(hits0, trials * p0, trials * p0 * (1 - p0))
    z1 = _z_score(misses1, exact1_sum, exact1_var)
    miss0 = hits0 / trials
    miss1 = misses1 / trials
    return BijectivityReport(
        n=n,
        beta=beta,
        trials=trials,
        k_profile=k_profile,
        miss0=miss0,
        miss1=miss1,
        exact0=p0,
        exact1=float(exact1_sum) / trials,
        z0=z0,
        z1=z1,
        criterion_value=miss0 + miss1,
        m=m,
        N=N,
        good_count=good,
    )


class InversionResult(NamedTuple):
    preimage: int | None
    queries: int


def binary_search_invert(
    y: int,
    decider: Callable[[int, int], bool],
    n_bound: int,
) -> InversionResult:
    """Recover x with g(x) = y from a range decider for the graph language
    {(y, N) : some x <= N has g(x) = y}.

    Uses at most ceil(log2(n_bound)) + 1 decider calls: one to rule the whole
    range in or out, then bisection for the minimal admissible N, which is
    the preimage itself.  Bisection asks only bounds in [lo, hi), with every
    no below lo and every yes at or above hi, so it never asks a bound twice
    and never records a yes below a no, whatever the decider answers; a
    decider that is not monotone gets the bisection's answer.  The largest no
    and the smallest yes are kept as two running values, and a no above a
    yes, which would mean the search broke its own invariant, raises
    InvariantViolation.
    """
    if n_bound < 1:
        raise ValueError("the search range must be nonempty")
    queries = 0
    largest_no, smallest_yes = 0, n_bound + 1  # outside [1, n_bound]

    def ask(bound: int) -> bool:
        nonlocal queries, largest_no, smallest_yes
        queries += 1
        ans = bool(decider(y, bound))
        if ans:
            smallest_yes = min(smallest_yes, bound)
        else:
            largest_no = max(largest_no, bound)
        _check_monotone(largest_no, smallest_yes)
        return ans

    if not ask(n_bound):
        return InversionResult(None, queries)
    lo, hi = 1, n_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if ask(mid):
            hi = mid
        else:
            lo = mid + 1
    return InversionResult(lo, queries)


def _check_monotone(largest_no: int, smallest_yes: int) -> None:
    # Bisection asks only between its largest no and its smallest yes, so a
    # no above a yes means the search, not the decider, went wrong.
    if largest_no > smallest_yes:
        raise InvariantViolation(
            f"decider answered yes at {smallest_yes} but no at {largest_no}"
        )


__all__ = [
    "BijectivityReport",
    "InstanceSet",
    "InversionResult",
    "MIN_TRIALS",
    "OwfOutput",
    "binary_search_invert",
    "compute_n",
    "hit_test",
    "owf_evaluate",
    "ptsamp",
    "round_consumption",
    "sampling_error_experiment",
]
