"""Exact urn hit probabilities, the threshold m*, and its closed-form bounds.

The urn model: N elements, ``good`` of them marked.  Q_k is the event that a
uniformly drawn k-subset contains at least one marked element,

    Pr(Q_k) = 1 - C(N-good, k) / C(N, k) = 1 - perm(N-good, k) / perm(N, k),

computed exactly as big-integer rationals.  The threshold is
m*(N, p) = max{k : Pr(Q_k) <= 1/2} with p = good/N, found by one walk over k
that keeps both permutation counts, and the closed-form sandwich derived from
factorial-ratio bounds is

    mu_lower = floor(1 + N(1-p) - r)      mu_upper = ceil(N - r)

with the root term r = (N! / (2 * ((1-p)N)!))**(1/(pN)).  The bounds are
computed exactly, in one place: ``_mu_bounds`` takes floor(r) as the integer
good-th root ``words.iroot`` of half the falling factorial N!/(N-good)!, so
floor and ceil need no precision argument.  ``mu_bounds_exact(N, good)``
checks the urn and calls it; C3 and ``owflab threshold`` read the sandwich off
``sandwich_grid``, which calls it with the falling factorial carried along
each row, as C4 and the command read the regime checks off ``bollobas_grid``.
``bollobas_check`` takes an integer theta, so that each regime inequality
is one comparison of integers.

m(N), the number of elements the sampler actually draws, is
floor(N**(-1/alpha) * mu_lower(N, p_upper)) clamped to >= 1, with
alpha = 4*beta/(beta-2) + 2*beta auto-derived for beta > 2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import BudgetError, InvariantViolation
from .words import iroot

DEFAULT_ALPHA_SMALL_BETA = Fraction(8)  # convention for beta <= 2, where the
# closed form for alpha blows up; any alpha > 1 is admissible there.
ALPHA_TERM_LIMIT = 10**5  # m is found by raising integers to alpha's
# numerator and denominator, so their size bounds the cost of sampler_params.
SANDWICH_MAX_N = 1000  # sandwich_grid's ~N**2/2 rows took 15 s and 202 MB
# at N = 1000 (Python 3.11.7, 2 cores), and their time grows about as N**2.6.


def hit_probability(N: int, good: int, k: int) -> Fraction:
    """Pr(Q_k), exact, as (total - miss)/total with miss = perm(N-good, k)
    and total = perm(N, k), reduced once; the miss ratio is 1 at k = 0 and 0
    once k > N - good."""
    N, good = _check_urn(N, good)
    if k < 0 or k > N:
        raise ValueError(f"draw count k={k} outside [0, {N}]")
    total = math.perm(N, k)
    return Fraction(total - math.perm(N - good, k), total)


def _check_urn(N: int, good: int) -> tuple[int, int]:
    N, good = operator.index(N), operator.index(good)
    if N < 1:
        raise ValueError("urn size must be >= 1")
    if not 0 <= good <= N:
        raise ValueError(f"good count {good} outside [0, {N}]")
    return N, good


def exact_threshold(N: int, good: int) -> int:
    """m*(N, p) = max{k : Pr(Q_k) <= 1/2}, by ``_threshold_walk``."""
    return _threshold_walk(N, good)[0]


def _threshold_walk(N: int, good: int) -> tuple[int, int, int]:
    """(m*, perm(N-good, m*), perm(N, m*)), by a walk over k.

    The walk keeps miss = perm(N-good, k) and total = perm(N, k), one
    multiply each per step, and steps while Pr(Q_{k+1}) <= 1/2, that is
    while 2*perm(N-good, k+1) >= perm(N, k+1).  The miss ratio only falls
    as k grows, so the first failure marks m*.  Degenerate urns follow the
    limits of the defining max-set: at good = 0 the ratio stays 1 and the
    walk returns N, and at good = N it returns 0.
    """
    N, good = _check_urn(N, good)
    bad = N - good
    miss = total = 1
    k = 0
    while k < bad and 2 * miss * (bad - k) >= total * (N - k):
        miss *= bad - k
        total *= N - k
        k += 1
    return k, miss, total


class MuBounds(NamedTuple):
    lower: int  # floor(1 + N(1-p) - r), may be negative
    upper: int  # ceil(N - r)
    lower_clamped: int  # max(0, lower): draw counts cannot be negative


def mu_bounds(
    N: int, p: Fraction, *, check_sandwich: bool = True
) -> MuBounds:
    """Closed-form threshold bounds, as computed by ``mu_bounds_exact`` at
    the good count p*N, which must be an integer in [1, N].

    When ``check_sandwich`` is on and the urn is nondegenerate, the sandwich
    max(0, lower) <= m*(N, p) <= upper is checked against the exact
    threshold and a failure raises InvariantViolation.
    """
    good, rest = divmod(p.numerator * N, p.denominator)
    if rest or good < 1:
        raise ValueError(f"p*N must be a positive integer, got {p * N}")
    if good > N:
        raise ValueError("p must be at most 1")
    bounds = mu_bounds_exact(N, good)
    if check_sandwich and good < N:
        mstar = exact_threshold(N, good)
        if not bounds.lower_clamped <= mstar <= bounds.upper:
            raise InvariantViolation(
                f"sandwich violated at N={N}, good={good}: "
                f"{bounds.lower_clamped} <= {mstar} <= {bounds.upper} fails"
            )
    return bounds


def mu_bounds_exact(N: int, good: int) -> MuBounds:
    """The bounds at p = good/N, for N >= 2 and 1 <= good <= N, in
    big-integer arithmetic, by ``_mu_bounds`` at ff = perm(N, good)."""
    if N < 2:
        raise ValueError("the bounds need N >= 2")
    if not 1 <= good <= N:
        raise ValueError(f"good count {good} outside [1, {N}]")
    return _mu_bounds(N, good, math.perm(N, good))


def _mu_bounds(N: int, good: int, ff: int) -> MuBounds:
    """The bounds from the falling factorial ff = N!/((N-good)!), unchecked.

    Uses floor(A - r) = A - ceil(r) and ceil(N - r) = N - floor(r).  Here
    r = (ff/2)**(1/good), and 2*t**good <= ff exactly when
    t**good <= ff // 2, so floor(r) = iroot(ff // 2, good); r is an integer
    exactly when ff is even and that root leaves no remainder.
    """
    floor_r, rest = iroot(ff // 2, good)
    ceil_r = floor_r if ff % 2 == 0 and rest == 0 else floor_r + 1
    lower = 1 + (N - good) - ceil_r
    upper = N - floor_r
    return MuBounds(lower, upper, max(0, lower))


def sandwich_grid(n_max: int) -> Iterator[tuple]:
    """Rows (N, good, m*, mu_lower, mu_upper, Pr(Q_m*), Pr(Q_m*+1), sandwich_ok)
    for N in [4, n_max] and 1 <= good < N, where sandwich_ok is
    max(0, mu_lower) <= m* <= mu_upper.  Each probability is one int division
    (total - miss)/total of the walk's counts, so it is rounded once; good >= 1
    puts m* at most N - 1, so the step to m* + 1 exists.  Along a row the
    falling factorial perm(N, good) of the bounds grows by one multiply per
    step, ff *= N - good + 1.  An n_max past SANDWICH_MAX_N is refused
    before the first row."""
    if n_max > SANDWICH_MAX_N:
        raise BudgetError(f"the sandwich grid is limited to N <= {SANDWICH_MAX_N}")
    for N in range(4, n_max + 1):
        ff = 1
        for good in range(1, N):
            ff *= N - good + 1
            mstar, miss, total = _threshold_walk(N, good)
            miss_next, total_next = miss * (N - good - mstar), total * (N - mstar)
            mb = _mu_bounds(N, good, ff)
            ok = mb.lower_clamped <= mstar <= mb.upper
            yield (N, good, mstar, mb.lower, mb.upper, (total - miss) / total,
                   (total_next - miss_next) / total_next, ok)


def derive_constants(beta: int | Fraction) -> tuple[Fraction, Fraction]:
    """(alpha, gamma) = (4*beta/(beta-2) + 2*beta, (beta-2)**2/(2*beta))."""
    beta = Fraction(beta)
    if beta <= 2:
        raise ValueError("the closed forms require beta > 2")
    alpha = Fraction(4) * beta / (beta - 2) + 2 * beta
    gamma = (beta - 2) ** 2 / (2 * beta)
    return alpha, gamma


@dataclass(frozen=True)
class SamplerParams:
    """Derived sampling parameters for base size n and density exponent beta.

    N = n**(2*beta) is the full urn and m is the draw count
    floor(N**(-1/alpha) * mu_lower(N, p_upper)) clamped to >= 1, where
    p_upper = sqrt(N)/N bounds the marked fraction.
    """

    n: int
    alpha: Fraction
    N: int
    m: int
    m_degenerate: bool

    @property
    def b1_feasible(self) -> bool:
        """Whether the b=1 branch can draw m elements from its thinned urn
        of n; a cell with m > n cannot run that branch."""
        return self.m <= self.n


@functools.lru_cache(maxsize=256, typed=True)
def sampler_params(
    n: int, beta: int, alpha: Fraction | int | None = None
) -> SamplerParams:
    """Build SamplerParams; alpha is auto-derived for beta > 2 and must
    otherwise come from the caller (or the documented default of 8).

    Memoized: the result is a frozen value of the arguments alone, and an
    evaluation or a sampling experiment asks for the same cell again and
    again.  The cache is typed, so 2.0 does not find the entry of 2 and is
    refused as before; an argument that raises is never cached."""
    if n < 1:
        raise ValueError("base size n must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if alpha is None:
        alpha = derive_constants(beta)[0] if beta > 2 else DEFAULT_ALPHA_SMALL_BETA
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if max(alpha.numerator, alpha.denominator) > ALPHA_TERM_LIMIT:
        raise ValueError(
            f"alpha {alpha} has a numerator or denominator above {ALPHA_TERM_LIMIT}"
        )
    N = n ** (2 * beta)
    # The unclamped draw count; below 1 it is clamped and flagged degenerate.
    mu = mu_bounds_exact(N, n**beta).lower if N >= 2 else 0
    # m = floor(mu * N**(-1/alpha)) is the largest m with m**a * N**b <= mu**a
    # for alpha = a/b, that is the a-th root of mu**a // N**b.
    a, b = alpha.numerator, alpha.denominator
    m = iroot(mu**a // N**b, a)[0] if mu > 0 else 0
    return SamplerParams(
        n=n,
        alpha=alpha,
        N=N,
        m=max(1, m),
        m_degenerate=m < 1,
    )


class BollobasVerdict(NamedTuple):
    N: int
    good: int
    theta: int
    m: int
    regime: str  # "below" | "above" | "between"
    holds: bool | None  # None in the between-regimes gap
    pr: Fraction


def bollobas_check(
    N: int,
    good: int,
    theta: int,
    m: int,
    *,
    mstar: int | None = None,
) -> BollobasVerdict:
    """Check the threshold inequalities in exact integers.

    Below the threshold (m <= m*/theta):    Pr(Q_m) <= 1 - 2**(-1/theta).
    Above the threshold (m >= theta(m*+1)): Pr(Q_m) >= 1 - 2**(-theta).
    With 1 - Pr(Q_m) = miss/total in lowest terms, clearing the powers of 2
    makes the first 2 * miss**theta >= total**theta and the second
    miss * 2**theta <= total.  theta is an integer in [1, ALPHA_TERM_LIMIT],
    the bound on alpha's terms, since the check raises integers to it; a
    Fraction or a float is a TypeError.  A caller that already has
    m*(N, good) passes it as ``mstar``.
    """
    theta = operator.index(theta)
    if not 1 <= theta <= ALPHA_TERM_LIMIT:
        raise ValueError(f"theta must be an integer in [1, {ALPHA_TERM_LIMIT}]")
    if mstar is None:
        mstar = exact_threshold(N, good)
    pr = hit_probability(N, good, m)
    # 1 - pr in lowest terms, since gcd(d - n, d) = gcd(n, d) = 1
    total = pr.denominator
    miss = total - pr.numerator
    if m * theta <= mstar:
        holds = 2 * miss**theta >= total**theta
        regime = "below"
    elif m >= theta * (mstar + 1):
        holds = miss * 2**theta <= total
        regime = "above"
    else:
        holds = None
        regime = "between"
    return BollobasVerdict(N, good, theta, m, regime, holds, pr)


def bollobas_grid(n_max: int = 200) -> Iterator[BollobasVerdict]:
    """The regime grid: for N in [10, n_max], 1 <= good < N and theta in
    {1, 2, 4}, the verdicts at m = m*//theta (below the threshold) and at
    m = theta*(m*+1) (above it, where that is at most N)."""
    for N in range(10, n_max + 1):
        for good in range(1, N):
            mstar = exact_threshold(N, good)
            for theta in (1, 2, 4):
                yield bollobas_check(N, good, theta, mstar // theta, mstar=mstar)
                m_above = theta * (mstar + 1)
                if m_above <= N:
                    yield bollobas_check(N, good, theta, m_above, mstar=mstar)


__all__ = [
    "ALPHA_TERM_LIMIT",
    "BollobasVerdict",
    "DEFAULT_ALPHA_SMALL_BETA",
    "MuBounds",
    "SANDWICH_MAX_N",
    "SamplerParams",
    "bollobas_check",
    "bollobas_grid",
    "derive_constants",
    "exact_threshold",
    "hit_probability",
    "mu_bounds",
    "mu_bounds_exact",
    "sampler_params",
    "sandwich_grid",
]
