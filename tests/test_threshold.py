import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from owflab.errors import InvariantViolation
from owflab.threshold import (
    DEFAULT_ALPHA_SMALL_BETA,
    _threshold_walk,
    bollobas_check,
    bollobas_grid,
    derive_constants,
    exact_threshold,
    hit_probability,
    mu_bounds,
    mu_bounds_exact,
    quotient_ratio,
    sampler_params,
    sandwich_grid,
)


def hit_probability_binomial(N, good, k):
    """Independent route to Pr(Q_k): 1 - C(N-good, k)/C(N, k)."""
    return 1 - Fraction(math.comb(N - good, k), math.comb(N, k))


# An independent oracle for the bounds: the root term from log-Gamma at 96
# bits, with values within 2**-30 of an integer snapped to it before the
# floor or ceil (the kernel's error is far below the guard, so such a value
# is that integer, e.g. the root of a perfect-power falling factorial).
KERNEL_PRECISION_BITS = 96
GUARD = mpmath.mpf(2) ** -30


@lru_cache(maxsize=None)
def _lngamma(arg):
    with mpmath.workprec(KERNEL_PRECISION_BITS):
        return mpmath.loggamma(arg)


def _guarded(value, rounding):
    nearest = mpmath.nint(value)
    return int(nearest if abs(value - nearest) <= GUARD else rounding(value))


def kernel_bounds(N, good):
    """(lower, upper, root) from the log-Gamma kernel."""
    with mpmath.workprec(KERNEL_PRECISION_BITS):
        exponent = (_lngamma(N + 1) - _lngamma(N - good + 1) - mpmath.log(2)) / good
        root = mpmath.exp(exponent)
        lower = _guarded(1 + (N - good) - root, mpmath.floor)
        upper = _guarded(N - root, mpmath.ceil)
        return lower, upper, float(root)


def test_hit_probability_examples():
    assert hit_probability(4, 2, 1) == Fraction(1, 2)
    assert hit_probability(4, 2, 2) == Fraction(5, 6)
    assert hit_probability(30, 7, 0) == 0
    assert hit_probability(30, 7, 24) == 1  # k > N - good forces a hit
    with pytest.raises(ValueError):
        hit_probability(4, 2, 5)
    with pytest.raises(ValueError):
        hit_probability(4, 5, 1)


def test_hit_probability_routes_agree():
    rng = random.Random(11)
    cases = [(4, 2, 1), (4, 2, 2)]
    cases += [
        (N, rng.randrange(0, N + 1), rng.randrange(0, N + 1))
        for N in (7, 33, 120, 400)
        for _ in range(30)
    ]
    for N, good, k in cases:
        assert hit_probability(N, good, k) == hit_probability_binomial(N, good, k)


def test_hit_probability_against_scipy():
    for N, good, k in ((20, 5, 3), (120, 17, 9), (400, 111, 4)):
        ours = float(hit_probability(N, good, k))
        ref = float(1 - hypergeom.pmf(0, N, good, k))
        assert ours == pytest.approx(ref, abs=1e-12)


def test_hit_probability_monotone():
    N = 60
    for good in (0, 1, 13, 59, 60):
        probs = [hit_probability(N, good, k) for k in range(N + 1)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
    for k in (0, 1, 17, 60):
        probs = [hit_probability(N, good, k) for good in range(N + 1)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_exact_threshold_examples():
    assert exact_threshold(4, 2) == 1
    assert exact_threshold(37, 0) == 37
    assert exact_threshold(37, 37) == 0


def test_exact_threshold_definition():
    # max{k: Pr(Q_k) <= 1/2} by direct scan
    for N in (5, 12, 41):
        for good in range(0, N + 1):
            mstar = exact_threshold(N, good)
            candidates = [
                k for k in range(N + 1) if hit_probability(N, good, k) <= Fraction(1, 2)
            ]
            assert mstar == max(candidates)


def test_exact_threshold_matches_comb_scan():
    # Pr(Q_k) grows with k, so the scan stops at the first k past 1/2.
    for N in range(1, 401):
        for good in range(N + 1):
            k = 0
            while k < N and 2 * math.comb(N - good, k + 1) >= math.comb(N, k + 1):
                k += 1
            assert exact_threshold(N, good) == k, (N, good)


def test_exact_threshold_refuses_non_integers():
    for N, good in ((10, 2.5), (10.0, 2), (Fraction(10), 2)):
        with pytest.raises(TypeError):
            exact_threshold(N, good)
    with pytest.raises(ValueError):
        exact_threshold(10, 11)


def test_exact_threshold_nonincreasing_in_good():
    for N in (10, 50, 200):
        values = [exact_threshold(N, good) for good in range(N + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_mu_bounds_example_small():
    mb = mu_bounds(4, Fraction(1, 2))
    assert (mb.lower, mb.upper) == (0, 2)


def test_mu_bounds_example_n100():
    mb = mu_bounds(100, Fraction(1, 10))
    mstar = exact_threshold(100, 10)
    assert mb.lower_clamped <= mstar <= mb.upper


def test_mu_bounds_degenerate_p_one():
    mb = mu_bounds(6, Fraction(1), check_sandwich=False)
    assert mb.lower < 0
    assert mb.lower_clamped == 0
    assert 0 <= mb.upper
    assert exact_threshold(6, 6) == 0


def test_mu_bounds_validation():
    with pytest.raises(ValueError):
        mu_bounds(10, Fraction(1, 3))  # p*N not integral
    with pytest.raises(ValueError):
        mu_bounds(1, Fraction(1))


def test_mu_bounds_refuses_bad_p():
    for p in (Fraction(1, 3), Fraction(0), Fraction(-1, 10)):
        with pytest.raises(ValueError, match="p\\*N must be a positive integer"):
            mu_bounds(10, p, check_sandwich=False)
    with pytest.raises(ValueError, match="p must be at most 1"):
        mu_bounds(10, Fraction(11, 10), check_sandwich=False)


def test_mu_bounds_exact_refuses_bad_urns():
    for N, good in ((10, 0), (10, 11), (1, 1)):
        with pytest.raises(ValueError):
            mu_bounds_exact(N, good)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 400).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N))))
def test_mu_bounds_equals_exact_route(urn):
    N, good = urn
    bounds = mu_bounds(N, Fraction(good, N), check_sandwich=False)
    assert bounds == mu_bounds_exact(N, good)


def test_mu_bounds_kernel_matches_exact_route():
    # The big-integer route behind mu_bounds must agree with the log-Gamma
    # kernel and its snapping guard on the full small grid.
    for N in range(2, 65):
        for good in range(1, N + 1):
            p = Fraction(good, N)
            exact = mu_bounds(N, p, check_sandwich=False)
            lower, upper, _ = kernel_bounds(N, good)
            assert (exact.lower, exact.upper) == (lower, upper), (N, good)


@st.composite
def urns(draw):
    N = draw(st.integers(4, 1000))
    return N, draw(st.integers(1, N))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(urns())
def test_mu_bounds_match_kernel_property(urn):
    N, good = urn
    mb = mu_bounds(N, Fraction(good, N), check_sandwich=False)
    lower, upper, _ = kernel_bounds(N, good)
    assert (mb.lower, mb.upper) == (lower, upper)
    assert mb.lower_clamped == max(0, lower)


def test_mu_bounds_sandwich_violation_raises(monkeypatch):
    # A bound that misses m* must raise, also under python -O.
    real = mu_bounds_exact

    def shifted(N, good):
        mb = real(N, good)
        return mb._replace(upper=exact_threshold(N, good) - 1)

    monkeypatch.setattr("owflab.threshold.mu_bounds_exact", shifted)
    with pytest.raises(InvariantViolation):
        mu_bounds(100, Fraction(1, 10))
    assert mu_bounds(100, Fraction(1, 10), check_sandwich=False).upper == (
        exact_threshold(100, 10) - 1
    )


def test_sandwich_on_sampled_grid():
    rng = random.Random(3)
    for _ in range(300):
        N = rng.randrange(4, 401)
        good = rng.randrange(1, N)
        mstar = exact_threshold(N, good)
        mb = mu_bounds(N, Fraction(good, N), check_sandwich=False)
        assert max(0, mb.lower) <= mstar <= mb.upper


def test_derive_constants():
    assert derive_constants(6) == (Fraction(18), Fraction(4, 3))
    assert derive_constants(4) == (Fraction(16), Fraction(1, 2))
    assert derive_constants(3) == (Fraction(18), Fraction(1, 6))
    with pytest.raises(ValueError):
        derive_constants(2)


def draw_count(params):
    """(m, degenerate, mu_lower) of the sampler's draw count."""
    mu_lower = mu_bounds_exact(params.N, params.n**params.beta).lower
    return params.m, params.m_degenerate, mu_lower


def test_draw_count_flags_degenerate_cases():
    params = sampler_params(2, 2, alpha=8)  # N = 16, p_upper = 1/4
    assert mu_bounds_exact(16, 4).lower == 0
    dc = draw_count(params)
    assert dc == (1, True, 0)
    assert params.m == 1 and params.m_degenerate


def test_draw_count_nondegenerate():
    params = sampler_params(4, 2, alpha=8)  # N = 256, p_upper = 1/16
    assert mu_bounds_exact(256, 16).lower == 3
    dc = draw_count(params)
    # floor(3 * 256**(-1/8)) = floor(1.5) = 1, above the clamp
    assert dc == (1, False, 3)
    # dual path: the log-Gamma kernel agrees with the exact bracketing
    assert mu_bounds(256, Fraction(1, 16), check_sandwich=False).lower == 3
    assert kernel_bounds(256, 16)[0] == 3


def test_sampler_params_fields():
    params = sampler_params(3, 2, alpha=8)
    assert params.N == 3**4
    auto = sampler_params(2, 3)
    assert auto.alpha == Fraction(18)
    small = sampler_params(2, 2)
    assert small.alpha == DEFAULT_ALPHA_SMALL_BETA
    with pytest.raises(ValueError):
        sampler_params(2, 2, alpha=1)


def test_sampler_params_bounds_the_size_of_alpha():
    # The exact step raises integers to alpha's numerator and denominator;
    # past the limit of 10**5 the cost would grow without bound.
    assert sampler_params(4, 2, alpha=100_000).m >= 1
    assert sampler_params(4, 2, alpha=Fraction(100_000, 7)).m >= 1
    for alpha in (Fraction(100_001), Fraction(100_001, 2), Fraction(200_001, 100_001)):
        with pytest.raises(ValueError, match="above 100000"):
            sampler_params(4, 2, alpha=alpha)


def test_bollobas_at_threshold():
    v = bollobas_check(4, 2, 1, 1)
    assert v.regime == "below" and v.holds and v.pr == Fraction(1, 2)
    v = bollobas_check(4, 2, 1, 2)
    assert v.regime == "above" and v.holds and v.pr == Fraction(5, 6)


def test_bollobas_between_regimes():
    # mstar(100, 3) sits well inside, so mstar is "below" at theta=1 but a
    # mid value with theta=2 lands in the gap
    mstar = exact_threshold(100, 3)
    mid = (mstar + mstar * 2 + 2) // 2
    v = bollobas_check(100, 3, 2, mid)
    assert v.regime == "between" and v.holds is None


def test_bollobas_irrational_bound_is_exact():
    # theta = 2: below-bound 1 - 2**(-1/2) is irrational; the comparison is
    # cleared to integers, so boundary cases cannot misround.
    v = bollobas_check(100, 10, 2, exact_threshold(100, 10) // 2)
    assert v.holds is True
    with pytest.raises(ValueError):
        bollobas_check(10, 2, Fraction(1, 2), 1)


# The Fraction route that bollobas_check and hit_probability replaced: the
# hit probability as 1 - miss/total, a frozen dataclass per verdict, and
# theta compared as a Fraction.  Kept as the reference for the integer route.
def hit_probability_reference(N, good, k):
    return 1 - Fraction(math.perm(N - good, k), math.perm(N, k))


@dataclass(frozen=True)
class VerdictReference:
    N: int
    good: int
    theta: Fraction
    m: int
    mstar: int
    regime: str
    holds: bool | None
    pr: Fraction


def bollobas_check_reference(N, good, theta, m, *, mstar=None):
    theta = Fraction(theta)
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if mstar is None:
        mstar = exact_threshold(N, good)
    pr = hit_probability_reference(N, good, m)
    miss, total = pr.denominator - pr.numerator, pr.denominator
    a, b = theta.numerator, theta.denominator
    if m * a <= mstar * b:
        holds = miss**a * 2**b >= total**a
        regime = "below"
    elif m * b >= (mstar + 1) * a:
        holds = miss**b * 2**a <= total**b
        regime = "above"
    else:
        holds = None
        regime = "between"
    return VerdictReference(N, good, theta, m, mstar, regime, holds, pr)


def assert_same_verdict(verdict, reference):
    assert verdict._fields == tuple(f.name for f in fields(reference))
    for name in verdict._fields:
        ours, ref = getattr(verdict, name), getattr(reference, name)
        assert ours == ref and type(ours) is type(ref), (name, verdict, reference)


def test_hit_probability_matches_the_fraction_route():
    for N in (1, 2, 7, 40, 120):
        for good in range(N + 1):
            for k in range(N + 1):
                ours = hit_probability(N, good, k)
                assert ours == hit_probability_reference(N, good, k), (N, good, k)
                assert type(ours) is Fraction


def test_bollobas_grid_matches_the_fraction_route():
    # Every verdict of the regime grid, rebuilt here from its definition.
    verdicts = list(bollobas_grid(60))
    cases = []
    for N in range(10, 61):
        for good in range(1, N):
            mstar = exact_threshold(N, good)
            for theta in (1, 2, 4):
                cases.append((N, good, theta, mstar // theta, mstar))
                if theta * (mstar + 1) <= N:
                    cases.append((N, good, theta, theta * (mstar + 1), mstar))
    assert len(verdicts) == len(cases)
    for verdict, (N, good, theta, m, mstar) in zip(verdicts, cases):
        assert_same_verdict(
            verdict, bollobas_check_reference(N, good, theta, m, mstar=mstar)
        )


def test_bollobas_between_regimes_match_the_fraction_route():
    # Every draw count at fractional and integer theta, so the gap between
    # the regimes is crossed; theta comes as int and as Fraction, and m*
    # is found inside the check as well as passed in.
    seen = set()
    for N, good in ((10, 1), (37, 5), (100, 3), (100, 10)):
        mstar = exact_threshold(N, good)
        for theta in (1, 2, Fraction(3, 2), Fraction(7, 3), Fraction(2), 4):
            for m in range(N + 1):
                for given_mstar in (None, mstar):
                    verdict = bollobas_check(N, good, theta, m, mstar=given_mstar)
                    ref = bollobas_check_reference(N, good, theta, m, mstar=given_mstar)
                    assert_same_verdict(verdict, ref)
                    seen.add(verdict.regime)
    assert seen == {"below", "between", "above"}


def test_bollobas_verdict_is_a_tuple():
    v = bollobas_check(4, 2, 1, 1)
    assert v == (4, 2, Fraction(1), 1, 1, "below", True, Fraction(1, 2))
    N, good, theta, m, mstar, regime, holds, pr = v
    assert (regime, holds, pr) == ("below", True, Fraction(1, 2))


def test_bollobas_check_bounds_the_size_of_theta():
    # The check raises integers to theta's numerator and denominator, so it
    # refuses terms above the limit of 10**5 that sampler_params sets for
    # alpha.  Fraction(1.1) is 2476979795053773/2251799813685248.
    limit = Fraction(100_000, 99_999)
    assert_same_verdict(
        bollobas_check(10, 2, limit, 1), bollobas_check_reference(10, 2, limit, 1)
    )
    assert bollobas_check(10, 2, 100_000, 10).regime == "between"
    for theta in (Fraction(1.1), Fraction(100_001), Fraction(100_001, 100_000)):
        with pytest.raises(ValueError, match="above 100000"):
            bollobas_check(10, 2, theta, 1)
    with pytest.raises(ValueError, match="theta must be >= 1"):
        bollobas_check(10, 2, Fraction(1, 10**6), 1)


def test_mu_bounds_checks_the_sandwich_inside():
    mstar = exact_threshold(4, 2)
    mb = mu_bounds(4, Fraction(2, 4))  # the sandwich is checked inside
    assert (mstar, mb.lower, mb.upper) == (1, 0, 2)
    assert max(0, mb.lower) <= mstar <= mb.upper
    # degenerate urns carry the max-set limits
    assert exact_threshold(9, 0) == 9
    assert exact_threshold(9, 9) == 0


def test_sandwich_grid_rows():
    rows = list(sandwich_grid(6))
    byn = {(N, g): (ms, lo, up) for N, g, ms, lo, up, _, _, _ in rows}
    assert byn[(4, 2)] == (1, 0, 2)
    assert all(max(0, lo) <= ms <= up for (ms, lo, up) in byn.values())


def test_sandwich_grid_against_the_exact_fractions():
    # The grid carries perm(N, good) along each row and reads its
    # probabilities off the walk's integers.  The per-pair bounds, the walk
    # and the exact Fraction route of hit_probability, rounded once, are the
    # reference.
    rows = list(sandwich_grid(150))
    pairs = [(N, good) for N in range(4, 151) for good in range(1, N)]
    assert len(rows) == len(pairs)
    for row, (N, good) in zip(rows, pairs):
        mstar = _threshold_walk(N, good)[0]
        mb = mu_bounds_exact(N, good)
        assert row == (
            N, good, mstar, mb.lower, mb.upper,
            float(hit_probability(N, good, mstar)),
            float(hit_probability(N, good, mstar + 1)),
            mb.lower_clamped <= mstar <= mb.upper,
        ), (N, good)


def test_quotient_ratio_decreases_along_sweep():
    values = [quotient_ratio(n, 1.0, 6).value for n in (4, 8, 16, 32, 64)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_quotient_ratio_term_c_scale():
    qr = quotient_ratio(4, 1.0, 6)
    # The falling-factorial root sits at the urn scale N = n**(2*beta); its
    # ratio to N is the quantity that tends to 1.
    assert 0.9 < qr.term_c_over_n2beta < 1.0001
    assert qr.term_c == pytest.approx(qr.term_c_over_n2beta * 4**12)
    assert qr.term_a == pytest.approx(0.0, abs=1e-30)
    assert qr.term_b == 4096 * 4095


def test_quotient_ratio_domain():
    with pytest.raises(ValueError):
        quotient_ratio(4, 1.0, 2)
    with pytest.raises(ValueError):
        quotient_ratio(1, 1.0, 6)
    with pytest.raises(ValueError):
        quotient_ratio(2, 25.0, 3)  # Gamma argument 2 - 25/8 + 1 <= 0


def test_monte_carlo_concordance():
    rng = np.random.default_rng(20260809)
    trials = 100_000
    for _ in range(20):
        N = int(rng.integers(5, 201))
        good = int(rng.integers(1, N))
        k = int(rng.integers(1, N + 1))
        exact = float(hit_probability(N, good, k))
        draws = rng.hypergeometric(good, N - good, k, size=trials)
        freq = float(np.count_nonzero(draws) / trials)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(freq - exact) <= 4 * sigma + 1e-12


def test_b1_feasible_is_m_at_most_n():
    assert sampler_params(8, 2, alpha=8).b1_feasible  # N = 4096, m = 4
    infeasible = sampler_params(4, 3)  # derived alpha: N = 4096, m = 7 > 4
    assert (infeasible.m, infeasible.b1_feasible) == (7, False)
