#!/usr/bin/env python3
"""Exact thresholds, their closed-form sandwich, and the regime inequalities.

m*(N, p) is the largest draw count that still misses the marked elements
with probability at least 1/2.  The closed-form bounds pin it from both sides,
and the threshold theorem's two inequalities quantify how fast the hit
probability moves once the draw count leaves m* by a factor theta.
"""

from fractions import Fraction

import mpmath

from owflab.threshold import (
    bollobas_check,
    derive_constants,
    exact_threshold,
    hit_probability,
    mu_bounds,
    sampler_params,
)


def growth_quotient(n, d, beta):
    """(value, value * n**gamma, C/N) of the sampled-versus-threshold growth
    quotient at alpha, gamma = derive_constants(beta),

        N**(1/alpha) * (1 + n - A)  /  (1 + B - C),   N = n**(2*beta),

        A = 2**(-e) * (Gamma(n+1) / Gamma(n - d*n**(3-2*beta) + 1))**e,
            e = n**(2*beta-3)/d,
        B = n**beta * (n**beta - 1),
        C = 2**(-1/n**beta) * (Gamma(N+1) / Gamma(N - n**beta + 1))**(1/n**beta).

    C/N tends to 1 for large n.  The evaluation runs at 192 bits because
    1 + B - C cancels: at n = 64 it is about 1.3e10 while C is about 4.7e21,
    and one unit in the last place of a float lgamma(N+1) is already 3.4e7.
    """
    alpha, gamma = derive_constants(beta)
    with mpmath.workprec(192):
        dd = mpmath.mpf(d)
        nb = mpmath.mpf(n) ** beta
        N = mpmath.mpf(n) ** (2 * beta)
        arg_a = n - dd * mpmath.mpf(n) ** (3 - 2 * beta) + 1
        e_a = mpmath.mpf(n) ** (2 * beta - 3) / dd
        ln_quot_a = mpmath.loggamma(n + 1) - mpmath.loggamma(arg_a)
        term_a = mpmath.exp(e_a * (ln_quot_a - mpmath.log(2)))
        numerator = N ** (mpmath.mpf(1) / float(alpha)) * (1 + n - term_a)
        ln_quot_c = mpmath.loggamma(N + 1) - mpmath.loggamma(N - nb + 1)
        term_c = mpmath.exp((ln_quot_c - mpmath.log(2)) / nb)
        value = numerator / (1 + nb * (nb - 1) - term_c)
        scaled = value * mpmath.mpf(n) ** float(gamma)
        return float(value), float(scaled), float(term_c / N)


print("Sandwich max(0, mu_lower) <= m* <= mu_upper:")
print("    N  good    m*   mu_lo   mu_up   Pr(Q_m*)")
for N, good in ((4, 2), (50, 5), (100, 10), (400, 20), (400, 399)):
    mstar = exact_threshold(N, good)
    mb = mu_bounds(N, Fraction(good, N))
    pr = float(hit_probability(N, good, mstar))
    print(
        f"  {N:>4} {good:>5} {mstar:>5} {mb.lower_clamped:>7} {mb.upper:>7}"
        f"   {pr:.4f}"
    )

print("\nRegime inequalities at N=100, good=10 (m* = "
      f"{exact_threshold(100, 10)}):")
for theta in (1, 2, 4):
    mstar = exact_threshold(100, 10)
    below = bollobas_check(100, 10, theta, mstar // theta)
    above_m = theta * (mstar + 1)
    above = bollobas_check(100, 10, theta, min(above_m, 100))
    print(
        f"  theta={theta}: m={below.m:>2} Pr={float(below.pr):.4f} "
        f"({below.regime}, holds={below.holds}); "
        f"m={above.m:>2} Pr={float(above.pr):.4f} "
        f"({above.regime}, holds={above.holds})"
    )

print("\nDerived constants and the draw count m(N):")
for beta in (3, 4, 6):
    alpha, gamma = derive_constants(beta)
    print(f"  beta={beta}: alpha={alpha}, gamma={gamma}")
for n, beta in ((2, 2), (4, 2), (2, 3)):
    p = sampler_params(n, beta, alpha=None if beta > 2 else 8)
    flag = " (clamped)" if p.m_degenerate else ""
    print(f"  n={n}, beta={beta}: N={p.N:>4}  m={p.m}{flag}")

print("\nGrowth quotient along n (beta=6, d=1): small-urn threshold over")
print("large-urn draw count; the trend falls like a power of n:")
print("      n        value   value*n^gamma   C/N")
for n in (4, 8, 16, 32, 64):
    value, scaled, c_over_n = growth_quotient(n, 1.0, 6)
    print(f"  {n:>5}  {value:11.3e}  {scaled:13.3e}   {c_over_n:.5f}")
