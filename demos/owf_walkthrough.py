#!/usr/bin/env python3
"""End to end: encode bits as drawn instance sets, audit the error rates,
and invert a toy monotone function by binary search.

The evaluator splits its input word into payload bits and a tape.  Each
payload bit becomes a set of m Goedel indices: drawn from the full urn of
N = n**(2*beta) indices for a 0, or from an urn first thinned to n survivors
for a 1.  Both cases emit equally sized sets over the same index space, so
the output's shape says nothing about the bits.  The hit-or-miss rates
against the hidden language are checked against their exact hypergeometric
values; the two miss rates sum to exactly 1 in expectation, since a uniform
m-subset of a uniform n-subset is, on ideal tapes, a uniform m-subset of
the full urn.
"""

import math

from owflab.bitsampler import expand_seed_bits
from owflab.languages import power_oracle
from owflab.owf import (
    binary_search_invert,
    hit_test,
    owf_evaluate,
    sampling_error_experiment,
)

oracle = power_oracle(2)

print("Evaluating the encoder on a 600-bit input (beta=1, full-budget tapes):")
w = format(expand_seed_bits(99, 600), "0600b")
out = owf_evaluate(w, 1, "paper", alpha=8)
print(f"  payload bits: {w[:out.n]!r}, urn N={out.params.N}, m={out.params.m}")
for bit, instance in zip(w, out.sets):
    hit = hit_test(instance, oracle)
    print(f"  bit {bit} -> W={instance.members}  hits squares: {hit}")
print(f"  tape bits consumed: {out.bits_consumed}")

print("\nMeasured sampling error against exact hypergeometrics "
      "(n=2, beta=2, 5000 trials/branch):")
rep = sampling_error_experiment(2, 2, oracle, 5000, 20260809, alpha=8)
print(f"  urn N={rep.N} holds {rep.good_count} squares; draws m={rep.m}")
print(f"  miss rate, b=0: {rep.miss0:.4f}  (exact {rep.exact0:.4f}, z={rep.z0:+.2f})")
print(f"  miss rate, b=1: {rep.miss1:.4f}  (exact {rep.exact1:.4f}, z={rep.z1:+.2f})")
print(f"  pairwise-collision criterion value: {rep.criterion_value:.4f} "
      "(expectation exactly 1)")

print("\nInverting y = x**2 through its range decider by bisection:")
y = 987_654_321 ** 2
cap = math.ceil(math.log2(10**20)) + 1


def decider(y_value, upper):
    root = math.isqrt(y_value)
    return root * root == y_value and root <= upper


res = binary_search_invert(y, decider, 10**20)
print(f"  y = {y}")
print(f"  preimage {res.preimage} found in {res.queries} of {cap} allowed queries")
