#!/usr/bin/env python3
"""Selection from a finite bit tape: bias, permutations, subsets.

k tape bits turn into one integer in [0, R) by the subinterval rule; the
exact output distribution is computable in closed form and never deviates
from uniform by more than 2**(-k+1) per index.  Fisher-Yates composes such
draws into permutations, and subsets fall out of permuted indicator words.
"""

from fractions import Fraction

from owflab.bitsampler import (
    BitTape,
    bias_profile,
    fisher_yates,
    paper_k,
    permutation_distribution,
    select_subset,
    subset_distribution,
)

print("Exact single-draw bias for range 3:")
print("   k   counts                 max deviation   bound 2^(1-k)")
for k in (3, 5, 8, 12):
    bp = bias_profile(k, 3)
    print(
        f"  {k:>2}   {str(bp.counts):<22} {float(bp.max_deviation):13.6f}"
        f"   {float(bp.bound):13.6f}"
    )

print("\nA permutation from an explicit tape (N=3, k=4):")
tape = BitTape("011010110001")
print(f"  tape 0110|1011|0001 -> {fisher_yates(tape, 3, 4)}")

print("\nEvery draw-sequence probability at N=3, k=11 (full k budget):")
dist = permutation_distribution(3, paper_k(3))
floor = dist.lower_bound
for seq, p in sorted(dist.probabilities.items()):
    print(f"  {seq}: {float(p):.6f}")
print(f"  uniform would be {float(dist.uniform):.6f}; "
      f"guaranteed floor {float(floor):.6f}")

print("\nSubset selection is uniform up to the same bias (N=4, m=2, k=6):")
for subset, p in sorted(subset_distribution(4, 2, 6).items(), key=lambda kv: sorted(kv[0])):
    print(f"  {set(subset)}: {float(p):.6f}  (uniform {float(Fraction(1, 6)):.6f})")

print("\nSelections consume tape strictly left to right:")
tape = BitTape.from_seed(7, 2 * 4 * paper_k(4))
first = select_subset(tape, 2, range(1, 5))
first_end = tape.cursor
second = select_subset(tape, 2, range(1, 5))
print(f"  first pick {first} used bits [0, {first_end})")
print(f"  second pick {second} used the next {tape.cursor - first_end} bits")
print(f"  cursor now at {tape.cursor} of {tape.total}")
