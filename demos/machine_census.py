#!/usr/bin/env python3
"""Decode padded machine words and take the toy diagonal census.

Only the top ceil(log2 len) bits of a word matter, so machine behaviour
comes in large equivalence classes.  At small lengths no real code fits in
the header and every word decodes to the instant-reject machine, which puts
the whole level inside the diagonal language; the first words that escape it
appear once a header can carry the 4-bit "no working states" accept code.
"""

from owflab.turing import (
    census_csv_rows,
    decode_program,
    diagonal_member,
    embed_code,
    encode_spec,
    equivalent_encoding_count,
    parse_code,
    simulate,
)

print("Header classes by length (words per class, classes per length):")
for length in (1, 2, 4, 8, 16, 17):
    per_class = equivalent_encoding_count(length)
    print(f"  len={length:>3}: {per_class:>6} words share a header")

print("\nDiagonal census by exhaustive simulation:")
print("  length  |L_D|  header classes")
for length, count, classes in census_csv_rows(10):
    print(f"  {length:>6}  {count:>5}  {classes:>6}")

print("\nThe first escapees: at length 17 the header '00000' + nothing else")
w = embed_code("0000", 17)
print(f"  word {w!r}")
print(f"  decodes to accept-immediately: {simulate(decode_program(w), w, 10)}")
print(f"  diagonal member? {diagonal_member(w)}")

print("\nA right-scanning machine needs a 25-bit code, hence giant words:")
scanner = parse_code("0001" + "0010001" + "0010011" + "0010101")
print(f"  on input '111' with budget 5: {simulate(scanner, '111', 5)}")
code = encode_spec(scanner)
w = embed_code(code, 2**25 + 1)
print(f"  embedded in a word of length {len(w)}: decodes back? "
      f"{decode_program(w) == scanner}")
