"""Bit-string primitives and the Goedel bijection between words and positive
integers.

A word is a plain Python string over the alphabet {'0', '1'}; the empty word
is valid.  Bits are stored most significant first, so ``word_value`` is the
ordinary binary valuation.  The Goedel number of a word is obtained by
prepending a 1 and reading the result in binary, which makes the numbering a
bijection from words onto the positive integers (the prepended 1 keeps
leading zeroes of the word from collapsing).

``iroot``, the exact integer r-th root, is the package's root routine: the
perfect-power oracles, the reduction's step to the next square, the
threshold sandwich and the draw count all reduce to it, and a float only
seeds its search.  One caller keeps ``math.isqrt``: the square decider of
verify-all's C10, which runs about 41 000 times per verification and would
pay about 0.1 microseconds more per call for ``iroot``'s tuple.

All functions are pure and use arbitrary-precision integers throughout.
"""

from __future__ import annotations

import math

Word = str
GoedelIndex = int


def word_value(w: Word) -> int:
    """Binary value of a word, most significant bit first.

    >>> word_value("")
    0
    >>> word_value("0101")
    5
    >>> word_value("1000")
    8
    """
    # goedel_number's check, written out: both are hot leaves, and a shared
    # helper would add a call to each.
    try:
        marked = int("1" + w, 2) if str.isascii(w) else 0
    except ValueError:
        marked = 0
    if marked.bit_length() != len(w) + 1:
        raise ValueError(f"not a bit string: {w!r}")
    return marked ^ (1 << len(w))


def goedel_number(w: Word) -> GoedelIndex:
    """Goedel number of a word: prepend a 1 and read in binary.

    >>> goedel_number("")
    1
    >>> goedel_number("0")
    2
    >>> goedel_number("101")
    13
    """
    # int() also reads "_" between digits, surrounding whitespace and
    # non-ASCII digits, but each of those leaves fewer digits than
    # characters: an ASCII w is a bit string exactly when "1" + w parses to
    # len(w) + 1 bits.  str.isascii raises TypeError for a non-string.
    try:
        n = int("1" + w, 2) if str.isascii(w) else 0
    except ValueError:
        n = 0
    if n.bit_length() != len(w) + 1:
        raise ValueError(f"not a bit string: {w!r}")
    return n


def goedel_inverse(n: GoedelIndex) -> Word:
    """Word with Goedel number ``n``: strip the leading 1 of n's binary form.

    >>> goedel_inverse(1)
    ''
    >>> goedel_inverse(6)
    '10'
    >>> goedel_inverse(13)
    '101'
    """
    if n < 1:
        raise ValueError("Goedel indices start at 1")
    return bin(n)[3:]


def min_word(y: int) -> Word:
    """Minimal binary representation of a positive integer (leading 1)."""
    if y < 1:
        raise ValueError("only positive integers have a minimal word")
    return bin(y)[2:]


def gn_of_integer(y: int) -> GoedelIndex:
    """Goedel number of the minimal binary representation of ``y``.

    Equals 2**(ceil(log2 y) + c(y)) + y, where the padding bit c(y) is 1
    exactly when y is a power of two (the case log2 y == ceil(log2 y)); the
    power-of-two test avoids floating-point logarithms.  The ratio
    gn_of_integer(y) / y always stays within [1, 5].

    >>> gn_of_integer(1)
    3
    >>> gn_of_integer(4)
    12
    >>> gn_of_integer(9)
    25
    """
    if y < 1:
        raise ValueError("0 is not a Goedel index domain value")
    # 2**len(min_word(y)) + y, written without string round-trips.
    return (1 << y.bit_length()) + y


def iroot(value: int, r: int) -> tuple[int, int]:
    """(t, value - t**r) for the largest integer t with t**r <= value, exact
    for value >= 0 and r >= 1; the remainder is 0 iff value is an r-th power.

    A root below 2**53 comes from a float estimate and a few unit steps.  A
    larger one takes Newton steps down from the root of value's top bits,
    scaled back up, which lies above it.  Either way the cost grows with the
    bit length of value, not with the size of the root, and t**r comes from
    the powers the search already took.

    >>> iroot(26, 3), iroot(27, 3), iroot(10**6, 7)
    ((2, 18), (3, 0), (7, 176457))
    >>> iroot(3**699, 3) == (3**233, 0)
    True
    """
    if value < 0:
        raise ValueError("negative value")
    if r == 1:
        return value, 0
    if r == 2:
        t = math.isqrt(value)
        return t, value - t * t
    if r < 1:
        raise ValueError("root degree must be >= 1")
    bits = value.bit_length()
    if bits <= 53 * r:  # the root is below 2**53
        # value ** (1 / r) overflows once value passes about 2**1024.
        est = value ** (1.0 / r) if bits <= 1000 else math.exp(math.log(value) / r)
        t = int(est)
        while (power := t**r) > value:
            t -= 1
        while (above := (t + 1) ** r) <= value:
            t, power = t + 1, above
        return t, value - power
    shift = (bits - 1) // r - 52
    t = (iroot(value >> (r * shift), r)[0] + 1) << shift
    while True:
        lower = t ** (r - 1)
        u = ((r - 1) * t + value // lower) // r
        if u >= t:
            return t, value - lower * t
        t = u
