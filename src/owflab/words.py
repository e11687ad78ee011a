"""Bit-string primitives and the Goedel bijection between words and positive
integers.

A word is a plain Python string over the alphabet {'0', '1'}; the empty word
is valid.  Bits are stored most significant first, so ``word_value`` is the
ordinary binary valuation.  The Goedel number of a word is obtained by
prepending a 1 and reading the result in binary, which makes the numbering a
bijection from words onto the positive integers (the prepended 1 keeps
leading zeroes of the word from collapsing).

All functions are pure and use arbitrary-precision integers throughout.
"""

from __future__ import annotations

Word = str
GoedelIndex = int

_BITS = frozenset("01")


def _check_word(w: str) -> None:
    if not _BITS.issuperset(w):
        raise ValueError(f"not a bit string: {w!r}")


def word_value(w: Word) -> int:
    """Binary value of a word, most significant bit first.

    >>> word_value("")
    0
    >>> word_value("0101")
    5
    >>> word_value("1000")
    8
    """
    _check_word(w)
    return int(w, 2) if w else 0


def goedel_number(w: Word) -> GoedelIndex:
    """Goedel number of a word: prepend a 1 and read in binary.

    >>> goedel_number("")
    1
    >>> goedel_number("0")
    2
    >>> goedel_number("101")
    13
    """
    _check_word(w)
    return int("1" + w, 2)


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
