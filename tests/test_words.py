import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owflab.threshold import ALPHA_TERM_LIMIT
from owflab.words import (
    gn_of_integer,
    goedel_inverse,
    goedel_number,
    iroot,
    min_word,
    word_value,
)


def test_goedel_number_examples():
    assert goedel_number("") == 1
    assert goedel_number("0") == 2
    assert goedel_number("101") == 13


def test_goedel_inverse_examples():
    assert goedel_inverse(1) == ""
    assert goedel_inverse(6) == "10"
    assert goedel_inverse(13) == "101"


def test_goedel_inverse_rejects_zero():
    with pytest.raises(ValueError):
        goedel_inverse(0)


def test_word_value_examples():
    assert word_value("") == 0
    assert word_value("0101") == 5
    assert word_value("1000") == 8


def test_word_value_rejects_non_bits():
    with pytest.raises(ValueError):
        word_value("012")


def test_word_checks_refuse_non_strings_and_name_the_word():
    for f in (goedel_number, word_value):
        with pytest.raises(TypeError):
            f(101)
        with pytest.raises(TypeError):
            f(b"101")
        with pytest.raises(ValueError, match=r"^not a bit string: '0_1'$"):
            f("0_1")


def _accepts(f, w):
    try:
        f(w)
    except ValueError:
        return False
    return True


@pytest.mark.slow
def test_word_checks_accept_exactly_the_bit_strings():
    # goedel_number and word_value check a word on the parse of "1" + w,
    # which int() would also take with "_" between digits, with surrounding
    # whitespace or with non-ASCII digits.  Every string of length <= 3 over
    # ASCII, an Arabic-Indic and a fullwidth digit and a no-break space is
    # accepted exactly when it is over {0, 1}, with the right value.
    alphabet = [chr(c) for c in range(128)] + ["\u0661", "\uff11", "\u00a0"]
    is_bits = frozenset("01").issuperset
    for length in range(4):
        for chars in itertools.product(alphabet, repeat=length):
            w = "".join(chars)
            if is_bits(w):
                assert goedel_number(w) == (1 << length) + word_value(w), w
                assert word_value(w) == sum(int(c) << i for i, c in enumerate(w[::-1]))
            else:
                assert not _accepts(goedel_number, w), w
                assert not _accepts(word_value, w), w


def test_gn_of_integer_examples():
    # ceil(log 1) = 0 and c = 1 gives 2 + 1; cross-check (11)_2 = 3.
    assert gn_of_integer(1) == 3
    assert gn_of_integer(4) == 12  # 2**3 + 4 = (1100)_2
    assert gn_of_integer(9) == 25  # 2**4 + 9 = (11001)_2
    with pytest.raises(ValueError):
        gn_of_integer(0)


def test_gn_of_integer_matches_padding_formula():
    # gn(y) = 2**(ceil(log2 y) + c(y)) + y with c(y) = 1 iff y is a power of
    # two.  The implementation uses bit_length; this checks the closed form.
    for y in range(1, 5000):
        ceil_log = (y - 1).bit_length()
        c = 1 if y & (y - 1) == 0 else 0
        assert gn_of_integer(y) == 2 ** (ceil_log + c) + y
        assert gn_of_integer(y) == goedel_number(min_word(y))


def test_round_trip_exhaustive():
    # Indices 1..2**21 - 1 enumerate exactly the words of length <= 20, so
    # one sweep checks the round trip in both directions exhaustively.
    for n in range(1, 2**21):
        w = goedel_inverse(n)
        assert goedel_number(w) == n
    for length in range(0, 8):
        for v in range(2**length):
            w = format(v, f"0{length}b") if length else ""
            assert goedel_inverse(goedel_number(w)) == w


def test_gn_ratio_bounds_sampled():
    rng = random.Random(0xC0FFEE)
    ys = list(range(1, 4096)) + [rng.randrange(1, 10**6) for _ in range(2000)]
    for y in ys:
        g = gn_of_integer(y)
        assert y <= g <= 5 * y


def test_bits_are_msb_first():
    # The valuation treats the left end as most significant.
    assert word_value("10") == 2
    assert word_value("01") == 1


def assert_is_root(result, value, r):
    t, rest = result
    assert t**r <= value < (t + 1) ** r
    assert rest == value - t**r


@st.composite
def root_cases(draw):
    """(value, r): any value below 2**4000, or an exact r-th power, one
    less or one more than it."""
    r = draw(st.integers(1, 64))
    if draw(st.booleans()):
        return draw(st.integers(0, 2**4000)), r
    x = draw(st.integers(0, (1 << (4000 // r)) - 1))
    return max(0, x**r + draw(st.sampled_from((-1, 0, 1)))), r


@settings(max_examples=400, deadline=None, derandomize=True)
@given(root_cases())
def test_iroot_is_the_floor_root(case):
    value, r = case
    assert_is_root(iroot(value, r), value, r)


def test_iroot_small_values_and_large_degrees():
    for value in range(0, 3000):
        for r in (1, 2, 3, 4, 5, 7, 64):
            assert_is_root(iroot(value, r), value, r)
    for value in range(0, 300):
        assert_is_root(iroot(value, ALPHA_TERM_LIMIT), value, ALPHA_TERM_LIMIT)
    # Roots on both sides of 2**53, where the float estimate stops.
    for t in (2**53 - 1, 2**53, 2**53 + 1, 3**40):
        for r in (3, 5, 20):
            for value in (t**r - 1, t**r, t**r + 1):
                assert_is_root(iroot(value, r), value, r)
    assert iroot(3**699, 3) == (3**233, 0)


def test_iroot_rejects_bad_arguments():
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(8, 0)
