import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from owflab.languages import EMPTY, SQ
from owflab.reduction import (
    density_transfer_check,
    next_square_delta,
    reduce_phi,
)
from owflab.turing import diagonal_member
from owflab.words import min_word, word_value

CODE = "1011001110"  # a 10-bit stand-in machine code block


def test_next_square_delta_examples():
    assert next_square_delta(16) == 0
    assert next_square_delta(10) == 6  # next square is 16
    assert next_square_delta(2) == 2  # next square is 4


def test_next_square_delta_by_scan():
    squares = {z * z for z in range(1, 200)}
    for x in range(1, 20000):
        expected = min(s for s in squares if s >= x) - x
        assert next_square_delta(x) == expected


def test_delta_bounds_full_range():
    for x in range(1, 10**6 + 1):
        delta = next_square_delta(x)
        assert delta <= 2 * math.isqrt(x - 1) + 3  # 2*ceil(sqrt(x)) + 1


def test_reduce_phi_minimal_example():
    image = reduce_phi("1", CODE, 3)
    k = len(CODE) + len("1")
    assert k == 11
    assert image.bit_length() == 3 * k == 33
    assert SQ.member(min_word(image))
    assert min_word(image)[: len(CODE)] == CODE
    assert min_word(image)[len(CODE) : k] == "1"
    # The square distance fits in the zero trailer, so it never carries.
    nu = image.bit_length() - k
    delta = image - (word_value(CODE + "1") << nu)
    assert 0 <= delta and delta.bit_length() <= nu


def test_reduce_phi_parameter_errors():
    with pytest.raises(ValueError):
        reduce_phi("1", CODE, 2)
    with pytest.raises(ValueError):
        reduce_phi("", CODE, 3)
    with pytest.raises(ValueError):
        reduce_phi("1", "", 3)
    with pytest.raises(ValueError):
        reduce_phi("1", "0110", 3)  # code must start with 1


def test_reduce_phi_blocks_recoverable():
    rng = random.Random(5)
    for _ in range(200):
        length = rng.randrange(1, 24)
        w = format(rng.getrandbits(length), f"0{length}b")
        image = min_word(reduce_phi(w, CODE, 3))
        assert image[len(CODE) : len(CODE) + len(w)] == w
        assert image[: len(CODE)] == CODE
        assert len(image) == 3 * (len(CODE) + len(w))


@given(st.integers(1, 8), st.text(alphabet="01", max_size=40))
def test_reduce_phi_keeps_leading_zeros_of_the_source(zeros, rest):
    # The image's minimal word spells code || w || trailer in full, so a
    # source's leading zeros survive in its block.
    w = "0" * zeros + rest
    image = min_word(reduce_phi(w, CODE, 3))
    assert len(image) == 3 * (len(CODE) + len(w))
    assert image.startswith(CODE + w)
    assert SQ.member(image)


def test_reduce_phi_images_are_squares():
    for y in range(1, 400):
        assert SQ.member(min_word(reduce_phi(min_word(y), CODE, 3)))


def test_reduce_phi_order_preserving_on_equal_lengths():
    rng = random.Random(99)
    for _ in range(10_000):
        length = rng.randrange(1, 32)
        v1, v2 = rng.randrange(2**length), rng.randrange(2**length)
        if v1 == v2:
            continue
        if v1 > v2:
            v1, v2 = v2, v1
        w1 = format(v1, f"0{length}b")
        w2 = format(v2, f"0{length}b")
        assert reduce_phi(w1, CODE, 3) < reduce_phi(w2, CODE, 3)


def test_reduce_phi_shorter_source_means_smaller_image():
    rng = random.Random(41)
    for _ in range(2000):
        l1 = rng.randrange(1, 20)
        l2 = rng.randrange(l1 + 1, l1 + 12)
        w1 = format(rng.getrandbits(l1), f"0{l1}b")
        w2 = format(rng.getrandbits(l2), f"0{l2}b")
        img1 = reduce_phi(w1, CODE, 3)
        img2 = reduce_phi(w2, CODE, 3)
        assert img1.bit_length() < img2.bit_length()
        assert img1 < img2


def test_reduce_phi_injective_on_random_pairs():
    rng = random.Random(2024)
    seen = {}
    for _ in range(100_000):
        length = rng.randrange(1, 28)
        w = format(rng.getrandbits(length), f"0{length}b")
        v = reduce_phi(w, CODE, 3)
        if w in seen:
            assert seen[w] == v
        else:
            seen[w] = v
    assert len(set(seen.values())) == len(seen)


def test_density_transfer_for_squares():
    rng = random.Random(31)
    thresholds = [min_word(rng.randrange(1, 2**16)) for _ in range(100)]
    counts = density_transfer_check(SQ.member, CODE, 3, 2**16, thresholds)
    assert len(counts) == len(thresholds)
    assert all(source <= image for source, image in counts)


def test_density_transfer_empty_language():
    counts = density_transfer_check(EMPTY.member, CODE, 3, 2**10, ["1", "101"])
    assert counts == [(0, 0), (0, 0)]


def test_density_transfer_strict_somewhere_for_short_full_language():
    # All words of length <= 8 in minimal form; padded thresholds make the
    # image count strictly exceed the source count.
    def member(w):
        return bool(w) and w[0] == "1" and len(w) <= 8

    thresholds = [min_word(y) for y in range(1, 64)]
    thresholds += ["0001", "00101", "011"]
    counts = density_transfer_check(member, CODE, 3, 255, thresholds)
    assert all(source <= image for source, image in counts)
    assert any(source < image for source, image in counts)


@pytest.mark.parametrize("member", [SQ.member, diagonal_member])
def test_density_transfer_counts_match_a_brute_force_count(member):
    # Each pair counted again from its definition, member by member, with
    # no sorting or bisection, at minimal and at zero-padded thresholds.
    limit = 2**9
    thresholds = [min_word(y) for y in range(1, limit + 1, 7)]
    thresholds += [format(y, "012b") for y in range(1, limit + 1, 11)]
    members = [min_word(y) for y in range(1, limit + 1) if member(min_word(y))]
    expected = []
    for w in thresholds:
        phi_w = reduce_phi(w, CODE, 3)
        expected.append((
            sum(word_value(v) <= word_value(w) for v in members),
            sum(reduce_phi(v, CODE, 3) <= phi_w for v in members),
        ))
    assert any(source < image for source, image in expected)
    assert density_transfer_check(member, CODE, 3, limit, thresholds) == expected


@pytest.mark.parametrize("threshold", ["0", "100000000", "1a"])
def test_density_transfer_refuses_bad_thresholds_before_the_member_scan(threshold):
    # A threshold of value 0, one above the limit and one that is not a bit
    # string are refused before any member is enumerated.
    def member(word):
        raise AssertionError("member called")

    with pytest.raises(ValueError):
        density_transfer_check(member, CODE, 3, 255, ["1", threshold])
