"""Square approximation and the injective, order-preserving block reduction.

``square_cast`` lifts a word to the next perfect square above its value.  The
distance Delta to that square is at most 2*ceil(sqrt(v)) + 1, so it occupies
no more than about half as many bits as the input; for random long words the
addition therefore stays in the lower half of the bits and the high-order
header survives.  (Adversarial all-ones words can carry further; the report
fields record what actually happened instead of pretending otherwise.)

``reduce_phi`` maps a word w to  code || w || 0**nu  interpreted in binary,
with nu chosen so the total length is an exact multiple lambda of
k = len(code) + len(w), then adds Delta to land on a perfect square.  Blocks
are located by fixed offsets rather than in-band separators, so they are
recoverable exactly; because the trailer is all zeroes and Delta fits inside
it, the addition never carries into the source or code blocks.  The map is
injective and strictly increasing: a shorter source gives a shorter (hence
smaller) image, and equal-length sources keep their numeric order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetError, InvariantViolation
from .languages import LanguageOracle
from .turing import header_length
from .words import Word, min_word, word_value


def next_square_delta(x: int) -> int:
    """Distance from x to the smallest perfect square >= x (0 iff x is square)."""
    if x < 1:
        raise ValueError("defined for x >= 1")
    root = math.isqrt(x)
    if root * root == x:
        return 0
    return (root + 1) ** 2 - x


def delta_bitlength_ok(x: int, delta: int) -> bool:
    """Exact form of the bit-length ceiling 3 + ceil(log2 x)/2 + 1."""
    ceil_log = (x - 1).bit_length()
    # bitlen(delta) <= 4 + ceil_log/2, compared in doubled integers
    return 2 * delta.bit_length() <= 8 + ceil_log


@dataclass(frozen=True)
class SquareCast:
    input_word: Word
    delta: int
    output_word: Word
    hamming: int
    header_preserved: bool

    @property
    def output_value(self) -> int:
        return word_value(self.output_word)


def square_cast(w: Word) -> SquareCast:
    """Cast a word onto the next perfect square above its value.

    The output keeps the input's width when the square still fits in it and
    grows only by the carry overflow otherwise.  ``hamming`` is the distance
    between the zero-padded input and the output at the output's width;
    ``header_preserved`` records whether the top ceil(log2 len(w)) bits
    survived at that alignment.
    """
    v = word_value(w)
    if v < 1:
        raise ValueError("square casting needs a word of value >= 1")
    delta = next_square_delta(v)
    v_sq = v + delta
    out_len = max(len(w), v_sq.bit_length())
    output = format(v_sq, f"0{out_len}b")
    padded_in = w.zfill(out_len)
    hamming = sum(a != b for a, b in zip(padded_in, output))
    h = header_length(len(w))
    return SquareCast(
        input_word=w,
        delta=delta,
        output_word=output,
        hamming=hamming,
        header_preserved=padded_in[:h] == output[:h],
    )


@dataclass(frozen=True)
class PhiImage:
    """Image of the block reduction, with recorded block boundaries."""

    source: Word
    code: Word
    lam: int
    k: int
    nu: int
    delta: int
    image: Word

    @property
    def code_block(self) -> Word:
        return self.image[: len(self.code)]

    @property
    def source_block(self) -> Word:
        return self.image[len(self.code) : len(self.code) + len(self.source)]

    @property
    def value(self) -> int:
        return word_value(self.image)


def reduce_phi(w: Word, code: Word, lam: int) -> PhiImage:
    """Build the square-valued image  code || w || trailer  of total length
    lam * (len(code) + len(w))."""
    if lam < 3:
        raise ValueError("the block multiple lambda must be >= 3")
    if not code or code[0] != "1":
        raise ValueError("code must be a nonempty bit prefix starting with 1")
    if not w:
        raise ValueError("the source block must be nonempty")
    k = len(code) + len(w)
    total = lam * k
    nu = total - k
    base = (word_value(code + w)) << nu
    delta = next_square_delta(base)
    if delta.bit_length() > nu:
        # Only possible for tiny k (k*(lam/2 - 1) < 3); the construction's
        # carry-free guarantee would be lost, so refuse.
        raise ValueError(
            f"square distance needs {delta.bit_length()} bits but the "
            f"trailer has only {nu}; use a longer code or larger lambda"
        )
    image = format(base + delta, f"0{total}b")
    result = PhiImage(
        source=w, code=code, lam=lam, k=k, nu=nu, delta=delta, image=image
    )
    if result.code_block != code or result.source_block != w:
        raise InvariantViolation(f"blocks of {image!r} do not recover code and w")
    return result


TRANSFER_BUDGET = 2**20  # largest limit density_transfer_check enumerates


@dataclass(frozen=True)
class TransferPoint:
    threshold: Word
    source_count: int
    image_count: int

    @property
    def ok(self) -> bool:
        return self.source_count <= self.image_count

    @property
    def strict(self) -> bool:
        return self.source_count < self.image_count


@dataclass(frozen=True)
class TransferReport:
    points: tuple[TransferPoint, ...]

    @property
    def violations(self) -> tuple[TransferPoint, ...]:
        return tuple(p for p in self.points if not p.ok)

    @property
    def strict_points(self) -> int:
        return sum(p.strict for p in self.points)


def density_transfer_check(
    oracle: LanguageOracle,
    code: Word,
    lam: int,
    limit: int,
    thresholds: Iterable[Word],
) -> TransferReport:
    """Verify, by exhaustive counting, that the image language is at least as
    dense as the source language at corresponding points.

    For every threshold word w, the number of member values v <= (w)_2 must
    not exceed the number of image values phi(v') <= phi(w) over members v'.
    Members are enumerated in minimal binary form up to ``limit``.
    """
    if limit > TRANSFER_BUDGET:
        raise BudgetError(
            f"member enumeration to {limit} exceeds budget {TRANSFER_BUDGET}"
        )
    member_values = [
        y for y in range(1, limit + 1) if oracle.member(min_word(y))
    ]
    member_images = [reduce_phi(min_word(y), code, lam).value for y in member_values]
    points = []
    for w in thresholds:
        wv = word_value(w)
        if wv < 1 or wv > limit:
            raise ValueError("thresholds must have value in [1, limit]")
        phi_w = reduce_phi(w, code, lam).value
        source_count = sum(1 for y in member_values if y <= wv)
        image_count = sum(1 for img in member_images if img <= phi_w)
        points.append(TransferPoint(w, source_count, image_count))
    return TransferReport(tuple(points))
