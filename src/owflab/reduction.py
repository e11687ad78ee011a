"""The injective, order-preserving block reduction into the squares.

``reduce_phi`` maps a word w to  code || w || 0**nu  interpreted in binary,
with nu chosen so the total length is an exact multiple lambda of
k = len(code) + len(w), then adds the distance Delta to the next perfect
square.  Blocks are located by fixed offsets rather than in-band separators,
so they are recoverable exactly; because the trailer is all zeroes and Delta
fits inside it, the addition never carries into the source or code blocks.
The map is injective and strictly increasing: a shorter source gives a
shorter (hence smaller) image, and equal-length sources keep their numeric
order.  ``density_transfer_check`` counts that the image of a language is
at least as dense as the language at corresponding points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import BudgetError, InvariantViolation
from .words import Word, iroot, min_word, word_value


def next_square_delta(x: int) -> int:
    """Distance from x to the smallest perfect square >= x (0 iff x is square)."""
    if x < 1:
        raise ValueError("defined for x >= 1")
    root, rem = iroot(x, 2)
    return 0 if rem == 0 else (root + 1) ** 2 - x


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


@dataclass(frozen=True)
class TransferReport:
    points: tuple[TransferPoint, ...]

    @property
    def violations(self) -> tuple[TransferPoint, ...]:
        return tuple(p for p in self.points if not p.ok)


def density_transfer_check(
    member: Callable[[Word], bool],
    code: Word,
    lam: int,
    limit: int,
    thresholds: Iterable[Word],
) -> TransferReport:
    """Verify, by exhaustive counting, that the image language is at least as
    dense as the source language at corresponding points.

    For every threshold word w, the number of member values v <= (w)_2 must
    not exceed the number of image values phi(v') <= phi(w) over members v'.
    ``member`` decides the language.  Members are enumerated in minimal
    binary form up to ``limit``, after every threshold is checked to be a
    bit string of value in [1, limit].
    """
    if limit > TRANSFER_BUDGET:
        raise BudgetError(
            f"member enumeration to {limit} exceeds budget {TRANSFER_BUDGET}"
        )
    thresholds = list(thresholds)
    values = [word_value(w) for w in thresholds]
    if not all(1 <= wv <= limit for wv in values):
        raise ValueError("thresholds must have value in [1, limit]")
    member_values = [
        y for y in range(1, limit + 1) if member(min_word(y))
    ]
    # member_values is increasing; the images are sorted rather than assumed
    # to keep that order, so the image count does not take phi's order on trust.
    member_images = sorted(
        reduce_phi(min_word(y), code, lam).value for y in member_values
    )
    points = []
    for w, wv in zip(thresholds, values):
        phi_w = reduce_phi(w, code, lam).value
        source_count = bisect_right(member_values, wv)
        image_count = bisect_right(member_images, phi_w)
        points.append(TransferPoint(w, source_count, image_count))
    return TransferReport(tuple(points))
