"""The injective, order-preserving block reduction into the squares.

``reduce_phi`` maps a word w to  code || w || 0**nu  read in binary, with nu
chosen so the total length is an exact multiple lambda of
k = len(code) + len(w), adds the distance Delta to the next perfect square,
and returns that square's value.  The code starts with 1, so the image word
is ``min_word`` of the value.  Blocks are located by fixed offsets rather
than in-band separators, so they are recoverable exactly; because the
trailer is all zeroes and Delta fits inside it, the addition never carries
into the source or code blocks.
The map is injective and strictly increasing: a shorter source gives a
shorter (hence smaller) image, and equal-length sources keep their numeric
order.  ``density_transfer_check`` counts a language and its image at
corresponding points, where the image must be at least as dense.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable

from .errors import BudgetError, InvariantViolation
from .words import Word, iroot, min_word, word_value


def next_square_delta(x: int) -> int:
    """Distance from x to the smallest perfect square >= x (0 iff x is square)."""
    if x < 1:
        raise ValueError("defined for x >= 1")
    root, rem = iroot(x, 2)
    return 0 if rem == 0 else (root + 1) ** 2 - x


def reduce_phi(w: Word, code: Word, lam: int) -> int:
    """The value of the square image  code || w || trailer, whose word has
    length lam * (len(code) + len(w))."""
    if lam < 3:
        raise ValueError("the block multiple lambda must be >= 3")
    if not code or code[0] != "1":
        raise ValueError("code must be a nonempty bit prefix starting with 1")
    if not w:
        raise ValueError("the source block must be nonempty")
    k = len(code) + len(w)
    total = lam * k
    nu = total - k
    prefix = word_value(code + w)
    base = prefix << nu
    delta = next_square_delta(base)
    if delta.bit_length() > nu:
        # Only possible for tiny k (k*(lam/2 - 1) < 3); the construction's
        # carry-free guarantee would be lost, so refuse.
        raise ValueError(
            f"square distance needs {delta.bit_length()} bits but the "
            f"trailer has only {nu}; use a longer code or larger lambda"
        )
    image = base + delta
    if image >> nu != prefix:
        raise InvariantViolation(f"the square distance carries into the code and w of {image}")
    return image


TRANSFER_BUDGET = 2**20  # largest limit density_transfer_check enumerates


def density_transfer_check(
    member: Callable[[Word], bool],
    code: Word,
    lam: int,
    limit: int,
    thresholds: Iterable[Word],
) -> list[tuple[int, int]]:
    """Count, exhaustively, how dense the language and its image are at
    corresponding points: one pair (source_count, image_count) per threshold.

    For a threshold word w, source_count is the number of member values
    v <= (w)_2 and image_count the number of image values phi(v') <= phi(w)
    over members v'; the transfer holds where source_count <= image_count.
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
    member_images = sorted(reduce_phi(min_word(y), code, lam) for y in member_values)
    return [
        (bisect_right(member_values, wv),
         bisect_right(member_images, reduce_phi(w, code, lam)))
        for w, wv in zip(thresholds, values)
    ]
