"""Deterministic uniform selection driven by a finite tape of i.i.d. bits.

A BitTape is a single-consumer cursor over a fixed bit string: bits are
consumed strictly left to right and never re-read, so chained draws are
stochastically independent whenever the underlying bits are.  Tapes come
from literal bit strings or from the seeded expansion documented below.

Seed expansion (versioned; changing it is a breaking change)
------------------------------------------------------------
For a 64-bit unsigned ``seed`` and 64-bit ``stream`` identifier, block i of
the tape is SHA-256(seed_be8 || stream_be8 || i_be8) where ``_be8`` is the
8-byte big-endian encoding; blocks are concatenated and each byte is read
most significant bit first.  This is a fixed counter-mode construction that
is bit-exact across platforms.  It stands in for an ideal source of
independent uniform bits and carries no cryptographic claim.

Single draws follow the subinterval rule: k bits form r = (0.b1...bk)_2 and
the output over a range of size R is floor(r * R), computed purely in
integers as floor(r_num * R / 2**k).  Each output index then deviates from
1/R by at most 2**(-k+1), and that count can be written in closed form:

    count(i) = ceil(2**k * (i+1) / R) - ceil(2**k * i / R),

which is what the exact bias and permutation distributions below use instead
of enumerating all 2**k tapes.

Every read is ``take(k)``, which slices k bits out of one window of the tape
and returns them as an integer.  A literal tape's window is its whole
string.  Because block i depends only on (seed, stream, i), a seeded tape
holds (seed, stream, total) and a window of whole blocks; a read that runs
past the window's end refills it: it keeps the window's unread tail and
hashes just the blocks after it, so each block is hashed once per tape.
``skip(k)`` advances the cursor past k bits without reading them, with the
same bounds check as ``take``; either way every bit position is consumed at
most once.

A Fisher-Yates pass draws positions from ranges N, N-1, ..., 1, consuming
exactly k bits per draw (the final size-1 draw included, so a permutation
costs exactly N*k bits).  Partial selection asks for the first m entries
only: it makes those m draws, finds each entry as the idx-th survivor of
{1..N} with the earlier entries removed (an order statistic, found by a
binary search over the sorted removed list, Knuth TAOCP 3.4.2), and skips
the (N-m)*k bits the remaining draws would have read, so outputs and cursor
match the full pass.  Before its draws, a selection refills the window once
to cover all m*k bits they read, so a selection expands the seed at most
once and hashes the same blocks, in the same order, as draw-by-draw refills
would.  The construction's own budget is k = N**2 + 2 (profile
name "paper"); the "practical" profile k = ceil(log2 N) + 64 keeps large
experiments feasible at a correspondingly looser per-draw bias bound.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import pairwise
from typing import NamedTuple, Sequence

from .errors import BudgetError, InvariantViolation, TapeExhausted

BIAS_PROFILE_MAX_K = 24
PERMUTATION_MAX_N = 6
PERMUTATION_MAX_K = 64


def paper_k(urn_size: int) -> int:
    """Per-draw bit count N**2 + 2 from the construction's own analysis."""
    return urn_size * urn_size + 2


def practical_k(urn_size: int) -> int:
    """ceil(log2 N) + 64: enough for a negligible bias at desk scale."""
    return (urn_size - 1).bit_length() + 64


def profile_k(profile: str, urn_size: int) -> int:
    if profile == "paper":
        return paper_k(urn_size)
    if profile == "practical":
        return practical_k(urn_size)
    raise ValueError(f"unknown k profile {profile!r}")


def _check_seed(seed: int, stream: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if not 0 <= stream < 2**64:
        raise ValueError("stream must fit in 64 unsigned bits")


def expand_seed_bits(seed: int, nbits: int, stream: int = 0, start: int = 0) -> str:
    """Bits [start, start+nbits) of the documented counter-mode expansion:
    SHA-256 blocks over (seed, stream, counter), bytes read MSB first.
    Only the blocks that hold those bits are hashed."""
    _check_seed(seed, stream)
    if nbits < 0 or start < 0:
        raise ValueError("nbits and start must be >= 0")
    prefix = seed.to_bytes(8, "big") + stream.to_bytes(8, "big")
    first, offset = divmod(start, 256)
    raw = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range(first, (start + nbits + 255) // 256)
    )
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    return bits[offset : offset + nbits]


class BitTape:
    """Finite consumable sequence of bits with a strict left-to-right cursor.

    ``take`` reads bits [cursor, cursor+k) from ``_window``, which holds the
    tape's bits from position ``_base`` on.  A literal tape's window is its
    whole string.  A seeded tape keeps (seed, stream, total) and a window
    that ends on a block boundary; ``_refill`` extends it when a read runs
    past its end (``fisher_yates`` calls it once for a whole selection), so
    each block is hashed once per tape."""

    __slots__ = ("_seed", "_stream", "_total", "_cursor", "_window", "_base")

    def __init__(self, bits: str):
        # int(s, 2) would also accept "_", whitespace, a sign, "0b" and
        # non-ASCII digits; this admits only the characters 0 and 1.
        if not (bits.isascii() and not bits.encode().translate(None, b"01")):
            raise ValueError("a tape is a string over 0/1")
        self._seed = self._stream = 0
        self._total = len(bits)
        self._cursor = 0
        self._window = bits
        self._base = 0

    @classmethod
    def from_seed(cls, seed: int, nbits: int, stream: int = 0) -> "BitTape":
        _check_seed(seed, stream)
        if nbits < 0:
            raise ValueError("a tape cannot have a negative length")
        tape = cls("")
        tape._seed, tape._stream, tape._total = seed, stream, nbits
        return tape

    @property
    def total(self) -> int:
        return self._total

    @property
    def cursor(self) -> int:
        return self._cursor

    def remaining(self) -> int:
        return self._total - self._cursor

    def take(self, k: int) -> int:
        """Consume k bits and return them as an integer, MSB first."""
        start = self._cursor
        end = start + k
        if k < 0 or end > self._total:
            self.skip(k)  # raises the ValueError or TapeExhausted
        if end > self._base + len(self._window) and k:
            self._refill(end)
        self._cursor = end
        base = self._base
        return int(self._window[start - base : end - base] or "0", 2)

    def _refill(self, end: int) -> None:
        """Make the window cover bits [cursor, end), a read of at least one
        bit that fits the tape.

        Only a seeded tape can need more: a literal window holds the whole
        tape.  Keep the unread tail, hash the blocks from the first one not
        yet hashed (or the one holding the cursor, past a skip) through the
        one holding bit end - 1."""
        start, window, base = self._cursor, self._window, self._base
        if end <= base + len(window):
            return
        keep = window[start - base :]
        fresh = max(base + len(window), start - start % 256)
        self._window = keep + expand_seed_bits(
            self._seed, -(-end // 256) * 256 - fresh, self._stream, fresh
        )
        self._base = fresh - len(keep)

    def skip(self, k: int) -> None:
        """Consume k bits without reading them, or raise if k is negative or
        more than the tape has left."""
        if k < 0:
            raise ValueError("cannot take a negative number of bits")
        left = self._total - self._cursor
        if left < k:
            raise TapeExhausted(f"need {k} bits, tape has {left} left")
        self._cursor += k

    def __repr__(self) -> str:
        return f"BitTape(total={self.total}, cursor={self._cursor})"


def draw_integer(tape: BitTape, lo: int, hi: int, k: int) -> int:
    """Uniform-ish draw from [lo, hi] consuming exactly k bits:
    lo + floor(r_num * range / 2**k)."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if k < 1:
        raise ValueError("k must be >= 1")
    r_num = tape.take(k)
    return lo + ((r_num * (hi - lo + 1)) >> k)


def _interval_counts(range_size: int, k: int) -> tuple[int, ...]:
    """Number of k-bit patterns mapped to each index by the subinterval rule:
    the gaps between the R+1 ceiling edges ceil(2**k * i / R)."""
    two_k = 1 << k
    edges = [-(-two_k * i // range_size) for i in range(range_size + 1)]
    return tuple(upper - lower for lower, upper in pairwise(edges))


class BiasProfile(NamedTuple):
    k: int
    range_size: int
    counts: tuple[int, ...]
    probabilities: tuple[Fraction, ...]
    max_deviation: Fraction
    bound: Fraction  # 2**(-k+1)
    within_bound: bool


def bias_profile(k: int, range_size: int) -> BiasProfile:
    """Exact per-index output counts over all 2**k tapes, with the deviation
    bound |count/2**k - 1/range| <= 2**(-k+1) checked as the integer
    comparison max |count*range - 2**k| <= 2*range.  The counts take at most
    two values, so one Fraction per distinct count serves every index."""
    if k > BIAS_PROFILE_MAX_K:
        raise BudgetError(f"bias profile limited to k <= {BIAS_PROFILE_MAX_K}")
    if k < 1 or range_size < 1:
        raise ValueError("need k >= 1 and range_size >= 1")
    two_k = 1 << k
    counts = _interval_counts(range_size, k)
    probability = {c: Fraction(c, two_k) for c in set(counts)}
    dev = max(abs(c * range_size - two_k) for c in probability)
    return BiasProfile(
        k,
        range_size,
        counts,
        tuple(probability[c] for c in counts),
        Fraction(dev, range_size * two_k),
        Fraction(2, two_k),
        dev <= 2 * range_size,
    )


def fisher_yates(
    tape: BitTape, N: int, k: int | None = None, m: int | None = None
) -> tuple[int, ...]:
    """The first m entries (all N by default) of a permutation of {1..N} by
    selection sampling: the j-th entry is drawn from the N-j remaining
    elements with one k-bit draw.  Consumes exactly N*k bits whatever m is,
    skipping the draws after the m-th; k defaults to the full budget
    N**2 + 2.  The tape's window is refilled once, before the draws, to
    cover the m*k bits they read."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if k is None:
        k = paper_k(N)
    if m is None:
        m = N
    if not 0 <= m <= N:
        raise ValueError(f"cannot select {m} of {N} elements")
    if tape.remaining() < N * k:
        raise TapeExhausted(
            f"permutation of {N} elements needs {N * k} bits, "
            f"tape has {tape.remaining()}"
        )
    if m * k > 0:
        tape._refill(tape.cursor + m * k)  # one refill serves every draw below
    removed: list[int] = []  # the entries drawn so far, ascending
    out = []
    for j in range(m):
        # The idx-th survivor (from 0) is t = idx + 1 shifted up by the count
        # of removed entries at or below it.  That count is the number of
        # positions p with removed[p] - p <= t, and removed[p] - p never
        # decreases in p, so a binary search finds it; it is also where the
        # new entry goes in the sorted list.
        t = draw_integer(tape, 0, N - j - 1, k) + 1
        lo, hi = 0, j
        while lo < hi:
            mid = (lo + hi) // 2
            if removed[mid] - mid <= t:
                lo = mid + 1
            else:
                hi = mid
        removed.insert(lo, t + lo)
        out.append(t + lo)
    tape.skip((N - m) * k)
    return tuple(out)


def select_subset(
    tape: BitTape, m: int, urn: Sequence[int], k: int | None = None
) -> tuple[int, ...]:
    """Select an m-subset of the urn by permuting an indicator word, and
    return it sorted.

    The permutation sends the m leading 1-bits of 1**m 0**(N-m) to the first
    m drawn positions, so the selected elements are the urn entries at those
    positions.  The subset has m elements always; only those m positions are
    drawn, but the tape is advanced past the whole permutation, so the bit
    cost is the same for every m (N*k bits).
    """
    positions = fisher_yates(tape, len(urn), k, m)
    return tuple(sorted(urn[pos - 1] for pos in positions))


class PermutationDistribution(NamedTuple):
    N: int
    k: int
    probabilities: dict  # sequence tuple -> exact Fraction
    min_probability: Fraction
    uniform: Fraction  # 1/N!
    lower_bound: Fraction  # (1 - 2**-N)**N / N!
    bound_applies: bool  # k >= N**2 + 2
    within_bound: bool


def _prefix_law(N: int, m: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact probability of every sequence of the first m Fisher-Yates
    entries, in lexicographic order: a sequence's weight is the product of
    its draws' interval counts, one count table per range, over 2**(k*m)."""
    if N > PERMUTATION_MAX_N:
        raise BudgetError(f"distribution limited to N <= {PERMUTATION_MAX_N}")
    if k > PERMUTATION_MAX_K:
        raise BudgetError(f"distribution limited to k <= {PERMUTATION_MAX_K}")
    if not 0 <= m <= N:
        raise ValueError(f"cannot select {m} of {N} elements")
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for R in range(N, N - m, -1):
        counts = _interval_counts(R, k)
        prefixes = [
            (prefix + (x,), weight * count)
            for prefix, weight in prefixes
            for x, count in zip([y for y in range(1, N + 1) if y not in prefix], counts)
        ]
    scale = 1 << (k * m)
    if sum(weight for _, weight in prefixes) != scale:
        raise InvariantViolation("prefix probabilities do not sum to 1")
    return {prefix: Fraction(weight, scale) for prefix, weight in prefixes}


def permutation_distribution(N: int, k: int) -> PermutationDistribution:
    """Exact probability of every draw sequence, composed from per-step
    interval counts (no tape enumeration needed)."""
    probs = _prefix_law(N, N, k)
    uniform = Fraction(1, math.factorial(N))
    lower = Fraction((2**N - 1) ** N, 2 ** (N * N)) * uniform
    min_p = min(probs.values())
    applies = k >= paper_k(N)
    return PermutationDistribution(
        N=N,
        k=k,
        probabilities=probs,
        min_probability=min_p,
        uniform=uniform,
        lower_bound=lower,
        bound_applies=applies,
        within_bound=(min_p >= lower) if applies else min_p > 0,
    )


def subset_distribution(N: int, m: int, k: int) -> dict[frozenset, Fraction]:
    """Exact distribution of the m-subset selected via the permutation."""
    out: dict[frozenset, Fraction] = {}
    for prefix, p in _prefix_law(N, m, k).items():
        key = frozenset(prefix)
        out[key] = out.get(key, Fraction(0)) + p
    return out


__all__ = [
    "BIAS_PROFILE_MAX_K",
    "BiasProfile",
    "BitTape",
    "PermutationDistribution",
    "bias_profile",
    "draw_integer",
    "expand_seed_bits",
    "fisher_yates",
    "paper_k",
    "permutation_distribution",
    "practical_k",
    "profile_k",
    "select_subset",
    "subset_distribution",
]
