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
most significant bit first.  The 8-byte counter numbers 2**64 blocks, so
the expansion defines only bits below 2**72 (``MAX_SEEDED_BITS``): a read
that reaches past them, and a seeded tape longer than that, are refused.
This is a fixed counter-mode construction that is bit-exact across
platforms.  It stands in for an ideal source of independent uniform bits
and carries no cryptographic claim.

Single draws follow the subinterval rule: k bits form r = (0.b1...bk)_2 and
the output over a range of size R is floor(r * R), computed purely in
integers as floor(r_num * R / 2**k).  Each output index then deviates from
1/R by at most 2**(-k+1), and that count can be written in closed form:

    count(i) = ceil(2**k * (i+1) / R) - ceil(2**k * i / R),

which is what the exact bias and permutation distributions below use instead
of enumerating all 2**k tapes, so their cost is set by R and N, not by k.
``bias_profile`` gives the counts of one draw and its largest deviation
from 1/R; ``permutation_distribution`` gives every sequence's probability,
for N <= 6, and whether the least of them meets the floor
(1 - 2**-N)**N / N! that the construction's k = N**2 + 2 guarantees.

A draw reads only the bits that decide it.  The output floor(r * R / 2**k)
is monotone in r, so once the leading c bits of r confine it to an interval
on which that floor takes one value, the other k - c bits cannot change it
(Knuth and Yao 1976; Lumbroso, arXiv:1304.1916).  ``draw_integer`` reads
the leading c = bit length of R + 64 bits; when the lowest and the highest
completion of them give the same output it skips the rest, and otherwise it
reads them and computes from all k.  A draw whose other k - c bits are
fewer than a block's 256, that is one whose k is under the bit length of R
plus the one whole-read constant ``_WHOLE_READ_BITS`` = 64 + 256, reads all
k at once, since skipping them would save less than the test costs;
``fisher_yates`` asks the same of its least range to tell whether all its
draws read whole.  Outputs and cursors are those of full k-bit reads.
Every practical-profile draw reads whole; at the paper profile a draw over
an urn of 1296 reads 75 of its 1,679,618 bits.

Every read is ``take(k)``, which returns the next k bits as an integer,
most significant first.  A literal tape slices them from its string.
Because block i depends only on (seed, stream, i), a seeded tape holds
(seed, stream, total) and an integer window that ends on a block boundary;
a read is a shift and a mask.  ``skip(k)`` advances the cursor past k bits
without reading them, with the same bounds check as ``take``; either way
every bit position is consumed at most once.

The read plan.  A read that runs past the window's end refills it: the
tape keeps the window's unread bits and ORs in, under them, the blocks
from the first one not yet hashed (or the one holding the cursor) through
the one holding the read's last bit, so each block is hashed once per tape
and a block that only skipped bits fall in is never hashed.  A shift costs
time in proportion to the window's size, so a read refills only the blocks
it needs, unless a caller has said which bits it will read: ``will_read(n)``
plans a read of the next n bits, and a refill within that plan runs ahead
to its end, 4096 bits past the cursor at most.  A selection whose draws all
read whole plans its m*k bits: if they fit that bound it expands the seed
at most once, and either way it hashes the same blocks, in the same order,
as draw-by-draw refills would.  A selection whose draws may skip bits plans
nothing.  A plan needs no reset: once the cursor reaches its end, reads
refill only what they need again.

A Fisher-Yates pass draws positions from ranges N, N-1, ..., 1, consuming
exactly k bits per draw (the final size-1 draw included, so a permutation
costs exactly N*k bits).  Partial selection asks for the first m entries
only: it makes those m draws, finds each entry as the idx-th survivor of
{1..N} with the earlier entries removed (an order statistic, found by a
binary search over the sorted removed list, Knuth TAOCP 3.4.2), and skips
the (N-m)*k bits the remaining draws would have read, so outputs and cursor
match the full pass.  The first draw finds nothing removed, so it makes no
search; a one-draw selection (m = 1) is that step alone.  The
construction's own budget is k = N**2 + 2 (profile name "paper"); the
"practical" profile k = ceil(log2 N) + 64 keeps large experiments feasible
at a correspondingly looser per-draw bias bound.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import pairwise
from typing import NamedTuple, Sequence

from .errors import BudgetError, InvariantViolation, TapeExhausted

PERMUTATION_MAX_N = 6
# A draw's leading read: the bits its range needs and these guard bits.
_GUARD_BITS = 64
# A draw of fewer bits than its range needs and this reads all k: past its
# leading read it would skip fewer than one block's 256 bits.
_WHOLE_READ_BITS = _GUARD_BITS + 256
_PREFILL_MAX_BITS = 4096  # the most a planned refill runs ahead of the cursor
MAX_SEEDED_BITS = 2**72  # 2**64 blocks of 256 bits: all the expansion defines


def paper_k(urn_size: int) -> int:
    """Per-draw bit count N**2 + 2 from the construction's own analysis."""
    return urn_size * urn_size + 2


def practical_k(urn_size: int) -> int:
    """ceil(log2 N) + 64: enough for a negligible bias at desk scale."""
    return (urn_size - 1).bit_length() + 64


K_PROFILES = {"paper": paper_k, "practical": practical_k}


def profile_k(profile: str, urn_size: int) -> int:
    if profile not in K_PROFILES:
        raise ValueError(f"unknown k profile {profile!r}")
    return K_PROFILES[profile](urn_size)


def _check_seed(seed: int, stream: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if not 0 <= stream < 2**64:
        raise ValueError("stream must fit in 64 unsigned bits")


def expand_seed_bits(seed: int, nbits: int, stream: int = 0, start: int = 0) -> int:
    """Bits [start, start+nbits) of the documented counter-mode expansion:
    SHA-256 blocks over (seed, stream, counter), bytes read MSB first.
    Returns them as an integer, the bit at ``start`` most significant;
    ``format(x, f"0{nbits}b")`` spells them out.  Only the blocks that hold
    those bits are hashed, so a zero-bit request hashes none.  The 8-byte
    counter numbers 2**64 blocks, so bits past 2**72 are refused."""
    _check_seed(seed, stream)
    if nbits < 0 or start < 0:
        raise ValueError("nbits and start must be >= 0")
    end = start + nbits
    if end > MAX_SEEDED_BITS:
        raise ValueError(f"bits [{start}, {end}) reach past the expansion's end, 2**72")
    if not nbits:
        return 0
    prefix = (seed << 64 | stream).to_bytes(16, "big")  # seed_be8 || stream_be8
    stop = -(-end // 256)
    sha256 = hashlib.sha256
    raw = bytearray()
    for i in range(start // 256, stop):
        raw += sha256(prefix + i.to_bytes(8, "big")).digest()
    return (int.from_bytes(raw, "big") >> (stop * 256 - end)) & ((1 << nbits) - 1)


class BitTape:
    """Finite consumable sequence of bits with a strict left-to-right cursor.

    ``take`` reads bits [cursor, cursor+k).  A literal tape reads them from
    its string, ``_bits``, and never refills.  A seeded tape keeps (seed,
    stream, total) and an integer window, ``_window``, whose low bits are
    the tape's bits up to position ``_end``, a block boundary; ``_plan`` is
    the end of the read that ``will_read`` last announced.  How a read
    refills the window is the module docstring's read plan."""

    __slots__ = (
        "_seed", "_stream", "_total", "_cursor", "_bits", "_window", "_end", "_plan"
    )

    def __init__(self, bits: str):
        # int(s, 2) would also accept "_", whitespace, a sign, "0b" and
        # non-ASCII digits; this admits only the characters 0 and 1.
        if not (bits.isascii() and not bits.encode().translate(None, b"01")):
            raise ValueError("a tape is a string over 0/1")
        self._seed = self._stream = 0
        self._total = len(bits)
        self._cursor = 0
        self._bits: str | None = bits
        self._window = self._plan = 0
        self._end = len(bits)

    @classmethod
    def from_seed(cls, seed: int, nbits: int, stream: int = 0) -> "BitTape":
        _check_seed(seed, stream)
        if nbits < 0:
            raise ValueError("a tape cannot have a negative length")
        if nbits > MAX_SEEDED_BITS:
            raise ValueError(f"a seeded tape holds at most 2**72 bits, not {nbits}")
        tape = cls.__new__(cls)  # no literal string to check
        tape._seed, tape._stream, tape._total, tape._cursor = seed, stream, nbits, 0
        tape._bits, tape._window, tape._end, tape._plan = None, 0, 0, 0
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
        bits = self._bits
        if bits is not None:
            self._cursor = end
            return int(bits[start:end] or "0", 2)
        if not k:
            return 0
        if end > self._end:
            self._refill(end)
        self._cursor = end
        return (self._window >> (self._end - end)) & ((1 << k) - 1)

    def will_read(self, k: int) -> None:
        """Plan a read of the next k bits, which lets a refill run ahead."""
        self._plan = self._cursor + k

    def _refill(self, end: int) -> None:
        """Extend the window past its end to cover bits [cursor, end), and
        the planned bits up to 4096 past the cursor: keep the unread bits
        and hash the blocks from the first one not yet hashed (or the one
        holding the cursor, past a skip) on."""
        start, old_end = self._cursor, self._end
        fresh = max(old_end, start - start % 256)
        ahead = min(self._plan, start + _PREFILL_MAX_BITS, self._total)
        stop = -(-max(end, ahead) // 256) * 256
        kept = self._window & ((1 << (old_end - start)) - 1) if start < old_end else 0
        self._window = (kept << (stop - fresh)) | expand_seed_bits(
            self._seed, stop - fresh, self._stream, fresh
        )
        self._end = stop

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
    lo + floor(r * R / 2**k) with R = hi - lo + 1 and r the k bits.

    The draw reads only the bits that decide it.  It first reads the
    leading c = R.bit_length() + 64 bits p.  Every r that starts with p
    lies in [p * 2**d, (p+1) * 2**d - 1], d = k - c, and the output is
    monotone in r, so when the lowest and the highest completion give the
    same floor the output is settled and the draw skips the other d bits.
    Otherwise, which the 64 guard bits make a chance below 2**-64, it reads
    them and computes from all k.  When d is under 256, one block, the draw
    reads all k bits at once: skipping them would save less than the test
    costs.  Output and cursor are those of the full k-bit read either way
    (Knuth and Yao 1976; Lumbroso, arXiv:1304.1916)."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if k < 1:
        raise ValueError("k must be >= 1")
    R = hi - lo + 1
    if k < R.bit_length() + _WHOLE_READ_BITS:
        return lo + ((tape.take(k) * R) >> k)
    if k > tape.remaining():
        tape.skip(k)  # raises TapeExhausted before any bit is consumed
    c = R.bit_length() + _GUARD_BITS
    p = tape.take(c)
    d = k - c
    pR = p * R
    # The highest completion's output is floor(((p+1) * 2**d - 1) * R / 2**k)
    # = floor((p*R + R - R / 2**d) / 2**c), and as p*R + R is an integer it
    # is the floor with R / 2**d rounded up: no k-bit number is built.
    if (pR + R + (-R >> d)) >> c == pR >> c:
        tape.skip(d)
        return lo + (pR >> c)
    r = (p << d) | tape.take(d)
    return lo + ((r * R) >> k)


def _interval_counts(range_size: int, k: int) -> tuple[int, ...]:
    """Number of k-bit patterns mapped to each index by the subinterval rule:
    the gaps between the R+1 ceiling edges ceil(2**k * i / R)."""
    two_k = 1 << k
    edges = [-(-two_k * i // range_size) for i in range(range_size + 1)]
    return tuple(upper - lower for lower, upper in pairwise(edges))


class BiasProfile(NamedTuple):
    counts: tuple[int, ...]  # index i is drawn with probability counts[i] / 2**k
    max_deviation: Fraction  # max |counts[i] / 2**k - 1/range|
    bound: Fraction  # 2**(-k+1)
    within_bound: bool


def bias_profile(k: int, range_size: int) -> BiasProfile:
    """Exact per-index output counts over all 2**k tapes, with the deviation
    bound |count/2**k - 1/range| <= 2**(-k+1) checked as the integer
    comparison max |count*range - 2**k| <= 2*range.  The counts take at most
    two values, so the deviation is the larger of at most two terms."""
    if k < 1 or range_size < 1:
        raise ValueError("need k >= 1 and range_size >= 1")
    two_k = 1 << k
    counts = _interval_counts(range_size, k)
    dev = max(abs(c * range_size - two_k) for c in set(counts))
    return BiasProfile(
        counts,
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
    N**2 + 2.  When every draw reads whole, the selection plans its m*k bits
    on the tape (the module docstring's read plan)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if k is None:
        k = paper_k(N)
    elif k < 1:
        raise ValueError("k must be >= 1")
    if m is None:
        m = N
    if not 0 <= m <= N:
        raise ValueError(f"cannot select {m} of {N} elements")
    if tape.remaining() < N * k:
        raise TapeExhausted(
            f"permutation of {N} elements needs {N * k} bits, "
            f"tape has {tape.remaining()}"
        )
    # Every draw reads whole when even the least range, N - m + 1, would.
    if k < (N - m + 1).bit_length() + _WHOLE_READ_BITS:
        tape.will_read(m * k)
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
    return tuple(sorted([urn[pos - 1] for pos in positions]))


class PermutationDistribution(NamedTuple):
    probabilities: dict  # sequence tuple -> exact Fraction
    uniform: Fraction  # 1/N!
    lower_bound: Fraction  # (1 - 2**-N)**N / N!
    within_bound: bool  # all >= lower_bound at k >= N**2 + 2, else all > 0


def _prefix_law(N: int, m: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact probability of every sequence of the first m Fisher-Yates
    entries, in lexicographic order: a sequence's weight is the product of
    its draws' interval counts, one count table per range, over 2**(k*m)."""
    if N > PERMUTATION_MAX_N:
        raise BudgetError(f"distribution limited to N <= {PERMUTATION_MAX_N}")
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
    interval counts (no tape enumeration needed).  The floor lower_bound is
    only claimed at the construction's budget k >= N**2 + 2; below it,
    ``within_bound`` asks only that every sequence be possible."""
    probs = _prefix_law(N, N, k)
    uniform = Fraction(1, math.factorial(N))
    lower = Fraction((2**N - 1) ** N, 2 ** (N * N)) * uniform
    min_p = min(probs.values())
    within = min_p >= lower if k >= paper_k(N) else min_p > 0
    return PermutationDistribution(probs, uniform, lower, within)


def subset_distribution(N: int, m: int, k: int) -> dict[frozenset, Fraction]:
    """Exact distribution of the m-subset selected via the permutation."""
    out: dict[frozenset, Fraction] = {}
    for prefix, p in _prefix_law(N, m, k).items():
        key = frozenset(prefix)
        out[key] = out.get(key, Fraction(0)) + p
    return out


__all__ = [
    "BiasProfile",
    "BitTape",
    "K_PROFILES",
    "MAX_SEEDED_BITS",
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
