"""Deterministic uniform selection driven by a finite tape of i.i.d. bits.

A BitTape is a single-consumer cursor over a fixed bit string: bits are
consumed strictly left to right and never re-read, so chained draws are
stochastically independent whenever the underlying bits are.  Tapes come
from literal bit strings, from 0/1 text files, or from the seeded expansion
documented below.

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

A Fisher-Yates pass draws positions from ranges N, N-1, ..., 1, consuming
exactly k bits per draw (the final size-1 draw included, so a permutation
costs exactly N*k bits).  The construction's own budget is k = N**2 + 2
(profile name "paper"); the "practical" profile k = ceil(log2 N) + 64 keeps
large experiments feasible at a correspondingly looser per-draw bias bound.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import BudgetError, InvariantViolation, TapeExhausted

_BYTE_BITS = [format(i, "08b") for i in range(256)]

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


def expand_seed_bits(seed: int, nbits: int, stream: int = 0) -> str:
    """The documented counter-mode expansion: SHA-256 blocks over
    (seed, stream, counter), bytes read MSB first."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if not 0 <= stream < 2**64:
        raise ValueError("stream must fit in 64 unsigned bits")
    prefix = seed.to_bytes(8, "big") + stream.to_bytes(8, "big")
    blocks = []
    needed_blocks = (nbits + 255) // 256
    for counter in range(needed_blocks):
        digest = hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        blocks.append(digest)
    raw = b"".join(blocks)
    bits = "".join(map(_BYTE_BITS.__getitem__, raw))
    return bits[:nbits]


class BitTape:
    """Finite consumable sequence of bits with a strict left-to-right cursor."""

    __slots__ = ("_bits", "_cursor")

    def __init__(self, bits: str):
        if bits.strip("01"):
            raise ValueError("a tape is a string over 0/1")
        self._bits = bits
        self._cursor = 0

    @classmethod
    def from_seed(cls, seed: int, nbits: int, stream: int = 0) -> "BitTape":
        return cls(expand_seed_bits(seed, nbits, stream))

    @classmethod
    def from_file(cls, path: str | Path) -> "BitTape":
        """Load a raw bit file: 0/1 characters, whitespace ignored."""
        text = Path(path).read_text()
        return cls("".join(text.split()))

    @classmethod
    def from_spec(cls, spec: str, nbits: int, stream: int = 0) -> "BitTape":
        """Parse a tape spec: "seed:<64-bit integer>" or a file path."""
        if spec.startswith("seed:"):
            return cls.from_seed(int(spec[5:]), nbits, stream)
        return cls.from_file(spec)

    @property
    def total(self) -> int:
        return len(self._bits)

    @property
    def cursor(self) -> int:
        return self._cursor

    def remaining(self) -> int:
        return len(self._bits) - self._cursor

    def take_bits(self, k: int) -> str:
        if k < 0:
            raise ValueError("cannot take a negative number of bits")
        if self.remaining() < k:
            raise TapeExhausted(
                f"need {k} bits, tape has {self.remaining()} left"
            )
        out = self._bits[self._cursor : self._cursor + k]
        self._cursor += k
        return out

    def take(self, k: int) -> int:
        """Consume k bits and return them as an integer, MSB first."""
        bits = self.take_bits(k)
        return int(bits, 2) if bits else 0

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


def _interval_count(index: int, range_size: int, k: int) -> int:
    """Number of k-bit patterns mapped to ``index`` by the subinterval rule."""
    two_k = 1 << k
    upper = -((-two_k * (index + 1)) // range_size)  # ceil
    lower = -((-two_k * index) // range_size)
    return upper - lower


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
    bound |count/2**k - 1/range| <= 2**(-k+1) checked exactly."""
    if k > BIAS_PROFILE_MAX_K:
        raise BudgetError(f"bias profile limited to k <= {BIAS_PROFILE_MAX_K}")
    if k < 1 or range_size < 1:
        raise ValueError("need k >= 1 and range_size >= 1")
    counts = tuple(_interval_count(i, range_size, k) for i in range(range_size))
    if sum(counts) != 1 << k:
        raise InvariantViolation(f"interval counts sum to {sum(counts)}, not 2**{k}")
    probs = tuple(Fraction(c, 1 << k) for c in counts)
    target = Fraction(1, range_size)
    max_dev = max(abs(p - target) for p in probs)
    bound = Fraction(2, 1 << k)
    return BiasProfile(k, range_size, counts, probs, max_dev, bound, max_dev <= bound)


def fisher_yates(tape: BitTape, N: int, k: int | None = None) -> tuple[int, ...]:
    """Permutation of {1..N} by selection sampling: the j-th output is drawn
    from the N-j remaining elements with one k-bit draw.  Consumes exactly
    N*k bits; k defaults to the full budget N**2 + 2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if k is None:
        k = paper_k(N)
    if tape.remaining() < N * k:
        raise TapeExhausted(
            f"permutation of {N} elements needs {N * k} bits, "
            f"tape has {tape.remaining()}"
        )
    items = list(range(1, N + 1))
    out = []
    for j in range(N):
        idx = draw_integer(tape, 0, N - j - 1, k)
        out.append(items.pop(idx))
    return tuple(out)


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]  # sorted subset of the urn
    consumed: int
    tape: BitTape  # the same tape, advanced past the consumed bits


def select_subset(
    tape: BitTape, m: int, urn: Sequence[int], k: int | None = None
) -> SelectionResult:
    """Select an m-subset of the urn by permuting an indicator word.

    The permutation sends the m leading 1-bits of 1**m 0**(N-m) to the first
    m drawn positions, so the selected elements are the urn entries at those
    positions.  |chosen| = m always; the full permutation is drawn either
    way, so the bit cost is the same for every m (N*k bits).
    """
    N = len(urn)
    if not 0 <= m <= N:
        raise ValueError(f"cannot select {m} of {N} elements")
    start = tape.cursor
    perm = fisher_yates(tape, N, k)
    chosen = tuple(sorted(urn[pos - 1] for pos in perm[:m]))
    return SelectionResult(chosen, tape.cursor - start, tape)


class PermutationDistribution(NamedTuple):
    N: int
    k: int
    probabilities: dict  # sequence tuple -> exact Fraction
    min_probability: Fraction
    uniform: Fraction  # 1/N!
    lower_bound: Fraction  # (1 - 2**-N)**N / N!
    bound_applies: bool  # k >= N**2 + 2
    within_bound: bool


def permutation_distribution(N: int, k: int) -> PermutationDistribution:
    """Exact probability of every draw sequence, composed from per-step
    interval counts (no tape enumeration needed)."""
    if N > PERMUTATION_MAX_N:
        raise BudgetError(f"distribution limited to N <= {PERMUTATION_MAX_N}")
    if k > PERMUTATION_MAX_K:
        raise BudgetError(f"distribution limited to k <= {PERMUTATION_MAX_K}")
    probs: dict[tuple[int, ...], Fraction] = {}

    def walk(remaining: list[int], acc: Fraction, prefix: tuple[int, ...]):
        if not remaining:
            probs[prefix] = acc
            return
        R = len(remaining)
        for idx in range(R):
            p = Fraction(_interval_count(idx, R, k), 1 << k)
            walk(
                remaining[:idx] + remaining[idx + 1 :],
                acc * p,
                prefix + (remaining[idx],),
            )

    walk(list(range(1, N + 1)), Fraction(1), ())
    if sum(probs.values()) != 1:
        raise InvariantViolation("permutation probabilities do not sum to 1")
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
    dist = permutation_distribution(N, k)
    out: dict[frozenset, Fraction] = {}
    for seq, p in dist.probabilities.items():
        key = frozenset(seq[:m])
        out[key] = out.get(key, Fraction(0)) + p
    return out


__all__ = [
    "BIAS_PROFILE_MAX_K",
    "BiasProfile",
    "BitTape",
    "PermutationDistribution",
    "SelectionResult",
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
