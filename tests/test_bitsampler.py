import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owflab import bitsampler
from owflab.bitsampler import (
    BiasProfile,
    BitTape,
    bias_profile,
    draw_integer,
    expand_seed_bits,
    fisher_yates,
    paper_k,
    permutation_distribution,
    practical_k,
    profile_k,
    select_subset,
    subset_distribution,
)
from owflab.errors import BudgetError, TapeExhausted


def enumerate_draw_counts(k, range_size):
    """Literal enumeration oracle: the index each of the 2**k tapes draws."""
    counts = [0] * range_size
    for r_num in range(1 << k):
        counts[(r_num * range_size) >> k] += 1
    return counts


def interval_count(index, range_size, k):
    """Number of k-bit patterns mapped to one index, ceil(2**k * (index+1) / R)
    - ceil(2**k * index / R), computed per index."""
    two_k = 1 << k
    return -((-two_k * (index + 1)) // range_size) + ((-two_k * index) // range_size)


def fraction_bias_profile(k, range_size):
    """The Fraction reference for bias_profile: one probability per index and
    the deviation bound checked on Fractions."""
    counts = tuple(interval_count(i, range_size, k) for i in range(range_size))
    probs = tuple(Fraction(c, 1 << k) for c in counts)
    target = Fraction(1, range_size)
    max_dev = max(abs(p - target) for p in probs)
    bound = Fraction(2, 1 << k)
    return BiasProfile(counts, max_dev, bound, max_dev <= bound)


def test_draw_integer_examples():
    assert draw_integer(BitTape("011"), 0, 2, 3) == 1  # floor(3*3/8)
    assert draw_integer(BitTape("000"), 0, 2, 3) == 0
    assert draw_integer(BitTape("111"), 0, 2, 3) == 2  # floor(7*3/8)


def test_draw_integer_respects_offset_and_range():
    tape = BitTape("1" * 40)
    assert draw_integer(tape, 10, 10, 5) == 10  # singleton range
    v = draw_integer(tape, 5, 9, 5)
    assert 5 <= v <= 9
    with pytest.raises(ValueError):
        draw_integer(tape, 3, 2, 4)


def test_tape_consumption_is_strict():
    tape = BitTape("10110100")
    assert tape.take(3) == 0b101
    assert tape.take(2) == 0b10
    assert tape.remaining() == 3
    with pytest.raises(TapeExhausted):
        tape.take(4)
    # failed takes consume nothing
    assert tape.remaining() == 3
    assert tape.take(3) == 0b100
    assert tape.remaining() == 0


def test_tape_rejects_non_bits():
    with pytest.raises(ValueError):
        BitTape("012")


def test_seed_expansion_matches_documented_construction():
    # Independent re-derivation of the counter-mode spec.
    seed, stream = 1, 0
    block0 = hashlib.sha256(
        seed.to_bytes(8, "big") + stream.to_bytes(8, "big") + (0).to_bytes(8, "big")
    ).digest()
    expected = "".join(format(b, "08b") for b in block0)
    assert format(expand_seed_bits(1, 256), "0256b") == expected
    assert format(expand_seed_bits(1, 40), "040b") == expected[:40]
    assert expand_seed_bits(1, 40, 0, 8) == int(expected[8:48], 2)
    # a different stream decorrelates
    assert format(expand_seed_bits(1, 40, stream=1), "040b") != expected[:40]
    with pytest.raises(ValueError):
        expand_seed_bits(2**64, 8)


def test_a_zero_bit_expansion_hashes_no_block(monkeypatch):
    blocks = []
    monkeypatch.setattr(bitsampler, "hashlib", counting_hashlib(blocks))
    for start in (0, 255, 256, 300):
        assert expand_seed_bits(1, 0, 0, start) == 0
    assert blocks == []
    assert expand_seed_bits(1, 1, 0, 300) == expand_seed_bits(1, 256, 0, 256) >> 211 & 1
    assert blocks == [1, 1]


def test_bias_profile_example():
    bp = bias_profile(3, 3)
    assert bp.counts == (3, 3, 2)
    assert tuple(Fraction(c, 2**3) for c in bp.counts) == (
        Fraction(3, 8), Fraction(3, 8), Fraction(2, 8)
    )
    assert bp.max_deviation == Fraction(1, 12)
    assert bp.bound == Fraction(1, 4)
    assert bp.within_bound


def test_bias_profile_power_of_two_ranges_are_exact():
    for k, r in ((4, 2), (6, 8), (10, 16)):
        assert bias_profile(k, r).max_deviation == 0


def test_bias_profile_k10_range3():
    assert bias_profile(10, 3).max_deviation <= Fraction(1, 2**9)


def test_bias_profile_at_the_paper_k():
    # The counts are closed-form, so the construction's own k = N**2 + 2
    # costs what any k does: the bound holds for every urn up to 64.
    for N in range(2, 65):
        assert bias_profile(paper_k(N), N).within_bound, N


def test_bias_profile_matches_the_fraction_reference():
    # C5's whole grid, k = 24, the paper k, and ranges of one, above 2**k and
    # that are powers of two.
    pairs = [(k, r) for k in range(2, 21) for r in range(2, 65)]
    pairs += [(24, r) for r in (3, 7, 64, 1000, 4099)]
    pairs += [(paper_k(r), r) for r in (5, 16, 64)]
    pairs += [(1, 1), (1, 3), (3, 1), (2, 100)]
    for k, r in pairs:
        fast, slow = bias_profile(k, r), fraction_bias_profile(k, r)
        assert fast == slow, (k, r)
        assert [type(field) for field in fast] == [type(field) for field in slow]


def test_interval_counts_match_literal_enumeration():
    for k in (2, 5, 8, 12):
        for r in (2, 3, 5, 7, 17, 64):
            assert list(bias_profile(k, r).counts) == enumerate_draw_counts(k, r)


def test_fisher_yates_identity():
    tape = BitTape("101")
    assert fisher_yates(tape, 1) == (1,)
    assert tape.cursor == paper_k(1)  # k bits consumed even for a 1-range


def test_fisher_yates_frozen_trace():
    # Hand trace at N=3, k=4 on tape 0110 1011 0001:
    #   0110 -> floor(6*3/16) = 1, picks 2 from [1,2,3]
    #   1011 -> floor(11*2/16) = 1, picks 3 from [1,3]
    #   0001 -> floor(1*1/16) = 0, picks 1
    tape = BitTape("011010110001")
    assert fisher_yates(tape, 3, 4) == (2, 3, 1)
    assert tape.remaining() == 0


def test_fisher_yates_is_permutation():
    for n in (2, 5, 9):
        tape = BitTape.from_seed(5, n * paper_k(n))
        assert sorted(fisher_yates(tape, n)) == list(range(1, n + 1))


def test_fisher_yates_prechecks_budget():
    tape = BitTape("1" * 10)
    with pytest.raises(TapeExhausted):
        fisher_yates(tape, 3, 4)
    assert tape.cursor == 0


def test_no_bit_reuse_across_chained_calls():
    tape = BitTape.from_seed(8, 2 * 3 * paper_k(3))
    first = tape.cursor
    fisher_yates(tape, 3)
    mid = tape.cursor
    fisher_yates(tape, 3)
    assert (mid - first) == 3 * paper_k(3)
    assert (tape.cursor - mid) == 3 * paper_k(3)


def test_determinism():
    a = fisher_yates(BitTape.from_seed(99, 5 * paper_k(5)), 5)
    b = fisher_yates(BitTape.from_seed(99, 5 * paper_k(5)), 5)
    assert a == b


def test_permutation_distribution_two_elements():
    dist = permutation_distribution(2, 6)
    assert dist.probabilities == {
        (1, 2): Fraction(1, 2),
        (2, 1): Fraction(1, 2),
    }
    assert dist.within_bound


def test_permutation_distribution_three_elements():
    dist = permutation_distribution(3, 8)
    assert sum(dist.probabilities.values()) == 1
    assert min(dist.probabilities.values()) >= Fraction(343, 3072)  # (1 - 1/8)**3 / 3!
    # Below the budget k = N**2 + 2 the floor is not claimed, and the check
    # asks only that every sequence be possible: at k = 1 a range of 3 has
    # an index that no 1-bit pattern draws.
    assert dist.within_bound
    assert not permutation_distribution(3, 1).within_bound


def test_permutation_floor_paper_k():
    for N in (2, 3, 4, 5):
        dist = permutation_distribution(N, paper_k(N))
        assert dist.within_bound
        assert min(dist.probabilities.values()) >= dist.lower_bound
        assert dist.lower_bound == Fraction((2**N - 1) ** N, 2 ** (N * N)) / math.factorial(N)


def recursive_permutation_law(N, k):
    """The N!-leaf reference: one Fraction multiply per node of the draw tree."""
    probs = {}

    def walk(remaining, acc, prefix):
        if not remaining:
            probs[prefix] = acc
            return
        R = len(remaining)
        for idx in range(R):
            p = Fraction(interval_count(idx, R, k), 1 << k)
            walk(remaining[:idx] + remaining[idx + 1 :], acc * p, prefix + (remaining[idx],))

    walk(list(range(1, N + 1)), Fraction(1), ())
    return probs


def test_prefix_walk_matches_the_full_recursion():
    for N in range(1, 6):
        for k in (6, 8, paper_k(N)):
            full = recursive_permutation_law(N, k)
            dist = permutation_distribution(N, k)
            assert dist.probabilities == full
            assert list(dist.probabilities) == list(full)  # the same order
            for m in range(N + 1):
                prefixes, subsets = {}, {}
                for seq, p in full.items():
                    prefixes[seq[:m]] = prefixes.get(seq[:m], 0) + p
                    key = frozenset(seq[:m])
                    subsets[key] = subsets.get(key, 0) + p
                assert bitsampler._prefix_law(N, m, k) == prefixes
                assert subset_distribution(N, m, k) == subsets


def test_permutation_distribution_budget():
    # N! sequences bound the cost, so N is limited and k is not.
    with pytest.raises(BudgetError):
        permutation_distribution(7, 10)
    dist = permutation_distribution(3, 100)
    assert dist.within_bound
    assert min(dist.probabilities.values()) >= dist.lower_bound


def test_select_subset_edges():
    urn = (10, 20, 30, 40)
    tape = BitTape.from_seed(1, 4 * 6)
    assert select_subset(tape, 0, urn, 6) == ()
    assert tape.cursor == 4 * 6  # the permutation is drawn regardless
    assert select_subset(BitTape.from_seed(1, 4 * 6), 4, urn, 6) == (10, 20, 30, 40)
    with pytest.raises(ValueError):
        select_subset(BitTape.from_seed(1, 64), 5, urn, 6)


def test_select_subset_cardinality_and_membership():
    urn = tuple(range(1, 17))
    for m in (1, 7, 16):
        tape = BitTape.from_seed(42, 16 * practical_k(16))
        chosen = select_subset(tape, m, urn, practical_k(16))
        assert len(chosen) == m
        assert set(chosen) <= set(urn)
        assert chosen == tuple(sorted(chosen))
        assert tape.cursor == 16 * practical_k(16)


def test_subset_distribution_near_uniform():
    # N=4, m=2 at k=6: every 2-subset probability within the per-step bias
    # envelope (1 +- range*2**(-k+1))**4 of 1/6.
    dist = subset_distribution(4, 2, 6)
    assert len(dist) == 6
    assert sum(dist.values()) == 1
    lo = Fraction(1, 6) * Fraction(7, 8) ** 4
    hi = Fraction(1, 6) * Fraction(9, 8) ** 4
    assert all(lo <= p <= hi for p in dist.values())


def test_subset_distribution_exact_at_paper_k():
    # Every m-subset stays within the permutation floor of uniform: at
    # k = N**2 + 2 its probability is >= (1 - 2**-N)**N / C(N, m).
    for N in (2, 3, 4, 5):
        factor = Fraction((2**N - 1) ** N, 2 ** (N * N))
        for m in range(N + 1):
            dist = subset_distribution(N, m, paper_k(N))
            floor = factor / math.comb(N, m)
            assert sum(dist.values()) == 1
            assert all(p >= floor for p in dist.values())


def test_profile_k():
    assert paper_k(16) == 258
    assert practical_k(16) == 68
    assert practical_k(1) == 64
    assert profile_k("paper", 4) == 18
    assert profile_k("practical", 4) == 66
    with pytest.raises(ValueError):
        profile_k("fast", 4)


def full_read_draw(tape, lo, hi, k):
    """The subinterval rule on all k bits: lo + floor(r * R / 2**k)."""
    return lo + ((tape.take(k) * (hi - lo + 1)) >> k)


def list_pop_fisher_yates(tape, N, k):
    """The full-pass reference: every draw made on all its k bits,
    survivors kept in a list."""
    items = list(range(1, N + 1))
    return tuple(items.pop(full_read_draw(tape, 0, N - j - 1, k)) for j in range(N))


def counting_hashlib(blocks):
    """A stand-in for ``hashlib`` that appends each hashed block's counter."""
    real = hashlib.sha256

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            blocks.append(int.from_bytes(data[16:], "big"))
            return real(data)

    return CountingHashlib


def expansion(seed, nbits, stream=0):
    """``expand_seed_bits`` spelled out as a string of nbits bits."""
    return format(expand_seed_bits(seed, nbits, stream), f"0{nbits}b") if nbits else ""


def documented_expansion(seed, nbits, stream):
    """Every block from counter 0, hashed and read MSB first."""
    prefix = seed.to_bytes(8, "big") + stream.to_bytes(8, "big")
    blocks = (
        hashlib.sha256(prefix + i.to_bytes(8, "big")).digest()
        for i in range((nbits + 255) // 256)
    )
    return "".join(format(byte, "08b") for block in blocks for byte in block)[:nbits]


tape_ops = st.lists(
    st.tuples(st.sampled_from(["take", "skip"]), st.integers(0, 1000)), max_size=20
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(0, 6000),
    tape_ops,
)
@example(1, 0, 2000, [("take", 10), ("skip", 500), ("take", 0), ("take", 300)])
def test_seeded_tape_reads_slices_of_the_expansion(seed, stream, total, ops):
    # Reads span several blocks, skips jump past the window, and 0-bit reads
    # land past it.
    tape = BitTape.from_seed(seed, total, stream)
    full = expansion(seed, total, stream)
    assert full == documented_expansion(seed, total, stream)
    for op, k in ops:
        pos = tape.cursor
        if k > total - pos:
            with pytest.raises(TapeExhausted):
                tape.take(k) if op == "take" else tape.skip(k)
            assert tape.cursor == pos
            continue
        if op == "take":
            assert tape.take(k) == int(full[pos : pos + k] or "0", 2)
        else:
            tape.skip(k)
        assert tape.cursor == pos + k
    pos = tape.cursor
    assert tape.take(tape.remaining()) == int(full[pos:] or "0", 2)


def test_seeded_tape_hashes_each_block_once(monkeypatch):
    blocks = []
    monkeypatch.setattr(bitsampler, "hashlib", counting_hashlib(blocks))
    N, k = 1296, 75
    fisher_yates(BitTape.from_seed(1, N * k), N, k)
    assert blocks == list(range(-(-N * k // 256)))  # 380, each once, in order


@pytest.mark.parametrize("N, k", [(1296, 75), (4096, 76)])
def test_whole_draws_refill_a_seeded_tape_in_chunks(monkeypatch, N, k):
    # A full permutation of whole draws refills up to 4096 bits ahead, so a
    # refill is followed by at least 4096 - k bits of reads; block-by-block
    # refills would expand the seed about N*k / 256 times (380 and 1216).
    expansions = []
    real_expand = bitsampler.expand_seed_bits

    def counting_expand(*args, **kwargs):
        expansions.append(args)
        return real_expand(*args, **kwargs)

    monkeypatch.setattr(bitsampler, "expand_seed_bits", counting_expand)
    tape = BitTape.from_seed(1, N * k)
    fisher_yates(tape, N, k)
    assert tape.cursor == N * k
    assert len(expansions) <= -(-N * k // (4096 - k)) + 1
    assert sum(args[1] for args in expansions) == -(-N * k // 256) * 256


def test_a_plan_refills_no_block_past_the_tape(monkeypatch):
    want = int(expansion(1, 300), 2)
    blocks = []
    monkeypatch.setattr(bitsampler, "hashlib", counting_hashlib(blocks))
    tape = BitTape.from_seed(1, 300)
    tape.will_read(10**6)
    assert tape.take(1) == want >> 299
    assert blocks == [0, 1]  # the plan runs ahead to the tape's end, not past
    assert tape.take(299) == want & ((1 << 299) - 1)
    assert blocks == [0, 1]


@st.composite
def seeded_selections(draw):
    """(N, k, m, lead, lead_op, extra, seed): a selection that follows a
    lead-bit take or skip on a tape of lead + N*k + extra bits.  A lead
    that is not a multiple of 256 starts the selection mid-block, and a
    negative extra leaves the tape too short for it."""
    N = draw(st.integers(1, 60))
    k, m = draw(st.integers(1, 1000)), draw(st.integers(0, N))
    lead, lead_op = draw(st.integers(0, 1000)), draw(st.sampled_from(["take", "skip"]))
    extra = draw(st.integers(-N * k, 600))
    return N, k, m, lead, lead_op, extra, draw(st.integers(0, 2**64 - 1))


GUARD_BITS = 64  # a draw's leading read is its range's bit length plus these


def lead_bits(R, k):
    """The bits a draw over R outputs reads first: all k when fewer than a
    block's 256 would be left, else its range's bit length plus GUARD_BITS."""
    c = R.bit_length() + GUARD_BITS
    return k if k < c + 256 else c


def read_spans(N, k, m, start):
    """The bits each of a selection's m draws reads: its leading bits, which
    a random tape settles on (a prefix leaves the output open with
    probability below 2**-GUARD_BITS)."""
    return [(start + j * k, start + j * k + lead_bits(N - j, k)) for j in range(m)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeded_selections())
@example((3, 100, 2, 300, "skip", 0, 5))  # starts mid-block after a skip
@example((7, 40, 0, 130, "take", 9, 5))  # m = 0: no draw, no block
@example((5, 77, 5, 0, "take", 3, 5))  # the tape's total ends mid-block
@example((4, 64, 2, 256, "skip", -1, 5))  # one bit short: refused
@example((30, 129, 30, 0, "take", 0, 5))  # whole draws within the refill bound
@example((40, 129, 40, 7, "take", 0, 5))  # whole draws past the refill bound
@example((20, 900, 3, 10, "take", 0, 5))  # settled draws skip whole blocks
def test_a_selection_refills_a_seeded_tape_once(case):
    # A selection whose draws read whole and whose m*k bits fit the bound
    # expands the seed at most once.  Every selection hashes each block once,
    # in order, and only the blocks that hold bits a draw read.
    N, k, m, lead, lead_op, extra, seed = case
    total = lead + N * k + extra
    blocks, expansions = [], []
    real_expand = bitsampler.expand_seed_bits

    def counting_expand(*args, **kwargs):
        expansions.append(args)
        return real_expand(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitsampler, "hashlib", counting_hashlib(blocks))
        mp.setattr(bitsampler, "expand_seed_bits", counting_expand)
        tape = BitTape.from_seed(seed, total)
        getattr(tape, lead_op)(lead)
        hashed_before = set(blocks)
        del blocks[:], expansions[:]
        if extra < 0:
            with pytest.raises(TapeExhausted):
                fisher_yates(tape, N, k, m)
            assert (blocks, expansions, tape.cursor) == ([], [], lead)
            return
        out = fisher_yates(tape, N, k, m)
    spans = read_spans(N, k, m, lead)
    read = {b for lo, hi in spans for b in range(lo // 256, -(-hi // 256))}
    assert blocks == sorted(read - hashed_before)
    if m * k <= 4096 and lead_bits(N - m + 1, k) == k:
        assert len(expansions) <= 1
    reference = BitTape.from_seed(seed, total)
    reference.skip(lead)
    assert out == list_pop_fisher_yates(reference, N, k)[:m]
    assert tape.cursor == reference.cursor == lead + N * k


@st.composite
def lazy_draws(draw):
    """(source, R, lo, k, lead, extra, seed, edge): one draw of k bits over
    R outputs after ``lead`` skipped bits, on a tape with ``extra`` bits
    after it, with k past the c leading bits the draw reads first and up to
    the paper profile's k at n = 6.  The seed makes a seeded tape or a
    literal tape's bits.
    A "crafted" literal tape puts the c-bit prefix that holds the interval
    edge ceil(2**k * edge / R) at the draw, so that prefix may leave the
    output open."""
    source = draw(st.sampled_from(["seeded", "literal", "crafted"]))
    R = draw(st.one_of(st.integers(2, 5000), st.integers(2, 2**80)))
    c = R.bit_length() + GUARD_BITS
    k = draw(st.one_of(st.integers(c + 1, c + 1000), st.integers(c + 1, paper_k(1296))))
    lead, extra = draw(st.integers(0, 600)), draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**64 - 1))
    edge = draw(st.integers(1, R - 1))
    return source, R, draw(st.integers(0, 9)), k, lead, extra, seed, edge


def lazy_draw_tape(source, R, k, lead, extra, seed, edge):
    total = lead + k + extra
    if source == "seeded":
        return BitTape.from_seed(seed, total)
    bits = random.Random(seed).getrandbits(total)
    if source == "crafted":
        c = R.bit_length() + GUARD_BITS
        prefix = -(-(edge << k) // R) >> (k - c)
        rest = lead + c
        bits &= ~(((1 << c) - 1) << (total - rest))
        bits |= prefix << (total - rest)
    return BitTape(format(bits, f"0{total}b"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lazy_draws())
@example(("crafted", 3, 0, 1_679_618, 300, 0, 5, 1))
@example(("crafted", 3, 0, 2 + 64 + 256, 0, 0, 5, 1))  # the least k that skips
@example(("crafted", 1296, 0, 1_679_618, 0, 17, 5, 648))  # R/2: settles
@example(("seeded", 1296, 1, 1_679_618, 256, 0, 5, 1))
def test_a_lazy_draw_is_the_full_k_read(case):
    source, R, lo, k, lead, extra, seed, edge = case
    c = R.bit_length() + GUARD_BITS
    d = k - c
    tape = lazy_draw_tape(source, R, k, lead, extra, seed, edge)
    reference = lazy_draw_tape(source, R, k, lead, extra, seed, edge)
    tape.skip(lead)
    reference.skip(lead)
    blocks, reads = [], []
    real_take = BitTape.take

    def recording_take(self, n):
        reads.append(n)
        return real_take(self, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitsampler, "hashlib", counting_hashlib(blocks))
        mp.setattr(BitTape, "take", recording_take)
        out = draw_integer(tape, lo, lo + R - 1, k)
    assert out == full_read_draw(reference, lo, lo + R - 1, k)
    assert tape.cursor == reference.cursor == lead + k
    assert tape.take(extra) == reference.take(extra)
    if k < c + 256:
        assert reads == [k]  # too few bits past the leading ones to skip
        return
    settled = reads == [c]
    assert settled or reads == [c, d]
    if source == "crafted":
        # The prefix leaves the output open iff the edge lies strictly
        # inside the prefix's interval of r.
        edge_r = -(-(edge << k) // R)
        assert settled == (edge_r % (1 << d) == 0)
    if source == "seeded":
        read_end = lead + (c if settled else k)
        assert blocks == list(range(lead // 256, -(-read_end // 256)))


@st.composite
def partial_passes(draw):
    N = draw(st.integers(1, 40))
    k, m = draw(st.integers(1, 24)), draw(st.integers(0, N))
    return N, k, m, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(partial_passes())
def test_partial_fisher_yates_is_the_full_pass_prefix(case):
    N, k, m, seed = case
    extra = 5  # the cursor must stop at N*k, not at the end of the tape
    full = list_pop_fisher_yates(BitTape.from_seed(seed, N * k + extra), N, k)
    for tape in (
        BitTape.from_seed(seed, N * k + extra),
        BitTape(expansion(seed, N * k + extra)),
    ):
        assert fisher_yates(tape, N, k, m) == full[:m]
        assert tape.cursor == N * k
    assert fisher_yates(BitTape.from_seed(seed, N * k), N, k) == full


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text().filter(lambda s: s.strip("01")))
@example("1_0")
@example(" 10")
@example("10\n")
@example("+1")
@example("-1")
@example("0b1")
@example("1\u0661")  # ARABIC-INDIC DIGIT ONE, which int(s, 2) reads as 1
@example("\uff11")  # FULLWIDTH DIGIT ONE
def test_literal_tape_refuses_every_non_bit_string(text):
    with pytest.raises(ValueError):
        BitTape(text)


@settings(deadline=None, derandomize=True)
@given(st.text(alphabet="01"))
def test_literal_tape_accepts_every_bit_string(text):
    tape = BitTape(text)
    assert tape.total == len(text)
    half = len(text) // 2
    assert tape.take(half) == int(text[:half] or "0", 2)
    assert tape.take(0) == 0
    assert tape.take(len(text) - half) == int(text[half:] or "0", 2)


def test_from_seed_checks_its_arguments():
    for args in ((1, -5), (2**64, 8), (-1, 8), (1, 8, 2**64), (1, 8, -1)):
        with pytest.raises(ValueError):
            BitTape.from_seed(*args)
    assert BitTape.from_seed(2**64 - 1, 0, 2**64 - 1).remaining() == 0


def test_skip_has_the_bounds_check_of_take():
    tape = BitTape.from_seed(3, 10)
    with pytest.raises(ValueError):
        tape.skip(-1)
    with pytest.raises(TapeExhausted):
        tape.skip(11)
    assert tape.cursor == 0
    tape.skip(4)
    assert tape.take(6) == expand_seed_bits(3, 10) & 0b111111


def test_fisher_yates_refuses_more_entries_than_elements():
    with pytest.raises(ValueError):
        fisher_yates(BitTape.from_seed(1, 3 * 4), 3, 4, 4)
