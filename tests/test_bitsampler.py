import hashlib
import math
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
    return BiasProfile(k, range_size, counts, probs, max_dev, bound, max_dev <= bound)


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
    assert expand_seed_bits(1, 256) == expected
    assert expand_seed_bits(1, 40) == expected[:40]
    # a different stream decorrelates
    assert expand_seed_bits(1, 40, stream=1) != expected[:40]
    with pytest.raises(ValueError):
        expand_seed_bits(2**64, 8)


def test_bias_profile_example():
    bp = bias_profile(3, 3)
    assert bp.counts == (3, 3, 2)
    assert bp.probabilities == (Fraction(3, 8), Fraction(3, 8), Fraction(2, 8))
    assert bp.max_deviation == Fraction(1, 12)
    assert bp.bound == Fraction(1, 4)
    assert bp.within_bound


def test_bias_profile_power_of_two_ranges_are_exact():
    for k, r in ((4, 2), (6, 8), (10, 16)):
        assert bias_profile(k, r).max_deviation == 0


def test_bias_profile_k10_range3():
    assert bias_profile(10, 3).max_deviation <= Fraction(1, 2**9)


def test_bias_profile_budget():
    with pytest.raises(BudgetError):
        bias_profile(25, 3)


def test_bias_profile_matches_the_fraction_reference():
    # C5's whole grid, the budget's k = 24, and ranges of one, above 2**k and
    # that are powers of two.
    pairs = [(k, r) for k in range(2, 21) for r in range(2, 65)]
    pairs += [(24, r) for r in (3, 7, 64, 1000, 4099)]
    pairs += [(1, 1), (1, 3), (3, 1), (2, 100)]
    for k, r in pairs:
        fast, slow = bias_profile(k, r), fraction_bias_profile(k, r)
        assert fast == slow, (k, r)
        assert [type(field) for field in fast] == [type(field) for field in slow]
        assert {type(p) for p in fast.probabilities} == {Fraction}


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
    assert dist.min_probability >= Fraction(343, 3072)  # (1 - 1/8)**3 / 3!


def test_permutation_floor_paper_k():
    for N in (2, 3, 4, 5):
        dist = permutation_distribution(N, paper_k(N))
        assert dist.bound_applies
        assert dist.within_bound
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
    with pytest.raises(BudgetError):
        permutation_distribution(7, 10)
    with pytest.raises(BudgetError):
        permutation_distribution(3, 100)


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


def list_pop_fisher_yates(tape, N, k):
    """The full-pass reference: every draw made, survivors kept in a list."""
    items = list(range(1, N + 1))
    return tuple(items.pop(draw_integer(tape, 0, N - j - 1, k)) for j in range(N))


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
    full = expand_seed_bits(seed, total, stream)
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
    real = hashlib.sha256

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            blocks.append(int.from_bytes(data[16:], "big"))
            return real(data)

    monkeypatch.setattr(bitsampler, "hashlib", CountingHashlib)
    N, k = 1296, 75
    fisher_yates(BitTape.from_seed(1, N * k), N, k)
    assert blocks == list(range(-(-N * k // 256)))  # 380, each once, in order


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
        BitTape(expand_seed_bits(seed, N * k + extra)),
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
    assert tape.take(6) == int(expand_seed_bits(3, 10)[4:], 2)


def test_fisher_yates_refuses_more_entries_than_elements():
    with pytest.raises(ValueError):
        fisher_yates(BitTape.from_seed(1, 3 * 4), 3, 4, 4)
