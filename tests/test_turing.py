import random

import pytest

from owflab.errors import BudgetError
from owflab.turing import (
    ACCEPT,
    CANONICAL_REJECT,
    TMSpec,
    Transition,
    decode_program,
    diagonal_census,
    diagonal_member,
    embed_code,
    encode_spec,
    equivalent_encoding_count,
    header_length,
    parse_code,
    simulate,
)

# The machine a code with no working states denotes: it accepts at once.
ACCEPT_IMMEDIATELY = TMSpec(n_work=0, rows=(), start_state=ACCEPT)

# One working state that scans right forever, writing back what it reads.
RIGHT_SCANNER = TMSpec(
    n_work=1,
    rows=(
        (Transition(2, 0, 1), Transition(2, 1, 1), Transition(2, 2, 1)),
    ),
    start_state=2,
)


def test_header_length():
    assert header_length(1) == 0
    assert header_length(2) == 1
    assert header_length(4) == 2
    assert header_length(5) == 3
    assert header_length(8) == 3
    assert header_length(2**25 + 1) == 26


def test_all_zero_words_decode_to_reject():
    for length in (1, 4, 8, 16):
        prog = decode_program("0" * length)
        assert prog.spec == CANONICAL_REJECT


def test_all_one_words_decode_to_reject():
    # no 0 terminates the 1-run, so there is no code at all
    prog = decode_program("1" * 8)
    assert prog.code is None
    assert prog.spec == CANONICAL_REJECT


def test_padding_invariance():
    rng = random.Random(20260809)
    for length in (8, 12, 16):
        h = header_length(length)
        for _ in range(1000):
            w = format(rng.getrandbits(length), f"0{length}b")
            spec = decode_program(w).spec
            pos = rng.randrange(h, length)
            flipped = w[:pos] + ("1" if w[pos] == "0" else "0") + w[pos + 1 :]
            assert decode_program(flipped).spec == spec


def test_hand_assembled_accept_machine():
    w = embed_code("0000", 32)
    prog = decode_program(w)
    assert prog.code == "0000"
    assert prog.spec == ACCEPT_IMMEDIATELY
    assert simulate(prog.spec, w, 10) == ("accept", 1)


def test_parse_code_rejects_bad_material():
    assert parse_code("000") is None  # truncated count field
    assert parse_code("1111") is None  # 15 working states would exceed 16 total
    assert parse_code("0001") is None  # truncated transition table
    assert parse_code("0000" + "0") is None  # overflowing bits after the table
    # write field 11 is invalid
    assert parse_code("0001" + "0010111" * 3) is None
    # next state beyond the declared range
    assert parse_code("0001" + "0100001" * 3) is None


def test_scanner_round_trip_and_simulation():
    code = encode_spec(RIGHT_SCANNER)
    assert len(code) == 4 + 21
    assert parse_code(code) == RIGHT_SCANNER
    assert simulate(RIGHT_SCANNER, "111", 2) == ("timeout", 2)
    assert simulate(RIGHT_SCANNER, "111", 1000) == ("timeout", 1000)


def test_scanner_embeds_in_a_long_word():
    # A 25-bit code needs a 26-bit header, i.e. words longer than 2**25.
    code = encode_spec(RIGHT_SCANNER)
    w = embed_code(code, 2**25 + 1)
    prog = decode_program(w)
    assert prog.spec == RIGHT_SCANNER
    with pytest.raises(ValueError):
        embed_code(code, 1024)


def test_simulate_immediate_halts():
    assert simulate(CANONICAL_REJECT, "0101", 10) == ("reject", 1)
    assert simulate(ACCEPT_IMMEDIATELY, "0101", 10) == ("accept", 1)


def test_simulate_is_deterministic():
    runs = {simulate(RIGHT_SCANNER, "10110", 17) for _ in range(5)}
    assert len(runs) == 1


def test_simulate_budget_validation():
    with pytest.raises(ValueError):
        simulate(CANONICAL_REJECT, "0", 0)


def test_diagonal_membership():
    # 0**8 decodes to the reject machine, which rejects itself in one step.
    assert diagonal_member("0" * 8)
    # At length 20 the 5-bit header 00000 parses as the accept machine.
    assert decode_program("0" * 20).spec == ACCEPT_IMMEDIATELY
    assert not diagonal_member("0" * 20)
    with pytest.raises(BudgetError):
        diagonal_member("0" * 21)


def test_diagonal_census_frozen_values():
    assert diagonal_census(4) == 16
    assert diagonal_census(6) == 64
    assert diagonal_census(8) == 256
    with pytest.raises(BudgetError):
        diagonal_census(15)


def test_diagonal_self_defeat():
    # Membership must equal "the decoded machine halts and rejects w", by
    # independent re-simulation within T(length) = 2**length steps, for every
    # word up to length 12.
    for length in range(1, 13):
        budget = 2**length
        for v in range(2**length):
            w = format(v, f"0{length}b")
            outcome, _ = simulate(decode_program(w).spec, w, budget)
            assert diagonal_member(w) == (outcome == "reject")


def test_equivalent_encoding_count():
    assert equivalent_encoding_count(8) == 32
    assert equivalent_encoding_count(8) >= 16
    assert equivalent_encoding_count(2) == 2
    # ceil(log2 1) = 0: both length-1 words share the empty header.
    assert equivalent_encoding_count(1) == 2


def test_header_classes_partition_exhaustively():
    for length in (1, 2, 4, 8):
        h = header_length(length)
        classes = {}
        for v in range(2**length):
            w = format(v, f"0{length}b")
            classes.setdefault(w[:h], []).append(w)
        assert len(classes) == 2**h
        expected = equivalent_encoding_count(length)
        assert all(len(members) == expected for members in classes.values())
        # identical header implies identical decoded spec
        for members in classes.values():
            specs = {decode_program(w).spec for w in members}
            assert len(specs) == 1
