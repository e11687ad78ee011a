"""Padded machine encoding, a step-budgeted simulator, and the toy diagonal
language.

Encoding convention
-------------------
Only the most significant ceil(log2(len(w))) bits of a word form its header;
everything after the header is padding that the decoder never reads, so all
words of equal length with the same header define the same machine.  Inside
the header, the maximal run of leading 1-bits plus the following 0 is
stripped, and the remainder is the machine code.

The code format is fixed-width:

    [4 bits]  S = number of programmable working states (0..14; 15 invalid)
    then S*3 transition entries of 7 bits each, one entry per
    (working state, read symbol) pair with symbols ordered 0, 1, blank:

    [4 bits next state] [2 bits write symbol] [1 bit move]

State 0 is the accepting halt state and state 1 the rejecting one; working
states are numbered 2..S+1 and the machine starts in state 2 (or accepts
immediately when S = 0).  Write symbols: 00 -> 0, 01 -> 1, 10 -> blank,
11 invalid.  Move: 0 -> left, 1 -> right.  A code is valid only if its
length is exactly 4 + 21*S and every field is in range; any truncated,
overflowing, or out-of-range parse decodes to the canonical machine that
instantly rejects its input.  This makes decoding a total function.

The simulator runs a machine directly on its input word (one tape, head on
the leftmost input cell, blanks elsewhere).  Halting in the start state is
reported as one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import BudgetError, InvariantViolation
from .words import Word

ACCEPT = 0
REJECT = 1

SYMBOL_0 = 0
SYMBOL_1 = 1
BLANK = 2

MOVE_RIGHT = 1

MAX_WORKING_STATES = 14  # total states S + 2 <= 16
_ENTRY_BITS = 7
_COUNT_BITS = 4

DIAGONAL_LENGTH_GUARD = 20  # T(20) ~ 1e6 steps
CENSUS_LENGTH_GUARD = 14


class Transition(NamedTuple):
    next_state: int
    write: int
    move: int


@dataclass(frozen=True)
class TMSpec:
    """Deterministic single-tape machine over {0, 1, blank}.

    ``rows[i][sym]`` is the transition of working state 2+i on symbol sym.
    """

    n_work: int
    rows: tuple[tuple[Transition, Transition, Transition], ...]
    start_state: int


CANONICAL_REJECT = TMSpec(n_work=0, rows=(), start_state=REJECT)


@dataclass(frozen=True)
class PaddedProgram:
    source: Word
    header: Word
    code: Word | None  # None when the header had no valid code
    spec: TMSpec


class SimResult(NamedTuple):
    outcome: str  # "accept" | "reject" | "timeout"
    steps: int


def header_length(length: int) -> int:
    """ceil(log2(length)) for length >= 1."""
    if length < 1:
        raise ValueError("words under this encoding have length >= 1")
    return (length - 1).bit_length()


def parse_code(code: Word) -> TMSpec | None:
    """Parse a code under the fixed-width format; None when invalid."""
    if len(code) < _COUNT_BITS:
        return None
    n_work = int(code[:_COUNT_BITS], 2)
    if n_work > MAX_WORKING_STATES:
        return None
    if len(code) != _COUNT_BITS + _ENTRY_BITS * 3 * n_work:
        return None
    rows = []
    pos = _COUNT_BITS
    for _ in range(n_work):
        row = []
        for _sym in (SYMBOL_0, SYMBOL_1, BLANK):
            entry = code[pos : pos + _ENTRY_BITS]
            pos += _ENTRY_BITS
            next_state = int(entry[:4], 2)
            write = int(entry[4:6], 2)
            move = int(entry[6], 2)
            if next_state >= n_work + 2 or write > BLANK:
                return None
            row.append(Transition(next_state, write, move))
        rows.append(tuple(row))
    start = 2 if n_work else ACCEPT
    return TMSpec(n_work=n_work, rows=tuple(rows), start_state=start)


def decode_program(w: Word) -> PaddedProgram:
    """Decode a word: header = top ceil(log2 len) bits, strip 1*0, parse.

    Total by construction: invalid material yields the canonical reject
    machine, so every word denotes some machine.
    """
    header = w[: header_length(len(w))]
    zero_at = header.find("0")
    if zero_at < 0:  # all ones, or the empty header at length 1
        return PaddedProgram(w, header, None, CANONICAL_REJECT)
    code = header[zero_at + 1 :]
    spec = parse_code(code)
    if spec is None:
        return PaddedProgram(w, header, None, CANONICAL_REJECT)
    return PaddedProgram(w, header, code, spec)


def encode_spec(spec: TMSpec) -> Word:
    """Inverse of parse_code for specs that follow the start convention."""
    expected_start = 2 if spec.n_work else ACCEPT
    if spec.start_state != expected_start:
        raise ValueError("spec's start state is not expressible in the code format")
    if spec.n_work > MAX_WORKING_STATES:
        raise ValueError("too many working states for the 4-bit count field")
    parts = [format(spec.n_work, "04b")]
    for row in spec.rows:
        for tr in row:
            parts.append(f"{tr.next_state:04b}{tr.write:02b}{tr.move:01b}")
    return "".join(parts)


def embed_code(code: Word, length: int) -> Word:
    """Build a length-``length`` word whose header carries ``code``.

    The header becomes 1**k 0 code with k chosen to fill the header exactly;
    the suffix is zero padding that decoding ignores.
    """
    h = header_length(length)
    k = h - 1 - len(code)
    if k < 0:
        raise ValueError(
            f"code of {len(code)} bits needs a header of >= {len(code) + 1} "
            f"bits; words of length {length} have {h}-bit headers"
        )
    header = "1" * k + "0" + code
    return header + "0" * (length - h)


def simulate(spec: TMSpec, input_word: Word, budget: int) -> SimResult:
    """Run ``spec`` on the input for at most ``budget`` transitions.

    Halting without having moved is reported as one step, so the canonical
    reject machine yields ("reject", 1) under any budget >= 1.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    tape: dict[int, int] = {
        i: (SYMBOL_1 if c == "1" else SYMBOL_0) for i, c in enumerate(input_word)
    }
    state = spec.start_state
    head = 0
    steps = 0
    rows = spec.rows
    while True:
        if state == ACCEPT:
            return SimResult("accept", max(1, steps))
        if state == REJECT:
            return SimResult("reject", max(1, steps))
        if steps >= budget:
            return SimResult("timeout", steps)
        symbol = tape.get(head, BLANK)
        next_state, write, move = rows[state - 2][symbol]
        tape[head] = write
        head += 1 if move == MOVE_RIGHT else -1
        state = next_state
        steps += 1


def diagonal_member(w: Word) -> bool:
    """Membership in the toy diagonal language: the machine encoded by ``w``
    halts and rejects ``w`` within T(len(w)) = 2**len(w) steps."""
    length = len(w)
    if length < 1:
        raise ValueError("diagonal membership needs a nonempty word")
    if length > DIAGONAL_LENGTH_GUARD:
        raise BudgetError(
            f"length {length} exceeds the toy-scale guard "
            f"{DIAGONAL_LENGTH_GUARD} (T grows as 2**length)"
        )
    spec = decode_program(w).spec
    outcome, _ = simulate(spec, w, 2**length)
    return outcome == "reject"


def diagonal_census(length: int) -> int:
    """|L_D intersected with {0,1}**length| by exhaustive simulation."""
    if length > CENSUS_LENGTH_GUARD:
        raise BudgetError(f"census guard is length <= {CENSUS_LENGTH_GUARD}")
    count = 0
    for v in range(2**length):
        w = format(v, f"0{length}b")
        if diagonal_member(w):
            count += 1
    return count


def equivalent_encoding_count(length: int) -> int:
    """Number of length-``length`` words sharing a given header:
    2**(length - ceil(log2 length)), which is always >= 2**(length - log2(length) - 1)."""
    h = header_length(length)
    count = 2 ** (length - h)
    # 2**(l-h) >= 2**(l - log2(l) - 1)  <=>  h <= log2(l) + 1  <=>  2**h <= 2*l
    if 2**h > 2 * length:
        raise InvariantViolation(f"header length {h} exceeds log2({length}) + 1")
    return count


def census_csv_rows(max_length: int) -> Iterator[tuple[int, int, int]]:
    """Rows (length, diagonal count, header class count)."""
    for length in range(1, max_length + 1):
        yield (
            length,
            diagonal_census(length),
            2 ** header_length(length),
        )
