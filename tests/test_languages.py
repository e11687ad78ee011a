import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from owflab.cli import main
from owflab.errors import BudgetError
from owflab.languages import (
    EMPTY,
    POWER_MAX_R,
    SIGMA_STAR,
    SQ,
    LanguageOracle,
    ceiling_violations,
    density_csv_rows,
    density_scan,
    intersect,
    power_jumps,
    power_oracle,
    upper_bound_holds,
)
from owflab.words import gn_of_integer, goedel_number, iroot, min_word


def density(oracle, x):
    """dens(x): the count at the end of a scan to x."""
    dens = 0
    for _, dens in density_scan(oracle, x):
        pass
    return dens


def scan_jumps(oracle, limit):
    """The x where a scan's dens steps up: its members' indices <= limit."""
    jumps, prev = [], 0
    for x, dens in density_scan(oracle, limit):
        if dens > prev:
            jumps.append(x)
        prev = dens
    return jumps


def density_report(capsys, oracle, ell):
    """Exit code and JSON report of ``owflab density``, which counts the
    points x >= x0 where a claimed bound fails."""
    code = main(["density", "--oracle", oracle, "--ell", str(ell), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def brute_density_of_values(pred, x):
    # Independent oracle: count values y >= 1 with gn(min_word(y)) <= x,
    # which is how minimal-form value languages scatter over the indices.
    return sum(1 for y in range(1, x + 1) if pred(y) and gn_of_integer(y) <= x)


def test_sq_member_examples():
    assert SQ.member(min_word(16))
    assert not SQ.member(min_word(15))
    assert not SQ.member("")  # value 0 is not a natural number here


def test_sq_member_rejects_padded_forms():
    # Only the minimal representation counts, else the sqrt ceiling breaks.
    assert SQ.member("100")
    assert not SQ.member("0100")
    assert not SQ.member("01")


def test_density_examples():
    assert density(SQ, 2) == 0  # smallest square y=1 sits at index 3
    assert density(SQ, 12) == 2  # y=1 (gn 3) and y=4 (gn 12)
    assert density(SQ, 25) == 3  # adds y=9 (gn 25)


def test_density_matches_value_enumeration():
    is_square = lambda y: iroot(y, 2)[1] == 0
    for x in (1, 2, 3, 11, 12, 13, 57, 100, 1000, 4095, 4096):
        assert density(SQ, x) == brute_density_of_values(is_square, x)


def test_density_budget():
    with pytest.raises(BudgetError, match="limited to x <= 10000000"):
        density(SQ, 10**7 + 1)


def test_density_is_monotone_and_at_most_x():
    rng = random.Random(7)
    for _ in range(5):
        bits = rng.getrandbits(64)
        member = lambda w, b=bits: bool(w) and (hash(w) ^ b) % 3 == 0
        oracle = LanguageOracle(member, 1, None, 1)
        prev = 0
        for x, dens in density_scan(oracle, 300):
            assert dens <= x
            assert dens >= prev
            prev = dens


def test_intersect_with_full_language_is_identity():
    both = intersect(SQ, SIGMA_STAR)
    merged = zip(density_scan(both, 10**4), density_scan(SQ, 10**4))
    assert all(a == b for a, b in merged)


def test_intersect_with_odd_words():
    odd = LanguageOracle(lambda w: bool(w) and w[-1] == "1", 1, None, 1)
    both = intersect(SQ, odd)
    # odd squares 1, 9, 25 sit at indices 3, 25, 57
    assert density(both, 57) == 3
    assert density(both, 56) == 2


def test_intersect_with_empty_language():
    both = intersect(SQ, EMPTY)
    assert density(both, 500) == 0


def test_intersect_never_increases_density():
    odd = LanguageOracle(lambda w: bool(w) and w[-1] == "1", 1, None, 1)
    both = intersect(SQ, odd)
    for x in range(1, 200):
        d = density(both, x)
        assert d <= density(SQ, x)
        assert d <= density(odd, x)


def test_sq_matches_isqrt_on_short_words():
    def is_square_word(w):
        # Minimal form (leading 1) of a square, by math.isqrt alone.
        return w[:1] == "1" and math.isqrt(int(w, 2)) ** 2 == int(w, 2)

    for length in range(0, 11):
        for v in range(2**length):
            w = format(v, f"0{length}b") if length else ""
            assert SQ.member(w) == is_square_word(w), w


def test_power_oracle_cubes():
    p3 = power_oracle(3)
    assert p3.member(min_word(27))
    assert not p3.member(min_word(26))
    assert p3.beta == 3
    with pytest.raises(ValueError):
        power_oracle(1)


def test_power_oracle_degree_is_bounded():
    top = power_oracle(POWER_MAX_R)
    assert top.member("1") and top.member(min_word(2**POWER_MAX_R))
    assert not top.member(min_word(2**POWER_MAX_R - 1))
    with pytest.raises(ValueError, match=f"2 <= r <= {POWER_MAX_R}"):
        power_oracle(POWER_MAX_R + 1)


def test_power_oracle_is_fast_and_exact_past_float_roots():
    # A root of 200 bits is far past a float's 53; the cost must follow the
    # bit length of the value, not the size of the root.
    x = (1 << 199) + 12345
    cube = power_oracle(3)
    start = time.perf_counter()
    assert cube.member(min_word(x**3))
    assert not cube.member(min_word(x**3 + 1))
    assert not cube.member(min_word(x**3 - 1))
    assert time.perf_counter() - start < 1.0
    # 3**700 is past the float range, where a float estimate overflows.
    assert iroot(3**699, 3)[1] == 0
    assert iroot(3**700, 3)[1] != 0
    assert iroot(3**700, 7)[1] == 0 and iroot(3**700, 350)[1] == 0


def test_density_report_names_the_oracle_it_ran(capsys):
    # power:2 runs the generic constants (d**2 = 1/20 from x0 = 20), not
    # those of sq, so its report must not call it sq.  A report names its
    # oracle as --oracle spelled it.
    assert power_oracle(2).d_pow_beta == Fraction(1, 20)
    assert power_oracle(2).x0 == 20
    for oracle in ("sq", "power:2", "cube"):
        code, report = density_report(capsys, oracle, 500)
        assert (code, report["oracle"]) == (0, oracle)


def test_power_oracle_density_band():
    p3 = power_oracle(3)
    dens = density(p3, 10**4)
    # 0.5 * (x/5)**(1/3) <= dens <= x**(1/3), checked exactly
    assert 40 * dens**3 >= 10**4
    assert dens**3 <= 10**4


def test_sq_bound_report_is_clean(capsys):
    # Both bounds on [x0, 20000]; the acceptance suite pushes the ceiling
    # check to 1e5.
    assert SQ.x0 == 16
    code, report = density_report(capsys, "sq", 20_000)
    assert (code, report["violations"]) == (0, 0)


def test_full_language_report_flags_upper_bound(capsys):
    code, report = density_report(capsys, "sigma-star", 100)
    # dens(x) = x exceeds sqrt(x) for every x >= 2; with d**beta = 1 the
    # lower bound x <= dens holds throughout, so these are all the failures.
    assert (code, report["violations"]) == (1, 99)
    over = [row for row in report["rows"] if row["dens"] ** 2 > row["x"]]
    assert [row["x"] for row in over] == list(range(2, 101))
    assert all(row["dens"] == row["x"] for row in over)


def test_csv_rows_shape():
    rows = list(density_csv_rows(SQ, 30))
    assert len(rows) == 30
    x, dens, lower, upper = rows[24]
    assert (x, dens) == (25, 3)
    assert lower == pytest.approx(0.3 * 25**0.5)
    assert upper == pytest.approx(5.0)


def test_calibration_scan_supports_the_stored_constants(capsys):
    # A stored d**beta at or below the minimum of dens(x)**beta / x over
    # [x0, ell] is the same fact as no lower-bound violation there, for the
    # square oracle and for a power oracle alike.
    for oracle in ("sq", "cube"):
        code, report = density_report(capsys, oracle, 20_000)
        assert (code, report["violations"]) == (0, 0), oracle


def test_oracle_d_property():
    assert SQ.d == pytest.approx(0.3)
    assert SQ.d_pow_beta == Fraction(9, 100)
    assert power_oracle(3).d == pytest.approx((1 / 40) ** (1 / 3))
    assert EMPTY.d is None


@pytest.mark.slow
@pytest.mark.parametrize(
    "oracle, r", [(power_oracle(2), 2), (power_oracle(3), 3), (SQ, 2)]
)
def test_power_jumps_are_where_the_scan_steps_up(oracle, r):
    assert list(power_jumps(r, 10**6)) == scan_jumps(oracle, 10**6)


def test_power_jumps_examples_and_degree_bound():
    assert list(power_jumps(2, 57)) == [3, 12, 25, 48, 57]  # 1, 4, 9, 16, 25
    assert list(power_jumps(3, 2)) == []
    assert list(power_jumps(POWER_MAX_R, 2**66)) == [3, 2**65 + 2**64]
    for r in (1, POWER_MAX_R + 1):
        with pytest.raises(ValueError, match=f"2 <= r <= {POWER_MAX_R}"):
            list(power_jumps(r, 10))


def test_gn_of_integer_increases():
    # The walk's order rests on this.
    prev = gn_of_integer(1)
    for v in range(2, 10**6 + 2):
        g = gn_of_integer(v)
        assert prev < g, v
        prev = g


@given(st.integers(min_value=1, max_value=2**200))
def test_gn_of_integer_increases_far_out(v):
    assert gn_of_integer(v) < gn_of_integer(v + 1)


def brute_ceiling_violations(oracle, limit):
    scan = density_scan(oracle, limit)
    return sum(not upper_bound_holds(x, dens) for x, dens in scan)


@pytest.mark.parametrize(
    "oracle, limit, violations",
    [(SIGMA_STAR, 10**4, 9999), (EMPTY, 10**4, 0), (SQ, 10**4, 0)],
)
def test_ceiling_violations_at_the_jumps(oracle, limit, violations):
    # dens(x) = x breaks the ceiling at every x >= 2: the step count must be
    # exact when it is not zero, not only tell zero from non-zero.
    assert ceiling_violations(scan_jumps(oracle, limit), limit) == violations
    assert brute_ceiling_violations(oracle, limit) == violations


def test_ceiling_violations_match_a_scan_on_random_languages():
    rng = random.Random(3)
    for p in (0.005, 0.02, 0.1, 0.5):
        members = {x for x in range(1, 3001) if rng.random() < p}
        oracle = LanguageOracle(lambda w, m=members: goedel_number(w) in m, 1, None, 1)
        for limit in (1, 2, 77, 3000):
            assert ceiling_violations(
                scan_jumps(oracle, limit), limit
            ) == brute_ceiling_violations(oracle, limit), (p, limit)
