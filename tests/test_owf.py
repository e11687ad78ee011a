import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from owflab import owf
from owflab.bitsampler import BitTape, expand_seed_bits, profile_k
from owflab.errors import (
    DegenerateParameters,
    InvariantViolation,
    TapeExhausted,
)
from owflab.languages import EMPTY, SIGMA_STAR, SQ, density_scan, power_oracle
from owflab.owf import (
    InstanceSet,
    _check_monotone,
    binary_search_invert,
    compute_n,
    hit_test,
    owf_evaluate,
    ptsamp,
    round_consumption,
    sampling_error_experiment,
)
from owflab.threshold import hit_probability, sampler_params
from owflab.words import goedel_inverse

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_compute_n_examples():
    assert compute_n(4, 1) == 1  # 1 + 2 + 1
    assert compute_n(73, 1) == 1
    assert compute_n(74, 1) == 2  # 64 + 8 + 2
    assert compute_n(2**12 + 2 * 2**4 + 2, 2) == 2
    with pytest.raises(ValueError):
        compute_n(3, 1)


def test_round_consumption_paper_profile():
    params = sampler_params(2, 1, alpha=8)  # N = 4
    assert round_consumption(0, params, "paper") == 4 * 18
    assert round_consumption(1, params, "paper") == 4 * 18 + 2 * 6


def test_ptsamp_frozen_traces():
    params = sampler_params(2, 2, alpha=8)  # N = 16, m = 1
    need = round_consumption(1, params, "paper")
    w1, tape = ptsamp(1, 2, BitTape.from_seed(7, need, stream=0), params, "paper")
    assert w1.members == (12,)
    assert w1.urn_bound == 16
    assert tape.cursor == need == 4140

    need0 = round_consumption(0, params, "paper")
    w0, tape = ptsamp(0, 2, BitTape.from_seed(7, need0, stream=1), params, "paper")
    assert w0.members == (9,)
    assert tape.cursor == need0


def test_ptsamp_branches_have_equal_cardinality():
    params = sampler_params(3, 2, alpha=8)
    sizes = set()
    for b in (0, 1):
        need = round_consumption(b, params, "practical")
        w, _ = ptsamp(b, 3, BitTape.from_seed(5, need, stream=b), params, "practical")
        sizes.add((len(w.members), w.urn_bound))
    assert len(sizes) == 1


def test_ptsamp_validates_inputs():
    params = sampler_params(2, 2, alpha=8)
    with pytest.raises(ValueError):
        ptsamp(2, 2, BitTape("1"), params)
    with pytest.raises(ValueError):
        ptsamp(0, 3, BitTape("1"), params)
    with pytest.raises(TapeExhausted):
        ptsamp(0, 2, BitTape("101"), params)
    forced = dataclasses.replace(params, m=3)  # m > n: b=1 cannot deliver
    need = round_consumption(1, forced, "paper")
    with pytest.raises(DegenerateParameters):
        ptsamp(1, 2, BitTape.from_seed(1, need), forced, "paper")


def test_instance_set_validation():
    with pytest.raises(InvariantViolation):
        InstanceSet((3, 3), 16)
    with pytest.raises(InvariantViolation):
        InstanceSet((0,), 16)


def test_instance_set_validation_survives_optimize():
    # python -O strips assert statements; the invariant must still raise.
    script = (
        "from owflab.errors import InvariantViolation\n"
        "from owflab.owf import InstanceSet\n"
        "assert False  # stripped under -O, so this line must not stop the run\n"
        "try:\n"
        "    InstanceSet((3, 3), 16)\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_owf_smallest_feasible_input():
    out = owf_evaluate("1000000", 1, "paper", alpha=8)
    assert out.n == 1
    assert [s.members for s in out.sets] == [(1,)]
    assert out.bits_consumed == 6


def test_owf_frozen_vector():
    w = format(expand_seed_bits(99, 600), "0600b")
    assert w[:2] == "01"
    out = owf_evaluate(w, 1, "paper", alpha=8)
    assert [s.members for s in out.sets] == [(4,), (3,)]
    assert out.bits_consumed == 156  # 72 for b=0 plus 84 for b=1
    assert out.params.N == 4 and out.params.m == 1


def test_owf_evaluate_is_the_same_from_a_cold_and_a_warm_cache():
    calls = [
        (format(expand_seed_bits(99, 600), "0600b"), 1, "paper", 8),
        ("1" + format(expand_seed_bits(4, 19_999), "019999b"), 2, "paper", 8),
        (format(expand_seed_bits(5, 3000), "03000b"), 1, "practical", 8),
        (format(expand_seed_bits(6, 5000), "05000b"), 3, "practical", None),
    ]

    def evaluate_all():
        return [owf_evaluate(w, beta, profile, alpha) for w, beta, profile, alpha in calls]

    sampler_params.cache_clear()
    owf._round.cache_clear()
    cold = evaluate_all()
    assert evaluate_all() == cold
    assert owf._round.cache_info().hits > 0
    sampler_params.cache_clear()
    owf._round.cache_clear()
    assert evaluate_all() == cold


def test_owf_equal_lengths_give_equal_shapes():
    rng = random.Random(17)
    shapes = set()
    for _ in range(50):
        w = format(rng.getrandbits(600), "0600b")
        out = owf_evaluate(w, 1, "paper", alpha=8)
        shapes.add(
            (out.n, tuple(len(s.members) for s in out.sets), out.sets[0].urn_bound)
        )
    assert shapes == {(2, (1, 1), 4)}


def test_owf_tape_accounting():
    # bits_consumed is exactly the sum of the per-round costs of the actual
    # payload bits, and each round starts where the previous one stopped.
    w = format(expand_seed_bits(123, 600), "0600b")
    out = owf_evaluate(w, 1, "paper", alpha=8)
    expected = sum(
        round_consumption(int(c), out.params, "paper") for c in w[: out.n]
    )
    assert out.bits_consumed == expected


def test_owf_tape_bits_never_change_shape():
    w = format(expand_seed_bits(3, 600), "0600b")
    out1 = owf_evaluate(w, 1, "paper", alpha=8)
    flipped = w[:300] + ("1" if w[300] == "0" else "0") + w[301:]
    out2 = owf_evaluate(flipped, 1, "paper", alpha=8)
    assert out1.n == out2.n
    assert out1.params == out2.params


# (beta, n) -> an interval of input lengths ell with compute_n(ell, beta) == n.
N_BANDS = {
    (1, 2): (74, 749),
    (1, 3): (750, 4131),
    (1, 4): (4132, 15679),
    (2, 2): (4130, 10**6),
}


@settings(max_examples=60, deadline=None)
@given(
    band=st.sampled_from(sorted(N_BANDS)),
    k_profile=st.sampled_from(["paper", "practical"]),
    payload=st.integers(0, 15),
    slack=st.integers(0, 400),
    seed=st.integers(0, 2**64 - 1),
)
def test_owf_bits_consumed_is_the_input_need(band, k_profile, payload, slack, seed):
    beta, n = band
    lo, hi = N_BANDS[band]
    N = n ** (2 * beta)
    cost0 = N * profile_k(k_profile, N)
    cost1 = cost0 + n * profile_k(k_profile, n)
    payload %= 2**n
    weight = bin(payload).count("1")
    need = n * cost0 + weight * (cost1 - cost0)
    ell = max(lo, n + need) + slack
    assume(ell <= hi)
    w = format(payload, f"0{n}b") + format(expand_seed_bits(seed, ell - n), f"0{ell - n}b")
    out = owf_evaluate(w, beta, k_profile, alpha=8)
    assert (out.n, out.bits_consumed) == (n, need)


@pytest.mark.parametrize(
    "w, need",
    [("0" * 74, 2 * 72), ("1" + "0" * 73, 72 + 84)],  # the n = 2 band's lower edge
    ids=["weight-0", "weight-1"],
)
def test_owf_refuses_an_infeasible_input_before_any_round(monkeypatch, w, need):
    calls = []
    monkeypatch.setattr(owf, "ptsamp", lambda *args: calls.append(args))
    with pytest.raises(TapeExhausted, match=f"needs {need} tape bits, the input has 72$"):
        owf_evaluate(w, 1, "paper", alpha=8)
    assert calls == []


def test_owf_refuses_non_bit_words():
    # Payload and tape alike must be bits; a payload "2" is not a 0 bit.
    tape = format(expand_seed_bits(5, 598), "0598b")
    assert owf_evaluate("10" + tape, 1, "paper", alpha=8).n == 2
    for w in ("22" + tape, "1 " + tape, "10" + tape[:-1] + "2"):
        with pytest.raises(ValueError, match="a tape is a string over 0/1"):
            owf_evaluate(w, 1, "paper", alpha=8)


def _raised(f, *args, **kwargs):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    ell=st.integers(4, 3000),
    beta=st.sampled_from([1, 2]),
    k_profile=st.sampled_from(["paper", "practical"]),
)
def test_owf_reads_a_seeded_tape_as_its_spelled_out_word(
    seed, stream, ell, beta, k_profile
):
    # A seeded tape is never spelled out, but must evaluate as its word
    # does: the same OwfOutput, or the same refusal.
    tape = BitTape.from_seed(seed, ell, stream=stream)
    word = format(expand_seed_bits(seed, ell, stream=stream), f"0{ell}b")
    assert _raised(owf_evaluate, tape, beta, k_profile, alpha=8) == _raised(
        owf_evaluate, word, beta, k_profile, alpha=8
    )


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "literal"])
def test_owf_reads_a_partly_read_tape_from_its_cursor(seeded):
    # The input is the tape's unread bits; bits_consumed counts from the
    # cursor the evaluation found.
    bits = format(expand_seed_bits(99, 631), "0631b")
    tape = BitTape.from_seed(99, 631) if seeded else BitTape(bits)
    tape.take(20)
    tape.skip(11)
    out = owf_evaluate(tape, 1, "paper", alpha=8)
    assert out == owf_evaluate(bits[31:], 1, "paper", alpha=8)
    assert tape.cursor == 31 + out.n + out.bits_consumed


def test_owf_refuses_a_short_tape_from_its_cursor():
    tape = BitTape.from_seed(1, 600)
    tape.skip(597)
    with pytest.raises(ValueError, match="length >= 4"):
        owf_evaluate(tape, 1, "paper", alpha=8)


@pytest.mark.parametrize(
    "ell, beta, k_profile, alpha, error",
    [
        # n = 3 and m = 4: the b=1 branch cannot draw m of n.  Seed 1's
        # payload opens with a 0 bit, so a b=0 round could run first.
        (4 * 10**8, 3, "practical", 100, DegenerateParameters),
        (100, 1, "paper", 8, TapeExhausted),
    ],
    ids=["b1-infeasible", "tape-exhausted"],
)
def test_owf_refuses_before_any_round(ell, beta, k_profile, alpha, error):
    # Either refusal leaves the cursor just past the n payload bits.
    tape = BitTape.from_seed(1, ell)
    with pytest.raises(error):
        owf_evaluate(tape, beta, k_profile, alpha)
    assert tape.cursor == compute_n(ell, beta)


def test_owf_runs_a_b1_infeasible_cell_on_an_all_zero_payload():
    # Seed 15's payload is 000, so only b=0 rounds run and m > n is no bar.
    out = owf_evaluate(BitTape.from_seed(15, 4 * 10**8), 3, "practical", 100)
    assert (out.n, out.params.m, out.params.b1_feasible) == (3, 4, False)
    assert [len(s.members) for s in out.sets] == [4, 4, 4]


def _per_trial_experiment(n, beta, oracle, trials, seed, *, alpha, k_profile):
    """sampling_error_experiment as one loop that prices each trial's
    thinned urn on its own: the reference for the priced-once table."""
    params = sampler_params(n, beta, alpha)
    N, m = params.N, params.m
    good_positions = frozenset(
        i for i in range(1, N + 1) if oracle.member(goedel_inverse(i))
    )
    exact0 = hit_probability(N, len(good_positions), m)
    need0 = round_consumption(0, params, k_profile)
    need1 = round_consumption(1, params, k_profile)
    hits0 = misses1 = 0
    exact1_sum = Fraction(0)
    exact1_var = 0.0
    for t in range(trials):
        tape0 = BitTape.from_seed(seed, need0, stream=2 * t)
        w0, _ = owf._ptsamp_traced(0, n, tape0, params, k_profile)
        if not good_positions.isdisjoint(w0.members):
            hits0 += 1
        tape1 = BitTape.from_seed(seed, need1, stream=2 * t + 1)
        w1, urn1 = owf._ptsamp_traced(1, n, tape1, params, k_profile)
        if good_positions.isdisjoint(w1.members):
            misses1 += 1
        g_t = sum(1 for i in urn1 if i in good_positions)
        p_t = 1 - hit_probability(n, g_t, m)
        exact1_sum += p_t
        exact1_var += float(p_t) * float(1 - p_t)
    p0 = float(exact0)
    miss0, miss1 = hits0 / trials, misses1 / trials
    return owf.BijectivityReport(
        n=n,
        beta=beta,
        trials=trials,
        k_profile=k_profile,
        miss0=miss0,
        miss1=miss1,
        exact0=p0,
        exact1=float(exact1_sum) / trials,
        z0=owf._z_score(hits0, trials * p0, trials * p0 * (1 - p0)),
        z1=owf._z_score(misses1, exact1_sum, exact1_var),
        criterion_value=miss0 + miss1,
        m=m,
        N=N,
        good_count=len(good_positions),
    )


@pytest.mark.parametrize("k_profile", ["paper", "practical"])
@pytest.mark.parametrize(
    "n, oracle",
    [(2, power_oracle(2)), (4, power_oracle(2)), (6, power_oracle(2)),
     (4, EMPTY), (4, SIGMA_STAR)],
    ids=["n2", "n4", "n6", "empty", "sigma-star"],
)
def test_experiment_matches_the_per_trial_loop(n, oracle, k_profile):
    # EMPTY and SIGMA_STAR make every variance 0, the z-score's other branch.
    args = (n, 2, oracle, 1000, 31 + n)
    kwargs = dict(alpha=8, k_profile=k_profile)
    assert (
        sampling_error_experiment(*args, **kwargs).to_json_dict()
        == _per_trial_experiment(*args, **kwargs).to_json_dict()
    )


def test_hit_test_examples():
    assert hit_test(InstanceSet((3,), 16), SQ)  # index 3 is the word "1"
    assert not hit_test(InstanceSet((2,), 16), SQ)  # index 2 is "0", value 0
    assert not hit_test(InstanceSet((), 16), SQ)


def test_oracle_good_count_matches_density():
    # urn positions 1..N whose word is a member: squares 1 and 4 sit at
    # indices 3 and 12
    assert list(density_scan(SQ, 16))[-1] == (16, 2)
    assert list(density_scan(power_oracle(2), 256))[-1] == (256, 11)


def test_experiment_requires_enough_trials():
    with pytest.raises(ValueError):
        sampling_error_experiment(2, 2, SQ, 999, 1)


def test_experiment_refuses_an_infeasible_cell_before_any_work():
    # n=4, beta=3 gives m=7 > n=4: the b=1 branch cannot run, and the
    # refusal comes before the membership scan of the urn.
    def member(word):
        raise AssertionError("member called")

    oracle = dataclasses.replace(SQ, member=member)
    message = "m=7 exceeds the thinned urn size n=4"
    with pytest.raises(DegenerateParameters, match=message):
        sampling_error_experiment(4, 3, oracle, 1000, 1)


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_criterion_value_has_expectation_one(n):
    # The b=1 branch's thinned urn holds g good elements with probability
    # Hyp(g; N, good, n); averaged over g, its exact miss probability is the
    # b=0 branch's 1 - Pr(Q_m), so E[miss0 + miss1] = 1 (Vandermonde).
    params = sampler_params(n, 2, alpha=8)
    N, m = params.N, params.m
    member = power_oracle(2).member
    good = sum(member(goedel_inverse(i)) for i in range(1, N + 1))
    expected_miss1 = sum(
        Fraction(math.comb(good, g) * math.comb(N - good, n - g), math.comb(N, n))
        * (1 - hit_probability(n, g, m))
        for g in range(min(good, n) + 1)
    )
    assert expected_miss1 == 1 - hit_probability(N, good, m)


def test_experiment_report_consistency():
    rep = sampling_error_experiment(
        2, 2, power_oracle(2), 1000, 424242, alpha=8, k_profile="practical"
    )
    assert rep.N == 16 and rep.m == 1 and rep.good_count == 2
    assert rep.exact0 == pytest.approx(2 / 16)
    assert rep.criterion_value == rep.miss0 + rep.miss1
    assert abs(rep.z0) <= 5 and abs(rep.z1) <= 5
    payload = rep.to_json_dict()
    assert payload["params"]["N"] == 16
    assert list(payload) == [
        "params", "miss0", "miss1", "exact0", "exact1", "z0", "z1",
        "criterion_value",
    ]


def test_experiment_is_seed_deterministic():
    a = sampling_error_experiment(2, 2, SQ, 1000, 77, alpha=8)
    b = sampling_error_experiment(2, 2, SQ, 1000, 77, alpha=8)
    assert a == b


def test_e_ell_trend_nondecreasing_within_ci():
    # The correct-mapping rate e_ell = 1 - criterion_value / 2 concentrates
    # at 1/2 for every n, since the criterion value has expectation 1, so
    # the trend must be flat-or-rising beyond CI noise:
    # e_ell_b >= e_ell_a - (ca + cb), that is c_b <= c_a + 2 * (ca + cb).
    reps = [
        sampling_error_experiment(n, 2, power_oracle(2), 2000, 1000 + n, alpha=8)
        for n in (2, 3, 4)
    ]
    cis = [4 * math.sqrt(0.25 / r.trials) for r in reps]
    for (a, b), (ca, cb) in zip(zip(reps, reps[1:]), zip(cis, cis[1:])):
        assert b.criterion_value <= a.criterion_value + 2 * (ca + cb)


@pytest.mark.parametrize("oracle", [EMPTY, SIGMA_STAR])
def test_experiment_z_scores_are_zero_at_zero_variance(oracle):
    # With no member, or every word a member, each branch's outcome is
    # certain: exact0 is 0 or 1, every exact1 term is 1 or 0, and a z-score
    # of an outcome that matched its certain expectation is 0.
    rep = sampling_error_experiment(2, 2, oracle, 1000, 5, alpha=8)
    assert rep.exact0 in (0.0, 1.0) and rep.exact1 == 1.0 - rep.exact0
    assert rep.miss0 == rep.exact0 and rep.miss1 == rep.exact1
    assert rep.z0 == rep.z1 == 0.0


def test_z_score_is_infinite_when_a_certain_outcome_fails():
    assert owf._z_score(3, 2, 0.0) == math.inf


def test_binary_search_invert_examples():
    def square_decider(y, upper):
        root = math.isqrt(y)
        return root * root == y and root <= upper

    res = binary_search_invert(49, square_decider, 100)
    assert res.preimage == 7
    assert res.queries <= 8  # ceil(log2 100) + 1

    res = binary_search_invert(50, square_decider, 100)
    assert res.preimage is None
    assert res.queries == 1

    res = binary_search_invert(64, lambda y, upper: y <= upper, 64)
    assert res.preimage == 64


def test_binary_search_query_bound():
    rng = random.Random(6)
    bound = 10**12
    cap = math.ceil(math.log2(bound)) + 1

    def decider(y, upper):
        root = math.isqrt(y)
        return root * root == y and root <= upper

    for _ in range(200):
        x = rng.randrange(1, 10**6)
        res = binary_search_invert(x * x, decider, bound)
        assert res.preimage == x
        assert res.queries <= cap


def test_monotone_consistency_guard():
    # The guard checks the search's own invariant: the largest bound answered
    # no lies below the smallest bound answered yes.
    _check_monotone(5, 10)  # consistent
    with pytest.raises(InvariantViolation, match="yes at 10 but no at 50"):
        _check_monotone(50, 10)
    # Bisection asks only between its last no and its last yes, so it never
    # records a yes below a no, and a decider that is monotone along the
    # probed path gives the minimal admissible bound.
    res = binary_search_invert(1, lambda y, upper: upper >= 30, 100)
    assert res.preimage == 30


def test_non_monotone_decider_gets_the_bisection_answer():
    # Yes at every even bound, no at every odd one: bisection asks 100 (yes),
    # 50 (yes), 25 (no), 38 (yes), 32 (yes), 29 (no) and 31 (no).
    res = binary_search_invert(7, lambda y, upper: upper % 2 == 0, 100)
    assert res == (32, 7)


def rescanning_check_monotone(answers):
    """The reference guard: rescan every recorded answer for a yes below a no."""
    largest_false = max((b for b, a in answers.items() if not a), default=None)
    smallest_true = min((b for b, a in answers.items() if a), default=None)
    if (
        largest_false is not None
        and smallest_true is not None
        and largest_false > smallest_true
    ):
        raise InvariantViolation(
            f"decider answered yes at {smallest_true} but no at {largest_false}"
        )


def reference_invert(y, decider, n_bound):
    """The reference bisection: every answer recorded in a dict and the
    whole dict rescanned after each decider call."""
    answers = {}

    def ask(bound):
        if bound in answers:
            return answers[bound]
        ans = bool(decider(y, bound))
        answers[bound] = ans
        rescanning_check_monotone(answers)
        return ans

    if not ask(n_bound):
        return None, len(answers)
    lo, hi = 1, n_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if ask(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, len(answers)


def random_decider(rng, n_bound, monotone):
    """A decider with a random cut in [1, n_bound + 1] (the top cut answers no
    everywhere), or one that answers each bound by a random bit."""
    cut, salt = rng.randrange(1, n_bound + 2), rng.getrandbits(64)

    def decider(y, upper):
        if monotone:
            return upper >= cut
        return random.Random(salt ^ upper).getrandbits(1)

    return decider


def test_binary_search_invert_matches_the_rescanning_reference():
    rng = random.Random(12)
    for trial in range(3000):
        n_bound = rng.choice((1, 2, 3, rng.randrange(1, 100), rng.randrange(1, 10**12)))
        decider = random_decider(rng, n_bound, monotone=trial % 2 == 0)
        res = binary_search_invert(0, decider, n_bound)
        assert (res.preimage, res.queries) == reference_invert(0, decider, n_bound)
