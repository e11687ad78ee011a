"""Acceptance gate: every quantitative criterion at its stated scale and
tolerance, one pass/fail line each (run with -s to watch them stream)."""

import pytest

from owflab import languages
from owflab.acceptance import CRITERIA, VerifyConfig, run_criterion

CONFIG = VerifyConfig(seed=1, trials=10_000, k_profile="practical")


# The details of the criteria that do not depend on the seed.
DETAILS = {
    "C1": "131072 indices and all words of length <= 16; 0 failures",
    "C2": (
        "dens_sq <= floor(sqrt(x)) on [1, 1e5]: 0 violations; "
        "gn(y)/y in [1, 5] on [1, 1e6]: 0 violations"
    ),
    "C3": "79797 (N, good) pairs with N in [4, 400]: 0 sandwich violations",
    "C4": (
        "118610 exact inequality checks over N in [10, 200], theta in {1, 2, 4}: "
        "0 violations"
    ),
    "C5": (
        "1197 (k, range) pairs, k in [2, 20], range in [2, 64]: "
        "0 deviations above 2**(-k+1)"
    ),
    "C6": (
        "every draw sequence at N in {2..5}, k = N**2+2 meets the "
        "(1-2**-N)**N / N! floor; failures at N = none"
    ),
    "C9": "exhaustive census {4: 16, 6: 64, 8: 256} vs frozen {4: 16, 6: 64, 8: 256}",
    "C12": (
        "8190 words of length <= 12 under phi: 0 images off the squares, "
        "0 order breaks; L_D transfer at 256 minimal and 127 zero-padded "
        "thresholds <= 2**12: 0 violations, image count ahead at 127"
    ),
}


@pytest.mark.parametrize("ident", [c.ident for c in CRITERIA])
def test_criterion(ident):
    result = run_criterion(ident, CONFIG)
    print(result.line())
    assert result.passed, result.detail
    if ident in DETAILS:
        assert result.detail == DETAILS[ident]
    assert result.elapsed <= result.limit, (
        f"{ident} exceeded its wall-clock budget: "
        f"{result.elapsed:.1f}s > {result.limit:.0f}s"
    )


@pytest.mark.parametrize("dropped", [12, 4073])  # gn(2**2) and gn(45**2)
def test_c2_fails_when_the_square_walk_misses_the_scan(monkeypatch, dropped):
    walk = languages.power_jumps

    def lossy_walk(r, limit):
        return (g for g in walk(r, limit) if g != dropped)

    monkeypatch.setattr(languages, "power_jumps", lossy_walk)
    result = run_criterion("C2", CONFIG)
    assert not result.passed
    assert result.detail == (
        f"{DETAILS['C2']}; square walk and density scan differ first at x = {dropped}"
    )
