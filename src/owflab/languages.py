"""Decidable language oracles and exact density functions.

A language oracle is a membership test over words and a claimed density
shape: dens(x) is the number of member words whose Goedel number is at most
x, and the claim is d * x**(1/beta) <= dens(x) <= sqrt(x) for x >= x0.  An
oracle carries no name; the CLI's ``--oracle`` table names it, and a report
writes the spelling that ran.  The r-th power oracles, with SQ the square
one, accept only the minimal binary representation of a value (leading 1);
counting padded variants such as "0100" as well would break the sqrt(x)
ceiling that the density argument rests on.  SIGMA_STAR and EMPTY are the
full and the empty language.

Lower-bound constants are carried as the exact rational d**beta so that every
bound check is an integer comparison (d itself is typically irrational for
power oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator

from .errors import BudgetError
from .words import Word, goedel_inverse, iroot, word_value

ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class LanguageOracle:
    """Membership predicate plus claimed density exponent and constants.

    ``member`` must be deterministic and side-effect free.  ``d_pow_beta`` is
    d**beta as an exact fraction, or None when no lower-bound constant is
    claimed (e.g. for intersections); ``x0`` is the cutoff from which the
    lower bound is asserted.
    """

    member: Callable[[Word], bool]
    beta: int
    d_pow_beta: Fraction | None
    x0: int

    @property
    def d(self) -> float | None:
        """Lower-bound constant as a float, for display only."""
        if self.d_pow_beta is None:
            return None
        return float(self.d_pow_beta) ** (1.0 / self.beta)


def power_oracle(r: int) -> LanguageOracle:
    """Oracle for minimal-form r-th powers, with beta = r.

    Members are the minimal binary forms of x**r for x >= 1, so the empty
    word (value 0) and padded forms such as "0100" are not members.  The
    density of r-th powers up to Goedel number x is at least
    floor((x/5)**(1/r)) because gn(y) <= 5y, which stays above
    (1/2) * (x/5)**(1/r) once x >= 5 * 2**r; hence d**r = 1/(5 * 2**r).
    """
    if r < 2:
        raise ValueError("power oracles need r >= 2")

    def member(w: Word) -> bool:
        return w[:1] == "1" and iroot(word_value(w), r)[1] == 0

    return LanguageOracle(
        member=member,
        beta=r,
        d_pow_beta=Fraction(1, 5 * 2**r),
        x0=5 * 2**r,
    )


# The square oracle keeps the (slightly stronger) constants fixed by a
# calibration scan: d = 3/10 from x0 = 16 onwards.
SQ = replace(power_oracle(2), d_pow_beta=Fraction(9, 100), x0=16)

# The full language, where dens(x) = x, and the empty one.
SIGMA_STAR = LanguageOracle(member=lambda w: True, beta=1, d_pow_beta=Fraction(1), x0=1)
EMPTY = LanguageOracle(member=lambda w: False, beta=1, d_pow_beta=None, x0=1)


def intersect(l1: LanguageOracle, l2: LanguageOracle) -> LanguageOracle:
    """Conjunction oracle.  The result's density never exceeds either input's
    density at any point; no lower-bound constant is claimed for it."""
    m1, m2 = l1.member, l2.member
    return LanguageOracle(
        member=lambda w: m1(w) and m2(w),
        beta=max(l1.beta, l2.beta),
        d_pow_beta=None,
        x0=max(l1.x0, l2.x0),
    )


def density_scan(oracle: LanguageOracle, limit: int) -> Iterator[tuple[int, int]]:
    """Yield (x, dens(x)) for x = 1..limit by enumerating Goedel inverses."""
    if limit > ENUMERATION_BUDGET:
        raise BudgetError(
            f"density enumeration is limited to x <= {ENUMERATION_BUDGET}"
        )
    count = 0
    member = oracle.member
    for x in range(1, limit + 1):
        if member(goedel_inverse(x)):
            count += 1
        yield x, count


def lower_bound_holds(oracle: LanguageOracle, x: int, dens: int) -> bool:
    """Exact check of d * x**(1/beta) <= dens via d**beta * x <= dens**beta."""
    if oracle.d_pow_beta is None:
        return True
    dpb = oracle.d_pow_beta
    return dpb.numerator * x <= dens**oracle.beta * dpb.denominator


def upper_bound_holds(x: int, dens: int) -> bool:
    """Exact check of dens <= sqrt(x)."""
    return dens * dens <= x


def density_csv_rows(
    oracle: LanguageOracle, limit: int
) -> Iterator[tuple[int, int, float, float]]:
    """Rows (x, dens, d * x**(1/beta), sqrt(x)) for table export."""
    d = oracle.d
    for x, dens in density_scan(oracle, limit):
        lower = d * x ** (1.0 / oracle.beta) if d is not None else 0.0
        yield x, dens, lower, math.sqrt(x)
