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

For an r-th power oracle dens is a step function: its jumps are the Goedel
indices gn(y**r), y = 1, 2, ..., which ``power_jumps`` walks in increasing
order.  Since sqrt(x) grows and dens is constant between jumps, dens = j on
[g_j, g_{j+1}) and the ceiling fails there exactly for x < j**2, so
``ceiling_violations`` counts the failures on [1, X] step by step.
verify-all's C2 checks the squares to 10**5 in 185 such steps and
cross-checks the walk against ``density_scan`` on [1, 2**12].
``density_scan`` is the generic enumeration for any oracle, and
``owflab density`` runs it through ``density_csv_rows``, whose table stops
at DENSITY_TABLE_LIMIT.

Lower-bound constants are carried as the exact rational d**beta so that every
bound check is an integer comparison (d itself is typically irrational for
power oracles).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import BudgetError
from .words import Word, gn_of_integer, goedel_inverse, iroot, word_value

ENUMERATION_BUDGET = 10_000_000
# owflab density holds every row of its table, so the table stops well short
# of the scan's budget; a JSON report makes each row's object as it writes it
# and peaks as CSV does (see the README's bounds).
DENSITY_TABLE_LIMIT = 200_000
# A member test builds 2**r.  Below 2**64, beyond any word a scan or an urn
# reaches, no r-th power but 1 exists for r >= 64, so a larger r adds only cost.
POWER_MAX_R = 64


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


def _check_degree(r: int) -> None:
    if not 2 <= r <= POWER_MAX_R:
        raise ValueError(f"power oracles need 2 <= r <= {POWER_MAX_R}")


def power_oracle(r: int) -> LanguageOracle:
    """Oracle for minimal-form r-th powers, with beta = r.

    Members are the minimal binary forms of x**r for x >= 1, so the empty
    word (value 0) and padded forms such as "0100" are not members.  The
    density of r-th powers up to Goedel number x is at least
    floor((x/5)**(1/r)) because gn(y) <= 5y, which stays above
    (1/2) * (x/5)**(1/r) once x >= 5 * 2**r; hence d**r = 1/(5 * 2**r).
    """
    _check_degree(r)

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


def power_jumps(r: int, limit: int) -> Iterator[int]:
    """Yield the Goedel indices <= limit of ``power_oracle(r)``'s members,
    gn(y**r) for y = 1, 2, ...; they increase with y, so these are the
    jumps of dens in order."""
    _check_degree(r)
    y = 1
    while (g := gn_of_integer(y**r)) <= limit:
        yield g
        y += 1


def ceiling_violations(jumps: Iterable[int], limit: int) -> int:
    """Count the x in [1, limit] with dens(x) > sqrt(x), where ``jumps`` are
    the increasing member indices <= limit: dens = j on [g_j, g_{j+1}), and
    there the ceiling fails exactly for x < j**2."""
    steps = itertools.pairwise(itertools.chain(jumps, (limit + 1,)))
    return sum(
        max(0, min(end, j * j) - start) for j, (start, end) in enumerate(steps, 1)
    )


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
    """Rows (x, dens, d * x**(1/beta), sqrt(x)) for table export.  A limit
    past DENSITY_TABLE_LIMIT is refused before the first row."""
    if limit > DENSITY_TABLE_LIMIT:
        raise BudgetError(f"the density table is limited to x <= {DENSITY_TABLE_LIMIT}")
    d = oracle.d
    for x, dens in density_scan(oracle, limit):
        lower = d * x ** (1.0 / oracle.beta) if d is not None else 0.0
        yield x, dens, lower, math.sqrt(x)
