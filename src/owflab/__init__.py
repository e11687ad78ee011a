"""owflab: a verification laboratory for a threshold-sampling one-way-function
construction.

The package decomposes the construction into small, exactly testable pieces:

- ``words``       bit strings, binary valuation, and the Goedel bijection
- ``languages``   decidable language oracles and exact density functions
- ``turing``      padded machine codes, a step-budgeted simulator, and the
                  toy diagonal language
- ``reduction``   the order-preserving block reduction into the squares
- ``threshold``   exact urn hit probabilities, the threshold m*, and its
                  closed-form bounds
- ``bitsampler``  deterministic uniform selection from a finite bit tape
- ``owf``         threshold sampling, the bit-encoding evaluator, and the
                  binary-search inversion demo
- ``acceptance``  the quantitative acceptance suite run by the CLI and tests
- ``report``      the one report renderer, for every command's CSV or JSON

Everything probabilistic is driven by explicit bit tapes so that every run is
reproducible from a 64-bit seed.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    acceptance,
    bitsampler,
    languages,
    owf,
    reduction,
    report,
    threshold,
    turing,
    words,
)
