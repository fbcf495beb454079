"""Exception types shared across the workbench."""


class CarrierMismatch(ValueError):
    """Two operands disagree about which carrier an index lives in."""


class BudgetError(RuntimeError):
    """A bounded construction would exceed its explicit cap.

    Raised instead of truncating: a silently clipped carrier would make
    downstream verdicts meaningless.
    """


class TheoremInconsistencyError(AssertionError):
    """A cross-check that is guaranteed by a proved statement failed.

    Distinct from an ordinary law violation: seeing this means the kernel
    itself (or the surrounding construction) is broken, not the input.
    """

