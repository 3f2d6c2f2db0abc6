"""Shared exception types.

Raised across the package; collected here so callers can catch them
without importing the module that produced them.
"""


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed a hard size cap (word length, exponent,
    matrix memory). The message names the cap."""


class BudgetExceeded(ResourceCapExceeded):
    """Estimated memory for a matrix build exceeds the configured budget."""


class NotACocycle(ValueError):
    """A sampled cocycle precheck failed; carries a witness triple."""

    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"cocycle law fails at {witness!r}: defect {value}")


class InvariantViolation(ValueError):
    """A structural law of a filtered complex fails in ``spectral``: d.d
    != 0, d leaving F^p, F^0 not spanning, the quotient action not
    composing, d_r escaping its cell."""


class CentralityViolation(ValueError):
    """An element required to be central is not; carries a witness."""

    def __init__(self, element, witness):
        self.element = element
        self.witness = witness
        super().__init__(
            f"element {element!r} fails to commute with {witness!r}"
        )


class KernelRelationViolation(ValueError):
    """The compatibility relation between two kernels fails on a witness."""

    def __init__(self, witness, lhs, rhs):
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"kernel relation fails at {witness!r}: {lhs!r} != {rhs!r}"
        )
