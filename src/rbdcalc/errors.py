"""Exception types shared across the package.

Everything raised on purpose derives from RbdcalcError so callers can catch
one base class. Subclasses also inherit the closest builtin (ValueError etc.)
so sloppy call sites still behave sensibly.
"""


class RbdcalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RbdcalcError, ValueError):
    """A numeric argument is outside its documented domain (e.g. p < 2)."""


class ArityError(RbdcalcError, ValueError):
    """A class list has the wrong length for the requested configuration."""


class LatticeMismatchError(RbdcalcError, ValueError):
    """Vectors from different ambient lattices were combined."""


class PreconditionError(RbdcalcError, ValueError):
    """A documented precondition failed; the message names the inequality."""


class InputTypeError(RbdcalcError, TypeError):
    """A value has the wrong type, e.g. a float or a bool where an int belongs."""


class ConsistencyError(RbdcalcError, ArithmeticError):
    """An internal exactness check failed (singular matrix, non-integral value)."""


class TemplateError(RbdcalcError, ValueError):
    """A search template is structurally infeasible (e.g. chain does not fit)."""


class SearchCapExceeded(RbdcalcError, RuntimeError):
    """The estimated search space exceeds the cap.

    Carries the estimate and the cap so callers can report both.
    """

    def __init__(self, estimate: int, cap: int):
        self.estimate = estimate
        self.cap = cap
        # str() refuses ints past 4300 digits (CPython's conversion limit)
        bits = estimate.bit_length()
        size = estimate if bits <= 10_000 else f"at least 2^{bits - 1}"
        super().__init__(
            f"estimated search space {size} exceeds cap {cap}; "
            f"raise the cap or shrink the template bounds"
        )


class InvalidConfigurationError(RbdcalcError, ValueError):
    """Class data failed chain verification; carries the report."""

    def __init__(self, report):
        self.report = report
        v = report.violation
        detail = "no violation recorded" if v is None else (
            f"{v.kind} at classes {v.indices}: expected {v.expected}, got {v.actual}"
        )
        super().__init__(f"not a valid C_{report.p} configuration: {detail}")
