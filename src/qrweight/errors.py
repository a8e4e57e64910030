"""Exception types shared across the package.

A type exists only when some handler tells it apart from the others: the
CLI maps ``BudgetExceeded`` to exit 3 and every other ``QrWeightError`` to
exit 1, and its stage runner names the stage of any ``QrWeightError``
and prints the certificate of a ``SignUnresolved``. An
argument outside a function's domain is a ``ValueError`` (exit 2). Each
message names the check that fired; add a type only for a new handler.
"""


class QrWeightError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(QrWeightError):
    """A computed value broke an identity it must satisfy; the message names it."""


class BudgetExceeded(QrWeightError):
    """Requested enumeration exceeds the configured budget (use long_run to override)."""


class CheckFailure(QrWeightError):
    """Supplied inputs are incomplete, or disagree with each other or with a recomputation."""


class SignUnresolved(QrWeightError):
    """The congruence accepted both sign candidates for the top count, or neither;
    carries the certificate."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate
