"""Exception hierarchy shared across the package."""


class QrWeightError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(QrWeightError):
    """A structural self-check failed; the message names the check."""


class BudgetExceeded(QrWeightError):
    """Requested enumeration exceeds the configured budget (use long_run to override)."""


class CheckFailure(QrWeightError):
    """A verification stage found a mismatch between two independent routes."""


# bit-packed linear algebra
class RankDeficient(QrWeightError):
    """Matrix rows are linearly dependent where full rank is required."""


class NotHalfRate(QrWeightError):
    """Matrix is not k x 2k."""


# QR code construction
class NotQrPrime(QrWeightError):
    """p is not a prime congruent to +-1 mod 8."""


class BothZero(QrWeightError):
    """gcd of two zero polynomials is undefined."""


class ClassificationFailed(QrWeightError):
    """Candidate generator degrees did not split two against two."""


# Moebius maps and permutations
class BadDeterminant(QrWeightError):
    """ad - bc is not 1 mod p."""


class SearchExhausted(QrWeightError):
    """No group element of the required order was found."""


# congruence assembly
class LengthMismatch(QrWeightError):
    """Permutation degree differs from the code length."""


class NotCoprime(QrWeightError):
    """Residue moduli are not pairwise coprime."""


class WrongModulusProduct(QrWeightError):
    """Product of the prime-power moduli is not the group order."""


# combination enumeration
class RankOutOfRange(QrWeightError):
    """Rank is outside [0, C(s, t))."""


class ShardOverlap(QrWeightError):
    """Two fragments claim the same shard index."""


class ShardGap(QrWeightError):
    """Merged fragments do not cover every shard of the plan."""


# polynomial reconstruction
class MissingTerm(QrWeightError):
    """A required weight-distribution entry was not supplied."""


class NonIntegerCoefficient(QrWeightError):
    """An exact integer division failed; the input enumerator is invalid."""


class HullNotZero(QrWeightError):
    """The expurgated code's hull is not zero-dimensional; sign method inapplicable."""


class BothRejected(QrWeightError):
    """Congruence rejected both sign candidates; carries the certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BothAccepted(QrWeightError):
    """Congruence accepted both sign candidates; carries the certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BadSum(QrWeightError):
    """Distribution does not sum to 2^k."""
