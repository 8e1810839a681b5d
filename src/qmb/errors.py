"""Exception types shared across the package."""


class QmbError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(QmbError, ValueError):
    """An argument to a library function is malformed or out of range."""


class NonHermitianInput(QmbError):
    """An operator expected to be Hermitian is not, beyond tolerance."""


class DerivativeNotTraceless(QmbError):
    """A density-matrix derivative has a nonzero trace beyond tolerance."""


class SingularState(QmbError):
    """The density matrix is rank deficient where full rank is required."""


class SingularQFIM(QmbError):
    """The quantum Fisher information matrix is singular or too ill-conditioned."""


class StepTooLarge(QmbError):
    """Finite-difference step failed the Richardson consistency check."""


class HierarchyViolation(QmbError):
    """Computed bounds violate the C_SLD <= C_H <= C_T <= C_R <= 2 C_SLD chain.

    This signals an implementation bug, not a physics outcome.
    """


class UnknownPreset(QmbError):
    """Requested figure preset name is not recognized."""


class InvalidSpec(QmbError):
    """A sweep specification is malformed."""
