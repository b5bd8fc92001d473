"""Exception hierarchy shared by all qtherm modules."""


class QThermError(Exception):
    """Base class for all toolkit errors."""


class DimMismatch(QThermError):
    """Operands live on Hilbert spaces of incompatible dimension."""


class NotHermitian(QThermError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class InvalidState(QThermError):
    """A density matrix violates trace/positivity invariants."""


class InvalidSubsystem(QThermError):
    """A subsystem index is out of range for the composite space."""


class InvalidParams(QThermError, ValueError):
    """Physical parameters violate an operation's preconditions.

    Also a ``ValueError``, so callers that catch that keep working.
    """


class InvalidConfig(QThermError, ValueError):
    """An experiment config fails validation.

    Carries ``diagnostics``: one line per problem found.
    """

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class NumericalInstability(QThermError):
    """A numerically evolved state violates positivity beyond tolerance."""


class DegenerateSteadyState(QThermError):
    """The generator kernel is not one-dimensional.

    Carries ``kernel_basis``: a list of (non-normalized) kernel matrices
    for diagnosis.
    """

    def __init__(self, message, kernel_basis=None):
        super().__init__(message)
        self.kernel_basis = kernel_basis or []


class NoCoupling(QThermError):
    """All bath rates vanish; no dissipative channel exists."""


class TruncationTooSmall(QThermError):
    """Sideband truncation misses too much spectral weight."""


class CutoffTooSmall(QThermError):
    """A Fock-space cutoff leaves non-negligible population in the tail."""


class TooLarge(QThermError):
    """Requested Hilbert-space dimension exceeds the dense-solver budget."""


class DegenerateSpectrum(QThermError):
    """An instantaneous spectrum has a gap below tolerance."""


class SingularState(QThermError):
    """A state eigenvalue below floor carries nonzero derivative coupling."""


class InvalidPOVM(QThermError):
    """POVM elements do not sum to the identity."""


class NullNotBracketed(QThermError):
    """The swept observable does not change sign on the grid."""


class UnclassifiableState(QThermError):
    """Heat-current/power signs match no operating mode (numerics bug)."""


class InconsistentTrajectory(QThermError):
    """A trajectory moved a finite Bures distance with zero energy spread."""


class TargetUnreached(QThermError):
    """A charging trace never reaches the requested target energy."""


class UndefinedFraction(QThermError):
    """Extractable fraction is undefined for non-positive stored energy."""


class TrapInversionWarning(UserWarning):
    """A frequency schedule passes through omega^2 < 0 (inverted trap)."""
