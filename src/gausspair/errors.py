"""Exception hierarchy shared by all gausspair modules."""


class GausspairError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(GausspairError):
    """Matrix inversion requested for a (numerically) singular matrix."""


class DimensionMismatchError(GausspairError):
    """Operands have incompatible dimensions."""


class NotAStateError(GausspairError):
    """The given moments do not define a valid Gaussian kernel (C is not positive definite)."""


class NotPositiveError(GausspairError):
    """Operation requires a positive Gaussian operator."""


class NotPureError(GausspairError):
    """Operation requires a pure Gaussian state."""


class NotRealBranchError(GausspairError):
    """Operation requires a real (zero-phase) anomalous moment."""


class NotPRepresentableError(GausspairError):
    """Conversion to the P form requested for a kernel that is not P-representable."""


class CutoffTooSmallError(GausspairError):
    """Fock-space truncation loses too much trace weight at the requested cutoff."""


class WrongModeCountError(GausspairError):
    """Operation is only defined for a different number of modes."""
