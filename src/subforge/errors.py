"""Exception types shared across the package.

Input validation failures subclass InputError; a certificate whose claimed
inequality fails numerical re-checking raises CertificateViolation.  The CLI
maps InputError to exit code 2, CertificateViolation / BoundViolation to exit
code 3, and every other SubforgeError (a solver that did not converge) to 4.
"""


class SubforgeError(Exception):
    """Base class for all package-specific errors."""


class InputError(SubforgeError, ValueError):
    """A precondition on user-supplied data failed."""


class DegreeTooSmall(InputError):
    pass


class BarrierNotRightOfRoots(InputError):
    pass


class NonPositivePhi(InputError):
    pass


class DerivativeOrderTooLarge(InputError):
    pass


class BarrierNotRightOfOne(InputError):
    pass


class CRangeError(InputError):
    pass


class DegenerateProfile(InputError):
    pass


class KOutOfRange(InputError):
    pass


class NotHermitian(InputError):
    pass


class SizeTooLarge(InputError):
    pass


class SpectrumOutOfRange(InputError):
    pass


class NotPositiveContraction(InputError):
    pass


class DeltaRange(InputError):
    pass


class ZeroOperator(InputError):
    pass


class DegenerateHull(InputError):
    pass


class FormatError(InputError):
    """Unparseable or structurally invalid input file."""


class ConvergenceFailure(SubforgeError):
    """An iterative eigenvalue computation did not converge."""


class RootConvergenceFailure(SubforgeError):
    """The simultaneous root iteration exhausted its sweep budget."""


class OracleFailure(SubforgeError):
    """A reference oracle could not certify its own consistency."""


class BoundViolation(SubforgeError):
    """A theorem-backed inequality failed numerical verification."""


class CertificateViolation(BoundViolation):
    """A selection certificate's achieved value violates its bound."""
