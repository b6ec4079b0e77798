"""Typed exceptions shared across the library."""


class LogConnectError(Exception):
    """Base class for all library errors."""


class SingularMatrix(LogConnectError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class ResonantSpectrum(LogConnectError):
    """Sylvester operands share spectrum within tolerance."""


class DimensionMismatch(LogConnectError):
    """Operands have incompatible dimensions."""


class NonConstantResidue(LogConnectError):
    """Residue varies along a divisor branch beyond tolerance."""


class UnsupportedBranch(LogConnectError):
    """Pullback requested along a branch not of the form x = 0."""


class ResonantResidue(LogConnectError):
    """Normalization residue has an eigenvalue pair differing by a positive integer."""


class NonIntegrable(LogConnectError):
    """Reconstructed trace-free system fails the flatness check."""


class PoleProximity(LogConnectError):
    """Transport path too close to the polar divisor."""


class ToleranceNotMet(LogConnectError):
    """Adaptive integration could not reach the requested accuracy."""


class DegenerateConfiguration(LogConnectError):
    """Loop corridor construction hit a (near-)collinear pole configuration."""


class NotProjectivelyCommuting(LogConnectError):
    """A pair of projective classes has a nontrivial projective commutator."""


class NonDiagonalizableFamily(LogConnectError):
    """Commuting lifts are not simultaneously diagonalizable within tolerance."""


class OrderOverflow(LogConnectError):
    """Eigenvalue ratio looks like a root of unity of order above the search bound."""


class NonAbelianUnsupported(LogConnectError):
    """Presentation generators do not commute pairwise; realization unsupported."""


class SchemaViolation(LogConnectError):
    """Input document failed validation.

    ``pointer`` is a JSON pointer to the offending field.
    """

    def __init__(self, pointer, message):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")
