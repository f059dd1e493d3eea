"""Exception types shared across the package."""


class ThetaQuarticError(Exception):
    """Base class for all package-specific errors."""


class InvalidTauError(ThetaQuarticError, ValueError):
    """The given matrix is not an admissible period matrix."""


class TruncationError(ThetaQuarticError):
    """The requested tail bound cannot be met within the lattice point cap."""


class SpecialLocusError(ThetaQuarticError):
    """An even theta constant vanishes (hyperelliptic or decomposable

    period matrix); the coefficient formulas divide by it, so the
    pipeline refuses to proceed.
    """

    def __init__(self, message, vanishing=()):
        super().__init__(message)
        self.vanishing = tuple(vanishing)


class SingularSystemError(ThetaQuarticError):
    """A linear system required by the reconstruction is singular."""


class DegenerateCurveError(ThetaQuarticError):
    """The quartic is degenerate for the requested operation

    (zero polynomial, or a line entirely contained in the curve).
    """
