"""Exception types shared across the package."""


class RieszcertError(Exception):
    """Base class for all package-specific failures."""


class NonConvergence(RieszcertError):
    """An iterative scheme failed to converge within its iteration cap."""


class InverseOverflow(RieszcertError):
    """An inverse has entries past the float range."""


class InvalidBeta(RieszcertError):
    """A contraction parameter lies on or outside the unit circle."""


class DimensionMismatch(RieszcertError):
    """Operands have incompatible dimensions."""


class PoleAtZ(RieszcertError):
    """Evaluation point coincides with a pole of a rational function."""


class NotInPolydisc(RieszcertError):
    """Coefficients fall outside the symmetrised polydisc."""


class NotInG2(NotInPolydisc):
    """A real coefficient pair (a, b) is not in the d=2 symmetrised polydisc."""


class RankDeficiency(RieszcertError):
    """A Gramian match failed beyond tolerance during isometry extension."""


class ModulusOutOfRange(RieszcertError):
    """Elliptic modulus outside [0, 1)."""


class BracketFailure(RieszcertError):
    """A bisection bracket does not straddle a sign change."""
