"""rieszcert: certified invertibility and Riesz-basis thresholds for
dilated function systems.

The package decides membership of polynomial coefficients in the
symmetrised polydisc (by two independent oracles), certifies
invertibility of multiplicative-shift operators through their scalar
symbols, and solves the explicit threshold equations for the dilated
Weierstrass family and for stationary states of the cubic Schrodinger
well, with finite-section singular values as a numerical cross-check.
"""

from .certificate import Certificate, TOOL_VERSION as __version__
from .errors import (BracketFailure, DimensionMismatch, InvalidBeta,
                     ModulusOutOfRange, NonConvergence, NotInG2,
                     NotInPolydisc, PoleAtZ, RankDeficiency, RieszcertError)

__all__ = [
    "Certificate",
    "RieszcertError", "NonConvergence", "InvalidBeta", "DimensionMismatch",
    "PoleAtZ", "NotInPolydisc", "NotInG2", "RankDeficiency",
    "ModulusOutOfRange", "BracketFailure",
    "__version__",
]
