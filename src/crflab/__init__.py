"""crflab: a numerical laboratory for Hermitian metric evolution.

Spectral tensor calculus on torus charts, closed-form model geometries,
a parabolic Monge-Ampere flow engine with maximum-principle monitors, an
elliptic Monge-Ampere solver, and maximal-existence-time arithmetic for
complex surfaces.
"""

__version__ = "0.1.0"

from .errors import (
    ChartMismatch,
    ClosednessViolated,
    CrflabError,
    DegenerateReference,
    FlagContradiction,
    InconsistentData,
    NonConvergence,
    NotPositiveDefinite,
    PositivityLost,
    PositivityUnreachable,
    StepUnderflow,
    UnsupportedIntegrand,
)
from .geometry import (
    HermitianMatrixField,
    HopfSampleSet,
    ScalarField,
    TorusChart,
    VolumeField,
    i_ddbar,
    min_eigenvalue,
)
from .tensors import (
    chern_ricci,
    verify_bianchi_vanishing,
    verify_schwarz_identity,
    verify_trace_evolution,
)

__all__ = [
    "ChartMismatch", "ClosednessViolated", "CrflabError", "DegenerateReference",
    "FlagContradiction", "InconsistentData", "NonConvergence", "NotPositiveDefinite",
    "PositivityLost", "PositivityUnreachable", "StepUnderflow", "UnsupportedIntegrand",
    "HermitianMatrixField", "HopfSampleSet", "ScalarField", "TorusChart", "VolumeField",
    "i_ddbar", "min_eigenvalue",
    "chern_ricci", "verify_bianchi_vanishing", "verify_schwarz_identity",
    "verify_trace_evolution",
]
