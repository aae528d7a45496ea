"""Exception types shared across the package."""


class CrflabError(Exception):
    """Base class for all crflab failures."""


class ChartMismatch(CrflabError, ValueError):
    """Two fields that must share a chart do not (a bad input value)."""


class NotPositiveDefinite(CrflabError):
    """A metric field has a non-positive eigenvalue where positivity is required."""


class ClosednessViolated(CrflabError):
    """A form that must be d-closed has a closedness residual above tolerance."""


class PositivityUnreachable(CrflabError):
    """No positive reference family exists for the requested horizon."""


class PositivityLost(CrflabError):
    """The evolving metric dropped below the eigenvalue floor (approach to the
    maximal existence time)."""


class StepUnderflow(CrflabError):
    """Adaptive time step shrank below the hard floor."""


class DegenerateReference(CrflabError):
    """The normalized flow has no positive limiting reference form on this chart."""


class NonConvergence(CrflabError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class InconsistentData(CrflabError):
    """Surface intersection data is invalid at t = 0."""


class FlagContradiction(CrflabError):
    """User-supplied classification flags contradict the supplied divisor data."""


class UnsupportedIntegrand(CrflabError):
    """Requested integrand is not one of the supported (2,2)-forms."""
