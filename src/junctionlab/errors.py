"""Exception hierarchy shared across the library."""


class JunctionError(ValueError):
    """Base class for all domain errors raised by junctionlab."""


class NoJunctionError(JunctionError):
    """Doping profile has no metallurgical junction (N0 <= N_B)."""


class DegenerateJunctionError(JunctionError):
    """Built-in potential model undefined (N0 * N_B <= n_i^2)."""


class FlatBandError(JunctionError):
    """Forward bias at or beyond the built-in potential."""


class PunchThroughError(JunctionError):
    """Closed-form log argument non-positive at the requested bias.

    Carries the exclusive supremum of admissible reverse bias so callers
    can report the validity window.
    """

    def __init__(self, message, v_max_reverse=None):
        super().__init__(message)
        self.v_max_reverse = v_max_reverse


class EquilibriumInvalidError(PunchThroughError):
    """The closed form cannot represent this junction even unbiased."""


class UnreachablePotentialError(JunctionError):
    """Numerical solver: the moment integral is bounded below the target.

    ``supremum`` is the limiting potential the charge profile can support.
    """

    def __init__(self, message, supremum):
        super().__init__(message)
        self.supremum = supremum


class SurfaceReachedError(JunctionError):
    """Two-sided solve: the space charge region reached the surface (x = 0)."""


class StackExhaustedError(JunctionError):
    """One- or two-sided solve in a HeteroStack: the space charge region
    would extend past the last layer."""


class InsufficientDataError(JunctionError):
    """Fewer data points than the fit requires."""


class UnfittableDataError(JunctionError):
    """The fit found no valid model anywhere it searched: its objective
    ended at 1e12 or more, the penalty of a trial point with no junction."""


class CurveFormatError(JunctionError):
    """Malformed or invalid C-V data file.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
