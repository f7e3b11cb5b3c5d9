"""Exception hierarchy shared by all modules.

Configuration problems (bad shapes, malformed scenario files, violated
preconditions) and numerical rejections (leakage, divergence, singular
factors, non-convergence) live on separate branches so the command line
front end can map them to distinct exit codes.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ToolkitError):
    """Invalid input: bad shapes, malformed config, violated precondition."""


class NumericalError(ToolkitError):
    """A computation was rejected on numerical grounds."""


class DivergenceError(NumericalError):
    """Non-finite values appeared during integration.

    ``step`` is the first non-finite step; ``cell`` names the grid cell of
    the diverging path when the integration runs per path.
    """

    def __init__(self, message, step=None, cell=None):
        super().__init__(message)
        self.step = step
        self.cell = cell


class ConditioningError(NumericalError):
    """A matrix factor became too ill conditioned to invert reliably."""


class DomainEscapeError(NumericalError):
    """Too much mass left the truncation box for a grid operator row."""

    def __init__(self, message, cell=None, leakage=None):
        super().__init__(message)
        self.cell = cell
        self.leakage = leakage


class SupportError(NumericalError):
    """Relative entropy undefined: numerator has mass off the reference support."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NonConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EmptyStrategyError(NumericalError):
    """Every candidate gain was rejected by the admissibility filters."""


class TrajectoryEscapeError(NumericalError):
    """An orbit left the domain while accumulating a time average."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
