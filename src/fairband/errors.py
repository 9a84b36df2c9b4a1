"""Exception hierarchy shared by all fairband modules."""


class FairbandError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(FairbandError):
    """A scenario, spec or parameter fails validation before any run starts."""


class InvariantViolation(FairbandError):
    """A runtime invariant was breached mid-run.

    Carries the step index and a description of the violated invariant so a
    failing run can be diagnosed without re-running.
    """

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class AdmissionError(FairbandError):
    """A joining application cannot be admitted (no seed bandwidth available)."""


class ConvergenceError(FairbandError):
    """An iterative solver did not converge."""
