"""Exception types shared across the package."""


class EpiswarmError(Exception):
    """Base class for all package-specific errors.

    ``step`` is the simulation step at which the error was raised, set by
    ``engine.simulate``; None when it arose outside a step.
    """

    step = None


class AllZeroWeights(EpiswarmError):
    """Raised when a weight vector has no positive entry to normalize."""


class NonFiniteWeight(EpiswarmError):
    """Raised when a weight vector contains NaN or infinity."""


class NonFiniteInput(EpiswarmError):
    """Raised when a scalar input is NaN or infinite."""


class SupportViolation(EpiswarmError):
    """Raised when absolute continuity fails (p > 0 where q = 0)."""


class ShapeMismatch(EpiswarmError):
    """Raised when vector/matrix dimensions are inconsistent."""


class InvariantViolation(EpiswarmError):
    """Raised when a runtime guard finds computed state breaking an invariant
    of the model (zero-sum aggregate utility, rating sums in the float range)."""


class IncompatibleObservation(EpiswarmError):
    """Raised when an observation payload does not match the model kind."""


class ZeroMassOnTruth(EpiswarmError):
    """Raised when a predictive distribution puts no mass on the true label."""


class NonMonotonicStep(EpiswarmError):
    """Raised when a ledger commit does not advance the step index."""


class LengthMismatch(EpiswarmError):
    """Raised when a ledger chain and a replayed state log disagree in length."""


class ScheduleViolation(EpiswarmError):
    """Raised when an async update schedule breaks the bounded-window invariant."""


class PopulationCollapse(EpiswarmError):
    """Raised when evolution would leave the population empty."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"population would be empty after step {step}")


class ConfigError(EpiswarmError):
    """Raised on invalid scenario configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
