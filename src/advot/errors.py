"""Exception types shared by every module."""


class AdvotError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdvotError):
    """Input data violates a structural invariant."""


class DuplicateEdge(ValidationError):
    """The edge list contains the same (source, target) pair twice."""


class DanglingEdge(ValidationError):
    """An edge references a node id that is not in the network."""


class NonpositiveCapacity(ValidationError):
    """Every source capacity must be strictly positive and finite."""


class IsolatedNode(ValidationError):
    """Every source and every target must touch at least one edge."""


class DimensionMismatch(ValidationError):
    """An array argument does not match the network's layout."""


class ZeroLambda(ValidationError):
    """The exponential primal update is undefined at lam == 0."""


class PerturbationBelowFloor(ValidationError):
    """An adversary action dropped below the positivity floor."""


class StageNotConverged(AdvotError):
    """A stage of the multistage game failed to reach its fixed point.

    Carries the stage index, the outcomes of the stages completed before
    the failure and the failed stage's own equilibrium profile.
    """

    def __init__(self, stage: int, message: str = "", outcomes=None, *, profile):
        self.stage = stage
        self.outcomes = list(outcomes) if outcomes is not None else []
        self.profile = profile
        super().__init__(message or f"stage {stage} did not converge")


class NonFiniteIterate(AdvotError):
    """A price iterate left the finite range; carries the iteration it happened at."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"prices became non-finite at iteration {iteration}")


class ParseError(AdvotError):
    """A scenario file is not well formed; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CorruptLog(AdvotError):
    """A message log cannot be replayed (truncated or malformed)."""
