"""Exception hierarchy for scenario validation and computation preconditions."""


class FedFairError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCoalition(FedFairError):
    """A coalition must contain at least one player."""


class DuplicatePlayerId(FedFairError):
    """Player ids within a coalition must be distinct."""


class NonPositiveSamples(FedFairError):
    """Sample counts must be positive and finite."""


class NegativeVariance(FedFairError):
    """Population parameters must be nonnegative and finite."""


class TargetNotInCoalition(FedFairError):
    """The requested target player is not a member of the coalition."""


class WeightDomainMismatch(FedFairError):
    """A weight vector must cover exactly the coalition's player ids."""


class NonUnitSum(FedFairError):
    """Combination weights must sum to one (relative tolerance 1e-9)."""


class DegenerateParams(FedFairError):
    """Both noise and bias are zero: every unit-sum weighting is optimal,
    so no single optimum is defined."""


class ZeroDenominator(FedFairError):
    """An error ratio was requested against a player with zero error."""


class UndefinedBound(FedFairError):
    """The egalitarian bound needs noise > 0 and bias > 0 to be defined."""


class OutOfFloatRange(FedFairError):
    """A closed form left the floating-point range at the given inputs: it
    overflowed, or divided by a value that underflowed to zero."""

    def __init__(self, what: str, **inputs: object) -> None:
        fields = ", ".join(f"{name}={value!r}" for name, value in inputs.items())
        super().__init__(f"{what} is outside the floating-point range at {fields}")


class InvalidNoiseList(FedFairError):
    """A per-player noise list must match the coalition and average to the
    population noise level."""
