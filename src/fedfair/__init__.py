"""Exact error accounting and fairness audits for the mean-estimation
federation game: closed-form expected errors per federation method,
egalitarian and proportionality audits, randomized guarantee sweeps, and
a Monte Carlo oracle validating every closed form."""

from .egalitarian import (
    FairnessAudit,
    ModularityReport,
    TightnessResult,
    audit_egalitarian,
    bound_sweep,
    check_modularity,
    inverse_size_error,
    tightness_search,
)
from .errors import (
    expected_error,
    fine_grained_error,
    fine_grained_weights,
    local_error,
    uniform_error,
    weighted_error,
)
from .model import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
)
from .proportionality import (
    CoalitionLabel,
    ProportionalityReport,
    RationalityReport,
    classify_proportionality,
    defection_threshold,
    individually_rational,
    subproportionality_threshold,
    verify_propstab,
)

__version__ = "0.1.0"

# The Monte Carlo oracle imports numpy when it loads, so its names are
# resolved on first access (PEP 562): the closed-form commands start
# without numpy.
_MONTECARLO_NAMES = frozenset(
    {
        "MeanDistribution",
        "SimulationResult",
        "SimulationSpec",
        "default_suite",
        "simulate_error",
        "simulate_suite",
    }
)


def __getattr__(name: str) -> object:
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Coalition",
    "CoalitionLabel",
    "FairnessAudit",
    "FederationMethod",
    "MeanDistribution",
    "ModularityReport",
    "Player",
    "PopulationParams",
    "ProportionalityReport",
    "RationalityReport",
    "SimulationResult",
    "SimulationSpec",
    "TightnessResult",
    "audit_egalitarian",
    "bound_sweep",
    "check_modularity",
    "classify_proportionality",
    "default_suite",
    "defection_threshold",
    "expected_error",
    "fine_grained_error",
    "fine_grained_weights",
    "individually_rational",
    "inverse_size_error",
    "local_error",
    "simulate_error",
    "simulate_suite",
    "subproportionality_threshold",
    "tightness_search",
    "uniform_error",
    "verify_propstab",
    "weighted_error",
]
