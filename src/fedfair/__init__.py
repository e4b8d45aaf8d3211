"""Exact error accounting and fairness audits for the mean-estimation
federation game: closed-form expected errors per federation method,
egalitarian and proportionality audits, randomized guarantee sweeps, and
a Monte Carlo oracle validating every closed form."""

__version__ = "0.1.0"

# Each public name's module, loaded on the name's first access (PEP 562):
# `import fedfair` loads no submodule, a command loads only the modules it
# uses, and only the Monte Carlo oracle loads numpy.
_MODULES = {
    "Coalition": "model",
    "CoalitionLabel": "verdicts",
    "FairnessAudit": "verdicts",
    "FederationMethod": "model",
    "MeanDistribution": "montecarlo",
    "ModularityReport": "egalitarian",
    "Player": "model",
    "PopulationParams": "model",
    "ProportionalityReport": "proportionality",
    "RationalityReport": "proportionality",
    "SimulationResult": "montecarlo",
    "SimulationSpec": "montecarlo",
    "TightnessResult": "egalitarian",
    "audit_egalitarian": "egalitarian",
    "bound_sweep": "egalitarian",
    "check_modularity": "egalitarian",
    "classify_proportionality": "proportionality",
    "default_suite": "montecarlo",
    "defection_threshold": "proportionality",
    "expected_error": "errors",
    "fine_grained_error": "errors",
    "fine_grained_weights": "errors",
    "individually_rational": "proportionality",
    "inverse_size_error": "egalitarian",
    "local_error": "errors",
    "simulate_error": "montecarlo",
    "simulate_suite": "montecarlo",
    "subproportionality_threshold": "proportionality",
    "tightness_search": "egalitarian",
    "uniform_error": "errors",
    "verify_propstab": "proportionality",
    "weighted_error": "errors",
}

__all__ = list(_MODULES)


def __getattr__(name: str) -> object:
    if name in _MODULES:
        from importlib import import_module

        return getattr(import_module(f".{_MODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
