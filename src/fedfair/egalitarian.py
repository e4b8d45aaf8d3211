"""Egalitarian fairness: pairwise error ratios and the 2c+1 bound.

Within a coalition the egalitarian question is how far apart two members'
expected errors can be.  Writing c = n_max * sigma_sq / mu_e for the
largest member, any "modular" federation method keeps every pairwise
ratio at most 2c + 1, and the bound is approached (never exceeded) as the
small player shrinks.  This module audits coalitions against that bound,
verifies the five structural properties that make a method modular, and
searches for near-tight configurations.

Methods are either a :class:`FederationMethod` or any callable
``(coalition, target_id, params) -> float``, so deliberately broken
weightings can be pushed through the same checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import WeightVector, member_errors, weighted_error
from .exceptions import OutOfFloatRange, UndefinedBound, ZeroDenominator
from .model import Coalition, FederationMethod, Player, PopulationParams, close
from .sampling import describe_instance, instance_rng, random_instance

ErrorFn = Callable[[Coalition, str, PopulationParams], float]
ErrorsFn = Callable[[Coalition, PopulationParams], dict[str, float]]
# A modularity check's verdict and its measured values.
Outcome = tuple[bool, dict]

# Slack for finite-difference sign checks and the two-player comparison.
DERIVATIVE_SLACK = 1e-9
# Relative step for central differences.
DERIVATIVE_STEP = 1e-4
# Relative tolerance for the limiting-ratio check.
LIMIT_REL_TOL = 1e-3

# The modularity verification grid, fully crossed.
PAIR_SIZES = (1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
THIRD_SIZES = (1.0, 10.0, 100.0)
PARAM_LEVELS = (0.1, 1.0, 10.0)


def _errors_fn(method: FederationMethod | ErrorFn) -> tuple[ErrorsFn, str]:
    """A function giving every member's error under ``method``, keyed by
    id, and the method's name."""
    if isinstance(method, FederationMethod):
        return lambda co, params: member_errors(co, method, params), method.value
    return (
        lambda co, params: {p.id: method(co, p.id, params) for p in co.players},
        getattr(method, "__name__", "custom"),
    )


def _ratio(errs: Mapping[str, float], i: str, j: str) -> float:
    """errs[i] / errs[j], refusing a zero denominator."""
    if errs[j] == 0.0:
        raise ZeroDenominator(f"player {j!r} has zero error")
    return errs[i] / errs[j]


def egalitarian_bound(n_max: float, params: PopulationParams) -> tuple[float, float]:
    """c = n_max * sigma_sq / mu_e and the egalitarian bound 2c + 1."""
    c_value = n_max * params.sigma_sq / params.mu_e
    bound = 2.0 * c_value + 1.0
    if not math.isfinite(bound):
        raise OutOfFloatRange(
            "the 2c+1 bound",
            mu_e=params.mu_e,
            sigma_sq=params.sigma_sq,
            n_max=n_max,
        )
    return c_value, bound


def error_ratio(
    coalition: Coalition,
    i: str,
    j: str,
    method: FederationMethod | ErrorFn,
    params: PopulationParams,
) -> float:
    """err_i / err_j for two members of the same coalition."""
    errors, _ = _errors_fn(method)
    return _ratio(errors(coalition, params), i, j)


@dataclass(frozen=True)
class FairnessAudit:
    """Worst pairwise ratio of a coalition against its 2c+1 bound."""

    method: str
    max_ratio: float
    worst_pair: tuple[str, str]
    c_value: float
    bound: float
    satisfied: bool


def audit_egalitarian(
    coalition: Coalition,
    method: FederationMethod | ErrorFn,
    params: PopulationParams,
) -> FairnessAudit:
    """Audit every ordered pair of the coalition against the 2c+1 bound.

    c is reported as the exact real n_max * sigma_sq / mu_e (the smallest
    value covering the coalition); needs mu_e > 0 and sigma_sq > 0.
    """
    if params.mu_e <= 0.0 or params.sigma_sq <= 0.0:
        raise UndefinedBound("the 2c+1 bound needs mu_e > 0 and sigma_sq > 0")
    errors, name = _errors_fn(method)
    errs = errors(coalition, params)
    hi = max(errs, key=errs.__getitem__)
    lo = min(errs, key=errs.__getitem__)
    max_ratio = 1.0 if len(errs) == 1 else _ratio(errs, hi, lo)
    c_value, bound = egalitarian_bound(max(p.n for p in coalition.players), params)
    return FairnessAudit(
        method=name,
        max_ratio=max_ratio,
        worst_pair=(hi, lo),
        c_value=c_value,
        bound=bound,
        satisfied=max_ratio <= bound,
    )


def inverse_size_error(
    coalition: Coalition, target: str, params: PopulationParams
) -> float:
    """Error of a deliberately mis-weighted estimator: v_i proportional to
    T - n_i, so smaller players get larger weight.  Breaks the usual
    large-player advantage; used to calibrate the modularity checker."""
    players = coalition.players
    if len(players) == 1:
        weights = {target: 1.0}
    else:
        total = coalition.total
        scale = (len(players) - 1) * total
        weights = {p.id: (total - p.n) / scale for p in players}
    return weighted_error(coalition, WeightVector(target, weights), params)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one structural property check over the grid."""

    prop: int
    passed: bool
    checks: int
    counterexample: dict | None


@dataclass(frozen=True)
class ModularityReport:
    method: str
    properties: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def result(self, prop: int) -> PropertyResult:
        return self.properties[prop - 1]


def check_modularity(method: FederationMethod | ErrorFn) -> ModularityReport:
    """Numerically verify the five structural properties on the grid.

    1. Within any coalition the larger player has the lower error (strict
       for strictly larger).
    2. The two-player coalition is the worst case for the pairwise ratio;
       additionally the ratio is non-increasing in a third player's size
       (central differences, relative step 1e-4).
    3. The two-player ratio is non-decreasing in the large player's size.
    4. The two-player ratio is non-increasing in the small player's size.
    5. As the small player vanishes the two-player ratio approaches
       (mu_e/n_l + 2 sigma_sq) / (mu_e/n_l), which is the 2c+1 bound with
       c = n_l * sigma_sq / mu_e.  The probe point sits at
       n_s = 1e-6 * n_l or deeper: the fine-grained ratio approaches its
       limit at scale n_s ~ mu_e/sigma_sq, so the probe is capped at
       5e-5 * mu_e/sigma_sq to stay inside the convergence regime at
       high noise/bias corners.

    Grid coalitions name their players s (small), l (large) and k (third).
    Failures are data: each property reports its first counterexample,
    which starts with the instance (mu_e, sigma_sq, n_small, n_large and
    n_third where a third player takes part) and ends with the measured
    values.
    """
    errors, name = _errors_fn(method)
    param_grid = [
        PopulationParams(mu_e, sigma_sq)
        for mu_e in PARAM_LEVELS
        for sigma_sq in PARAM_LEVELS
    ]
    pairs = [
        (params, n_s, n_l)
        for params in param_grid
        for n_s in PAIR_SIZES
        for n_l in PAIR_SIZES
        if n_s <= n_l
    ]

    # Property 1 checks each grid coalition once per pair of its members,
    # and property 2 reuses one two-player ratio for every third size.
    @functools.cache
    def errs(params: PopulationParams, sizes: tuple[float, ...]) -> dict[str, float]:
        return errors(Coalition(tuple(map(Player, "slk", sizes))), params)

    def ratio(params: PopulationParams, *sizes: float) -> float:
        return _ratio(errs(params, sizes), "s", "l")

    def slope(params: PopulationParams, sizes: tuple[float, ...], i: int) -> float:
        """Central difference of the ratio in the i-th size."""
        h = DERIVATIVE_STEP * sizes[i]
        up, down = list(sizes), list(sizes)
        up[i] += h
        down[i] -= h
        return (ratio(params, *up) - ratio(params, *down)) / (2.0 * h)

    def ordering(
        params: PopulationParams, sizes: tuple[float, ...], small: str, large: str
    ) -> Outcome:
        e, n = errs(params, sizes), dict(zip("slk", sizes))
        ok = e[small] > e[large] if n[small] < n[large] else close(e[small], e[large])
        third = {"n_third": sizes[2]} if len(sizes) == 3 else {}
        return ok, {
            "n_small": n[small],
            "n_large": n[large],
            **third,
            "err_small": e[small],
            "err_large": e[large],
        }

    def two_player_worst(
        params: PopulationParams, n_s: float, n_l: float, n_k: float
    ) -> Outcome:
        base = ratio(params, n_s, n_l)
        with_third = ratio(params, n_s, n_l, n_k)
        deriv = slope(params, (n_s, n_l, n_k), 2)
        ok = not (with_third > base + DERIVATIVE_SLACK or deriv > DERIVATIVE_SLACK)
        return ok, {
            "n_small": n_s,
            "n_large": n_l,
            "n_third": n_k,
            "ratio_with_third": with_third,
            "ratio_two_player": base,
            "derivative_in_third": deriv,
        }

    def monotone(i: int, sign: float, key: str) -> Callable[..., Outcome]:
        """The two-player ratio never moves against ``sign`` in the i-th size."""

        def predicate(params: PopulationParams, n_s: float, n_l: float) -> Outcome:
            d = slope(params, (n_s, n_l), i)
            return not sign * d < -DERIVATIVE_SLACK, {
                "n_small": n_s,
                "n_large": n_l,
                key: d,
            }

        return predicate

    def vanishing_limit(params: PopulationParams, n_l: float) -> Outcome:
        probe = min(1e-6 * n_l, 5e-5 * params.mu_e / params.sigma_sq)
        got = ratio(params, probe, n_l)
        limit = egalitarian_bound(n_l, params)[1]
        return not abs(got - limit) > LIMIT_REL_TOL * limit, {
            "n_small": probe,
            "n_large": n_l,
            "ratio": got,
            "limit": limit,
        }

    coalitions = [
        (params, sizes)
        for params, n_s, n_l in pairs
        for sizes in [(n_s, n_l), *((n_s, n_l, n_k) for n_k in THIRD_SIZES)]
    ]
    # (property, predicate, the argument tuples it is checked on)
    table = (
        (
            1,
            ordering,
            [
                (params, sizes, small, large)
                for params, sizes in coalitions
                # members ranked by (n, id), each pair smaller first
                for (_, small), (_, large) in itertools.combinations(
                    sorted(zip(sizes, "slk")), 2
                )
            ],
        ),
        (2, two_player_worst, [(*pair, n_k) for pair in pairs for n_k in THIRD_SIZES]),
        (3, monotone(1, 1.0, "derivative_in_large"), pairs),
        (4, monotone(0, -1.0, "derivative_in_small"), pairs),
        (5, vanishing_limit, [(pa, n_l) for pa in param_grid for n_l in PAIR_SIZES]),
    )
    results = []
    for prop, predicate, cases in table:
        counterexample = None
        for params, *args in cases:
            ok, measured = predicate(params, *args)
            if not ok and counterexample is None:
                counterexample = {
                    "mu_e": params.mu_e,
                    "sigma_sq": params.sigma_sq,
                    **measured,
                }
        results.append(
            PropertyResult(prop, counterexample is None, len(cases), counterexample)
        )
    return ModularityReport(method=name, properties=tuple(results))


@dataclass(frozen=True)
class TightnessResult:
    """A two-player configuration whose uniform ratio nearly meets 2c+1."""

    n_s: float
    n_l: float
    mu_e: float
    sigma_sq: float
    ratio: float
    c_value: float
    bound: float


def tightness_search(c: float, epsilon: float) -> TightnessResult:
    """Find a two-player scenario with uniform ratio >= 2c+1 - epsilon.

    Construction: n_s = 1, sigma_sq = 1, n_l = c * mu_e, doubling mu_e
    until the ratio clears the target.  The ratio is monotone increasing
    in mu_e under this construction, which is asserted at each step, and
    it approaches 2c+1 from below, so the search always terminates.
    """
    if c <= 0.0 or epsilon <= 0.0:
        raise ValueError("c and epsilon must be positive")
    mu_e = 1.0
    previous = -math.inf
    for _ in range(600):
        params = PopulationParams(mu_e, 1.0)
        n_l = c * mu_e
        # mu_e is a power of two, so this c_value is exactly c.
        c_value, bound = egalitarian_bound(n_l, params)
        pair = Coalition((Player("s", 1.0), Player("l", n_l)))
        ratio = error_ratio(pair, "s", "l", FederationMethod.UNIFORM, params)
        if not math.isfinite(ratio):
            raise ArithmeticError("ratio overflowed before reaching the target")
        if ratio < previous - 1e-12:
            raise ArithmeticError("ratio failed to increase while doubling mu_e")
        previous = ratio
        if ratio >= bound - epsilon:
            return TightnessResult(
                n_s=1.0,
                n_l=n_l,
                mu_e=mu_e,
                sigma_sq=1.0,
                ratio=ratio,
                c_value=c_value,
                bound=bound,
            )
        mu_e *= 2.0
    raise ArithmeticError("target not reached within 600 doublings")


@dataclass(frozen=True)
class BoundSweepResult:
    """Outcome of a randomized egalitarian-bound sweep."""

    instances: int
    checks: int
    violations: tuple[dict, ...]
    max_quotient: float

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_sweep(instance_count: int = 10_000, seed: int = 42) -> BoundSweepResult:
    """Check 1 - 1e-12 <= max ratio <= 2c+1 + 1e-9 on random instances,
    under uniform and fine-grained federation."""
    violations: list[dict] = []
    max_quotient = 0.0
    checks = 0
    for index in range(instance_count):
        params, coalition = random_instance(instance_rng(seed, index))
        for method in (FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED):
            checks += 1
            audit = audit_egalitarian(coalition, method, params)
            ratio, bound = audit.max_ratio, audit.bound
            max_quotient = max(max_quotient, ratio / bound)
            if ratio < 1.0 - 1e-12 or ratio > bound + 1e-9:
                violations.append(
                    {
                        "index": index,
                        "method": method.value,
                        "max_ratio": ratio,
                        "bound": bound,
                        **describe_instance(params, coalition),
                    }
                )
    return BoundSweepResult(
        instances=instance_count,
        checks=checks,
        violations=tuple(violations),
        max_quotient=max_quotient,
    )
