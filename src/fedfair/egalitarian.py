"""Egalitarian fairness: pairwise error ratios and the 2c+1 bound.

Within a coalition the egalitarian question is how far apart two members'
expected errors can be.  Writing c = n_max * sigma_sq / mu_e for the
largest member, any "modular" federation method keeps every pairwise
ratio at most 2c + 1, and the bound is approached (never exceeded) as the
small player shrinks.  This module audits coalitions against that bound,
sweeps random instances for a violation, verifies the five structural
properties that make a method modular, and searches for near-tight
configurations.  The column verdicts it shares with the CLI live in
``verdicts``: the worst ratio, largest error over smallest, that the audits
and the sweep read, the c and 2c+1 columns and the 2c+1 verdict.  An
audit's 2c+1 bound is evaluated by its caller, ahead of the ratios.

The modularity checker takes a federation method or a column method of
the kernel's shape, ``(columns, mu_e, sigma_sq, ids) -> error columns``
with the grid's ids in the order k < l < s, so a deliberately broken
weighting (``inverse_size_error``) goes through the same checks.
"""

from __future__ import annotations

import math
from itertools import combinations, compress, repeat
from operator import itemgetter, mul, sub, truediv
from typing import Callable, NamedTuple, Sequence

from .errors import (Column, Columns, _errors, _one, _total, _weighted_errors, in_order,
                     range_failure)
from .exceptions import NonPositiveSamples
from .model import (FLOAT_MAX, Coalition, FederationMethod, Player, PopulationParams,
                    check_integer, compare, describe_instance)
from .verdicts import FairnessAudit, _audits, _bounds, _exceeds, _ratio, _worst_ratios

# A column method: (size columns, mu_e, sigma_sq, ids) -> error columns.
ErrorFn = Callable[[Columns, Column, Column, Sequence[str]], list[list[float]]]
# A modularity check's verdict and its measured values.
Outcome = tuple[bool, dict]

# Complex step, relative to the size: f(n + 1j*h) = f(n) + 1j*h*f'(n) up to
# h**2 terms, which vanish far below rounding, and nothing cancels.
COMPLEX_STEP = 2.0**-64
# Property 5 probes at n_s = 2**-LIMIT_DEPTH * min(n_l, mu_e/sigma_sq).  On
# the grid, depth 40 puts both honest methods within 1.8e-12 of 2c+1 and
# never above it; at depth 30 fine-grained misses the REL_TOL band on 43 of
# 54 cases, and at depth 50 rounding lifts 2 cases per method 1 ulp above.
LIMIT_DEPTH = 40

# The modularity verification grid, fully crossed.
PAIR_SIZES = (1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
THIRD_SIZES = (1.0, 10.0, 100.0)
PARAM_LEVELS = (0.1, 1.0, 10.0)


def egalitarian_bound(n_max: float, params: PopulationParams) -> tuple[float, float]:
    """c = n_max * sigma_sq / mu_e and the egalitarian bound 2c + 1:
    ``_bounds`` as a batch of one, for a finite n_max > 0."""
    if not 0 < n_max <= FLOAT_MAX:
        raise NonPositiveSamples(f"n_max must be finite and > 0, got {n_max!r}")
    (c_value,), (bound,) = _bounds([n_max], *([value] for value in params))
    return c_value, bound


def audit_egalitarian(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> FairnessAudit:
    """Audit every ordered pair of the coalition against the 2c+1 bound.

    c is the exact real n_max * sigma_sq / mu_e (the least value covering
    the coalition), evaluated before the errors; needs mu_e > 0, sigma_sq > 0.
    """
    c_value, bound = egalitarian_bound(max(coalition.sizes()), params)
    errs = [[e] for e in _one(_errors, coalition, params, method)]
    return _audits(coalition.ids(), errs, method, ([c_value], [bound]))[0]


def inverse_size_error(
    columns: Columns, mu_e: Column, sigma_sq: Column, ids: Sequence[str]
) -> list[list[float]]:
    """Errors of a deliberately mis-weighted estimator, a column method:
    v_i proportional to T - n_i, so smaller players get larger weight (a
    lone member weighs itself 1).  Breaks the usual large-player advantage;
    used to calibrate the modularity checker."""

    def evaluate(mu_e: Column, sigma_sq: Column, *columns: Column) -> list[list]:
        weights = [[1] * len(mu_e)]
        if len(columns) > 1:
            total = _total(columns)
            scale = list(map(mul, repeat(len(columns) - 1), total))
            weights = [list(map(truediv, map(sub, total, n), scale)) for n in columns]
        return _weighted_errors(mu_e, sigma_sq, columns, weights, range(len(columns)))

    fail = range_failure("an inverse_size error", ids)
    return in_order(evaluate, mu_e, sigma_sq, *columns, fail=fail)


class PropertyResult(NamedTuple):
    """Outcome of one structural property check over the grid."""

    prop: int
    passed: bool
    checks: int
    counterexample: dict | None


class ModularityReport(NamedTuple):
    method: str
    properties: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def result(self, prop: int) -> PropertyResult:
        return self.properties[prop - 1]


def _grid_errors(
    method: FederationMethod | ErrorFn, cases: Sequence[tuple], at: int | None = None
) -> list[dict]:
    """Each case's errors by id from one call of ``method``, a federation
    method through ``_errors`` or a column method.  The cases are all
    (params, n_s, n_l) or all (params, n_s, n_l, n_k); ids sort k < l < s,
    so the columns are the sizes reversed.  With ``at``, the sizes in that
    place are complex: n + 1j * n * COMPLEX_STEP."""
    params, *sizes = map(list, zip(*cases))
    if at is not None:
        sizes[at] = [complex(n, n * COMPLEX_STEP) for n in sizes[at]]
    ids, columns = "kls"[3 - len(sizes) :], sizes[::-1]
    shared = (*map(list, zip(*params)), ids)
    if isinstance(method, FederationMethod):
        errors = _errors(columns, method, *shared)
    else:
        errors = method(columns, *shared)
    return [dict(zip(ids, row)) for row in zip(*errors)]


def _grid_slopes(
    method: FederationMethod | ErrorFn, cases: Sequence[tuple], at: int
) -> list[float]:
    """The derivative of err_s / err_l in each case's size ``at``, by the
    quotient rule on one complex-step evaluation: with h = n * COMPLEX_STEP,
    (Im s Re l - Re s Im l) / (Re l)^2 / h.  The imaginary part of the
    complex quotient s / l would not do: complex division leaves about
    1e-20 where the slope is exactly 0."""
    slopes = []
    for case, e in zip(cases, _grid_errors(method, cases, at)):
        s, l = e["s"], e["l"]
        cross = _ratio(s.imag * l.real - s.real * l.imag, l.real * l.real, "s", "l")
        slopes.append(cross / (case[1 + at] * COMPLEX_STEP))
    return slopes


def check_modularity(method: FederationMethod | ErrorFn) -> ModularityReport:
    """Verify the five structural properties on the grid.

    1. Within any coalition the larger player has the lower error (strict
       for strictly larger, a tie for equal sizes).
    2. The two-player coalition is the worst case for the pairwise ratio;
       additionally the ratio is non-increasing in a third player's size.
    3. The two-player ratio is non-decreasing in the large player's size.
    4. The two-player ratio is non-increasing in the small player's size.
    5. As the small player vanishes the two-player ratio approaches
       (mu_e/n_l + 2 sigma_sq) / (mu_e/n_l), the 2c+1 bound with
       c = n_l * sigma_sq / mu_e.  It must tie with it at the probe
       n_s = 2**-40 * min(n_l, mu_e/sigma_sq), deep inside the scale
       n_s ~ mu_e/sigma_sq at which the fine-grained ratio converges.

    ``method`` is a federation method or a column method, ``(columns, mu_e,
    sigma_sq, ids) -> error columns`` as ``errors._errors``: one column of sizes
    per member in id order, one mu_e and sigma_sq entry per instance, one error
    column per member back; anything else raises ``ValueError`` before the grid
    is evaluated.  Grid coalitions name their players s (small), l (large) and k
    (third), so the id order is k < l < s.  The grid is evaluated up front: one
    call for the two-player errors, one for the three-player errors, and one
    complex call for each of the three slopes.

    Values are compared by ``compare``; the slopes in 2-4 are complex-step
    derivatives (Squire and Trapp, SIAM Review 40(1), 1998), judged by
    their exact sign.

    Failures are data: each property reports its first counterexample,
    which starts with the instance (mu_e, sigma_sq, n_small, n_large and
    n_third where a third player takes part) and ends with the measured
    values.
    """
    if not (isinstance(method, FederationMethod) or callable(method)):
        raise ValueError(f"unknown federation method: {method!r}")
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
    trios = [(*pair, n_k) for pair in pairs for n_k in THIRD_SIZES]
    limits = [
        (params, math.ldexp(min(n_l, params.mu_e / params.sigma_sq), -LIMIT_DEPTH), n_l)
        for params in param_grid
        for n_l in PAIR_SIZES
    ]
    # Property 1 reads each grid coalition once per pair of its members,
    # and property 2 one two-player ratio for every third size.
    errs = dict(zip(pairs + limits, _grid_errors(method, pairs + limits)))
    errs.update(zip(trios, _grid_errors(method, trios)))

    def ratio(*case: object) -> float:
        e = errs[case]
        return _ratio(e["s"], e["l"], "s", "l")

    def ordering(
        params: PopulationParams, sizes: tuple[float, ...], small: str, large: str
    ) -> Outcome:
        e, n = errs[(params, *sizes)], dict(zip("slk", sizes))
        ok = compare(e[small], e[large]) == int(n[small] < n[large])
        third = {"n_third": sizes[2]} if len(sizes) == 3 else {}
        return ok, {"n_small": n[small], "n_large": n[large], **third,
                    "err_small": e[small], "err_large": e[large]}

    def two_player_worst(
        params: PopulationParams, n_s: float, n_l: float, n_k: float, deriv: float
    ) -> Outcome:
        base, with_third = ratio(params, n_s, n_l), ratio(params, n_s, n_l, n_k)
        ok = compare(with_third, base) <= 0 and compare(deriv, 0.0) <= 0
        return ok, {"n_small": n_s, "n_large": n_l, "n_third": n_k,
                    "ratio_with_third": with_third, "ratio_two_player": base,
                    "derivative_in_third": deriv}

    def monotone(sign: float, key: str) -> Callable[..., Outcome]:
        """The two-player ratio never moves against ``sign`` in the size."""

        def predicate(
            params: PopulationParams, n_s: float, n_l: float, d: float
        ) -> Outcome:
            return compare(sign * d, 0.0) >= 0, {"n_small": n_s, "n_large": n_l, key: d}

        return predicate

    def vanishing_limit(params: PopulationParams, probe: float, n_l: float) -> Outcome:
        got, limit = ratio(params, probe, n_l), egalitarian_bound(n_l, params)[1]
        return compare(got, limit) == 0, {"n_small": probe, "n_large": n_l,
                                          "ratio": got, "limit": limit}

    def with_slopes(cases: list[tuple], at: int) -> list[tuple]:
        return [(*case, d) for case, d in zip(cases, _grid_slopes(method, cases, at))]

    members = [
        (params, sizes, small, large)
        for params, n_s, n_l in pairs
        for sizes in [(n_s, n_l), *((n_s, n_l, n_k) for n_k in THIRD_SIZES)]
        # members ranked by (n, id), each pair smaller first
        for (_, small), (_, large) in combinations(sorted(zip(sizes, "slk")), 2)
    ]
    # (property, predicate, the argument tuples it is checked on)
    table = (
        (1, ordering, members),
        (2, two_player_worst, with_slopes(trios, 2)),
        (3, monotone(1.0, "derivative_in_large"), with_slopes(pairs, 1)),
        (4, monotone(-1.0, "derivative_in_small"), with_slopes(pairs, 0)),
        (5, vanishing_limit, limits),
    )
    results = []
    for prop, predicate, cases in table:
        failed = None
        for params, *args in cases:
            ok, measured = predicate(params, *args)
            if not ok:
                failed = {**params._asdict(), **measured}
                break
        results.append(PropertyResult(prop, failed is None, len(cases), failed))
    name = method.value if isinstance(method, FederationMethod) else method.__name__
    return ModularityReport(method=name, properties=tuple(results))


class TightnessResult(NamedTuple):
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

    Construction: n_s = 1, sigma_sq = 1 and n_l = c * mu_e, with mu_e = m
    the least power of two >= 1 that clears the target.  The ratio falls
    short of 2c+1 by 2(c m + 2c + 1) / (c m^2 + m + 2), so the target holds
    from the larger root of epsilon c m^2 + (epsilon - 2c) m + (2 epsilon -
    4c - 2) on (from m = 1 if that root is at most 1 or there is none).
    Rounding can move the first power of two passing the float test by one
    step, so the powers below and above the root and the next one up are
    tried in turn, each whose n_l is a float; ``ValueError`` if none
    passes: epsilon is then finer than the float ratio resolves at this c.
    """
    if not (0 < c <= FLOAT_MAX and epsilon > 0):
        raise ValueError(f"c must be finite and > 0 and epsilon > 0, "
                         f"got c={c!r}, epsilon={epsilon!r}")
    epsilon = math.inf if epsilon > FLOAT_MAX else epsilon
    # Times f = 2**-s, exactly, so that f c < 1/8: no step overflows unless the
    # root does or epsilon dwarfs c (both roots < 0, and root stays 1 or less).
    f = 2.0 ** -max(0, math.frexp(c)[1] + 3)
    b, k = f * epsilon - f * c * 2, f * epsilon * 2 - f * c * 4 - f * 2
    disc, root = b * b - f * c * 4 * epsilon * k, 1.0
    if disc > 0:  # both roots in the forms where nothing cancels
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        root = max(q / epsilon / (f * c), k / q)
    below = (0.5 if root <= 1 else math.inf if root > FLOAT_MAX  # no candidate past it
             else math.ldexp(0.5, math.frexp(root)[1]))  # the power at or below the root
    for mu_e in (m for m in (max(1.0, below), 2 * below, 4 * below) if c * m <= FLOAT_MAX):
        params, n_l = PopulationParams(mu_e, 1.0), c * mu_e
        # mu_e is a power of two, so this c_value is exactly c.
        c_value, bound = egalitarian_bound(n_l, params)
        pair = Coalition((Player("s", 1.0), Player("l", n_l)))
        e_l, e_s = _one(_errors, pair, params, FederationMethod.UNIFORM)
        ratio = _ratio(e_s, e_l, "s", "l")
        if ratio >= bound - epsilon:
            return TightnessResult(1.0, n_l, mu_e, 1.0, ratio, c_value, bound)
    raise ValueError(f"epsilon={epsilon!r} is finer than the float ratio resolves "
                     f"at c={c!r}")


class BoundSweepResult(NamedTuple):
    """Outcome of a randomized egalitarian-bound sweep."""

    instances: int
    checks: int
    violations: tuple[dict, ...]
    max_quotient: float

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_sweep(instance_count: int = 10_000, seed: int = 42) -> BoundSweepResult:
    """Check that no worst ratio exceeds 2c+1 by ``_exceeds``, the rule of
    ``audit_egalitarian``, on random instances under uniform and
    fine-grained federation; only a violation builds the instance's players."""
    instance_count = check_integer("instance count", instance_count, 1)  # stored as int
    # Imported here so that the modularity check loads no instance stream.
    from .sampling import INSTANCE_IDS, instance_groups

    methods = (FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED)
    violations, max_quotient = [], 0.0
    # Sweep instances lie in the float band, so no group raises.
    for indices, mu_e, sigma_sq, *columns in instance_groups(instance_count, seed):
        ids = INSTANCE_IDS[: len(columns)]
        _, bounds = _bounds(list(map(max, zip(*columns))), mu_e, sigma_sq)
        for method in methods:
            rows = list(zip(*_errors(columns, method, mu_e, sigma_sq, ids)))
            ratios = _worst_ratios(ids, rows)
            max_quotient = max(max_quotient, *map(truediv, ratios, bounds))
            for i in compress(range(len(ratios)), _exceeds(ratios, bounds)):
                params = PopulationParams(mu_e[i], sigma_sq[i])
                coalition = Coalition.from_sizes([n[i] for n in columns])
                violations.append({"index": indices[i], "method": method.value,
                                   "max_ratio": ratios[i], "bound": bounds[i],
                                   **describe_instance(params, coalition)})
    # Groups follow player counts; records follow the instance indices.
    violations.sort(key=itemgetter("index"))
    checks = len(methods) * instance_count
    return BoundSweepResult(instance_count, checks, tuple(violations), max_quotient)
