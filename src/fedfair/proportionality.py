"""Proportionality of errors and individual rationality.

A pair with n_i <= n_j has sub-proportional error when the smaller player
does better than inverse scaling by sample counts predicts, i.e.
n_i * err_i < n_j * err_j; the reversed strict inequality is
super-proportional, and agreement within tolerance is exact.  A coalition
is individually rational when nobody would get strictly lower error from
local learning.

The central fact verified here: under the sample-count-weighted average,
individual rationality forces sub-proportionality.  Concretely, fixing a
coalition ``rest`` that a large player may join, the size at which the
newcomer starts preferring local learning never exceeds the size at which
sub-proportionality against a member s breaks:

    defect  when  n_l >= mu_e / (sigma_sq * S/T^2 + sigma_sq - mu_e/T)
    violate when  n_l >= (-2 sigma_sq T + (mu_e/n_s) T
                          + (sigma_sq/n_s) (S + T^2)) / (2 sigma_sq - mu_e/n_s)

with T and S the total and sum of squares over ``rest``.  Either bound is
infinite when its denominator is nonpositive (the event never happens);
both reduce to mu_e / (2 sigma_sq - mu_e/n_s) when rest = {s}.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import _errors
from .exceptions import OutOfFloatRange
from .model import Coalition, FederationMethod, PopulationParams, compare
from .sampling import describe_instance, sweep_instances


class CoalitionLabel(str, Enum):
    """Proportionality verdict of a pair (sub, exact or super) or of a
    whole coalition, which is mixed when its pairs disagree."""

    SUB = "sub"
    EXACT = "exact"
    SUPER = "super"
    MIXED = "mixed"


class PairJudgment(NamedTuple):
    """Scaled-error comparison for one pair with small_n <= large_n."""

    small_id: str
    large_id: str
    scaled_small: float
    scaled_large: float
    classification: CoalitionLabel


class ProportionalityReport(NamedTuple):
    method: str
    pairs: tuple[PairJudgment, ...]
    label: CoalitionLabel


class PlayerRationality(NamedTuple):
    player_id: str
    n: float
    coalition_error: float
    local_error: float
    prefers_local: bool


class RationalityReport(NamedTuple):
    method: str
    players: tuple[PlayerRationality, ...]
    individually_rational: bool


def classify_pair(n_i: float, err_i: float, n_j: float, err_j: float) -> CoalitionLabel:
    """Compare n_i * err_i against n_j * err_j (roles: n_i <= n_j)."""
    order = compare(n_i * err_i, n_j * err_j)
    if order == 0:
        return CoalitionLabel.EXACT
    return CoalitionLabel.SUB if order < 0 else CoalitionLabel.SUPER


def _classify(
    ids: Sequence[str], n: Sequence[float], e: Sequence[float], method: FederationMethod
) -> ProportionalityReport:
    """Every pair's verdict, smaller player first (ties broken by id), from
    the sizes ``n`` and errors ``e`` of the members ``ids``."""
    ranked = sorted(range(len(ids)), key=lambda i: (n[i], ids[i]))
    pairs = tuple(
        PairJudgment(
            small_id=ids[s],
            large_id=ids[l],
            scaled_small=n[s] * e[s],
            scaled_large=n[l] * e[l],
            classification=classify_pair(n[s], e[s], n[l], e[l]),
        )
        for s, l in itertools.combinations(ranked, 2)
    )
    kinds = {p.classification for p in pairs} - {CoalitionLabel.EXACT}
    if not kinds:
        label = CoalitionLabel.EXACT
    elif len(kinds) == 1:
        label = kinds.pop()
    else:
        label = CoalitionLabel.MIXED
    return ProportionalityReport(method=method.value, pairs=pairs, label=label)


def _rationality(
    ids: Sequence[str],
    n: Sequence[float],
    e: Sequence[float],
    method: FederationMethod,
    params: PopulationParams,
) -> RationalityReport:
    local = _errors(n, FederationMethod.LOCAL, params, ids)
    rows = tuple(
        PlayerRationality(pid, n_i, ce, le, compare(ce, le) > 0)
        for pid, n_i, ce, le in zip(ids, n, e, local)
    )
    return RationalityReport(
        method=method.value,
        players=rows,
        individually_rational=not any(r.prefers_local for r in rows),
    )


def classify_proportionality(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> ProportionalityReport:
    """Classify every pair, smaller player first (ties broken by id)."""
    ids, sizes = coalition.ids(), coalition.sizes()
    return _classify(ids, sizes, _errors(sizes, method, params, ids), method)


def individually_rational(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> RationalityReport:
    """Weak-preference check of coalition error against local error."""
    ids, sizes = coalition.ids(), coalition.sizes()
    return _rationality(ids, sizes, _errors(sizes, method, params, ids), method, params)


def _defection(total: float, sum_sq: float, mu_e: float, sigma_sq: float) -> float:
    """``defection_threshold`` of a rest coalition whose sizes sum to
    ``total`` with sum of squares ``sum_sq``, at ``mu_e`` and ``sigma_sq``
    (floats, which the sweep reads once per instance)."""
    try:
        denom = sigma_sq * sum_sq / (total * total) + sigma_sq - mu_e / total
        if denom <= 0.0:
            return math.inf
        threshold = mu_e / denom
        if math.isfinite(threshold):
            return threshold
    except ZeroDivisionError:
        pass
    raise OutOfFloatRange(
        "the defection threshold",
        mu_e=mu_e, sigma_sq=sigma_sq, total=total, sum_sq=sum_sq,
    )


def _subproportionality(
    total: float, sum_sq: float, s: str, n_s: float, mu_e: float, sigma_sq: float
) -> float:
    """``subproportionality_threshold`` against member ``s`` of size ``n_s``,
    of a rest coalition whose sizes sum to ``total`` with sum of squares
    ``sum_sq``, at ``mu_e`` and ``sigma_sq``."""
    denom = 2.0 * sigma_sq - mu_e / n_s
    if denom <= 0.0:
        return math.inf
    numer = (
        -2.0 * sigma_sq * total
        + (mu_e / n_s) * total
        + (sigma_sq / n_s) * (sum_sq + total * total)
    )
    threshold = numer / denom
    if math.isfinite(threshold):
        return threshold
    raise OutOfFloatRange(
        f"the subproportionality threshold against {s!r}",
        mu_e=mu_e, sigma_sq=sigma_sq, total=total, sum_sq=sum_sq, n_s=n_s,
    )


def defection_threshold(rest: Coalition, params: PopulationParams) -> float:
    """Least size at which a player joining ``rest`` weakly prefers local
    learning under the weighted average; inf when that never happens."""
    return _defection(rest.total, rest.sum_sq, *params)


def subproportionality_threshold(
    rest: Coalition, s: str, params: PopulationParams
) -> float:
    """Least joining size at which the pair (s, newcomer) turns
    super-proportional; inf when n_s <= mu_e / (2 sigma_sq)."""
    return _subproportionality(rest.total, rest.sum_sq, s, rest.player(s).n, *params)


class PropstabResult(NamedTuple):
    """Outcome of the randomized rationality-implies-subproportionality sweep."""

    instances: int
    counterexamples: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_propstab(instance_count: int = 10_000, seed: int = 42) -> PropstabResult:
    """Randomized verification that, under the weighted average:

    * an individually rational coalition is never super-proportional
      (coalition label must be sub or exact), and
    * defection_threshold(rest) <= subproportionality_threshold(rest, s)
      for the drawn coalition as ``rest`` and each member s, with finite
      equality only in the singleton case rest = {s} (checked positively
      by also evaluating both thresholds on each singleton sub-coalition).

    Only a counterexample builds its instance's players.  Violations are
    returned as replayable counterexamples.
    """
    counterexamples: list[dict] = []
    uniform, local = FederationMethod.UNIFORM, FederationMethod.LOCAL

    def fail(kind: str, **fields: object) -> None:
        # The record describes the instance the loop below is checking.
        coalition = Coalition.from_sizes(sizes)
        record = {"index": index, **describe_instance(params, coalition)}
        counterexamples.append({**record, "kind": kind, **fields})

    for index, params, ids, sizes in sweep_instances(instance_count, seed):
        # One evaluation of the uniform errors serves both verdicts, and
        # only a rational coalition needs its pairs classified.
        errs = _errors(sizes, uniform, params, ids)
        local_errs = _errors(sizes, local, params, ids)
        if not any(compare(ce, le) > 0 for ce, le in zip(errs, local_errs)):
            label = _classify(ids, sizes, errs, uniform).label
            if label not in (CoalitionLabel.SUB, CoalitionLabel.EXACT):
                fail("rational_but_super", label=label.value)

        total, sum_sq = sum(sizes), sum(n * n for n in sizes)
        mu_e, sigma_sq = params.mu_e, params.sigma_sq
        defect = _defection(total, sum_sq, mu_e, sigma_sq)
        for pid, n in zip(ids, sizes):
            violate = _subproportionality(total, sum_sq, pid, n, mu_e, sigma_sq)
            order = compare(defect, violate)
            if order > 0:
                fail(
                    "threshold_order",
                    s=pid,
                    defection=defect,
                    subproportionality=violate,
                )
            if len(sizes) > 1 and math.isfinite(defect) and order == 0:
                fail("equality_without_singleton", s=pid, threshold=defect)
            # The singleton rest = {pid}: total n, sum of squares n^2.
            d1 = _defection(n, n * n, mu_e, sigma_sq)
            v1 = _subproportionality(n, n * n, pid, n, mu_e, sigma_sq)
            if compare(d1, v1) != 0:
                fail(
                    "singleton_mismatch",
                    s=pid,
                    defection=d1,
                    subproportionality=v1,
                )
    return PropstabResult(
        instances=instance_count, counterexamples=tuple(counterexamples)
    )
