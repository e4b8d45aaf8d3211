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
from dataclasses import dataclass
from enum import Enum

from .errors import member_errors, out_of_range
from .model import Coalition, FederationMethod, PopulationParams, close
from .sampling import describe_instance, instance_rng, random_instance


class CoalitionLabel(str, Enum):
    """Proportionality verdict of a pair (sub, exact or super) or of a
    whole coalition, which is mixed when its pairs disagree."""

    SUB = "sub"
    EXACT = "exact"
    SUPER = "super"
    MIXED = "mixed"


@dataclass(frozen=True)
class PairJudgment:
    """Scaled-error comparison for one pair with small_n <= large_n."""

    small_id: str
    large_id: str
    scaled_small: float
    scaled_large: float
    classification: CoalitionLabel


@dataclass(frozen=True)
class ProportionalityReport:
    method: str
    pairs: tuple[PairJudgment, ...]
    label: CoalitionLabel


@dataclass(frozen=True)
class PlayerRationality:
    player_id: str
    n: float
    coalition_error: float
    local_error: float
    prefers_local: bool


@dataclass(frozen=True)
class RationalityReport:
    method: str
    players: tuple[PlayerRationality, ...]
    individually_rational: bool


def classify_pair(n_i: float, err_i: float, n_j: float, err_j: float) -> CoalitionLabel:
    """Compare n_i * err_i against n_j * err_j (roles: n_i <= n_j)."""
    scaled_i = n_i * err_i
    scaled_j = n_j * err_j
    if close(scaled_i, scaled_j):
        return CoalitionLabel.EXACT
    return CoalitionLabel.SUB if scaled_i < scaled_j else CoalitionLabel.SUPER


def classify_proportionality(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> ProportionalityReport:
    """Classify every pair, smaller player first (ties broken by id)."""
    players = sorted(coalition.players, key=lambda p: (p.n, p.id))
    errs = member_errors(coalition, method, params)
    pairs = [
        PairJudgment(
            small_id=small.id,
            large_id=large.id,
            scaled_small=small.n * errs[small.id],
            scaled_large=large.n * errs[large.id],
            classification=classify_pair(
                small.n, errs[small.id], large.n, errs[large.id]
            ),
        )
        for small, large in itertools.combinations(players, 2)
    ]
    kinds = {p.classification for p in pairs} - {CoalitionLabel.EXACT}
    if not kinds:
        label = CoalitionLabel.EXACT
    elif len(kinds) == 1:
        label = kinds.pop()
    else:
        label = CoalitionLabel.MIXED
    return ProportionalityReport(method=method.value, pairs=tuple(pairs), label=label)


def individually_rational(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> RationalityReport:
    """Weak-preference check of coalition error against local error."""
    errs = member_errors(coalition, method, params)
    local = member_errors(coalition, FederationMethod.LOCAL, params)
    rows: list[PlayerRationality] = []
    for p in coalition.players:
        ce, le = errs[p.id], local[p.id]
        prefers_local = ce > le and not close(ce, le)
        rows.append(PlayerRationality(p.id, p.n, ce, le, prefers_local))
    return RationalityReport(
        method=method.value,
        players=tuple(rows),
        individually_rational=not any(r.prefers_local for r in rows),
    )


def defection_threshold(rest: Coalition, params: PopulationParams) -> float:
    """Least size at which a player joining ``rest`` weakly prefers local
    learning under the weighted average; inf when that never happens."""
    try:
        total = rest.total
        denom = (
            params.sigma_sq * rest.sum_sq / (total * total)
            + params.sigma_sq
            - params.mu_e / total
        )
        if denom <= 0.0:
            return math.inf
        threshold = params.mu_e / denom
        if math.isfinite(threshold):
            return threshold
    except ZeroDivisionError:
        pass
    raise out_of_range("the defection threshold", rest.players, params)


def subproportionality_threshold(
    rest: Coalition, s: str, params: PopulationParams
) -> float:
    """Least joining size at which the pair (s, newcomer) turns
    super-proportional; inf when n_s <= mu_e / (2 sigma_sq)."""
    n_s = rest.player(s).n
    denom = 2.0 * params.sigma_sq - params.mu_e / n_s
    if denom <= 0.0:
        return math.inf
    total = rest.total
    numer = (
        -2.0 * params.sigma_sq * total
        + (params.mu_e / n_s) * total
        + (params.sigma_sq / n_s) * (rest.sum_sq + total * total)
    )
    threshold = numer / denom
    if math.isfinite(threshold):
        return threshold
    raise out_of_range(
        f"the subproportionality threshold against {s!r}", rest.players, params
    )


@dataclass(frozen=True)
class PropstabResult:
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

    Violations are returned as replayable counterexamples.
    """
    counterexamples: list[dict] = []

    def fail(record: dict, kind: str, **fields: object) -> None:
        counterexamples.append({**record, "kind": kind, **fields})

    for index in range(instance_count):
        params, coalition = random_instance(instance_rng(seed, index))
        record = {"index": index, **describe_instance(params, coalition)}
        rationality = individually_rational(
            coalition, FederationMethod.UNIFORM, params
        )
        report = classify_proportionality(
            coalition, FederationMethod.UNIFORM, params
        )
        if rationality.individually_rational and report.label not in (
            CoalitionLabel.SUB,
            CoalitionLabel.EXACT,
        ):
            fail(record, "rational_but_super", label=report.label.value)

        defect = defection_threshold(coalition, params)
        for p in coalition.players:
            violate = subproportionality_threshold(coalition, p.id, params)
            both_finite = math.isfinite(defect) and math.isfinite(violate)
            if math.isinf(violate):
                ordered = True  # anything <= inf
            elif math.isinf(defect):
                ordered = False  # inf > finite: the proof rules this out
            else:
                ordered = defect <= violate or close(defect, violate)
            if not ordered:
                fail(
                    record,
                    "threshold_order",
                    s=p.id,
                    defection=defect,
                    subproportionality=violate,
                )
            if len(coalition) > 1 and both_finite and close(defect, violate):
                fail(record, "equality_without_singleton", s=p.id, threshold=defect)
            singleton = Coalition((p,))
            d1 = defection_threshold(singleton, params)
            v1 = subproportionality_threshold(singleton, p.id, params)
            equal = (math.isinf(d1) and math.isinf(v1)) or (
                math.isfinite(d1) and math.isfinite(v1) and close(d1, v1)
            )
            if not equal:
                fail(
                    record,
                    "singleton_mismatch",
                    s=p.id,
                    defection=d1,
                    subproportionality=v1,
                )
    return PropstabResult(
        instances=instance_count, counterexamples=tuple(counterexamples)
    )
