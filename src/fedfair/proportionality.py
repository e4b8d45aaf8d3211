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
both reduce to mu_e / (2 sigma_sq - mu_e/n_s) when rest = {s}, an identity
that tests/test_exact_reference.py proves exactly, once, not every sweep.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from itertools import repeat
from operator import add, gt, itemgetter, le, lt, mul, not_, sub, truediv
from typing import Iterable, NamedTuple, Sequence

from .errors import Column, Columns, _errors, _one, in_order, range_failure
from .model import Coalition, FederationMethod, PopulationParams, compare
from .sampling import INSTANCE_IDS, describe_instance, instance_groups


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


# A pair's label by compare(n * err of its smaller member, of its larger member).
_LABELS = (CoalitionLabel.EXACT, CoalitionLabel.SUPER, CoalitionLabel.SUB)


def _labels(
    ids: Sequence[str], columns: Columns, errs: Columns
) -> tuple[list[list[CoalitionLabel]], list[CoalitionLabel]]:
    """The proportionality verdicts on each coalition of a batch whose
    members ``ids`` have one column each of sizes ``columns`` and errors
    ``errs``: for every pair of members, in ``combinations`` order, a column
    of the labels it judges with the smaller member first (ties broken by
    id); and each coalition's label."""
    pairs = []
    for i, j in itertools.combinations(range(len(ids)), 2):
        i_first = le if ids[i] < ids[j] else lt
        pairs.append([
            _LABELS[compare(n_i * e_i, n_j * e_j)]
            if i_first(n_i, n_j)
            else _LABELS[compare(n_j * e_j, n_i * e_i)]
            for n_i, e_i, n_j, e_j in zip(columns[i], errs[i], columns[j], errs[j])
        ])
    labels = []
    for row in zip(*pairs) if pairs else [()] * len(columns[0]):
        kinds = set(row) - {CoalitionLabel.EXACT}
        if len(kinds) == 1:
            labels.append(kinds.pop())
        else:
            labels.append(CoalitionLabel.MIXED if kinds else CoalitionLabel.EXACT)
    return pairs, labels


def _rationality(errs: Columns, local: Columns) -> tuple[list[list[bool]], list[bool]]:
    """Whether each member of each coalition of a batch strictly prefers
    its local error (one column per member, from the errors ``errs`` and
    local errors ``local``), and whether each coalition is individually
    rational: nobody does."""
    orders = (map(compare, e, le) for e, le in zip(errs, local))
    prefers = [list(map(gt, order, repeat(0))) for order in orders]
    return prefers, list(map(not_, map(any, zip(*prefers))))


def classify_proportionality(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> ProportionalityReport:
    """Classify every pair, smaller player first (ties broken by id)."""
    e = _one(_errors, coalition, params, method)
    # In (n, id) order each pair of ``combinations`` is (small, large).
    n, ids, e = zip(*sorted(zip(coalition.sizes(), coalition.ids(), e)))
    pairs, (label,) = _labels(ids, [[n_i] for n_i in n], [[e_i] for e_i in e])
    judgments = tuple(
        PairJudgment(ids[s], ids[l], n[s] * e[s], n[l] * e[l], verdict)
        for (s, l), (verdict,) in zip(itertools.combinations(range(len(ids)), 2), pairs)
    )
    return ProportionalityReport(method=method.value, pairs=judgments, label=label)


def individually_rational(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> RationalityReport:
    """Weak-preference check of coalition error against local error."""
    errs = _one(_errors, coalition, params, method)
    local = _one(_errors, coalition, params, FederationMethod.LOCAL)
    prefers, (rational,) = _rationality([[e] for e in errs], [[e] for e in local])
    players = map(PlayerRationality, coalition.ids(), coalition.sizes(), errs, local,
                  [p for p, in prefers])
    return RationalityReport(method.value, tuple(players), rational)


def _quotients(numer: Iterable, denom: Iterable) -> list[float]:
    """numer / denom per instance, inf where denom <= 0 (the event never
    happens)."""
    return [math.inf if d <= 0 else q / d for q, d in zip(numer, denom)]


def _thresholds(columns: Columns, wanted: Sequence[int | None], mu_e: Column,
                sigma_sq: Column, ids: Sequence[str]) -> list[list[float]]:
    """One threshold column per entry of the selector ``wanted``, for a
    batch of rest coalitions whose members ``ids`` have one column of sizes
    each: the defection threshold for None, the subproportionality threshold
    against the member at an index.  T and S of each rest are taken once for
    all of them, under ``in_order``'s float-range rule, which raises for the
    first instance whose exact threshold overflows, as ``range_failure``
    names it; only the thresholds ``wanted`` asks for can raise."""

    def evaluate(mu_e: Column, sigma_sq: Column, *columns: Column) -> list[list]:
        squares = [list(map(mul, n, n)) for n in columns]
        total, sum_sq = list(map(sum, zip(*columns))), list(map(sum, zip(*squares)))
        square = list(map(mul, total, total))
        out = []
        for s in wanted:
            if s is None:
                spread = map(truediv, map(mul, sigma_sq, sum_sq), square)
                denom = map(sub, map(add, spread, sigma_sq), map(truediv, mu_e, total))
                out.append(_quotients(mu_e, denom))
                continue
            noise = list(map(truediv, mu_e, columns[s]))
            own = map(add, map(mul, map(mul, repeat(-2), sigma_sq), total),
                      map(mul, noise, total))
            rest = map(mul, map(truediv, sigma_sq, columns[s]),
                       map(add, sum_sq, square))
            denom = map(sub, map(mul, repeat(2), sigma_sq), noise)
            out.append(_quotients(map(add, own, rest), denom))
        return out

    def name(out: int) -> str:
        s = wanted[out]
        return ("the defection threshold" if s is None
                else f"the subproportionality threshold against {ids[s]!r}")

    return in_order(evaluate, mu_e, sigma_sq, *columns, fail=range_failure(name, ids))


def defection_threshold(rest: Coalition, params: PopulationParams) -> float:
    """Least size at which a player joining ``rest`` weakly prefers local
    learning under the weighted average; inf when that never happens."""
    return _one(_thresholds, rest, params, [None])[0]


def subproportionality_threshold(
    rest: Coalition, s: str, params: PopulationParams
) -> float:
    """Least joining size at which the pair (s, newcomer) turns
    super-proportional; inf when n_s <= mu_e / (2 sigma_sq).
    ``TargetNotInCoalition`` when s is not a member of ``rest``."""
    return _one(_thresholds, rest, params, [rest.index(s)])[0]


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
      equality only in the singleton case rest = {s}, where the two are
      one formula (proven exactly in tests/test_exact_reference.py).

    Only a counterexample builds its instance's players.  Violations are
    returned as replayable counterexamples.
    """
    uniform, local = FederationMethod.UNIFORM, FederationMethod.LOCAL
    counterexamples: list[dict] = []
    # Sweep instances lie in the float band, so no group raises.
    for indices, mu_e, sigma_sq, *columns in instance_groups(instance_count, seed):
        ids = INSTANCE_IDS[: len(columns)]
        # One evaluation of the uniform errors serves both verdicts, and
        # only the rational coalitions need their pairs classified.
        errs = _errors(columns, uniform, mu_e, sigma_sq, ids)
        local_errs = _errors(columns, local, mu_e, sigma_sq, ids)
        rational = [i for i, ok in enumerate(_rationality(errs, local_errs)[1]) if ok]
        n_r, e_r = ([[c[i] for i in rational] for c in cs] for cs in (columns, errs))
        # (instance, fields) of each failed check, each instance's in check order
        failed = [(i, {"kind": "rational_but_super", "label": label.value})
                  for i, label in zip(rational, _labels(ids, n_r, e_r)[1])
                  if label not in (CoalitionLabel.SUB, CoalitionLabel.EXACT)]
        wanted = [None, *range(len(ids))]
        defect, *violates = _thresholds(columns, wanted, mu_e, sigma_sq, ids)
        for pid, violate in zip(ids, violates):
            for i, (d, v) in enumerate(zip(defect, violate)):
                order = compare(d, v)
                if order > 0:
                    failed.append((i, {"kind": "threshold_order", "s": pid,
                                       "defection": d, "subproportionality": v}))
                if math.isfinite(d) and order == 0:  # no sweep coalition is a singleton
                    failed.append((i, {"kind": "equality_without_singleton", "s": pid,
                                       "threshold": d}))
        for i, check in failed:
            params = PopulationParams(mu_e[i], sigma_sq[i])
            coalition = Coalition.from_sizes([n[i] for n in columns])
            described = describe_instance(params, coalition)
            counterexamples.append({"index": indices[i], **described, **check})
    # Groups follow player counts; records follow the instance indices.
    counterexamples.sort(key=itemgetter("index"))
    return PropstabResult(
        instances=instance_count, counterexamples=tuple(counterexamples)
    )
