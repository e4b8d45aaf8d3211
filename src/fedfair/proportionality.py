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

The column verdicts this module shares with the CLI live in ``verdicts``:
the pair and coalition labels, individual rationality and both thresholds.
The per-coalition reports and the randomized sweep stay here.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import NamedTuple

from .errors import _errors, _one
from .model import (Coalition, FederationMethod, PopulationParams, check_integer, compare,
                    describe_instance)
from .verdicts import CoalitionLabel, _labels, _rationality, _thresholds


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
    instance_count = check_integer("instance count", instance_count, 1)  # stored as int
    # Imported here so that the per-coalition reports load no instance stream.
    from .sampling import INSTANCE_IDS, instance_groups

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
