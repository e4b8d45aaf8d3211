"""Closed-form expected mean-squared errors for each federation method.

Setting: player j owns n_j samples with noise variance averaging ``mu_e``,
and true means are spread with variance ``sigma_sq``.  Estimates are convex
combinations of the coalition's local sample means.  For combination
weights v_i (unit sum, target j) the expected squared error is

    mu_e * sum_i v_i^2 / n_i
      + sigma_sq * (sum_{i != j} v_i^2 + (sum_{i != j} v_i)^2)

Three weightings matter:

* local:        v_j = 1, everything else 0      ->  mu_e / n_j
* uniform:      v_i = n_i / T with T = sum n_i  ->  the pooled-average error
* fine-grained: the unit-sum weights minimizing player j's error, with the
  closed-form optimum expressed through V_i = sigma_sq + mu_e / n_i and
  T = sum_i 1 / V_i.

One kernel evaluates these forms for every member of a coalition at once;
the per-target functions return its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .exceptions import (
    DegenerateParams,
    NonUnitSum,
    OutOfFloatRange,
    TargetNotInCoalition,
    WeightDomainMismatch,
)
from .model import Coalition, FederationMethod, Player, PopulationParams, REL_TOL


@dataclass(frozen=True)
class WeightVector:
    """Per-source combination weights for one target player.

    Weights must be finite and sum to one within relative tolerance 1e-9;
    individual weights may be negative (the general error formula is defined
    for any unit-sum vector, and optimality tests probe such points).
    """

    target: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        total = 0.0
        for pid in sorted(self.weights):
            w = self.weights[pid]
            if not math.isfinite(w):
                raise NonUnitSum(f"weight for {pid!r} is not finite: {w!r}")
            total += w
        if not math.isclose(total, 1.0, rel_tol=REL_TOL, abs_tol=0.0):
            raise NonUnitSum(f"weights sum to {total!r}, expected 1")

    def aligned(self, coalition: Coalition) -> tuple[tuple[Player, float], ...]:
        """(player, weight) pairs in player order; domains must match."""
        if set(self.weights) != set(coalition.ids()):
            raise WeightDomainMismatch(
                f"weights cover {sorted(self.weights)}, "
                f"coalition is {sorted(coalition.ids())}"
            )
        return tuple((p, self.weights[p.id]) for p in coalition.players)


def _leave_one_out(values: Sequence[float]) -> list[float]:
    """sum_{i != j} values_i for every j, each summed directly in order
    (never as the total minus the own term, which cancels badly when one
    value dwarfs the rest)."""
    return [sum(v for i, v in enumerate(values) if i != j) for j in range(len(values))]


def out_of_range(
    what: str, players: Sequence[Player], params: PopulationParams
) -> OutOfFloatRange:
    """``OutOfFloatRange`` for ``what``, naming mu_e, sigma_sq and each
    player's n by id."""
    return OutOfFloatRange(
        what,
        mu_e=params.mu_e,
        sigma_sq=params.sigma_sq,
        n={p.id: p.n for p in players},
    )


def _fine_grained_terms(
    players: Sequence[Player], params: PopulationParams
) -> tuple[list[float], list[float]]:
    """V_i = sigma_sq + mu_e / n_i and, for every j, S_j = sum_{i != j} 1/V_i.

    Raises ``OutOfFloatRange`` when some V_i underflows to zero or the sum
    of the 1/V_i overflows.
    """
    if params.mu_e == 0.0 and params.sigma_sq == 0.0:
        raise DegenerateParams(
            "mu_e = sigma_sq = 0: every unit-sum weighting is optimal"
        )
    v = [params.sigma_sq + params.mu_e / p.n for p in players]
    # A zero V_i is tested before dividing: 1.0 / 0.0 raises, not inf.
    if 0.0 not in v:
        inverse = [1.0 / v_i for v_i in v]
        if math.isfinite(sum(inverse)):
            return v, _leave_one_out(inverse)
    raise out_of_range("a fine_grained error", players, params)


def _errors(
    players: Sequence[Player], method: FederationMethod, params: PopulationParams
) -> list[float]:
    """Every member's expected error under ``method``.

    The result is in the order of ``players``.  With T = sum_i n_i and the
    leave-one-out sums taken over i != j:

        local:        mu_e / n_j
        uniform:      mu_e / T + sigma_sq * (sum n_i^2 + (sum n_i)^2) / T^2
        fine-grained: (mu_e / n_j) / (V_j * T') * (1 + sigma_sq * S_j)

    where V_i = sigma_sq + mu_e / n_i, T' = sum_i 1/V_i and
    S_j = sum_{i != j} 1/V_i.  Raises ``OutOfFloatRange`` when an error
    overflows or a denominator underflows to zero.
    """
    mu_e, sigma_sq = params.mu_e, params.sigma_sq
    sizes = [p.n for p in players]
    try:
        if method is FederationMethod.LOCAL:
            errors = [mu_e / n for n in sizes]
        elif method is FederationMethod.UNIFORM:
            total = sum(sizes)
            off_sum = _leave_one_out(sizes)
            off_sq = _leave_one_out([n * n for n in sizes])
            errors = [
                mu_e / total + sigma_sq * (sq + s * s) / (total * total)
                for s, sq in zip(off_sum, off_sq)
            ]
        elif method is FederationMethod.FINE_GRAINED:
            v, s_off = _fine_grained_terms(players, params)
            t_sum = sum(1.0 / v_i for v_i in v)
            errors = [
                (mu_e / n) / (v_j * t_sum) * (1.0 + sigma_sq * s)
                for n, v_j, s in zip(sizes, v, s_off)
            ]
        else:
            raise ValueError(f"unknown federation method: {method!r}")
        if all(map(math.isfinite, errors)):
            return errors
    except ZeroDivisionError:
        pass
    raise out_of_range(f"a {method.value} error", players, params)


def member_errors(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> dict[str, float]:
    """Every member's expected error under ``method``, keyed by id, from
    one evaluation of the closed forms."""
    errors = _errors(coalition.players, method, params)
    return dict(zip(coalition.ids(), errors))


def local_error(player: Player, params: PopulationParams) -> float:
    """Expected error when the player uses only its own samples: mu_e / n."""
    return _errors((player,), FederationMethod.LOCAL, params)[0]


def uniform_error(coalition: Coalition, target: str, params: PopulationParams) -> float:
    """Expected error of the target under the sample-count-weighted average.

    With T the coalition's total sample count and the primed sums running
    over the other members:

        mu_e / T + sigma_sq * (sum' n_i^2 + (sum' n_i)^2) / T^2

    Reduces exactly to ``local_error`` on a singleton coalition.
    """
    return expected_error(coalition, target, FederationMethod.UNIFORM, params)


def fine_grained_error(
    coalition: Coalition, target: str, params: PopulationParams
) -> float:
    """Expected error of the target at the optimal fine-grained weights:

        (mu_e / n_j) / (V_j * T) * (1 + sigma_sq * (T - 1/V_j))

    with V_i = sigma_sq + mu_e / n_i and T = sum_i 1/V_i.
    """
    return expected_error(coalition, target, FederationMethod.FINE_GRAINED, params)


def expected_error(
    coalition: Coalition,
    target: str,
    method: FederationMethod,
    params: PopulationParams,
) -> float:
    """The target's closed-form error under the given federation method.

    LOCAL ignores the other coalition members entirely.
    """
    if target not in coalition:
        raise TargetNotInCoalition(f"target {target!r} not in coalition")
    return member_errors(coalition, method, params)[target]


def weighted_error(
    coalition: Coalition, weights: WeightVector, params: PopulationParams
) -> float:
    """Expected error of the target under arbitrary unit-sum weights."""
    if weights.target not in coalition:
        raise TargetNotInCoalition(f"target {weights.target!r} not in coalition")
    pairs = weights.aligned(coalition)
    noise = sum(w * w / p.n for p, w in pairs)
    off_sq = sum(w * w for p, w in pairs if p.id != weights.target)
    off_sum = sum(w for p, w in pairs if p.id != weights.target)
    return params.mu_e * noise + params.sigma_sq * (off_sq + off_sum * off_sum)


def fine_grained_weights(
    coalition: Coalition, target: str, params: PopulationParams
) -> WeightVector:
    """Unit-sum weights minimizing the target's expected error.

    With S = sum_{i != j} 1/V_i the optimum is

        v_jj = (1 + sigma_sq * S) / (1 + V_j * S)
        v_jk = (1/V_k) * (V_j - sigma_sq) / (1 + V_j * S)

    All weights are nonnegative because V_j - sigma_sq = mu_e / n_j >= 0.
    Raises ``OutOfFloatRange`` where rounding leaves a weight that is not
    a finite nonnegative float.
    """
    if target not in coalition:
        raise TargetNotInCoalition(f"target {target!r} not in coalition")
    players = coalition.players
    j = coalition.ids().index(target)
    v, s_off = _fine_grained_terms(players, params)
    s = s_off[j]
    denom = 1.0 + v[j] * s
    out: dict[str, float] = {}
    for p, v_i in zip(players, v):
        if p.id == target:
            out[p.id] = (1.0 + params.sigma_sq * s) / denom
        else:
            out[p.id] = (params.mu_e / players[j].n) / (v_i * denom)
        if not (math.isfinite(out[p.id]) and out[p.id] >= 0.0):
            raise out_of_range("a fine_grained error", players, params)
    return WeightVector(target=target, weights=out)
