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

The closed forms are one column kernel, ``_errors``: a column of sizes per
member plus mu_e and sigma_sq columns go in, each elementwise step maps an
``operator`` function over columns, and every reduction is ``sum()`` over
exactly the member-ordered sequence a per-coalition loop sums, so floats
are bit-identical for any batch, also under Python 3.12+, whose float
``sum`` is compensated.  A per-coalition call is a batch of one; the sweeps
run blocks of 1,024 instances, so their memory does not grow with
``--instances``.  On ``fractions.Fraction`` columns the kernel is exact.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, repeat
from operator import add, lt, mul, truediv
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exceptions import (
    DegenerateParams,
    FedFairError,
    NonUnitSum,
    OutOfFloatRange,
    TargetNotInCoalition,
    WeightDomainMismatch,
)
from .model import Coalition, FederationMethod, Player, PopulationParams, close

# One value per instance of a batch; a batch's sizes are one column per member.
Column = Sequence[float]
Columns = Sequence[Column]


class WeightVector(NamedTuple("WeightVector", [("target", str), ("weights", dict)])):
    """Per-source combination weights for one target player.

    Weights must be finite and sum to one within relative tolerance 1e-9;
    individual weights may be negative (the general error formula is defined
    for any unit-sum vector, and optimality tests probe such points).
    ``weights`` is kept as a dict copy, so a weight vector is unhashable.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, target: str, weights: Mapping[str, float]) -> WeightVector:
        weights = dict(weights)
        total = 0.0
        for pid in sorted(weights):
            w = weights[pid]
            if not math.isfinite(w):
                raise NonUnitSum(f"weight for {pid!r} is not finite: {w!r}")
            total += w
        if not close(total, 1.0):
            raise NonUnitSum(f"weights sum to {total!r}, expected 1")
        return super().__new__(cls, target, weights)

    def aligned(self, coalition: Coalition) -> tuple[tuple[Player, float], ...]:
        """(player, weight) pairs in player order; domains must match."""
        if set(self.weights) != set(coalition.ids()):
            raise WeightDomainMismatch(
                f"weights cover {sorted(self.weights)}, "
                f"coalition is {sorted(coalition.ids())}"
            )
        return tuple((p, self.weights[p.id]) for p in coalition.players)


def in_order(evaluate: Callable[..., Any], *columns: Sequence) -> Any:
    """``evaluate(*columns)`` of a batch of independent instances, the rows
    of ``columns``.  On a ``FedFairError`` each instance is evaluated alone,
    in order: the first that fails raises what a loop over them would."""
    try:
        return evaluate(*columns)
    except FedFairError:
        if len(columns[0]) > 1:
            for instance in zip(*columns):
                evaluate(*([value] for value in instance))
        raise


def _finite(values: Iterable) -> Iterator[bool]:
    """Whether each value is finite, as ``math.isfinite``, or a ``Fraction``."""
    return map(lt, map(abs, values), repeat(math.inf))


def _leave_one_out(columns: Columns) -> list[list[float]]:
    """Column j holds every instance's sum_{i != j} columns_i, each summed
    directly in member order (never as the total minus the own term, which
    cancels badly when one value dwarfs the rest); zeros for a lone member."""
    if len(columns) == 1:
        return [[0] * len(columns[0])]
    # The subsets come out leaving out the last member first.
    others = combinations(columns, len(columns) - 1)
    return [list(map(sum, zip(*rest))) for rest in others][::-1]


def out_of_range(
    what: str, ids: Sequence[str], sizes: Sequence[float], mu_e: float, sigma_sq: float
) -> OutOfFloatRange:
    """``OutOfFloatRange`` for ``what``, naming mu_e, sigma_sq and each
    player's n by id."""
    return OutOfFloatRange(what, mu_e=mu_e, sigma_sq=sigma_sq, n=dict(zip(ids, sizes)))


def _fine_grained_terms(
    columns: Columns, mu_e: Column, sigma_sq: Column
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """The columns V_i = sigma_sq + mu_e / n_i, T = sum_i 1/V_i and
    S_j = sum_{i != j} 1/V_i.  ``DegenerateParams`` at mu_e = sigma_sq = 0;
    ``ArithmeticError`` when a V_i underflows to zero or a T overflows."""
    # Both are nonnegative, so a zero sum means both are zero.
    if 0.0 in map(add, mu_e, sigma_sq):
        raise DegenerateParams(
            "mu_e = sigma_sq = 0: every unit-sum weighting is optimal"
        )
    v = [list(map(add, sigma_sq, map(truediv, mu_e, n))) for n in columns]
    inverse = [list(map(truediv, repeat(1), v_i)) for v_i in v]
    total = list(map(sum, zip(*inverse)))
    if not all(_finite(total)):
        raise ArithmeticError
    return v, total, _leave_one_out(inverse)


def _errors(
    columns: Columns,
    method: FederationMethod,
    mu_e: Column,
    sigma_sq: Column,
    ids: Sequence[str],
) -> list[list[float]]:
    """One error column per member under ``method`` for a batch of
    instances: ``columns`` holds one column of sample counts per member,
    ``mu_e`` and ``sigma_sq`` one entry per instance, and ``ids`` only
    name the members in ``OutOfFloatRange``.  With T = sum_i n_i and the
    leave-one-out sums taken over i != j:

        local:        mu_e / n_j
        uniform:      mu_e / T + sigma_sq * (sum n_i^2 + (sum n_i)^2) / T^2
        fine-grained: (mu_e / n_j) / (V_j * T') * (1 + sigma_sq * S_j)

    where V_i = sigma_sq + mu_e / n_i, T' = sum_i 1/V_i and
    S_j = sum_{i != j} 1/V_i.  Raises, as ``in_order`` does, for the first
    instance where an error overflows or a denominator underflows to zero
    or overflows.
    """

    def evaluate(mu_e: Column, sigma_sq: Column, *columns: Column) -> list[list[float]]:
        errors = []
        try:
            if method is FederationMethod.LOCAL:
                errors = [list(map(truediv, mu_e, n)) for n in columns]
            elif method is FederationMethod.UNIFORM:
                total = list(map(sum, zip(*columns)))
                noise = list(map(truediv, mu_e, total))
                square = list(map(mul, total, total))
                off_sq = _leave_one_out([list(map(mul, n, n)) for n in columns])
                for s, sq in zip(_leave_one_out(columns), off_sq):
                    spread = map(mul, sigma_sq, map(add, sq, map(mul, s, s)))
                    errors.append(list(map(add, noise, map(truediv, spread, square))))
            elif method is FederationMethod.FINE_GRAINED:
                v, t_sum, s_off = _fine_grained_terms(columns, mu_e, sigma_sq)
                for n, v_j, s in zip(columns, v, s_off):
                    scale = list(map(mul, v_j, t_sum))
                    if not all(_finite(scale)):  # an infinite V_j * T' gives 0.0
                        raise ArithmeticError
                    own = map(truediv, map(truediv, mu_e, n), scale)
                    pooled = map(add, repeat(1), map(mul, sigma_sq, s))
                    errors.append(list(map(mul, own, pooled)))
            else:
                raise ValueError(f"unknown federation method: {method!r}")
            if all(_finite(chain.from_iterable(errors))):
                return errors
        except ArithmeticError:
            pass
        # Names the first instance: only a batch of one's escapes in_order.
        sizes = [n[0] for n in columns]
        raise out_of_range(f"a {method.value} error", ids, sizes, mu_e[0], sigma_sq[0])

    return in_order(evaluate, mu_e, sigma_sq, *columns)


def _coalition_errors(
    coalition: Coalition, method: FederationMethod, params: PopulationParams
) -> list[float]:
    """Each member's error in id order: ``_errors`` as a batch of one."""
    columns, ids = [[n] for n in coalition.sizes()], coalition.ids()
    return [e for e, in _errors(columns, method, [params.mu_e], [params.sigma_sq], ids)]


def local_error(player: Player, params: PopulationParams) -> float:
    """Expected error when the player uses only its own samples: mu_e / n."""
    return _coalition_errors(Coalition((player,)), FederationMethod.LOCAL, params)[0]


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
    return _coalition_errors(coalition, method, params)[coalition.ids().index(target)]


def weighted_error(
    coalition: Coalition, weights: WeightVector, params: PopulationParams
) -> float:
    """Expected error of the target under arbitrary unit-sum weights."""
    if weights.target not in coalition:
        raise TargetNotInCoalition(f"target {weights.target!r} not in coalition")
    weights_in_order = [w for _, w in weights.aligned(coalition)]
    j = coalition.ids().index(weights.target)
    return _weighted_error(*params, coalition.sizes(), weights_in_order, j)


def _weighted_error(
    mu_e: float, sigma_sq: float, sizes: Sequence[float], weights: list, j: int
) -> float:
    """Member j's error under unit-sum weights v, one per member in id order:
    mu_e sum_i v_i^2 / n_i + sigma_sq (sum' v_i^2 + (sum' v_i)^2), sum' over i != j."""
    others = weights[:j] + weights[j + 1 :]
    noise = sum(w * w / n for n, w in zip(sizes, weights))
    off_sum = sum(others)
    return mu_e * noise + sigma_sq * (sum(w * w for w in others) + off_sum * off_sum)


def fine_grained_weights(
    coalition: Coalition, target: str, params: PopulationParams
) -> WeightVector:
    """Unit-sum weights minimizing the target's expected error.

    With S = sum_{i != j} 1/V_i the optimum is

        v_jj = (1 + sigma_sq * S) / (1 + V_j * S)
        v_jk = (1/V_k) * (V_j - sigma_sq) / (1 + V_j * S)

    All weights are nonnegative because V_j - sigma_sq = mu_e / n_j >= 0.
    Raises ``OutOfFloatRange`` where 1 + V_j * S overflows (every weight
    would round to 0) or rounding leaves a weight that is not a finite
    nonnegative float.
    """
    if target not in coalition:
        raise TargetNotInCoalition(f"target {target!r} not in coalition")
    ids, columns = coalition.ids(), [[n] for n in coalition.sizes()]
    j, out = ids.index(target), {}
    try:
        v, _, s_off = _fine_grained_terms(columns, [params.mu_e], [params.sigma_sq])
        s = s_off[j][0]
        denom = 1.0 + v[j][0] * s
        if not math.isfinite(denom):
            raise ArithmeticError
        for pid, (v_i,) in zip(ids, v):
            if pid == target:
                out[pid] = (1.0 + params.sigma_sq * s) / denom
            else:
                out[pid] = (params.mu_e / columns[j][0]) / (v_i * denom)
            if not (math.isfinite(out[pid]) and out[pid] >= 0.0):
                raise ArithmeticError
    except ArithmeticError:
        sizes = coalition.sizes()
        raise out_of_range("a fine_grained error", ids, sizes, *params) from None
    return WeightVector(target=target, weights=out)
