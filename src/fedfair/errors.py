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
``operator`` function over columns, and every sum over members is
``_total``, one left fold in member order.  So the floats depend on the
inputs alone: they are bit-identical for any batch and on every Python,
where the built-in ``sum()`` would compensate its rounding on 3.12 and
later but not before.  The closed forms' column functions take
``(columns, *selectors, mu_e, sigma_sq, ids)``, and a per-coalition call
is a batch of one through ``_one``; the sweeps run blocks of 1,024
instances, so their memory does not grow with ``--instances``.  On
``fractions.Fraction`` columns the kernel is exact, and every column
function runs under ``in_order``'s float-range rule.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add, mul, truediv
from typing import Any, Callable, Mapping, Sequence

from .exceptions import (
    DegenerateParams,
    NonUnitSum,
    OutOfFloatRange,
    WeightDomainMismatch,
)
from .model import (FLOAT_MAX, Coalition, FederationMethod, Player, PopulationParams,
                    compare)

# One value per instance of a batch; a batch's sizes are one column per member.
Column = Sequence[float]
Columns = Sequence[Column]
# The band of in_order's float-range rule: magnitudes in [2^-128, 2^128].
BAND_LOW, BAND_HIGH = 2.0**-128, 2.0**128


def in_order(evaluate: Callable[..., Any], *columns: Sequence, fail: Callable) -> Any:
    """``evaluate(*columns)``, a column function (it returns output columns)
    of a batch of independent instances, the rows of ``columns``, under the
    one float-range rule.  An instance whose nonzero float or int inputs
    all have magnitudes in [2^-B, 2^B], B = 128, runs on its floats,
    unguarded.  Any other runs through ``_exactly``, which raises
    ``fail(out, *instance)`` for its first output column whose exact value
    overflows.  A batch that is all in the band, or holds a ``Fraction`` or
    complex input, runs once as given; any other runs instance by instance,
    in order, so it raises what the first failing instance raises alone.

    Why B = 128: with k < 2^63 members, mu_e/n_i and V_i lie in [2^-2B,
    2^(2B+1)] and each sum over members widens a bound by k.  The extremes
    are the uniform sigma_sq S/T^2, in [2^-5B/k^2, k^2 2^(5B+1)]; the
    weight denominator V_k (1 + V_j S) < k 2^(6B+3); a fine-grained weight
    or noise term, (mu_e/n_j)/V_j >= 2^-(3B+1) times 1/(V_k T') or 1/T'
    >= 2^-(2B+1)/k; and a threshold q/d, whose positive d is at least an
    ulp of mu_e/T or mu_e/n_s, so q/d < k^2 2^(6B+53).  All lie in
    [2^-766, 2^947], inside the normal floats: nothing in the band
    overflows or turns subnormal, at any coalition size.
    """
    try:
        # With every value at least BAND_LOW > 0, the sum bounds each value;
        # it is cheaper than max().  Its rounding reaches no output: the
        # per-row check runs a batch that is all in the band at once too.
        if BAND_LOW <= min(map(min, columns)) and sum(map(sum, columns)) <= BAND_HIGH:
            return evaluate(*columns)
    except TypeError:  # complex numbers have no order
        return evaluate(*columns)
    rows = list(zip(*columns))
    band = [all(x == 0 or BAND_LOW <= abs(x) <= BAND_HIGH for x in row) for row in rows]
    if all(band) or not all(isinstance(x, (float, int)) for row in rows for x in row):
        return evaluate(*columns)
    parts = [evaluate(*([x] for x in row)) if ok else _exactly(evaluate, row, fail)
             for row, ok in zip(rows, band)]
    return [[value for value, in outputs] for outputs in zip(*parts)]


def _exactly(evaluate: Callable[..., Any], row: Sequence, fail: Callable) -> list:
    """``evaluate`` on one instance, its inputs ``row`` as ``Fraction``s,
    each result rounded once; ``fail(out, *row)`` for the first that
    overflows."""
    from fractions import Fraction  # only an out-of-band input needs it

    rounded = []
    for out, (value,) in enumerate(evaluate(*([Fraction(x)] for x in row))):
        try:
            rounded.append([float(value)])
        except OverflowError:
            raise fail(out, *row) from None
    return rounded


def _total(columns: Columns) -> Column:
    """Every instance's sum over the member columns ``columns``: one left
    fold in member order, the one order in which the closed forms add."""
    return reduce(lambda a, b: list(map(add, a, b)), columns)


def _leave_one_out(columns: Columns, wanted: Sequence[int] | None = None) -> list[Column]:
    """For each member j of ``wanted`` (by default all), every instance's
    sum_{i != j} columns_i, summed directly in member order (never as the
    total minus the own term, which cancels badly when one value dwarfs the
    rest); zeros for a lone member."""
    if len(columns) == 1:
        return [[0] * len(columns[0])]
    wanted = range(len(columns)) if wanted is None else wanted
    return [_total(columns[:j] + columns[j + 1:]) for j in wanted]


def range_failure(what: str | Callable[[int], str],
                  ids: Sequence[str]) -> Callable[..., OutOfFloatRange]:
    """``in_order``'s ``fail`` for the columns mu_e, sigma_sq and one per
    member ``ids`` (later ones unnamed): ``OutOfFloatRange`` for ``what``, or
    ``what(out)`` for output column ``out``, naming mu_e, sigma_sq and each
    player's n by id.  Users: the errors, the oracle weights, ``weighted_error``,
    ``inverse_size_error``, both thresholds and the Monte Carlo sum."""
    return lambda out, mu_e, sigma_sq, *n: OutOfFloatRange(
        what if isinstance(what, str) else what(out),
        mu_e=mu_e, sigma_sq=sigma_sq, n=dict(zip(ids, n)))


def _fine_grained_terms(
    columns: Columns, mu_e: Column, sigma_sq: Column
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """The columns V_i = sigma_sq + mu_e / n_i, T = sum_i 1/V_i and
    S_j = sum_{i != j} 1/V_i.  ``DegenerateParams`` at mu_e = sigma_sq = 0."""
    # Both are nonnegative, so a zero sum means both are zero.
    if 0 in map(add, mu_e, sigma_sq):
        raise DegenerateParams(
            "mu_e = sigma_sq = 0: every unit-sum weighting is optimal"
        )
    v = [list(map(add, sigma_sq, map(truediv, mu_e, n))) for n in columns]
    inverse = [list(map(truediv, repeat(1), v_i)) for v_i in v]
    return v, _total(inverse), _leave_one_out(inverse)


def _errors(columns: Columns, method: FederationMethod, mu_e: Column, sigma_sq: Column,
            ids: Sequence[str]) -> list[list[float]]:
    """One error column per member under ``method`` for a batch of
    instances: ``columns`` holds one column of sample counts per member,
    ``mu_e`` and ``sigma_sq`` one entry per instance, and ``ids`` only
    name the members in ``OutOfFloatRange``.  With T = sum_i n_i and the
    leave-one-out sums taken over i != j:

        local:        mu_e / n_j
        uniform:      mu_e / T + sigma_sq * (sum n_i^2 + (sum n_i)^2) / T^2
        fine-grained: (mu_e / n_j) / (V_j * T') * (1 + sigma_sq * S_j)

    where V_i = sigma_sq + mu_e / n_i, T' = sum_i 1/V_i and
    S_j = sum_{i != j} 1/V_i.  Evaluated under ``in_order``'s float-range
    rule, which raises for the first instance whose exact error overflows.
    """

    if not isinstance(method, FederationMethod):
        raise ValueError(f"unknown federation method: {method!r}")

    def evaluate(mu_e: Column, sigma_sq: Column, *columns: Column) -> list[list[float]]:
        if method is FederationMethod.LOCAL:
            return [list(map(truediv, mu_e, n)) for n in columns]
        errors = []
        if method is FederationMethod.UNIFORM:
            total = _total(columns)
            noise = list(map(truediv, mu_e, total))
            square = list(map(mul, total, total))
            off_sq = _leave_one_out([list(map(mul, n, n)) for n in columns])
            for s, sq in zip(_leave_one_out(columns), off_sq):
                spread = map(mul, sigma_sq, map(add, sq, map(mul, s, s)))
                errors.append(list(map(add, noise, map(truediv, spread, square))))
        else:
            v, t_sum, s_off = _fine_grained_terms(columns, mu_e, sigma_sq)
            for n, v_j, s in zip(columns, v, s_off):
                own = map(truediv, map(truediv, mu_e, n), map(mul, v_j, t_sum))
                pooled = map(add, repeat(1), map(mul, sigma_sq, s))
                errors.append(list(map(mul, own, pooled)))
        return errors

    fail = range_failure(f"a {method.value} error", ids)
    return in_order(evaluate, mu_e, sigma_sq, *columns, fail=fail)


def _one(function: Callable[..., Any], coalition: Coalition, params: PopulationParams,
         *selectors: Any) -> list:
    """``function``, a column function ``(columns, *selectors, mu_e, sigma_sq,
    ids)``, on ``coalition`` as a batch of one: each output column's value."""
    columns, shared = [[n] for n in coalition.sizes()], ([v] for v in params)
    return [value for value, in function(columns, *selectors, *shared, coalition.ids())]


def local_error(player: Player, params: PopulationParams) -> float:
    """Expected error when the player uses only its own samples: mu_e / n."""
    return _one(_errors, Coalition((player,)), params, FederationMethod.LOCAL)[0]


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
    j = coalition.index(target)
    return _one(_errors, coalition, params, method)[j]


def weighted_error(coalition: Coalition, target: str, weights: Mapping[str, float],
                   params: PopulationParams) -> float:
    """Expected error of the target under any weights, one per member by id,
    finite and summing (in id order) to one within relative ``REL_TOL``.  A
    weight may be negative: the formula holds for any unit-sum vector, and
    the optimality tests probe such points.  Only the target's error is checked."""
    j, ids, sizes = coalition.index(target), coalition.ids(), coalition.sizes()
    if set(weights) != set(ids):
        raise WeightDomainMismatch(f"weights cover {sorted(weights)}, "
                                   f"coalition is {sorted(ids)}")
    aligned, total = [weights[pid] for pid in ids], 0.0
    for pid, w in zip(ids, aligned):
        if not abs(w) <= FLOAT_MAX:
            raise NonUnitSum(f"weight for {pid!r} is not finite: {w!r}")
        total += w
    if compare(total, 1.0):
        raise NonUnitSum(f"weights sum to {total!r}, expected 1")
    k = len(ids)

    def evaluate(mu_e: Column, sigma_sq: Column, *values: Column) -> list[list]:
        return _weighted_errors(mu_e, sigma_sq, values[:k], values[k:], [j])

    values = (*params, *sizes, *aligned)
    fail = range_failure("a weighted error", ids)
    return in_order(evaluate, *([v] for v in values), fail=fail)[0][0]


def _weighted_errors(mu_e: Column, sigma_sq: Column, columns: Columns, weights: Columns,
                     wanted: Sequence[int]) -> list[list]:
    """The error column of each member j at an index of ``wanted`` under the
    unit-sum weight columns v: mu_e sum_i v_i^2 / n_i + sigma_sq (sum' v_i^2
    + (sum' v_i)^2), sum' over i != j, from one noise column for all."""
    squares = [list(map(mul, w, w)) for w in weights]
    noise = _total([list(map(truediv, sq, n)) for sq, n in zip(squares, columns)])
    noise = list(map(mul, mu_e, noise))
    off, off_sq = _leave_one_out(weights, wanted), _leave_one_out(squares, wanted)
    return [list(map(add, noise, map(mul, sigma_sq, map(add, sq, map(mul, s, s)))))
            for s, sq in zip(off, off_sq)]


def _weights(columns: Columns, method: FederationMethod, wanted: Sequence[int],
             mu_e: Column, sigma_sq: Column, ids: Sequence[str]) -> list[list[float]]:
    """The weights under ``method`` of each member at an index of ``wanted``,
    a column per member for each in turn, for a batch shaped as ``_errors``'s:
    local 1 for the target, uniform n_i / T, fine-grained those of
    ``fine_grained_weights``, from terms taken once for all targets."""

    def evaluate(mu_e: Column, sigma_sq: Column, *columns: Column) -> list[list]:
        if method is FederationMethod.LOCAL:
            return [[int(i == j)] * len(mu_e) for j in wanted for i in range(len(columns))]
        if method is FederationMethod.UNIFORM:
            total = _total(columns)
            return [list(map(truediv, n, total)) for n in columns] * len(wanted)
        v, _, s_off = _fine_grained_terms(columns, mu_e, sigma_sq)
        weights = []
        for j in wanted:
            denom = list(map(add, repeat(1), map(mul, v[j], s_off[j])))
            noise = list(map(truediv, mu_e, columns[j]))
            own = map(add, repeat(1), map(mul, sigma_sq, s_off[j]))
            weights += [list(map(truediv, own, denom)) if i == j
                        else list(map(truediv, noise, map(mul, v_i, denom)))
                        for i, v_i in enumerate(v)]
        return weights

    fail = range_failure(f"a {method.value} error", ids)
    return in_order(evaluate, mu_e, sigma_sq, *columns, fail=fail)


def fine_grained_weights(
    coalition: Coalition, target: str, params: PopulationParams
) -> dict[str, float]:
    """Unit-sum weights minimizing the target's expected error, by member
    id in id order.

    With S = sum_{i != j} 1/V_i the optimum is

        v_jj = (1 + sigma_sq * S) / (1 + V_j * S)
        v_jk = (1/V_k) * (V_j - sigma_sq) / (1 + V_j * S)

    All weights are nonnegative because V_j - sigma_sq = mu_e / n_j >= 0.
    """
    j, method = coalition.index(target), FederationMethod.FINE_GRAINED
    return dict(zip(coalition.ids(), _one(_weights, coalition, params, method, [j])))
