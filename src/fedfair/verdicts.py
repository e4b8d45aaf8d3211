"""Column verdicts: what the closed-form commands judge a coalition by.

Each function takes a batch of coalitions as columns, one per member, and
returns a column of verdicts: the worst pairwise error ratio and its pair,
the c and 2c+1 columns and the 2c+1 verdict, the audit that combines them,
each pair's proportionality label and the coalition's, individual
rationality, and the defection and subproportionality thresholds.
``_ratio`` divides one pair under the float-range rule.  ``egalitarian``
and ``proportionality`` build their audits and sweeps on these;
``audit``, ``reproduce`` and ``scan`` read them directly, so they load
neither of those modules nor the instance stream.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import combinations, repeat
from operator import add, gt, le, lt, mul, not_, sub, truediv
from typing import Iterable, NamedTuple, Sequence

from .errors import Column, Columns, _total, in_order, range_failure
from .exceptions import OutOfFloatRange, UndefinedBound, ZeroDenominator
from .model import FederationMethod, compare


def _ratio(err_i: float, err_j: float, i: str, j: str) -> float:
    """err_i / err_j, errors (or sizes) named i and j, under the float-range
    rule: correctly rounded as it is, so only an overflow is refused."""
    if err_j == 0.0:
        raise ZeroDenominator(f"player {j!r} has zero error")
    ratio = err_i / err_j
    if math.isinf(ratio):
        raise OutOfFloatRange(f"the ratio {i}/{j}", **{i: err_i, j: err_j})
    return ratio


def _worst_pairs(ids: Sequence[str], rows: list) -> list[tuple[str, str]]:
    """Per row of errors of the members ``ids``, the first member with the
    largest and the first with the smallest (the second where all tie)."""
    tie = min(1, len(ids) - 1)
    return [(ids[r.index(top)], ids[r.index(bottom) if bottom != top else tie])
            for r, top, bottom in zip(rows, map(max, rows), map(min, rows))]


def _worst_ratios(ids: Sequence[str], rows: list, undefined: tuple = ()) -> list[float]:
    """Per row of errors of the members ``ids``, the largest over the smallest.
    With a zero smallest error or an overflowing quotient, every row is judged
    by ``_ratio`` on its ``_worst_pairs``: NaN where that raises ``undefined``,
    1.0 for a lone member."""
    tops, bottoms = list(map(max, rows)), list(map(min, rows))
    if 0.0 not in bottoms:
        ratios = list(map(truediv, tops, bottoms))
        if math.inf not in ratios:
            return ratios
    ratios = []
    for top, bottom, (hi, lo) in zip(tops, bottoms, _worst_pairs(ids, rows)):
        try:
            ratios.append(_ratio(top, bottom, hi, lo) if hi != lo else 1.0)
        except undefined:
            ratios.append(math.nan)
    return ratios


def _bounds(n_max: Column, mu_e: Column, sigma_sq: Column) -> tuple[list, list]:
    """The c = n_max * sigma_sq / mu_e and 2c + 1 columns of a batch, defined
    only for mu_e > 0 and sigma_sq > 0, under ``in_order``'s float-range
    rule; a failing batch raises as ``in_order`` does."""

    def evaluate(n_max: Column, mu_e: Column, sigma_sq: Column) -> tuple[list, list]:
        if min(mu_e) <= 0 or min(sigma_sq) <= 0:
            raise UndefinedBound("the 2c+1 bound needs mu_e > 0 and sigma_sq > 0")
        c_values = list(map(truediv, map(mul, n_max, sigma_sq), mu_e))
        return c_values, [2 * c + 1 for c in c_values]

    def fail(_: int, n_max: float, mu_e: float, sigma_sq: float) -> OutOfFloatRange:
        what = "the 2c+1 bound"
        return OutOfFloatRange(what, mu_e=mu_e, sigma_sq=sigma_sq, n_max=n_max)

    return in_order(evaluate, n_max, mu_e, sigma_sq, fail=fail)


def _exceeds(ratios: Column, bounds: Column) -> list[bool]:
    """Whether each worst ratio exceeds its 2c+1 bound: the one 2c+1 verdict."""
    return list(map(gt, map(compare, ratios, bounds), repeat(0)))


class FairnessAudit(NamedTuple):
    """Worst pairwise ratio of a coalition against its 2c+1 bound."""

    method: str
    max_ratio: float
    worst_pair: tuple[str, str]
    c_value: float
    bound: float
    satisfied: bool


def _audits(
    ids: Sequence[str],
    errs: Columns,
    method: FederationMethod,
    bounds: tuple[list, list],
    undefined: tuple[type[Exception], ...] = (),
) -> list[FairnessAudit | None]:
    """``audit_egalitarian`` of a batch, one column of errors ``errs`` per member
    ``ids`` under ``method``: ``_worst_ratios`` and ``_worst_pairs`` against the
    ``_bounds`` columns ``bounds``, evaluated by the caller (``audit_egalitarian``
    before the errors, the CLI after them); None where a ratio raises ``undefined``."""
    rows, name = list(zip(*errs)), method.value
    ratios, (c_values, bound_values) = _worst_ratios(ids, rows, undefined), bounds
    judged = zip(ratios, _worst_pairs(ids, rows), c_values, bound_values,
                 _exceeds(ratios, bound_values))
    return [
        None if math.isnan(r) else FairnessAudit(name, r, pair, c, b, not over)
        for r, pair, c, b, over in judged
    ]


class CoalitionLabel(str, Enum):
    """Proportionality verdict of a pair (sub, exact or super) or of a
    whole coalition, which is mixed when its pairs disagree."""

    SUB = "sub"
    EXACT = "exact"
    SUPER = "super"
    MIXED = "mixed"


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
    for i, j in combinations(range(len(ids)), 2):
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
        total, sum_sq = _total(columns), _total(squares)
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
