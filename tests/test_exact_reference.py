"""The closed forms against an exact rational evaluation at realistic ranges.

Every float is a rational number, so ``fractions.Fraction`` evaluates the
local, uniform and fine-grained errors of a drawn instance with no
rounding at all.  The exact fine-grained error is taken from the general
weighted-error formula at the exact optimal weights, not from the
kernel's shortcut, so the two share no arithmetic.

Draws are log-uniform: 1 to 6 players with n on [1e-3, 1e12], and mu_e and
sigma_sq on [1e-12, 1e12], with sigma_sq = 0 in 5% of draws.  Every
evaluation must return a finite float within ``ULP_BOUND`` units in the
last place of the exact value.  The whole float range is not covered:
there, products of tiny and huge values round through subnormals and
the kernel can land far from the exact value.

The column functions are also run on ``Fraction`` columns, where they
must be exact: the errors against the same independent rationals, each
threshold against its definition in exact uniform errors, the two
thresholds against each other on a singleton (the identity
``verify_propstab`` relies on), and all of them past the float range.
"""

import math
import random
from fractions import Fraction

import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    expected_error,
)
from fedfair.egalitarian import _bounds
from fedfair.errors import _errors
from fedfair.exceptions import OutOfFloatRange
from fedfair.proportionality import _defection, _subproportionality

DRAWS = 2000
# The worst seen over 10,000 draws, every member a target: 0.5 ulp local,
# 6.6 uniform and 6.0 fine-grained.
ULP_BOUND = 8
SEED = 20_260_418


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw(rng: random.Random) -> tuple[PopulationParams, Coalition]:
    ns = [log_uniform(rng, 1e-3, 1e12) for _ in range(rng.randint(1, 6))]
    mu_e = log_uniform(rng, 1e-12, 1e12)
    sigma_sq = 0.0 if rng.random() < 0.05 else log_uniform(rng, 1e-12, 1e12)
    coalition = Coalition.from_sizes(ns)
    return PopulationParams(mu_e, sigma_sq), coalition


def exact_error(method, params, coalition, j):
    """Member j's error in exact rationals, from its weights v:
    mu_e sum_i v_i^2 / n_i + sigma_sq (sum_{i!=j} v_i^2 + (sum_{i!=j} v_i)^2)."""
    mu_e, sigma_sq = Fraction(params.mu_e), Fraction(params.sigma_sq)
    ns = [Fraction(n) for n in coalition.sizes()]
    if method is FederationMethod.LOCAL:
        v = [Fraction(int(i == j)) for i in range(len(ns))]
    elif method is FederationMethod.UNIFORM:
        v = [n / sum(ns) for n in ns]
    else:
        # The unit-sum optimum (Donahue and Kleinberg): with
        # V_i = sigma_sq + mu_e / n_i and S = sum_{i != j} 1/V_i,
        # v_j = (1 + sigma_sq S) / (1 + V_j S) and, for k != j,
        # v_k = (1/V_k) (V_j - sigma_sq) / (1 + V_j S).
        big_v = [sigma_sq + mu_e / n for n in ns]
        s = sum(1 / x for i, x in enumerate(big_v) if i != j)
        denom = 1 + big_v[j] * s
        v = [
            (1 + sigma_sq * s) / denom if i == j else (big_v[j] - sigma_sq) / (x * denom)
            for i, x in enumerate(big_v)
        ]
    assert sum(v) == 1
    noise = sum(w * w / n for w, n in zip(v, ns))
    off = [w for i, w in enumerate(v) if i != j]
    return mu_e * noise + sigma_sq * (sum(w * w for w in off) + sum(off) ** 2)


def ulps(value: float, exact: Fraction) -> Fraction:
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("method", list(FederationMethod), ids=lambda m: m.value)
def test_closed_forms_are_near_exact_at_realistic_ranges(method):
    rng = random.Random(f"{SEED}-{method.value}")
    for _ in range(DRAWS):
        params, coalition = draw(rng)
        ids = coalition.ids()
        j = rng.randrange(len(ids))
        value = expected_error(coalition, ids[j], method, params)
        exact = exact_error(method, params, coalition, j)
        distance = ulps(value, exact)
        assert math.isfinite(value) and distance <= ULP_BOUND, (
            params,
            coalition,
            ids[j],
            value,
            float(exact),
            float(distance),
        )


@pytest.mark.parametrize("method", list(FederationMethod), ids=lambda m: m.value)
def test_kernel_is_exact_on_fraction_columns(method):
    """The same column kernel, given ``Fraction`` columns, returns each
    member's exact error as a ``Fraction``: no float enters anywhere, also
    for a lone member, whose leave-one-out sums are the kernel's zeros."""
    rng = random.Random(f"{SEED}-exact-{method.value}")
    for _ in range(DRAWS):
        params, coalition = draw(rng)
        columns = [[Fraction(n)] for n in coalition.sizes()]
        mu_e, sigma_sq = ([Fraction(v)] for v in params)
        errors = _errors(columns, method, mu_e, sigma_sq, coalition.ids())
        for j, (e,) in enumerate(errors):
            exact = exact_error(method, params, coalition, j)
            assert type(e) is Fraction and e == exact, (params, coalition, j)


UNIFORM = FederationMethod.UNIFORM
THRESHOLD_DRAWS = 2000


def rational(rng: random.Random, top: int, below: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, below))


def rational_rest(rng: random.Random) -> tuple[list[Fraction], Fraction, Fraction]:
    """1 to 5 rational sizes on [1/4, 200], mu_e on [1/20, 500] and
    sigma_sq on [1/20, 100]: over 90% of the thresholds come out finite."""
    sizes = [rational(rng, 200, 4) for _ in range(rng.randint(1, 5))]
    return sizes, rational(rng, 500, 20), rational(rng, 100, 20)


def joined(sizes, n_l, mu_e, sigma_sq) -> tuple[PopulationParams, Coalition]:
    """``rest`` (ids r0, r1, ...) with a newcomer x of size ``n_l``, which
    sorts last, in exact rationals."""
    players = [Player(f"r{i}", n) for i, n in enumerate(sizes)] + [Player("x", n_l)]
    return PopulationParams(mu_e, sigma_sq), Coalition(players)


def test_newcomer_meets_its_local_error_at_the_defection_threshold():
    """At n_l = ``_defection`` of ``rest``, the newcomer's exact uniform
    error equals its local error mu_e / n_l: the threshold is where it
    starts weakly preferring local learning."""
    rng = random.Random(f"{SEED}-defection")
    held = 0
    for _ in range(THRESHOLD_DRAWS):
        sizes, mu_e, sigma_sq = rational_rest(rng)
        total, sum_sq = sum(sizes), sum(n * n for n in sizes)
        (n_l,) = _defection([total], [sum_sq], [mu_e], [sigma_sq])
        if n_l == math.inf:
            continue
        params, coalition = joined(sizes, n_l, mu_e, sigma_sq)
        assert exact_error(UNIFORM, params, coalition, len(sizes)) == mu_e / n_l
        held += 1
    assert held > THRESHOLD_DRAWS // 10


def test_pair_is_exactly_proportional_at_the_subproportionality_threshold():
    """At n_l = ``_subproportionality`` of ``rest`` against s, n_s * err_s
    equals n_l * err_l exactly in the joined coalition.  A finite threshold
    is positive: its numerator is at least mu_e T / n_s, since
    n_s + T^2/n_s >= 2T."""
    rng = random.Random(f"{SEED}-subproportionality")
    held = 0
    for _ in range(THRESHOLD_DRAWS):
        sizes, mu_e, sigma_sq = rational_rest(rng)
        s = rng.randrange(len(sizes))
        total, sum_sq = sum(sizes), sum(n * n for n in sizes)
        (n_l,) = _subproportionality(
            [total], [sum_sq], f"r{s}", [sizes[s]], [mu_e], [sigma_sq]
        )
        if n_l == math.inf:
            continue
        params, coalition = joined(sizes, n_l, mu_e, sigma_sq)
        err_s = exact_error(UNIFORM, params, coalition, s)
        err_l = exact_error(UNIFORM, params, coalition, len(sizes))
        assert sizes[s] * err_s == n_l * err_l
        held += 1
    assert held > THRESHOLD_DRAWS // 10


def test_singleton_thresholds_are_one_formula():
    """For rest = {s}, T = n_s and S = n_s^2, so both thresholds are
    mu_e / (2 sigma_sq - mu_e/n_s), and inf where n_s <= mu_e / (2 sigma_sq):

        defection denominator:      sigma_sq n_s^2/n_s^2 + sigma_sq - mu_e/n_s
        subproportionality numer:   -2 sigma_sq n_s + mu_e + (sigma_sq/n_s) 2 n_s^2

    The first is 2 sigma_sq - mu_e/n_s, the second's denominator; the
    second is mu_e, the first's numerator.  ``verify_propstab`` relies on
    this and evaluates no singleton.  Every tenth draw puts n_s exactly
    on mu_e / (2 sigma_sq), where both denominators are 0.
    """
    rng = random.Random(f"{SEED}-singleton")
    n_s, mu_e, sigma_sq = [], [], []
    for draw_index in range(3 * THRESHOLD_DRAWS):
        mu, sigma = rational(rng, 500, 20), rational(rng, 100, 20)
        n_s.append(mu / (2 * sigma) if draw_index % 10 == 0 else rational(rng, 200, 4))
        mu_e.append(mu)
        sigma_sq.append(sigma)
    squares = [n * n for n in n_s]
    defect = _defection(n_s, squares, mu_e, sigma_sq)
    violate = _subproportionality(n_s, squares, "s", n_s, mu_e, sigma_sq)
    assert defect == violate
    denoms = [2 * sigma - mu / n for n, mu, sigma in zip(n_s, mu_e, sigma_sq)]
    assert defect == [
        mu / d if d > 0 else math.inf for mu, d in zip(mu_e, denoms)
    ]
    finite = sum(type(d) is Fraction for d in defect)
    assert min(finite, len(defect) - finite) > len(defect) // 10


# Past the float range: math.isfinite of this raises OverflowError.
HUGE = Fraction(10**400)


@pytest.mark.parametrize(
    "method, want",
    [
        (FederationMethod.LOCAL, (Fraction(5, 3), Fraction(1, 3))),
        (FederationMethod.UNIFORM, (Fraction(5, 3), Fraction(1, 3))),
        (FederationMethod.FINE_GRAINED, (Fraction(35, 36), Fraction(11, 36))),
    ],
    ids=["local", "uniform", "fine_grained"],
)
def test_kernel_is_exact_past_the_float_range(method, want):
    """Errors are linear in (mu_e, sigma_sq): the (6, 30) errors at
    mu_e = 10, sigma_sq = 1, each times 10**400.  Float inputs whose errors
    overflow still raise ``OutOfFloatRange`` (tests/test_errors.py)."""
    columns = [[Fraction(6)], [Fraction(30)]]
    errors = _errors(columns, method, [10 * HUGE], [HUGE], ("s", "l"))
    assert errors == [[w * HUGE] for w in want]
    assert {type(e) for e, in errors} == {Fraction}


def test_thresholds_and_bounds_are_exact_past_the_float_range():
    """rest = (6, 6) at mu_e = 10, sigma_sq = 1 has thresholds 15 and 96
    against either member; sizes and mu_e scaled by 10**400 scale both.
    c = n_max sigma_sq / mu_e is linear in n_max."""
    total, sum_sq, n_s = [12 * HUGE], [72 * HUGE * HUGE], [6 * HUGE]
    one = [Fraction(1)]
    assert _defection(total, sum_sq, [10 * HUGE], one) == [15 * HUGE]
    violate = _subproportionality(total, sum_sq, "a", n_s, [10 * HUGE], one)
    assert violate == [96 * HUGE]
    assert _bounds([HUGE], [Fraction(10)], one) == ([HUGE / 10], [HUGE / 5 + 1])


def test_failing_exact_batch_raises_out_of_float_range():
    """A failing batch names mu_e and sigma_sq as given.  Wrapping them in
    ``PopulationParams``, whose check calls ``math.isfinite``, turned this
    into an ``OverflowError``."""
    with pytest.raises(OutOfFloatRange, match="a local error .* mu_e=Fraction"):
        _errors([[Fraction(0)]], FederationMethod.LOCAL, [HUGE], [Fraction(1)], "a")
